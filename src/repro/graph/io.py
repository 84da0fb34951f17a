"""File I/O for edge lists and degree distributions.

Two formats:

- whitespace-separated text (one ``u v`` pair, or one ``degree count``
  pair, per line; ``#`` comments allowed) — the SNAP interchange format
  the paper's datasets ship in;
- compressed ``.npz`` for fast round-trips of large instances.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.graph.degree import DegreeDistribution
from repro.graph.edgelist import EdgeList, EdgeListFormatError

__all__ = [
    "save_edge_list",
    "load_edge_list",
    "parse_edge_list_text",
    "save_degree_distribution",
    "load_degree_distribution",
    "save_metis",
    "load_metis",
]


def _parse_int_table_lines(lines, n_columns: int, what: str, path) -> np.ndarray:
    """Parse whitespace-separated integer rows, tolerantly but loudly.

    Tolerated: ``#`` comment lines (and trailing ``#`` comments), blank
    lines, arbitrary leading/trailing whitespace, CRLF line endings.
    Rejected with a line-numbered :class:`EdgeListFormatError`: wrong
    column counts and non-integer fields — the failures ``np.loadtxt``
    used to surface as context-free ``ValueError`` tracebacks.  ``path``
    labels the error source (a filesystem path, or e.g. ``<edge list>``
    for an in-memory payload).
    """
    rows: list[list[int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != n_columns:
            raise EdgeListFormatError(
                f"expected {n_columns} {what} columns, got {len(tokens)} "
                f"({line!r})",
                path=path,
                line=lineno,
            )
        try:
            rows.append([int(tok) for tok in tokens])
        except ValueError:
            bad = next(t for t in tokens if not _is_int(t))
            raise EdgeListFormatError(
                f"non-integer {what} field {bad!r}", path=path, line=lineno
            ) from None
    return np.asarray(rows, dtype=np.int64).reshape(-1, n_columns)


def _parse_int_table(path, n_columns: int, what: str) -> np.ndarray:
    """File-backed wrapper of :func:`_parse_int_table_lines`.

    ``utf-8-sig`` so a byte-order mark (files saved by Windows editors)
    is consumed instead of corrupting the first token.
    """
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        return _parse_int_table_lines(fh, n_columns, what, path)


def _is_int(token: str) -> bool:
    """Whether ``int(token)`` succeeds."""
    try:
        int(token)
    except ValueError:
        return False
    return True


def _header_n(line: str, path) -> int | None:
    """The ``n=<count>`` token of a ``#`` header line, if present.

    Only a whole whitespace-separated ``n=`` token counts, so neighbours
    such as ``run=7`` or ``gen=cl`` are never read as the vertex count.
    """
    if not line.startswith("#"):
        return None
    for token in line[1:].split():
        if token.startswith("n="):
            value = token[2:]
            try:
                return int(value)
            except ValueError:
                raise EdgeListFormatError(
                    f"malformed header vertex count n={value!r}", path=path, line=1
                ) from None
    return None


def _parse_header_n(path) -> int | None:
    """The ``n=<count>`` header value of a text edge list file, if present."""
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        return _header_n(fh.readline(), path)


def save_edge_list(graph: EdgeList, path) -> None:
    """Write a graph; format chosen by extension (``.npz`` or text)."""
    path = Path(path)
    if path.suffix == ".npz":
        np.savez_compressed(path, u=graph.u, v=graph.v, n=np.int64(graph.n))
    else:
        with path.open("w") as fh:
            fh.write(f"# n={graph.n} m={graph.m}\n")
            np.savetxt(fh, graph.pairs(), fmt="%d")


def load_edge_list(path) -> EdgeList:
    """Read a graph written by :func:`save_edge_list`.

    Text files tolerate comments, blank lines, and CRLF endings;
    malformed lines raise a line-numbered :class:`EdgeListFormatError`.
    """
    path = Path(path)
    if path.suffix == ".npz":
        with np.load(path) as data:
            return EdgeList(data["u"], data["v"], int(data["n"]))
    n = _parse_header_n(path)
    pairs = _parse_int_table(path, 2, "endpoint")
    if pairs.size == 0:
        return EdgeList(np.empty(0, np.int64), np.empty(0, np.int64), n or 0)
    return EdgeList(pairs[:, 0], pairs[:, 1], n)


def parse_edge_list_text(text: str, *, path="<edge list>") -> EdgeList:
    """Parse a text edge list from an in-memory string.

    The exact tolerance and rejection rules of :func:`load_edge_list`
    (comments, blank lines, CRLF; line-numbered
    :class:`EdgeListFormatError` on malformed rows, including a
    ``# n=<count>`` header check), applied to a payload that never
    touched the filesystem, so a malformed payload is rejected with the
    offending line number before it reaches a generator.  A leading
    UTF-8 byte-order mark is consumed (clients that read a BOM-carrying
    file and forward its bytes verbatim), mirroring the file loader's
    ``utf-8-sig`` behaviour; line numbers are unaffected.
    """
    lines = text.lstrip("\ufeff").splitlines()
    n = _header_n(lines[0], path) if lines else None
    pairs = _parse_int_table_lines(lines, 2, "endpoint", path)
    if pairs.size == 0:
        return EdgeList(np.empty(0, np.int64), np.empty(0, np.int64), n or 0)
    return EdgeList(pairs[:, 0], pairs[:, 1], n)


def save_metis(graph: EdgeList, path) -> None:
    """Write a simple graph in METIS format.

    Header line ``n m``, then one line per vertex listing its 1-indexed
    neighbors — the interchange format of the graph-partitioning world
    (and of the HPCGraphAnalysis tools the paper's code targets).
    """
    if not graph.is_simple():
        raise ValueError("METIS format requires a simple graph")
    from repro.graph.csr import CSRAdjacency

    adj = CSRAdjacency(graph)
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for v in range(graph.n):
            fh.write(" ".join(str(int(x) + 1) for x in adj.neighbors(v)) + "\n")


def load_metis(path) -> EdgeList:
    """Read a METIS graph written by :func:`save_metis`."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) < 2 or not (_is_int(header[0]) and _is_int(header[1])):
            raise EdgeListFormatError(
                f"malformed METIS header {' '.join(header)!r}; expected 'n m'",
                path=path,
                line=1,
            )
        n, m = int(header[0]), int(header[1])
        us: list[int] = []
        vs: list[int] = []
        for v, line in enumerate(fh):
            if v >= n:
                break
            for tok in line.split():
                if not _is_int(tok):
                    raise EdgeListFormatError(
                        f"non-integer neighbor {tok!r}", path=path, line=v + 2
                    )
                w = int(tok) - 1
                if w >= v:  # emit each undirected edge once
                    us.append(v)
                    vs.append(w)
    graph = EdgeList(np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64), n)
    if graph.m != m:
        raise ValueError(f"METIS header claims {m} edges, file holds {graph.m}")
    return graph


def save_degree_distribution(dist: DegreeDistribution, path) -> None:
    """Write ``degree count`` text lines."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# classes={dist.n_classes} n={dist.n} m={dist.m}\n")
        np.savetxt(fh, np.stack([dist.degrees, dist.counts], axis=1), fmt="%d")


def load_degree_distribution(path) -> DegreeDistribution:
    """Read a distribution written by :func:`save_degree_distribution`.

    Malformed lines raise a line-numbered :class:`EdgeListFormatError`.
    """
    data = _parse_int_table(path, 2, "degree/count")
    if data.size == 0:
        return DegreeDistribution(np.empty(0, np.int64), np.empty(0, np.int64))
    return DegreeDistribution(data[:, 0], data[:, 1])
