"""Parallel edge skipping (Algorithm IV.2).

*Edge skipping* [4], [21] realizes a Bernoulli graph process — an
independent coin flip of probability ``p`` on every possible edge — in
O(#edges) instead of O(#pairs) work: walk the ordered space of possible
edges in *skip lengths* drawn geometrically,
``l = floor(log(r) / log(1 - p))``, selecting the edge landed on after
each skip.  The skip walk is provably equivalent to flipping every coin.

With class-pair probabilities ``P[i, j]`` (one per pair of degree
classes, from :mod:`repro.core.probabilities` or the Chung-Lu closed
form) there is one sample space per class pair: *rectangular* of size
``N_i × N_j`` when i ≠ j and *triangular* of size ``N_i (N_i − 1) / 2``
when i = j, so a simple graph is guaranteed by construction — each vertex
pair is considered exactly once.  Offsets within a space map to global
vertex ids through the prefix sums ``I`` of the class counts.

Parallelization is over spaces, matching the paper's ``for k = 1 …
|D|×|D| do in parallel``.  The long tail of small spaces goes through a
round-synchronous sampler: every active space advances one skip per
round, which performs the same total work Σ(count_s + 1) as per-space
loops but in O(max_s count_s) numpy rounds.
"""

from __future__ import annotations

import numpy as np

from repro.graph.degree import DegreeDistribution
from repro.graph.edgelist import EdgeList
from repro.parallel.cost_model import CostModel
from repro.parallel.rng import generator_from_seed
from repro.parallel.runtime import ParallelConfig

__all__ = [
    "skip_positions",
    "generate_edges",
    "triangle_unrank",
    "sample_spaces",
    "split_spaces",
]

#: spaces whose expected selection count exceeds this are sampled with the
#: dedicated batched walk instead of the round-synchronous pool
_LARGE_SPACE_THRESHOLD = 2048


def skip_positions(p: float, end: int, rng) -> np.ndarray:
    """Positions selected by a Bernoulli(p) process over ``range(end)``.

    The single-space skip walk: equivalent in distribution to flipping an
    independent coin of probability ``p`` at every position, in
    O(p·end) expected work.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if end < 0:
        raise ValueError(f"end must be >= 0, got {end}")
    if end == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(end, dtype=np.int64)
    rng = generator_from_seed(rng)
    log1mp = np.log1p(-p)
    out: list[np.ndarray] = []
    x = np.int64(-1)  # last selected position
    while True:
        expect = (end - int(x)) * p
        batch = int(expect + 4.0 * np.sqrt(expect + 1.0) + 16.0)
        r = rng.random(batch)
        with np.errstate(divide="ignore", over="ignore"):
            raw = np.log(r) / log1mp
        # Underflow guard: for p near the subnormal range log1p(-p) is a
        # denormal, and a zero draw (r == 0.0, probability 2^-53) sends
        # log(r) to -inf — either way the quotient lands beyond 2^63,
        # where the int64 cast is undefined.  A skip of `end` already
        # leaves the space (x >= -1, so x + end + 1 >= end), so clamping
        # in the float domain is exact for every reachable skip.
        np.minimum(raw, float(end), out=raw)
        skips = np.floor(raw).astype(np.int64)
        pos = x + np.cumsum(skips + 1)
        inside = pos < end
        if inside.all():
            out.append(pos)
            x = pos[-1]
        else:
            # positions are monotone until the walk leaves the space, so
            # the first escape cuts the batch (never index by `inside`
            # directly: a clamped mega-skip can wrap the int64 cumsum
            # back below `end` after the escape)
            out.append(pos[: int(np.argmin(inside))])
            break
    return np.concatenate(out)


def triangle_unrank(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map 0-based positions in a triangular space to offset pairs (u, v).

    The triangular space enumerates all pairs ``v < u`` within one class
    in the order (1,0), (2,0), (2,1), (3,0), … — position ``x`` (1-based)
    maps to ``u = ceil((−1 + sqrt(1 + 8x)) / 2)`` and
    ``v = x − u(u−1)/2 − 1`` (Algorithm IV.2 lines 20–21, with the
    well-known ``u(u−1)/2`` triangular offset).  Float round-off for huge
    positions is repaired with an exact integer correction.
    """
    x = np.asarray(pos, dtype=np.int64) + 1  # 1-based rank
    u = np.ceil((-1.0 + np.sqrt(1.0 + 8.0 * x.astype(np.float64))) / 2.0).astype(np.int64)
    # integer correction: ensure u(u-1)/2 < x <= u(u+1)/2
    over = (u * (u - 1)) // 2 >= x
    u[over] -= 1
    under = (u * (u + 1)) // 2 < x
    u[under] += 1
    v = x - (u * (u - 1)) // 2 - 1
    return u, v


def _space_table(P: np.ndarray, dist: DegreeDistribution) -> dict[str, np.ndarray]:
    """Flatten the upper-triangular class pairs into space descriptors."""
    k = dist.n_classes
    if P.shape != (k, k):
        raise ValueError(f"P must be ({k}, {k}), got {P.shape}")
    if np.any(P < 0) or np.any(P > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    if not np.allclose(P, P.T):
        raise ValueError("P must be symmetric")
    i_cls, j_cls = np.triu_indices(k)
    counts = dist.counts
    end = np.where(
        i_cls == j_cls,
        counts[i_cls] * (counts[i_cls] - 1) // 2,
        counts[i_cls] * counts[j_cls],
    ).astype(np.int64)
    p = P[i_cls, j_cls]
    keep = (p > 0) & (end > 0)
    return {
        "i": i_cls[keep],
        "j": j_cls[keep],
        "p": p[keep],
        "end": end[keep],
        "base": np.zeros(int(keep.sum()), dtype=np.int64),
    }


def split_spaces(table: dict[str, np.ndarray], max_size: int) -> dict[str, np.ndarray]:
    """Split spaces larger than ``max_size`` into equal segments.

    The paper: "Parallelization can be performed over the entirety of X,
    where each thread determines some initial start and end offset pair
    within the space …  such an approach is provably equivalent to a
    general Bernoulli process".  Each segment keeps the parent's class
    pair and probability; ``base`` records its start offset so positions
    map back into the parent space.  Equivalence holds because the coin
    flips are independent across positions.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    n_segments = np.maximum(1, -(-table["end"] // max_size))  # ceil div
    total = int(n_segments.sum())
    out = {
        "i": np.empty(total, dtype=np.int64),
        "j": np.empty(total, dtype=np.int64),
        "p": np.empty(total, dtype=np.float64),
        "end": np.empty(total, dtype=np.int64),
        "base": np.empty(total, dtype=np.int64),
    }
    cursor = 0
    for s in range(len(table["p"])):
        segs = int(n_segments[s])
        end = int(table["end"][s])
        bounds = np.linspace(0, end, segs + 1, dtype=np.int64)
        for g in range(segs):
            out["i"][cursor] = table["i"][s]
            out["j"][cursor] = table["j"][s]
            out["p"][cursor] = table["p"][s]
            out["end"][cursor] = bounds[g + 1] - bounds[g]
            out["base"][cursor] = table["base"][s] + bounds[g]
            cursor += 1
    return out


def _positions_to_edges(
    space_ids: np.ndarray,
    positions: np.ndarray,
    table: dict[str, np.ndarray],
    offsets: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Convert (space, position) selections into global edge endpoints."""
    i_cls = table["i"][space_ids]
    j_cls = table["j"][space_ids]
    base = table.get("base")
    if base is not None:
        positions = positions + base[space_ids]
    diag = i_cls == j_cls
    u_off = np.empty(len(positions), dtype=np.int64)
    v_off = np.empty(len(positions), dtype=np.int64)
    if diag.any():
        tu, tv = triangle_unrank(positions[diag])
        u_off[diag] = tu
        v_off[diag] = tv
    rect = ~diag
    if rect.any():
        nj = counts[j_cls[rect]]
        u_off[rect] = positions[rect] // nj
        v_off[rect] = positions[rect] % nj
    u = offsets[i_cls] + u_off
    v = offsets[j_cls] + v_off
    return u, v


def _sample_spaces(
    table: dict[str, np.ndarray],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sample all spaces; returns (space_ids, positions, total_skips)."""
    p = table["p"]
    end = table["end"]
    n_spaces = len(p)
    if n_spaces == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0

    expected = p * end
    large = (expected > _LARGE_SPACE_THRESHOLD) | (p >= 1.0)
    total_skips = 0

    ids_out: list[np.ndarray] = []
    pos_out: list[np.ndarray] = []

    # Large spaces: dedicated batched walks.
    for s in np.flatnonzero(large):
        pos = skip_positions(float(p[s]), int(end[s]), rng)
        ids_out.append(np.full(len(pos), s, dtype=np.int64))
        pos_out.append(pos)
        total_skips += len(pos) + 1

    # Small spaces: round-synchronous pool — every active space advances
    # one geometric skip per round.
    active = np.flatnonzero(~large)
    if len(active):
        x = np.full(len(active), -1, dtype=np.int64)
        log1mp = np.log1p(-p[active])
        end_f = end[active].astype(np.float64)
        live = np.arange(len(active))
        while len(live):
            r = rng.random(len(live))
            with np.errstate(divide="ignore", over="ignore"):
                raw = np.log(r) / log1mp[live]
            # same underflow guard as skip_positions: a skip of `end`
            # already leaves its space, and clamping before the cast
            # keeps the int64 conversion defined for r == 0.0 and
            # denormal log1p(-p)
            np.minimum(raw, end_f[live], out=raw)
            skips = np.floor(raw).astype(np.int64)
            x[live] = x[live] + skips + 1
            total_skips += len(live)
            inside = x[live] < end[active[live]]
            hit = live[inside]
            ids_out.append(active[hit])
            pos_out.append(x[hit])
            live = hit
    if ids_out:
        return np.concatenate(ids_out), np.concatenate(pos_out), total_skips
    return np.empty(0, np.int64), np.empty(0, np.int64), total_skips


def sample_spaces(
    p: np.ndarray, end: np.ndarray, rng
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run Bernoulli skip walks over many spaces at once.

    Public wrapper around the hybrid large-space / round-synchronous
    sampler, for generators (e.g. the directed pipeline) that define
    their own space geometry.  Returns ``(space_ids, positions,
    total_skips)``.
    """
    p = np.asarray(p, dtype=np.float64)
    end = np.asarray(end, dtype=np.int64)
    if p.shape != end.shape or p.ndim != 1:
        raise ValueError("p and end must be equal-length 1-D arrays")
    if len(p) and (p.min() < 0 or p.max() > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    keep = (p > 0) & (end > 0)
    idx = np.flatnonzero(keep)
    table = {"p": p[keep], "end": end[keep]}
    ids, pos, skips = _sample_spaces(table, generator_from_seed(rng))
    return idx[ids], pos, skips


def generate_edges(
    P: np.ndarray,
    dist: DegreeDistribution,
    config: ParallelConfig | None = None,
    *,
    cost: CostModel | None = None,
    max_space_size: int | None = None,
) -> EdgeList:
    """Algorithm IV.2: realize class-pair probabilities by edge skipping.

    Parameters
    ----------
    P:
        Symmetric ``|D| × |D|`` matrix of pairwise class probabilities.
    dist:
        The target distribution (defines class sizes and the vertex
        labelling).
    cost:
        Optional cost model; receives an ``"edge_generation"`` phase with
        the exact skip-draw work and the paper's O(|D| + log n) depth.
    max_space_size:
        Split sample spaces larger than this into independent segments
        (the paper's within-space parallelization; provably equivalent).
        Defaults to no splitting.

    Returns
    -------
    EdgeList
        A simple graph (each vertex pair considered at most once).
    """
    config = config or ParallelConfig()
    table = _space_table(np.asarray(P, dtype=np.float64), dist)
    if max_space_size is not None:
        table = split_spaces(table, max_space_size)
    ids, pos, total_skips = _sample_spaces(table, config.generator())
    u, v = _positions_to_edges(ids, pos, table, dist.class_offsets(), dist.counts)

    if cost is not None:
        # the span estimate (class scan + per-draw binary search) can
        # exceed the skip count on near-empty samples; cap it at the work
        depth = min(float(total_skips), dist.n_classes + np.log2(max(dist.n, 2)))
        cost.add("edge_generation", work=float(total_skips), depth=float(depth))
    return EdgeList(u, v, dist.n)
