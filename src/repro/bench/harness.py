"""Shared experiment plumbing: timing, method dispatch, table rendering."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.generate import generate_graph
from repro.core.swap import SwapStats, swap_edges
from repro.generators.bernoulli import bernoulli_chung_lu
from repro.generators.chung_lu import chung_lu_om, erased_chung_lu
from repro.generators.havel_hakimi import havel_hakimi_graph
from repro.graph.degree import DegreeDistribution
from repro.graph.edgelist import EdgeList
from repro.parallel.runtime import ParallelConfig

__all__ = [
    "Timer",
    "ExperimentResult",
    "format_table",
    "GENERATORS",
    "generate_with_method",
    "uniform_reference",
    "suite_benchmark",
]


class Timer:
    """Context-manager wall-clock timer."""

    def __enter__(self) -> "Timer":
        self.seconds = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0


@dataclass
class ExperimentResult:
    """A named table of rows produced by one experiment driver."""

    name: str
    description: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    series: dict = field(default_factory=dict)

    def add(self, *values) -> None:
        """Append one row (must match ``columns``)."""
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(list(values))

    def render(self) -> str:
        """Aligned plain-text rendering (what the CLI prints)."""
        return f"== {self.name}: {self.description}\n" + format_table(
            self.columns, self.rows
        )


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or 0 < abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(columns: list[str], rows: list[list]) -> str:
    """Render rows as an aligned monospace table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


#: generator label -> callable(dist, config) -> EdgeList, as compared in
#: Figures 3-5: the O(m) Chung-Lu multigraph, its erased projection, the
#: Bernoulli edge-skip Chung-Lu, and our full pipeline's edge generator.
GENERATORS = {
    "CL O(m)": lambda dist, config: chung_lu_om(dist, config),
    "O(m) simple": lambda dist, config: erased_chung_lu(dist, config),
    "O(n^2) edgeskip": lambda dist, config: bernoulli_chung_lu(dist, config),
    "ours": lambda dist, config: generate_graph(
        dist, swap_iterations=0, config=config
    )[0],
}


def generate_with_method(
    method: str,
    dist: DegreeDistribution,
    config: ParallelConfig,
    *,
    swap_iterations: int = 0,
    stats: SwapStats | None = None,
) -> EdgeList:
    """Run one named generator, optionally followed by swap iterations."""
    if method not in GENERATORS:
        raise KeyError(f"unknown method {method!r}; available: {list(GENERATORS)}")
    graph = GENERATORS[method](dist, config)
    if swap_iterations > 0:
        graph = swap_edges(graph, swap_iterations, config, stats=stats)
    return graph


def uniform_reference(
    dist: DegreeDistribution,
    config: ParallelConfig,
    *,
    swap_iterations: int = 32,
) -> EdgeList:
    """The paper's uniform sample: Havel–Hakimi + many swap iterations."""
    return swap_edges(havel_hakimi_graph(dist), swap_iterations, config)


#: the BENCH_suite.json layout version (bump on breaking payload changes)
SUITE_SCHEMA = 2


def suite_benchmark(
    dists: dict[str, DegreeDistribution],
    *,
    swap_iterations: int = 1,
    threads: int = 8,
    seed: int = 5,
    warmup: bool = True,
) -> ExperimentResult:
    """The tracked performance suite: one cell per dataset.

    Runs the full :func:`~repro.core.generate.generate_graph` pipeline
    on the default vectorized backend for every dataset and records
    per-phase wall seconds and edge throughput.

    ``series["bench"]`` carries the machine-readable payload the CLI
    writes as ``BENCH_suite.json``; the committed copy at the repo root
    is the baseline the perf-regression gate
    (``tests/bench/test_perf_regression.py``) compares against.  Layout
    (``SUITE_SCHEMA`` = 2)::

        {"benchmark": "suite", "schema": 2, "threads": p,
         "swap_iterations": k, "seed": s,
         "entries": [{"dataset", "backend", "edges", "total_seconds",
                      "phase_seconds": {phase: sec}, "edges_per_s"}, ...]}
    """
    entries: list[dict] = []
    result = ExperimentResult(
        name="suite",
        description=(
            f"performance suite: {len(dists)} dataset(s), p={threads}, "
            f"{swap_iterations} swap iteration(s)"
        ),
        columns=["dataset", "backend", "seconds", "edges", "edges_per_s"],
    )
    config = ParallelConfig(threads=threads, seed=seed)
    for dataset, dist in dists.items():
        if warmup:
            generate_graph(
                dist, swap_iterations=min(swap_iterations, 1), config=config
            )
        with Timer() as t:
            _, report = generate_graph(
                dist, swap_iterations=swap_iterations, config=config
            )
        total = t.seconds
        entry = {
            "dataset": dataset,
            "backend": config.backend,
            "edges": int(report.edges_generated),
            "total_seconds": total,
            "phase_seconds": dict(report.phase_seconds),
            "edges_per_s": report.edges_generated / total if total > 0 else 0.0,
        }
        entries.append(entry)
        result.add(
            dataset, config.backend, total, entry["edges"], entry["edges_per_s"]
        )
    result.series["bench"] = {
        "benchmark": "suite",
        "schema": SUITE_SCHEMA,
        "threads": threads,
        "swap_iterations": swap_iterations,
        "seed": seed,
        "entries": entries,
    }
    return result
