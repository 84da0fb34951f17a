"""Deterministic synthetic inputs for scale benchmarks.

:func:`scale_dataset` is a *deterministic* (seeded PCG64, closed
parameters) power-law degree distribution sized by a target edge count,
so a benchmark's input is reproducible bit-for-bit across machines and
sessions without shipping data files.  The repository benchmark
(``perfbench/``) builds its swap workloads from it; its ``swap-spill``
workload measures the out-of-core path
(``python3 perfbench/run.py --workload swap-spill --seed 101
--seconds 20 --trace 0``).
"""

from __future__ import annotations

from repro.datasets.synthetic import sampled_powerlaw
from repro.graph.degree import DegreeDistribution

__all__ = ["scale_dataset"]


def scale_dataset(
    target_edges: int,
    *,
    gamma: float = 2.0,
    seed: int = 97,
) -> DegreeDistribution:
    """Deterministic synthetic power-law distribution sized by edge count.

    Draws a truncated discrete power law (exponent ``gamma``, support
    ``[2, ~sqrt(n)]``) from a fixed PCG64 stream, so the same
    ``(target_edges, gamma, seed)`` triple yields the same distribution
    on every machine.  The realized edge count lands near (not exactly
    on) ``target_edges`` — the draw is i.i.d. and parity-repaired — and
    the result is guaranteed graphical: the hub cap is halved and the
    draw retried until Erdős–Gallai passes (power-law draws under a
    ``sqrt(n)`` cap virtually always pass on the first try).
    """
    if target_edges < 8:
        raise ValueError("target_edges must be >= 8")
    n = max(64, int(target_edges) // 3)
    d_max = max(4, int(round(n ** 0.5)))
    for _ in range(8):
        dist = sampled_powerlaw(n, gamma, d_min=2, d_max=d_max, seed=seed)
        if dist.is_graphical():
            return dist
        d_max = max(4, d_max // 2)  # pragma: no cover - hub-heavy corner
    raise ValueError(  # pragma: no cover - unreachable for sane inputs
        f"could not realize a graphical power law for target_edges={target_edges}"
    )
