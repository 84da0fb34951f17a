"""Power-law degree-distribution synthesis.

The paper's experiments consume only the *degree distributions* of its
SNAP/WebGraph test graphs.  Without network access to the original data,
we synthesize calibrated twins: discrete power laws constructed to match
a target vertex count, average degree, maximum degree and number of
unique degrees — the four characteristics Table I reports and the ones
that drive every effect the paper studies (Chung-Lu probability
overflow, multi-edge expectation, erased-model error, |D| ≪ d_max ≪ m).

:func:`deterministic_powerlaw` builds the distribution by closed-form
construction (no sampling), so dataset twins are bit-identical across
runs; :func:`sampled_powerlaw` draws i.i.d. power-law degrees when
randomness is wanted.
"""

from __future__ import annotations

import numpy as np

from repro.graph.degree import DegreeDistribution

__all__ = [
    "deterministic_powerlaw",
    "sampled_powerlaw",
    "fix_parity",
    "as733_like",
    "regular_distribution",
    "lognormal_distribution",
    "bimodal_distribution",
]


def fix_parity(degrees: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make the stub count even by moving one vertex between classes.

    If ``Σ d·n`` is odd, one vertex of some odd degree ``d`` is moved to
    degree ``d ± 1`` (preferring an existing class, creating one
    otherwise).  Vertex count is preserved; the stub count changes by 1.
    """
    degrees = np.asarray(degrees, dtype=np.int64).copy()
    counts = np.asarray(counts, dtype=np.int64).copy()
    if int((degrees * counts).sum()) % 2 == 0:
        return degrees, counts
    odd = np.flatnonzero((degrees % 2 == 1) & (counts > 0))
    if len(odd) == 0:
        raise ValueError("odd stub total but no odd-degree class to adjust")
    k = int(odd[0])
    d = int(degrees[k])
    target = d + 1 if d == 1 else d - 1
    counts[k] -= 1
    where = np.searchsorted(degrees, target)
    if where < len(degrees) and degrees[where] == target:
        counts[where] += 1
    else:
        degrees = np.insert(degrees, where, target)
        counts = np.insert(counts, where, 1)
    keep = counts > 0
    return degrees[keep], counts[keep]


def _support_grid(d_max: int, n_classes: int) -> np.ndarray:
    """``n_classes`` unique integer degrees from 1 to ``d_max``.

    Low degrees are kept dense (real degree distributions contain every
    small degree) and the tail is geometrically spaced, mirroring the
    |D| ≪ d_max structure the paper highlights.
    """
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if n_classes > d_max:
        raise ValueError(f"cannot fit {n_classes} unique degrees below {d_max}")
    if n_classes == d_max:
        return np.arange(1, d_max + 1, dtype=np.int64)
    grid = np.unique(np.round(np.geomspace(1.0, float(d_max), n_classes)).astype(np.int64))
    # geomspace rounding collapses small values; refill with the smallest
    # missing integers to restore the class count
    missing = n_classes - len(grid)
    if missing > 0:
        candidates = np.setdiff1d(np.arange(1, d_max + 1, dtype=np.int64), grid)
        grid = np.union1d(grid, candidates[:missing])
    grid[-1] = d_max
    return np.unique(grid)


def deterministic_powerlaw(
    n: int,
    d_avg: float,
    d_max: int,
    n_classes: int,
) -> DegreeDistribution:
    """Closed-form power-law distribution hitting the Table I columns.

    ``n``, ``d_max`` and (approximately) ``n_classes`` are met exactly;
    the power-law exponent is root-found so the average degree matches
    ``d_avg`` as closely as the discrete support allows.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if d_max >= n:
        raise ValueError(f"d_max={d_max} must be < n={n} for a simple graph")
    if not 1.0 <= d_avg:
        raise ValueError("d_avg must be >= 1")
    if n < n_classes:
        raise ValueError(f"n={n} cannot host {n_classes} degree classes")

    def build(d_max: int, n_classes: int) -> DegreeDistribution:
        support = _support_grid(d_max, n_classes)
        # Every class must host at least one vertex, so Σ support is a hard
        # lower bound on the stub count.  Thin the geometric tail (keeping
        # d_max) until the singleton classes claim at most ~45 % of the
        # stub budget, otherwise the low-degree mass cannot absorb the
        # hubs and the sequence stops being graphical.
        budget = 0.45 * n * d_avg
        while support.sum() > budget and len(support) > 2:
            support = np.delete(support, len(support) - 2)
        k = len(support)
        d = support.astype(np.float64)

        def counts_for(gamma: float) -> np.ndarray:
            w = d ** (-gamma)
            extra = n - k
            c = np.ones(k, dtype=np.int64)
            if extra > 0:
                alloc = np.floor(w * (extra / w.sum())).astype(np.int64)
                c += alloc
                shortfall = n - int(c.sum())
                # give leftovers to the lowest-degree classes
                c[:shortfall] += 1
            return c

        def avg_for(gamma: float) -> float:
            c = counts_for(gamma)
            return float((support * c).sum() / n)

        lo_g, hi_g = -2.0, 8.0
        if avg_for(hi_g) >= d_avg:
            gamma = hi_g
        elif avg_for(lo_g) <= d_avg:
            gamma = lo_g
        else:
            from scipy import optimize  # imported here: only this root-find needs scipy

            gamma = optimize.brentq(lambda g: avg_for(g) - d_avg, lo_g, hi_g, xtol=1e-6)
        counts = counts_for(float(gamma))
        degrees, counts = fix_parity(support, counts)
        return DegreeDistribution(degrees, counts)

    # Graphicality repair: an over-heavy hub set can still violate
    # Erdős–Gallai; shrink the hub degree geometrically until realizable.
    cur_dmax, cur_classes = d_max, n_classes
    for _ in range(40):
        dist = build(cur_dmax, min(cur_classes, cur_dmax))
        if dist.is_graphical():
            return dist
        cur_dmax = max(2, int(cur_dmax * 0.85))
    raise ValueError(
        f"could not realize a graphical power law for n={n}, d_avg={d_avg}, d_max={d_max}"
    )


def sampled_powerlaw(
    n: int,
    gamma: float,
    d_min: int = 1,
    d_max: int | None = None,
    seed=None,
) -> DegreeDistribution:
    """Sample n i.i.d. degrees from a truncated discrete power law.

    Inverse-CDF sampling on ``P(d) ∝ d^{-gamma}`` over
    ``[d_min, d_max]``; parity is repaired by bumping one vertex.
    """
    from repro.parallel.rng import generator_from_seed

    if n < 1:
        raise ValueError("n must be >= 1")
    if d_min < 1:
        raise ValueError("d_min must be >= 1")
    rng = generator_from_seed(seed)
    d_max = d_max if d_max is not None else max(d_min + 1, n // 10)
    support = np.arange(d_min, d_max + 1, dtype=np.int64)
    w = support.astype(np.float64) ** (-gamma)
    cdf = np.cumsum(w / w.sum())
    cdf[-1] = 1.0
    draws = support[np.searchsorted(cdf, rng.random(n), side="right")]
    degrees, counts = np.unique(draws, return_counts=True)
    degrees, counts = fix_parity(degrees, counts)
    return DegreeDistribution(degrees, counts)


def regular_distribution(n: int, degree: int) -> DegreeDistribution:
    """d-regular distribution — the single-class corner case.

    Regular sequences stress the intra-class paths of every algorithm
    (diagonal sample spaces, intra-class stub allocation).
    """
    if degree < 1 or degree >= n:
        raise ValueError("need 1 <= degree < n")
    if (n * degree) % 2 == 1:
        raise ValueError("n * degree must be even")
    return DegreeDistribution([degree], [n])


def lognormal_distribution(
    n: int, mu: float = 1.0, sigma: float = 0.8, d_max: int | None = None, seed=None
) -> DegreeDistribution:
    """Log-normal degrees — heavy-ish tail without a power-law body.

    Several of the paper's datasets (web graphs especially) are better
    fit by log-normals; useful for checking the pipeline is not
    power-law-specific.
    """
    from repro.parallel.rng import generator_from_seed

    rng = generator_from_seed(seed)
    draws = np.maximum(np.round(rng.lognormal(mu, sigma, n)).astype(np.int64), 1)
    if d_max is not None:
        draws = np.minimum(draws, d_max)
    draws = np.minimum(draws, n - 1)
    degrees, counts = np.unique(draws, return_counts=True)
    degrees, counts = fix_parity(degrees, counts)
    return DegreeDistribution(degrees, counts)


def bimodal_distribution(
    n: int, low: int = 2, high: int = 20, high_fraction: float = 0.1
) -> DegreeDistribution:
    """Two-spike distribution — core/periphery structure.

    The smallest |D| regime (two classes) with maximal inter-class
    coupling; exercises the probability heuristic's capacity clamps.
    """
    if not 0 < high_fraction < 1:
        raise ValueError("high_fraction must be in (0, 1)")
    if not 1 <= low < high < n:
        raise ValueError("need 1 <= low < high < n")
    n_high = max(1, int(round(n * high_fraction)))
    n_low = n - n_high
    degrees, counts = fix_parity(
        np.asarray([low, high]), np.asarray([n_low, n_high])
    )
    return DegreeDistribution(degrees, counts)


def as733_like(scale: float = 1.0) -> DegreeDistribution:
    """AS-733-like distribution (the as20 row of Table I; Figures 1–2).

    The autonomous-systems snapshot has ~6.5 K vertices, ~12.5 K edges, a
    1.5 K-degree hub and 83 unique degrees — small, dense at the top and
    extremely skewed, which is exactly the regime where naive Chung-Lu
    probabilities exceed 1.
    """
    from repro.datasets.catalog import load

    return load("as20", scale=scale)
