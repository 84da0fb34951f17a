"""Alternative probability solvers for the Section IV-A system.

The system Σ_j n_j P_ij − P_ii = d_i is heavily underdetermined (|D|
equations, |D|(|D|+1)/2 box-constrained unknowns) and the paper notes
"there exist many viable methods to calculate some valid solution to the
system, but our aim is to do so as fast as possible".  This module
implements the slow-but-exact end of that trade-off: a bounded linear
least-squares solve (scipy ``lsq_linear``) over the upper-triangular
unknowns.  It is the ablation partner of
:func:`repro.core.probabilities.generate_probabilities` — near-zero
expected-degree error at Ω(|D|³)-ish cost versus the heuristic's
O(|D|²) with a small residual.
"""

from __future__ import annotations

import numpy as np

from repro.core.probabilities import ProbabilityResult
from repro.graph.degree import DegreeDistribution

__all__ = ["solve_probabilities_lsq"]


def _triu_index(k: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(k)


def solve_probabilities_lsq(
    dist: DegreeDistribution,
    *,
    warm_start: bool = True,
    max_iter: int | None = None,
) -> ProbabilityResult:
    """Solve the degree system as bounded least squares.

    Minimizes ``‖A p − d‖²`` over the upper-triangular probabilities
    ``p ∈ [0, 1]``, where row i encodes
    ``Σ_j n_j P_ij − P_ii = d_i``.  Returns the same
    :class:`~repro.core.probabilities.ProbabilityResult` shape as the
    heuristic so the two are drop-in interchangeable.

    Notes
    -----
    Feasible for every graphical distribution in principle (a valid P
    always exists — e.g. the empirical matrix of any realization), and in
    practice the solver drives the residual to ~0; infeasibility shows up
    as a nonzero residual reported via ``residual_stubs``.
    """
    from scipy import optimize, sparse  # imported here: only this solver needs scipy

    k = dist.n_classes
    counts = dist.counts.astype(np.float64)
    degrees = dist.degrees.astype(np.float64)
    if k == 0:
        return ProbabilityResult(
            P=np.zeros((0, 0)),
            expected_edge_counts=np.zeros((0, 0)),
            residual_stubs=np.zeros(0),
            order=np.zeros(0, dtype=np.int64),
        )

    iu, ju = _triu_index(k)
    n_unknowns = len(iu)
    # unknown index map for (i, j), i <= j
    unknown_of = {(int(a), int(b)): idx for idx, (a, b) in enumerate(zip(iu, ju))}

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i in range(k):
        for j in range(k):
            a, b = min(i, j), max(i, j)
            idx = unknown_of[(a, b)]
            coeff = counts[j] - (1.0 if i == j else 0.0)
            rows.append(i)
            # scale each row by 1/d_i so the solver minimizes *relative*
            # degree error — unscaled, the hub rows (d up to thousands)
            # dominate the objective and the low-degree rows are ignored
            cols.append(idx)
            vals.append(coeff / degrees[i])
    A = sparse.coo_matrix((vals, (rows, cols)), shape=(k, n_unknowns)).tocsr()
    rhs = np.ones(k)  # degrees[i] / degrees[i]

    x0 = None
    if warm_start:
        # start from capped Chung-Lu: usually close for mild classes
        cl = np.outer(degrees, degrees) / max(dist.stub_count(), 1)
        np.clip(cl, 0.0, 1.0, out=cl)
        x0 = cl[iu, ju]

    if n_unknowns <= 50_000:
        # bvls needs a dense matrix but converges much harder than trf on
        # this system; the dense k × |unknowns| matrix stays small because
        # k = |D| is small (the paper's |D| ≪ m observation)
        result = optimize.lsq_linear(
            A.toarray(), rhs, bounds=(0.0, 1.0), max_iter=max_iter, method="bvls"
        )
    else:
        result = optimize.lsq_linear(
            A, rhs, bounds=(0.0, 1.0), max_iter=max_iter,
            lsmr_tol="auto", method="trf",
        )
    p = result.x
    if x0 is not None and not result.success:  # pragma: no cover - fallback
        p = x0

    P = np.zeros((k, k))
    P[iu, ju] = p
    P[ju, iu] = p
    np.clip(P, 0.0, 1.0, out=P)

    pairs = np.outer(counts, counts)
    np.fill_diagonal(pairs, counts * (counts - 1) / 2.0)
    E = P * pairs

    # residual: degree shortfall converted back to stubs
    achieved = P @ counts - np.diag(P)
    residual = np.maximum(degrees - achieved, 0.0) * counts
    return ProbabilityResult(
        P=P,
        expected_edge_counts=E,
        residual_stubs=residual,
        order=np.arange(k, dtype=np.int64),
    )
