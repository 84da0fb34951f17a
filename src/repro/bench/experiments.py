"""Experiment drivers — one per table/figure of the paper.

Every function returns an :class:`~repro.bench.harness.ExperimentResult`
whose rows/series are the same quantities the paper plots.  The
``benchmarks/`` suite times and sanity-checks them; ``repro-experiments``
(:mod:`repro.bench.cli`) prints them.

Defaults are sized for a single-core CI box; pass larger ``scale`` /
``samples`` for closer statistics.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import (
    ExperimentResult,
    GENERATORS,
    Timer,
    generate_with_method,
    suite_benchmark,
    uniform_reference,
)
from repro.core.generate import generate_graph
from repro.core.mixing import (
    chung_lu_attachment_curve,
    hub_attachment_curve,
    l1_probability_error,
)
from repro.core.swap import SwapStats, swap_edges
from repro.datasets.catalog import SPECS
from repro.datasets.synthetic import as733_like
from repro.generators.chung_lu import erased_chung_lu
from repro.generators.havel_hakimi import havel_hakimi_graph
from repro.graph.degree import DegreeDistribution
from repro.graph.stats import (
    attachment_probability_matrix,
    degree_error_by_degree,
    gini_coefficient,
    percent_error,
)
from repro.hierarchy import LFRParams, lfr_like, mixing_fraction, modularity
from repro.parallel.runtime import ParallelConfig

__all__ = [
    "fig1",
    "fig2",
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "sec8c",
    "scaling",
    "suite",
    "lfr_experiment",
    "directed_experiment",
    "corrections_experiment",
    "mixing_experiment",
    "observe",
    "durable",
    "SKEWED_DATASETS",
    "ALL_DATASETS",
]

#: the four extremely skewed quality-study instances of Table I
SKEWED_DATASETS = ("Meso", "as20", "WikiTalk", "DBPedia")
ALL_DATASETS = tuple(SPECS)


def _config(seed: int, threads: int = 16) -> ParallelConfig:
    return ParallelConfig(threads=threads, seed=seed)


def _nanmean(values: list[float]) -> float:
    """Mean over the defined samples; 0.0 when every sample is NaN.

    :func:`~repro.graph.stats.percent_error` yields NaN when the
    expectation is zero — those samples carry no information and must
    not poison the average (or the JSON report).
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).any():
        return 0.0
    return float(np.nanmean(arr))


def fig1(
    dist: DegreeDistribution | None = None,
    *,
    samples: int = 20,
    swap_iterations: int = 16,
    seed: int = 1,
) -> ExperimentResult:
    """Figure 1: Chung-Lu vs empirical hub attachment probabilities.

    For the AS-733 degree distribution, the closed-form probability
    between the max-degree vertex and degree-d vertices versus the same
    probability measured over ``samples`` uniform random graphs.
    """
    dist = dist or as733_like()
    config = _config(seed)
    graphs = [
        uniform_reference(dist, config.with_seed(seed + 1 + s), swap_iterations=swap_iterations)
        for s in range(samples)
    ]
    degrees, empirical = hub_attachment_curve(graphs, dist)
    _, cl = chung_lu_attachment_curve(dist, clip=False)

    result = ExperimentResult(
        name="fig1",
        description="hub attachment probability: Chung-Lu formula vs uniform sample",
        columns=["degree", "chung_lu", "uniform_random"],
    )
    for d, c, e in zip(degrees, cl, empirical):
        result.add(int(d), float(c), float(e))
    result.series = {
        "degrees": degrees,
        "chung_lu": cl,
        "uniform_random": empirical,
        "fraction_exceeding_1": float((cl > 1.0).mean()),
    }
    return result


def fig2(
    dist: DegreeDistribution | None = None,
    *,
    samples: int = 10,
    seed: int = 2,
) -> ExperimentResult:
    """Figure 2: per-degree output error of the erased model."""
    dist = dist or as733_like()
    config = _config(seed)
    acc = np.zeros(dist.n_classes, dtype=np.float64)
    for s in range(samples):
        g = erased_chung_lu(dist, config.with_seed(seed + 1 + s))
        _, err = degree_error_by_degree(dist, g.degree_sequence())
        acc += err
    acc /= samples
    result = ExperimentResult(
        name="fig2",
        description="erased-model degree distribution error vs degree",
        columns=["degree", "pct_error"],
    )
    for d, e in zip(dist.degrees, acc):
        result.add(int(d), float(e))
    result.series = {"degrees": dist.degrees.copy(), "pct_error": acc}
    return result


def table1(scale: float | None = None) -> ExperimentResult:
    """Table I: published vs synthesized dataset characteristics."""
    result = ExperimentResult(
        name="table1",
        description="test graph characteristics (published -> synthetic twin)",
        columns=[
            "network", "n_pub", "m_pub", "davg_pub", "dmax_pub", "D_pub",
            "n_twin", "m_twin", "davg_twin", "dmax_twin", "D_twin",
        ],
    )
    for name, spec in SPECS.items():
        d = spec.synthesize(scale)
        result.add(
            name, spec.n, spec.m, spec.d_avg, spec.d_max, spec.n_unique_degrees,
            d.n, d.m, d.d_avg, d.d_max, d.n_classes,
        )
    return result


def fig3(
    datasets: tuple = SKEWED_DATASETS,
    *,
    samples: int = 5,
    swap_iterations: int = 0,
    seed: int = 3,
    scale: float | None = None,
) -> ExperimentResult:
    """Figure 3: % error in #edges, d_max and Gini per generator.

    Averaged percentage error of each generator's raw output against the
    input distribution (Figure 3 evaluates generator output; swaps are a
    separate concern in Figure 4).
    """
    config = _config(seed)
    result = ExperimentResult(
        name="fig3",
        description="output error in #edges / d_max / Gini per generator",
        columns=["network", "method", "pct_err_edges", "pct_err_dmax", "pct_err_gini"],
    )
    for name in datasets:
        dist = SPECS[name].synthesize(scale)
        target_gini = gini_coefficient(dist.expand())
        for method in GENERATORS:
            e_err: list[float] = []
            d_err: list[float] = []
            g_err: list[float] = []
            for s in range(samples):
                g = generate_with_method(
                    method, dist, config.with_seed(seed + 101 * s),
                    swap_iterations=swap_iterations,
                )
                deg = g.degree_sequence()
                e_err.append(abs(percent_error(g.m, dist.m)))
                d_err.append(abs(percent_error(int(deg.max()) if len(deg) else 0, dist.d_max)))
                g_err.append(abs(percent_error(gini_coefficient(deg[deg > 0]), target_gini)))
            # percent_error returns NaN for zero-expectation samples;
            # average over the defined ones only
            result.add(name, method, _nanmean(e_err), _nanmean(d_err), _nanmean(g_err))
    return result


def fig4(
    dataset: str = "as20",
    *,
    iterations: tuple = (0, 1, 2, 3, 5, 8, 12, 16, 24),
    samples: int = 6,
    baseline_samples: int = 6,
    baseline_iterations: int = 40,
    seed: int = 4,
    scale: float | None = None,
) -> ExperimentResult:
    """Figure 4: pairwise-probability L1 error vs swap iterations.

    Each generator's empirical attachment matrix — averaged over
    ``samples`` independent runs, as the paper averages "over several
    tests" — is compared against the Havel–Hakimi + swaps uniform
    reference as the number of swap iterations grows.  The residual L1
    of two independent reference averages is reported as
    ``series["noise_floor"]``; convergence means hitting that floor.
    """
    config = _config(seed)
    dist = SPECS[dataset].synthesize(scale)

    def reference_average(seed0: int) -> np.ndarray:
        acc = np.zeros((dist.n_classes, dist.n_classes))
        for s in range(baseline_samples):
            ref = uniform_reference(
                dist,
                config.with_seed(seed0 + 7 * s),
                swap_iterations=baseline_iterations,
            )
            acc += attachment_probability_matrix(ref, dist)
        return acc / baseline_samples

    base = reference_average(seed)
    base2 = reference_average(seed + 5000)
    noise_floor = l1_probability_error(base2, base)

    result = ExperimentResult(
        name="fig4",
        description=f"L1 error of attachment probabilities vs swap iterations ({dataset})",
        columns=["method", "iterations", "l1_error"],
    )
    series: dict = {
        "iterations": np.asarray(iterations),
        "methods": {},
        "noise_floor": noise_floor,
    }
    max_iter = max(iterations)
    want = set(iterations)
    for method in GENERATORS:
        sums = {it: np.zeros_like(base) for it in iterations}
        for s in range(samples):
            cfg = config.with_seed(seed + 1000 + 31 * s)
            g0 = GENERATORS[method](dist, cfg)
            if 0 in want:
                sums[0] += attachment_probability_matrix(g0, dist)

            def grab(it, graph, _sums=sums):
                if (it + 1) in want:
                    _sums[it + 1] += attachment_probability_matrix(graph, dist)

            if max_iter > 0:
                swap_edges(g0, max_iter, cfg, callback=grab)
        curves = np.asarray(
            [l1_probability_error(sums[it] / samples, base) for it in iterations]
        )
        series["methods"][method] = curves
        for it, err in zip(iterations, curves):
            result.add(method, int(it), float(err))
    result.series = series
    return result


def fig5(
    datasets: tuple = ALL_DATASETS,
    *,
    swap_iterations: int = 1,
    seed: int = 5,
    scale: float | None = None,
) -> ExperimentResult:
    """Figure 5: end-to-end generation time per generator (1 swap pass)."""
    config = _config(seed)
    result = ExperimentResult(
        name="fig5",
        description="end-to-end generation seconds per generator",
        columns=["network", "method", "seconds", "edges"],
    )
    for name in datasets:
        dist = SPECS[name].synthesize(scale)
        for method in GENERATORS:
            with Timer() as t:
                g = generate_with_method(
                    method, dist, config, swap_iterations=swap_iterations
                )
            result.add(name, method, t.seconds, g.m)
    return result


def fig6(
    datasets: tuple = ALL_DATASETS,
    *,
    swap_iterations: int = 1,
    seed: int = 6,
    scale: float | None = None,
) -> ExperimentResult:
    """Figure 6: per-phase cost of our method, averaged over datasets."""
    config = _config(seed)
    totals = {"probabilities": 0.0, "edge_generation": 0.0, "swap": 0.0}
    per_dataset = []
    for name in datasets:
        dist = SPECS[name].synthesize(scale)
        _, report = generate_graph(dist, swap_iterations=swap_iterations, config=config)
        per_dataset.append((name, dict(report.phase_seconds)))
        for phase, sec in report.phase_seconds.items():
            totals[phase] += sec
    result = ExperimentResult(
        name="fig6",
        description="per-phase execution seconds for our method",
        columns=["network", "probabilities", "edge_generation", "swap"],
    )
    for name, phases in per_dataset:
        result.add(
            name,
            phases.get("probabilities", 0.0),
            phases.get("edge_generation", 0.0),
            phases.get("swap", 0.0),
        )
    k = len(per_dataset)
    result.add("AVERAGE", totals["probabilities"] / k, totals["edge_generation"] / k, totals["swap"] / k)
    result.series = {"totals": totals, "per_dataset": per_dataset}
    return result


def suite(
    datasets: tuple[str, ...] = ("Meso", "as20", "WikiTalk"),
    *,
    swap_iterations: int = 1,
    threads: int = 8,
    seed: int = 5,
    scale: float | None = None,
) -> ExperimentResult:
    """Tracked perf suite: one generate_graph cell per dataset (BENCH_suite.json)."""
    dists = {name: SPECS[name].synthesize(scale) for name in datasets}
    return suite_benchmark(
        dists, swap_iterations=swap_iterations, threads=threads, seed=seed,
    )


def sec8c(
    dataset: str = "LiveJournal",
    *,
    iterations: int = 3,
    seed: int = 7,
    scale: float | None = None,
) -> ExperimentResult:
    """Section VIII-C: swap throughput and fraction of edges swapped.

    The paper reports ~99.9 % of edges successfully swapped after one
    iteration and all edges within ~3 on LiveJournal, with parallel
    speedup over serial.
    """
    config = _config(seed)
    dist = SPECS[dataset].synthesize(scale)
    graph = havel_hakimi_graph(dist)

    stats = SwapStats()
    from repro.parallel.cost_model import CostModel

    cost = CostModel()
    with Timer() as t:
        swap_edges(graph, iterations, config, stats=stats, cost=cost)

    result = ExperimentResult(
        name="sec8c",
        description=f"swap throughput on {dataset} twin (m={dist.m})",
        columns=["iteration", "swapped_fraction", "accepted"],
    )
    for it, (frac, acc) in enumerate(
        zip(stats.swapped_fraction_per_iteration, stats.accepted_per_iteration), 1
    ):
        result.add(it, float(frac), int(acc))
    result.series = {
        "seconds_total": t.seconds,
        "edges": dist.m,
        "acceptance_rate": stats.acceptance_rate,
        "speedup_16_threads": float(cost.speedup_curve([16])[0]),
        "stats": stats,
    }
    return result


def scaling(
    dataset: str = "LiveJournal",
    *,
    thread_counts: tuple = (1, 2, 4, 8, 16, 32),
    swap_iterations: int = 2,
    seed: int = 8,
    scale: float | None = None,
) -> ExperimentResult:
    """Cost-model speedup curves per phase (Section V complexity claims)."""
    config = _config(seed)
    dist = SPECS[dataset].synthesize(scale)
    _, report = generate_graph(dist, swap_iterations=swap_iterations, config=config)
    cost = report.cost
    result = ExperimentResult(
        name="scaling",
        description=f"modeled speedup vs threads ({dataset} twin)",
        columns=["threads", "total_speedup"]
        + [f"{name}_speedup" for name in cost.phase_names()],
    )
    t1 = cost.simulated_seconds(1)
    for p in thread_counts:
        row = [int(p), float(t1 / cost.simulated_seconds(p))]
        for name in cost.phase_names():
            ph = cost.phase(name)
            row.append(float(ph.simulated_seconds(1) / ph.simulated_seconds(p)))
        result.add(*row)
    result.series = {"cost": cost}
    return result


def lfr_experiment(
    mus: tuple = (0.1, 0.3, 0.5, 0.7),
    *,
    n: int = 600,
    seed: int = 9,
) -> ExperimentResult:
    """Section VI: LFR-like generation quality across mixing parameters."""
    result = ExperimentResult(
        name="lfr",
        description="LFR-like generation: target vs measured mixing, modularity",
        columns=["mu", "measured_mixing", "modularity", "edges", "degree_match_pct"],
    )
    for mu in mus:
        out = lfr_like(
            LFRParams(n=n, mu=mu, d_max=30), ParallelConfig(threads=4, seed=seed)
        )
        target_m = (out.internal_degrees.sum() + out.external_degrees.sum()) / 2
        match = 100.0 * out.graph.m / target_m if target_m else 0.0
        result.add(
            float(mu),
            mixing_fraction(out.graph, out.communities),
            modularity(out.graph, out.communities),
            out.graph.m,
            match,
        )
    return result


def directed_experiment(
    *,
    n: int = 800,
    arcs: int = 3200,
    swap_iterations: int = 4,
    seed: int = 10,
) -> ExperimentResult:
    """Extension: directed pipeline quality (Section I, refs [14], [15])."""
    from repro.directed import (
        DirectedDegreeDistribution,
        directed_chung_lu_om,
        directed_generate_graph,
    )
    from repro.directed.edgelist import DirectedEdgeList

    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, 3 * arcs)
    v = rng.integers(0, n, 3 * arcs)
    keep = u != v
    base = DirectedEdgeList(u[keep][:arcs], v[keep][:arcs], n).simplify()
    dist = DirectedDegreeDistribution.from_graph(base)

    result = ExperimentResult(
        name="directed",
        description=f"directed pipeline on a random bidegree twin (m={dist.m})",
        columns=["method", "arcs", "self_loops", "multi_arcs", "acceptance"],
    )
    cfg = ParallelConfig(threads=8, seed=seed)
    om = directed_chung_lu_om(dist, cfg)
    result.add("directed CL O(m)", om.m, om.count_self_loops(), om.count_multi_arcs(), 0.0)
    g, report = directed_generate_graph(dist, swap_iterations=swap_iterations, config=cfg)
    result.add(
        "directed ours", g.m, g.count_self_loops(), g.count_multi_arcs(),
        report.swap_stats.acceptance_rate,
    )
    result.series = {"dist": dist}
    return result


def corrections_experiment(
    dataset: str = "Meso",
    *,
    samples: int = 5,
    seed: int = 11,
    scale: float | None = None,
) -> ExperimentResult:
    """Extension: weight corrections fix degrees, not attachment bias."""
    from repro.core.probabilities import expected_degrees
    from repro.generators.bernoulli import chung_lu_probabilities
    from repro.generators.corrected_chung_lu import (
        corrected_probability_matrix,
        corrected_weights,
    )

    dist = SPECS[dataset].synthesize(scale)
    cfg = ParallelConfig(seed=seed)
    base = np.zeros((dist.n_classes, dist.n_classes))
    for s in range(samples):
        ref = uniform_reference(dist, cfg.with_seed(seed + s), swap_iterations=12)
        base += attachment_probability_matrix(ref, dist)
    base /= samples

    def degree_err(P):
        got = expected_degrees(P, dist)
        return float((np.abs(got - dist.degrees) / dist.degrees).mean())

    result = ExperimentResult(
        name="corrections",
        description=f"degree error vs attachment bias per probability source ({dataset})",
        columns=["source", "degree_err", "uniform_bias"],
    )
    from repro.core.probabilities import generate_probabilities

    for name, P in (
        ("naive CL", chung_lu_probabilities(dist)),
        ("corrected CL", corrected_probability_matrix(corrected_weights(dist))),
        ("ours (heuristic)", generate_probabilities(dist).P),
    ):
        result.add(name, degree_err(P), l1_probability_error(P, base))
    return result


def mixing_experiment(
    dataset: str = "as20",
    *,
    chains: int = 3,
    iterations: int = 24,
    seed: int = 13,
    scale: float | None = None,
) -> ExperimentResult:
    """Extension: empirical mixing diagnostics (Section IX)."""
    from repro.core.diagnostics import (
        gelman_rubin,
        integrated_autocorrelation_time,
        iterations_until_all_swapped,
        statistic_trace,
    )
    from repro.generators.havel_hakimi import havel_hakimi_graph
    from repro.graph.stats import degree_assortativity

    dist = SPECS[dataset].synthesize(scale)
    graph = havel_hakimi_graph(dist)
    cfg = ParallelConfig(seed=seed)
    its, stats = iterations_until_all_swapped(
        graph, cfg, max_iterations=128, target_fraction=0.999
    )
    traces = [
        statistic_trace(graph, iterations, degree_assortativity, cfg.with_seed(seed + s))
        for s in range(chains)
    ]
    tau = float(np.mean([integrated_autocorrelation_time(t) for t in traces]))
    r_hat = gelman_rubin([t[3:] for t in traces])
    result = ExperimentResult(
        name="mixing",
        description=f"swap-chain mixing diagnostics ({dataset} twin)",
        columns=["metric", "value"],
    )
    result.add("iterations_to_999_swapped", int(its))
    result.add("acceptance_rate", stats.acceptance_rate)
    result.add("assortativity_IACT", tau)
    result.add("gelman_rubin_r_hat", float(r_hat))
    return result


def observe(
    dataset: str = "as20",
    *,
    swap_iterations: int = 4,
    threads: int = 4,
    seed: int = 21,
    trace_path=None,
    mixing_every: int = 2,
    scale: float | None = None,
) -> ExperimentResult:
    """Traced run: span/report timing agreement + mixing curve.

    Runs the pipeline inside a fresh
    :class:`~repro.obs.RunTrace` (mirrored to ``trace_path`` when given,
    e.g. via ``repro-experiments observe --trace run.jsonl``), then
    cross-checks the observability layer against the report: per-phase
    span durations must agree with ``GenerationReport.phase_seconds``,
    and the mixing trajectory summarises how far the chain moved from
    its start graph.
    """
    from repro.obs import RunTrace

    config = ParallelConfig(threads=threads, seed=seed)
    dist = SPECS[dataset].synthesize(scale)
    with RunTrace(trace_path) as tr:
        graph, report = generate_graph(
            dist, swap_iterations=swap_iterations, config=config,
            mixing_every=mixing_every,
        )
        spans = {s["name"]: s for s in tr.spans()}
        events = tr.events()
    result = ExperimentResult(
        name="observe",
        description=f"traced generation run ({dataset} twin)",
        columns=["metric", "value"],
    )
    result.add("edges", int(graph.m))
    result.add("span_records", len(spans))
    result.add("event_records", len(events))
    for phase, seconds in report.phase_seconds.items():
        span = spans.get(f"phase:{phase}")
        if span is None:
            result.add(f"{phase}_span_vs_report_pct", float("nan"))
            continue
        # relative disagreement between the span's own clock and the
        # report's attribution; sub-millisecond phases are dominated by
        # span bookkeeping, so guard the denominator
        denom = max(seconds, 1e-3)
        result.add(
            f"{phase}_span_vs_report_pct",
            round(100.0 * (span["dur"] - seconds) / denom, 3),
        )
    traj = report.swap_stats.mixing
    if traj is not None and len(traj):
        overlap = traj.edge_overlap()
        result.add("mixing_samples", len(traj))
        result.add("edge_overlap_start", float(overlap[0]))
        result.add("edge_overlap_end", float(overlap[-1]))
        result.add(
            "assortativity_drift",
            float(traj.assortativity()[-1] - traj.assortativity()[0]),
        )
    for counter in ("swap.rounds", "swap.accepted"):
        result.add(counter, tr.metrics.counters.get(counter, 0.0))
    result.series = {
        "trajectory": traj.to_dict() if traj is not None else None,
        "counters": dict(tr.metrics.counters),
        "report": report,
    }
    if trace_path is not None:
        result.series["trace_path"] = str(trace_path)
    return result


def durable(
    dataset: str = "as20",
    *,
    swap_iterations: int = 6,
    checkpoint_every: int = 2,
    threads: int = 4,
    seed: int = 11,
    checkpoint_dir=None,
    resume: bool = False,
    scale: float | None = None,
) -> ExperimentResult:
    """Durable generation: checkpointed end-to-end run, optionally resumed.

    Drives :func:`~repro.core.generate.generate_graph` with a checkpoint
    store (``repro-experiments durable --checkpoint-dir DIR``); with
    ``--resume`` the run re-enters from the newest snapshot in that
    directory instead of starting over — after a crash (or a deliberate
    SIGKILL, as in the resume drills of ``tests/core/test_checkpoint.py``)
    the continuation is bitwise-identical to an uninterrupted run.
    """
    import tempfile

    config = _config(seed, threads)
    dist = SPECS[dataset].synthesize(scale)
    tmp = None
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
        checkpoint_dir = tmp.name
    try:
        with Timer() as t:
            graph, report = generate_graph(
                dist,
                swap_iterations=swap_iterations,
                config=config,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                resume_from=checkpoint_dir if resume else None,
            )
    finally:
        if tmp is not None:
            tmp.cleanup()
    digest = __import__("hashlib").sha256(
        graph.u.tobytes() + graph.v.tobytes()
    ).hexdigest()
    result = ExperimentResult(
        name="durable",
        description=f"checkpointed generation run ({dataset} twin)",
        columns=["metric", "value"],
    )
    result.add("edges", int(graph.m))
    result.add("swap_iterations", int(report.swap_stats.iterations))
    result.add("resumed", bool(report.resumed))
    result.add("degraded", bool(report.degraded))
    result.add("wall_seconds", float(t.seconds))
    result.add("edge_digest", digest[:16])
    result.series = {"digest": digest, "report": report}
    return result
