"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload gen-hubs --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

1. set-up — imports, input synthesis and a warm-up run of sample 1 —
   timed from the first line of this file;
2. samples 1, 2, ... for ``--seconds``, each timed alone, its peak
   resident memory read, and its output checked; sample 1 must
   reproduce the warm-up's digest;
3. on ``swap-spill``, sample 1 again in RAM as ``swap-sparse``, which
   must match it bit for bit;
4. two more set-ups in fresh processes, whose warm-ups must reproduce
   the same digest; ``setup_s`` is the median of the three set-ups.

``--trace 1`` gives the per-layer metrics: half of ``--seconds`` of
untraced samples here, then the same samples traced in a child process
(see ``tracer.py``), whose outputs must match sample by sample.

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; a sample counts as failed when it raises, fails
an output check or fails a digest comparison.  A full record — the
environment, every sample and every check — goes to
``.perfbench/results/``.
"""

import time

_T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import WORK, use_source_tree  # noqa: E402

#: set-ups per untraced run (this process plus fresh child processes)
SETUP_REPEATS = 3
#: timeout for a child process (a set-up probe or the traced run)
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "sample_s": "s",
    "edges_per_s": "edges/s",
    "peak_rss_mb": "MiB",
    "swapped_frac": "ratio",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: what a child process of this script does
    p.add_argument("--child", choices=("setup", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- peak memory ----------------------------------------------------------------


def _reset_peak_rss() -> None:
    """Reset VmHWM to the current RSS, so the next read covers one sample."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# -- samples ------------------------------------------------------------------


def _attempt(fn, *args):
    """``(value, None)`` or ``(None, error text)`` — a sample never aborts a run."""
    try:
        return fn(*args), None
    except Exception:  # noqa: BLE001 - a failing sample is a result, not a crash
        traceback.print_exc()
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]


def _fail(rec: dict, problem: str) -> None:
    rec["ok"] = False
    rec.setdefault("problems", []).append(problem)
    print(f"sample {rec.get('k')}: {problem}", file=sys.stderr)


def _record(wl, k, sample, error):
    """A sample's record: timing, output digest and check results."""
    from perfbench.workloads import digest, sample_seed

    rec = {"k": k, "seed": sample_seed(wl.seed, k), "ok": True, "problems": []}
    if sample is None:
        _fail(rec, error)
        return rec
    checked, error = _attempt(wl.check, sample)
    problems, err = checked if checked is not None else ([error], float("nan"))
    rec.update(
        seconds=sample.seconds,
        edges=int(len(sample.u)),
        digest=digest(sample.u, sample.v),
        degree_err=err,
        swapped_frac=float(sample.swap_stats.swapped_fraction),
    )
    for problem in problems:
        _fail(rec, problem)
    return rec


def _same_digest(rec: dict, expected, what: str) -> None:
    """Fail ``rec`` unless its output digest equals ``expected``."""
    if rec.get("digest") is None or rec.get("digest") != expected:
        _fail(rec, f"digest differs from {what}")


def _setup(name, seed, tracer=None):
    """Build the workload and warm up with sample 1, which the timed loop repeats."""
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name](seed, tracer)
    wl.setup()
    warm, error = _attempt(wl.sample, 1)
    setup_s = time.perf_counter() - _T_START
    rec = _record(wl, 1, warm, error)
    rec["warmup"] = True
    return wl, rec, setup_s


def _timed(wl, count=None, seconds=0.0, on_sample=None):
    """Run samples ``1..count`` — or ``1, 2, ...`` for ``seconds`` — and record them."""
    recs = []
    t0 = time.perf_counter()
    k = 1
    while (k <= count) if count is not None else (
        not recs or time.perf_counter() - t0 < seconds
    ):
        _reset_peak_rss()
        sample, error = _attempt(wl.sample, k)
        peak = _peak_rss_mb()
        rec = _record(wl, k, sample, error)
        rec["peak_rss_mb"] = peak
        if on_sample is not None:
            on_sample(rec, sample)
        recs.append(rec)
        del sample
        k += 1
    return recs


def _child(args, mode, extra=()):
    """Run this script as a child process; its last stdout line as JSON."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--child", mode, *extra,
    ]
    try:
        out = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} child timed out"
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, f"{mode} child exited with {out.returncode}"
    return json.loads(lines[-1]), None


# -- modes ----------------------------------------------------------------------


def _child_setup(args) -> int:
    wl, warm, setup_s = _setup(args.workload, args.seed)
    wl.close()
    print(json.dumps({"setup_s": setup_s, "warmup": warm}))
    return 0


def _child_traced(args) -> int:
    from perfbench.tracer import Tracer, aggregate, layer_metrics, phase_check

    tracer = Tracer().install()
    span_log = []

    def on_sample(rec, sample):
        spans = tracer.take()
        if sample is None:
            return
        rec["layers"] = layer_metrics(spans, sample.swap_stats, sample.report)
        if sample.report is not None:
            rec["phase_check"] = phase_check(rec["layers"], sample.report)
            if not rec["phase_check"]["ok"]:
                _fail(rec, "traced layer time disagrees with phase_seconds")
        span_log.append({"k": rec["k"], "spans": [
            [s.name, s.parent, s.t0, s.t1, s.attrs] for s in spans
        ]})

    try:
        wl, warm, _ = _setup(args.workload, args.seed, tracer)
        setup_busy = aggregate(tracer.take())["busy"]
        recs = _timed(wl, count=args.samples, on_sample=on_sample)
        wl.close()
    finally:
        tracer.uninstall()
    spans_path = _write(f"{args.workload}-seed{args.seed}-spans-{os.getpid()}.json", span_log)
    print(json.dumps({
        "warmup": warm,
        "records": recs,
        "setup": {name: setup_busy[name] for name in ("havel_hakimi", "datasets")},
        "spans_file": str(spans_path),
    }))
    return 0


def _untraced(args, wl, warm, setup_s):
    """``--trace 0``: the end-to-end metrics."""
    from perfbench.workloads import SwapSpill

    recs = _timed(wl, seconds=args.seconds)
    _same_digest(recs[0], warm.get("digest"), "the warm-up run of sample 1")
    checks = []
    if isinstance(wl, SwapSpill):
        twin, error = _attempt(wl.in_ram_digest, 1)
        twin_rec = {"k": 1, "check": "swap-sparse twin", "digest": twin, "ok": True}
        if twin is None:
            _fail(twin_rec, error)
        else:
            _same_digest(twin_rec, recs[0].get("digest"), "swap-spill sample 1")
        checks.append(twin_rec)
    wl.close()
    setups = [setup_s]
    for _ in range(SETUP_REPEATS - 1):
        probe, error = _child(args, "setup")
        if probe is None:
            checks.append({"k": 1, "check": "set-up probe", "ok": False,
                           "problems": [error]})
            continue
        setups.append(probe["setup_s"])
        _same_digest(probe["warmup"], warm.get("digest"), "this process's warm-up")
        checks.append({**probe["warmup"], "check": "set-up probe warm-up"})
    timed = [r for r in recs if "seconds" in r]
    times = [r["seconds"] for r in timed]
    metrics = {
        "setup_s": statistics.median(setups),
        "sample_s": statistics.median(times),
        "edges_per_s": sum(r["edges"] for r in timed) / sum(times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "swapped_frac": statistics.fmean(r["swapped_frac"] for r in timed),
    }
    detail = {
        "setup_s_each": setups,
        "samples": len(times),
        "sample_tail": _tail(times),
        "degree_err": statistics.fmean(r["degree_err"] for r in timed),
    }
    return metrics, END_TO_END_UNITS, [warm, *recs, *checks], detail


def _traced(args, wl, warm):
    """``--trace 1``: untraced samples here, the same samples traced in a child."""
    from perfbench.tracer import RUN_METRICS, SAMPLE_METRICS

    recs = _timed(wl, seconds=args.seconds / 2)
    _same_digest(recs[0], warm.get("digest"), "the warm-up run of sample 1")
    wl.close()
    child, error = _child(args, "traced", ("--samples", str(len(recs))))
    if child is None:
        raise RuntimeError(error)
    traced = child["records"]
    _same_digest(child["warmup"], warm.get("digest"), "the untraced warm-up")
    for r, t in zip(recs, traced):
        _same_digest(t, r.get("digest"), f"untraced sample {r['k']}")
    for t in traced[len(recs):]:
        _fail(t, "no untraced twin")
    layered = [t for t in traced if "layers" in t]
    metrics = {
        name: statistics.median(t["layers"][name] for t in layered)
        for name in SAMPLE_METRICS
    }
    metrics["havel_hakimi.busy_s"] = child["setup"]["havel_hakimi"]
    metrics["datasets.busy_s"] = child["setup"]["datasets"]
    # same seeds, same work: pair each traced sample with its untraced twin
    ratios = [
        t["seconds"] / r["seconds"]
        for r, t in zip(recs, traced) if "seconds" in r and "seconds" in t
    ]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    detail = {
        "samples": len(recs),
        "spans_file": child["spans_file"],
        "phase_checks": [t["phase_check"] for t in traced if "phase_check" in t],
    }
    units = {**SAMPLE_METRICS, **RUN_METRICS}
    return metrics, units, [warm, *recs, child["warmup"], *traced], detail


def _tail(times):
    """Highest percentile with at least ten samples beyond it (needs n >= 20)."""
    n = len(times)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # nearest-rank percentile
    return {"percentile": pct, "seconds": sorted(times)[rank - 1]}


def _write(name: str, payload) -> Path:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        use_source_tree()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.child == "setup":
        return _child_setup(args)
    if args.child == "traced":
        return _child_traced(args)

    from perfbench.env import environment
    from perfbench.workloads import sample_seed

    wl, warm, setup_s = _setup(args.workload, args.seed)
    if args.trace:
        metrics, units, attempts, detail = _traced(args, wl, warm)
    else:
        metrics, units, attempts, detail = _untraced(args, wl, warm, setup_s)
    failed = sum(1 for a in attempts if not a["ok"])
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    ks = sorted({a["k"] for a in attempts})
    record = {
        "environment": environment(
            args.workload, args.seed, wl.config(1),
            {k: sample_seed(args.seed, k) for k in ks},
        ),
        "argv": sys.argv[1:],
        "result": result,
        "failed_frac": failed / len(attempts),
        "detail": detail,
        "attempts": attempts,
    }
    path = _write(
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json", record
    )
    print(f"# record: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
