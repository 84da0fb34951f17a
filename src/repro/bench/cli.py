"""``repro-experiments`` command line: regenerate the paper's results.

Usage::

    repro-experiments                # run everything at default sizes
    repro-experiments fig3 fig4     # run selected experiments
    repro-experiments --list
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import experiments
from repro.bench.figures import ascii_bar_chart, ascii_line_chart


def _chart(name, result) -> str | None:
    """Render an ASCII figure for experiments with plottable series."""
    s = result.series
    if name == "fig1":
        return ascii_line_chart(
            s["degrees"],
            {"chung_lu": s["chung_lu"], "uniform": s["uniform_random"]},
            logy=True,
            title="Fig 1: hub attachment probability vs degree (log y)",
        )
    if name == "fig2":
        return ascii_line_chart(
            s["degrees"],
            {"pct_error": s["pct_error"]},
            title="Fig 2: erased-model % error vs degree",
        )
    if name == "fig4":
        return ascii_line_chart(
            s["iterations"],
            s["methods"],
            title="Fig 4: attachment L1 error vs swap iterations "
            f"(noise floor {s['noise_floor']:.3f})",
        )
    if name == "fig6":
        totals = s["totals"]
        return ascii_bar_chart(
            list(totals), list(totals.values()),
            title="Fig 6: average per-phase seconds",
        )
    if name == "scaling":
        threads = [row[0] for row in result.rows]
        return ascii_line_chart(
            threads,
            {"total": [row[1] for row in result.rows]},
            title="Modeled speedup vs threads",
        )
    return None


EXPERIMENTS = {
    "fig1": experiments.fig1,
    "fig2": experiments.fig2,
    "table1": experiments.table1,
    "fig3": experiments.fig3,
    "fig4": experiments.fig4,
    "fig5": experiments.fig5,
    "fig6": experiments.fig6,
    "sec8c": experiments.sec8c,
    "scaling": experiments.scaling,
    "suite": experiments.suite,
    "lfr": experiments.lfr_experiment,
    "directed": experiments.directed_experiment,
    "corrections": experiments.corrections_experiment,
    "mixing": experiments.mixing_experiment,
    "observe": experiments.observe,
    "durable": experiments.durable,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the paper.",
    )
    parser.add_argument("names", nargs="*", help="experiments to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="also write each experiment's rendered table (and chart) to DIR/<name>.txt",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write crash-consistent snapshots of the 'durable' experiment to DIR",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the 'durable' experiment from the snapshots in --checkpoint-dir",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="mirror the 'observe' experiment's trace to PATH as JSONL "
        "(validate with python -m repro.obs.schema PATH)",
    )
    parser.add_argument(
        "--mixing",
        metavar="K",
        type=int,
        help="sample mixing diagnostics every K permutation rounds in the "
        "'observe' experiment (default 2; 0 disables)",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")

    if args.list:
        for name, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {doc}")
        return 0

    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {list(EXPERIMENTS)}", file=sys.stderr)
        return 2
    out_dir = None
    if args.out:
        from pathlib import Path

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    for name in names:
        if name == "durable" and args.checkpoint_dir:
            result = EXPERIMENTS[name](
                checkpoint_dir=args.checkpoint_dir, resume=args.resume
            )
        elif name == "observe" and (args.trace or args.mixing is not None):
            kwargs = {"trace_path": args.trace}
            if args.mixing is not None:
                kwargs["mixing_every"] = args.mixing
            result = EXPERIMENTS[name](**kwargs)
        else:
            result = EXPERIMENTS[name]()
        text = result.render()
        chart = _chart(name, result)
        print(text)
        if chart:
            print(chart)
            print()
        if out_dir is not None:
            payload = text + ("\n" + chart + "\n" if chart else "")
            (out_dir / f"{name}.txt").write_text(payload)
        if "bench" in result.series:
            # machine-readable perf record (the repo's perf trajectory);
            # written next to the tables, or to the CWD without --out
            import json
            from pathlib import Path

            target = (out_dir or Path(".")) / f"BENCH_{name}.json"
            target.write_text(json.dumps(result.series["bench"], indent=2) + "\n")
            print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
