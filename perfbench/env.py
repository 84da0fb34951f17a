"""The environment record stored with every benchmark result."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import subprocess

import numpy as np

from perfbench import ROOT, SRC


def _commit() -> str | None:
    """``git rev-parse HEAD`` of the checkout, or ``None`` outside git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the library's Python sources (identifies the code
    even where the checkout is not a git repository)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workload: str, seed: int, config, sample_seeds: dict) -> dict:
    """Commit, versions, cores, CPU, the full config and every seed."""
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "workload_seed": int(seed),
        "config": {
            k: v if isinstance(v, (bool, int, float, str, type(None))) else repr(v)
            for k, v in dataclasses.asdict(config).items()
        },
        "sample_seeds": {str(k): int(s) for k, s in sorted(sample_seeds.items())},
    }
