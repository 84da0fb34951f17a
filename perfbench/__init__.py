"""Repository benchmark: null-model sample time on three workloads.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs from the repository root.  See ``run.py`` for the
run protocol, ``workloads.py`` for what one sample is, and ``tracer.py``
for the per-layer attribution of a traced run.

The benchmark imports the library from the checkout's own ``src/``
tree, never from an installed copy, so it always measures the code next
to it.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: root of the checkout the benchmark lives in
ROOT = Path(__file__).resolve().parent.parent
#: the library's source tree inside that checkout
SRC = ROOT / "src"
#: working area for spill files, snapshots and result records
WORK = ROOT / ".perfbench"


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises :class:`FileNotFoundError` when the checkout has no library
    source, so the benchmark refuses to run instead of measuring
    something else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no library source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
