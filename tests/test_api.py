"""Public API surface and documentation-example tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_module_docstring_example(self):
        """The snippet in the package docstring must actually work."""
        from repro import DegreeDistribution, ParallelConfig, generate_graph

        dist = DegreeDistribution.from_degree_sequence([3, 3, 2, 2, 2, 1, 1])
        graph, report = generate_graph(
            dist, swap_iterations=10, config=ParallelConfig(threads=8, seed=1)
        )
        assert graph.is_simple()

    def test_subpackages_importable(self):
        import repro.bench
        import repro.core
        import repro.datasets
        import repro.generators
        import repro.graph
        import repro.hierarchy
        import repro.parallel

    def test_import_path_leaves_scipy_out(self):
        """Only the lsq solver and the power-law root-find import scipy."""
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro, repro.bench.scale, repro.generators.havel_hakimi; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestExampleScripts:
    """Every shipped example must run cleanly end to end."""

    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "degree_distribution_null_models.py",
        ],
    )
    def test_fast_examples(self, script):
        # the script runs the checkout's library, as the other subprocess
        # tests do, whatever PYTHONPATH pytest itself was started with
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / script)],
            capture_output=True,
            text=True,
            timeout=300,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert result.returncode == 0, result.stderr

    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "motif_significance.py",
            "community_benchmark.py",
            "degree_distribution_null_models.py",
        } <= names
