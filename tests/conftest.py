"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro import DegreeDistribution, EdgeList, ParallelConfig


@pytest.fixture
def cfg() -> ParallelConfig:
    """Default configuration with a fixed seed."""
    return ParallelConfig(threads=4, seed=123)


@pytest.fixture
def small_dist() -> DegreeDistribution:
    """A tiny skewed distribution (graphical)."""
    return DegreeDistribution(degrees=[1, 2, 3, 6], counts=[6, 4, 2, 1])


@pytest.fixture
def skewed_dist() -> DegreeDistribution:
    """A mid-sized skewed power-law-like distribution."""
    from repro.datasets.synthetic import deterministic_powerlaw

    return deterministic_powerlaw(n=500, d_avg=4.0, d_max=60, n_classes=20)


@pytest.fixture
def ring_graph() -> EdgeList:
    """A 10-cycle: simple, 2-regular."""
    n = 10
    u = np.arange(n)
    return EdgeList(u, (u + 1) % n, n)
