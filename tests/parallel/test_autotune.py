"""Property tests for the cost model's simulated p-thread time.

:meth:`repro.parallel.cost_model.PhaseCost.simulated_seconds` is Brent's
bound scaled by the phase's measured seconds; these properties hold for
any work, span, measurement and thread count.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.cost_model import PhaseCost


class TestCostModelProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        work=st.floats(1.0, 10**9, allow_nan=False),
        depth_frac=st.floats(0.0, 1.0, allow_nan=False),
        seconds=st.one_of(st.just(0.0), st.floats(1e-9, 1000.0, allow_nan=False)),
        threads=st.integers(1, 1024),
    )
    def test_simulated_seconds_positive_and_monotone_in_threads(
        self, work, depth_frac, seconds, threads
    ):
        """More simulated threads never slows the modeled phase down."""
        phase = PhaseCost("p", work=work, depth=work * depth_frac, seconds=seconds)
        t = phase.simulated_seconds(threads)
        assert t > 0
        assert phase.simulated_seconds(2 * threads) <= t * (1 + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        work=st.floats(1.0, 10**6, allow_nan=False),
        threads=st.integers(1, 64),
    )
    def test_brents_bound_never_beats_span(self, work, threads):
        """T_p >= max(W/p, D) * c — the bound's defining inequality."""
        phase = PhaseCost("p", work=work, depth=min(work, 8.0), seconds=1.0)
        cost_per_op = 1.0 / work
        t = phase.simulated_seconds(threads)
        assert t >= max(work / threads, phase.depth) * cost_per_op * (1 - 1e-9)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            PhaseCost("p", work=-1.0, depth=0.0)
        with pytest.raises(ValueError):
            PhaseCost("p", work=1.0, depth=2.0)
