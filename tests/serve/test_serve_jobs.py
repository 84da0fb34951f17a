"""Admission validation, typed errors, and spec round-tripping."""

import numpy as np
import pytest

from repro.core.generate import generation_fingerprint
from repro.graph.degree import DegreeDistribution
from repro.parallel.runtime import ParallelConfig
from repro.serve.jobs import AdmissionError, JobSpec, admit


CFG = ParallelConfig(threads=4, backend="vectorized", seed=7)


class TestAdmitGenerate:
    def test_valid_classes(self):
        job = admit(JobSpec(degrees=(1, 2, 3), counts=(6, 4, 2)), CFG)
        assert job.kind == "generate"
        assert job.dist is not None and job.graph is None
        assert len(job.fingerprint) == 64

    def test_valid_sequence_collapses(self):
        job = admit(JobSpec(degree_sequence=(2, 1, 2, 1)), CFG)
        assert job.dist.n == 4

    def test_fingerprint_matches_checkpoint_digest(self):
        spec = JobSpec(degrees=(1, 2, 3), counts=(6, 4, 2), swap_iterations=5)
        job = admit(spec, CFG)
        dist = DegreeDistribution((1, 2, 3), (6, 4, 2))
        assert job.fingerprint == generation_fingerprint(dist, 5, CFG, None)

    def test_fingerprint_pins_seed_and_iterations(self):
        spec = JobSpec(degrees=(1, 2), counts=(4, 2), swap_iterations=3)
        base = admit(spec, CFG).fingerprint
        other_cfg = ParallelConfig(threads=4, backend="vectorized", seed=8)
        assert admit(spec, other_cfg).fingerprint != base
        spec2 = JobSpec(degrees=(1, 2), counts=(4, 2), swap_iterations=4)
        assert admit(spec2, CFG).fingerprint != base
        # the backend is excluded from the fingerprint
        serial_cfg = ParallelConfig(threads=4, backend="serial", seed=7)
        assert admit(spec, serial_cfg).fingerprint == base

    def test_non_graphical_rejected_with_violation(self):
        with pytest.raises(AdmissionError) as err:
            admit(JobSpec(degree_sequence=(3, 1)), CFG)
        info = err.value.to_dict()
        assert info["reason"] == "invalid"
        assert "violation" in info

    def test_invalid_distribution_rejected(self):
        with pytest.raises(AdmissionError, match="invalid degree"):
            admit(JobSpec(degrees=(2, 1), counts=(1, 1)), CFG)  # not increasing

    def test_both_input_forms_rejected(self):
        with pytest.raises(AdmissionError, match="exactly one"):
            admit(
                JobSpec(degrees=(1,), counts=(2,), degree_sequence=(1, 1)),
                CFG,
            )

    def test_no_input_rejected(self):
        with pytest.raises(AdmissionError, match="exactly one"):
            admit(JobSpec(), CFG)


class TestAdmitSwap:
    def test_valid_text(self):
        job = admit(
            JobSpec(kind="swap", edges_text="# n=4\n0 1\n2 3\n"), CFG
        )
        assert job.graph.m == 2 and job.graph.n == 4
        assert job.dist is None

    def test_valid_arrays(self):
        job = admit(JobSpec(kind="swap", u=(0, 2), v=(1, 3), n=4), CFG)
        assert job.graph.m == 2

    def test_malformed_text_reports_line(self):
        with pytest.raises(AdmissionError) as err:
            admit(JobSpec(kind="swap", edges_text="0 1\n2 x\n"), CFG)
        assert err.value.to_dict()["line"] == 2

    def test_fingerprint_content_addressed(self):
        a = admit(JobSpec(kind="swap", u=(0, 2), v=(1, 3), n=4), CFG)
        b = admit(JobSpec(kind="swap", edges_text="# n=4\n0 1\n2 3\n"), CFG)
        # same edges, different encodings: same identity
        assert a.fingerprint == b.fingerprint
        c = admit(JobSpec(kind="swap", u=(0, 2), v=(1, 3), n=5), CFG)
        assert c.fingerprint != a.fingerprint

    def test_empty_rejected(self):
        with pytest.raises(AdmissionError, match="non-empty"):
            admit(JobSpec(kind="swap", edges_text="# comment only\n"), CFG)


class TestSpecHygiene:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"kind": "mystery"}, "unknown job kind"),
            ({"priority": "urgent"}, "unknown priority"),
            ({"swap_iterations": -1}, "swap_iterations"),
            ({"deadline": 0.0}, "deadline"),
            ({"deadline": -1.0}, "deadline"),
            ({"max_retries": -2}, "max_retries"),
        ],
    )
    def test_bad_fields_rejected(self, kwargs, match):
        base = dict(degrees=(1, 2), counts=(4, 2))
        base.update(kwargs)
        with pytest.raises(AdmissionError, match=match):
            admit(JobSpec(**base), CFG)

    def test_round_trip(self):
        spec = JobSpec(
            kind="swap", u=np.array([0, 2]), v=np.array([1, 3]), n=4,
            seed=9, swap_iterations=7, priority="high", deadline=1.5,
        )
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert admit(clone, CFG).fingerprint == admit(spec, CFG).fingerprint

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(AdmissionError, match="unknown job spec fields"):
            JobSpec.from_dict({"degrees": [1], "counts": [2], "exploit": 1})

    def test_error_to_dict_shape(self):
        try:
            admit(JobSpec(kind="nope"), CFG)
        except AdmissionError as exc:
            info = exc.to_dict()
        assert info["error"] == "AdmissionError"
        assert info["reason"] == "invalid"
        assert "message" in info
