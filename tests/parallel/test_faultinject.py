"""Fault-plan grammar: the specs the resume and bit-rot drills arm."""

import pytest

from repro.parallel.faultinject import FaultSpec, parse_plan


class TestPlanParsing:
    def test_empty_yields_none(self):
        assert parse_plan("") is None
        assert parse_plan(None) is None

    @pytest.mark.parametrize(
        "bad",
        ["explode:w0:tas:0", "kill:0:tas:0", "kill:w0:tas", "kill:w0:tas:-1",
         "kill:w0:tas:0:3", "shm:1:2"],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(ValueError):
            parse_plan(bad)

    @pytest.mark.parametrize(
        "bad",
        ["parentkill:checkpoint", "parentkill:checkpoint:-1",
         "parentkill:checkpoint:0:3", "bitflip:table", "bitflip:table:0:y2"],
    )
    def test_malformed_surviving_kinds_raise(self, bad):
        with pytest.raises(ValueError):
            parse_plan(bad)

    def test_spec_matching(self):
        s = FaultSpec("parentkill", "checkpoint", 2)
        assert s.matches("checkpoint", 2)
        assert not s.matches("checkpoint", 1)
        assert not s.matches("table", 2)
        assert not FaultSpec("parentkill", "checkpoint", 2, times=0).matches(
            "checkpoint", 2
        )

    def test_kill_spec(self):
        plan = parse_plan("parentkill:checkpoint:1")
        assert plan.parent_specs == (FaultSpec("parentkill", "checkpoint", 1),)
        assert plan.bitflip_specs == ()

    def test_repeat_and_wildcards(self):
        plan = parse_plan("parentkill:checkpoint:1:x2")
        assert plan.parent_specs == (FaultSpec("parentkill", "checkpoint", 1, 2),)
        # a bitflip names its artifact exactly; there is no wildcard target
        with pytest.raises(ValueError):
            parse_plan("bitflip:*:0")

    def test_multiple_specs(self):
        plan = parse_plan("parentkill:checkpoint:0, bitflip:table:2")
        assert plan.parent_specs == (FaultSpec("parentkill", "checkpoint", 0),)
        assert plan.bitflip_specs == (FaultSpec("bitflip", "table", 2),)
