"""Bit-rot injection plans: grammar, arming, and flip semantics."""

import numpy as np
import pytest

from repro.parallel import faultinject
from repro.parallel.faultinject import (
    BITFLIP_ARTIFACTS,
    arm_bitflip_faults,
    consume_bitflip,
    disarm_bitflip_faults,
    maybe_flip_array,
    maybe_flip_file,
    parse_plan,
)


@pytest.fixture(autouse=True)
def _disarm():
    yield
    disarm_bitflip_faults()


class TestGrammar:
    def test_parse_bitflip(self):
        plan = parse_plan("bitflip:table:0")
        assert plan
        assert len(plan.bitflip_specs) == 1
        spec = plan.bitflip_specs[0]
        assert spec.kind == "bitflip"
        assert spec.op == "table"
        assert spec.index == 0

    def test_parse_with_times(self):
        plan = parse_plan("bitflip:spill:1:x3")
        assert plan.bitflip_specs[0].times == 3

    def test_every_artifact_accepted(self):
        for artifact in BITFLIP_ARTIFACTS:
            assert parse_plan(f"bitflip:{artifact}:0").bitflip_specs

    def test_unknown_artifact_rejected(self):
        with pytest.raises(ValueError):
            parse_plan("bitflip:heap:0")

    def test_mixes_with_other_specs(self):
        plan = parse_plan("parentkill:checkpoint:1,bitflip:spill:0")
        assert plan.parent_specs and plan.bitflip_specs


class TestConsume:
    def test_counts_opportunities(self):
        arm_bitflip_faults(parse_plan("bitflip:table:1"))
        assert not consume_bitflip("table")  # opportunity 0
        assert consume_bitflip("table")      # opportunity 1
        assert not consume_bitflip("table")  # spent

    def test_artifacts_independent(self):
        arm_bitflip_faults(parse_plan("bitflip:spill:0"))
        assert not consume_bitflip("table")
        assert consume_bitflip("spill")

    def test_disarm(self):
        arm_bitflip_faults(parse_plan("bitflip:table:0"))
        disarm_bitflip_faults()
        assert not consume_bitflip("table")

    def test_rearm_same_plan_keeps_counters(self):
        plan = parse_plan("bitflip:table:0")
        arm_bitflip_faults(plan)
        assert consume_bitflip("table")
        arm_bitflip_faults(plan)  # idempotent re-arm (e.g. arm_from twice)
        assert not consume_bitflip("table")


class TestFlipArray:
    def test_flips_one_bit(self):
        arm_bitflip_faults(parse_plan("bitflip:table:0"))
        arr = np.zeros(9, dtype=np.int64)
        assert maybe_flip_array("table", arr)
        assert arr[4] == 1 << 17
        assert np.count_nonzero(arr) == 1

    def test_unarmed_is_noop(self):
        arr = np.zeros(9, dtype=np.int64)
        assert not maybe_flip_array("table", arr)
        assert not arr.any()

    def test_flips_frozen_array_and_refreezes(self):
        arm_bitflip_faults(parse_plan("bitflip:cache:0"))
        arr = np.zeros(5, dtype=np.int64)
        arr.setflags(write=False)
        assert maybe_flip_array("cache", arr)
        assert not arr.flags.writeable
        assert arr[2] == 1 << 17

    def test_empty_array(self):
        arm_bitflip_faults(parse_plan("bitflip:table:0"))
        assert not maybe_flip_array("table", np.empty(0, dtype=np.int64))


class TestFlipFile:
    def test_flips_middle_byte(self, tmp_path):
        arm_bitflip_faults(parse_plan("bitflip:checkpoint:0"))
        path = tmp_path / "payload.bin"
        path.write_bytes(b"\x00" * 100)
        assert maybe_flip_file("checkpoint", path)
        data = path.read_bytes()
        assert data[50] == 0x20
        assert data.count(0) == 99

    def test_unarmed_leaves_file(self, tmp_path):
        path = tmp_path / "payload.bin"
        path.write_bytes(b"\x00" * 10)
        assert not maybe_flip_file("checkpoint", path)
        assert path.read_bytes() == b"\x00" * 10


class TestArmFrom:
    def test_arm_from_config(self):
        from repro.parallel.runtime import ParallelConfig

        cfg = ParallelConfig(faults="bitflip:spill:0")
        faultinject.arm_from(cfg)
        assert consume_bitflip("spill")
