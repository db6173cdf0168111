"""Folding schedulers: legality on every PE, quality relations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import CircuitBuilder, technology_map
from repro.circuits.io import netlist_to_dict
from repro.circuits.library import mapped_pe, pe_names
from repro.errors import SchedulingError
from repro.folding import (
    TileResources,
    level_schedule,
    list_schedule,
    validate_schedule,
)
from repro.folding.io import schedule_to_dict

from .test_compile_pins import digest

FAST_PES = [name for name in pe_names() if name != "AES"]
SIZES = (1, 2, 4, 8)

# Digests of the mapped AES netlist and its list schedules, pinned like
# the other PEs' in test_compile_pins.py (re-pinning means bumping
# SCHEDULER_VERSION).  Tile 1 spills about 1.5k values.
AES_NETLIST_PIN = "48f4244caeb7bd96"
AES_SCHEDULE_PINS = {
    1: "c7491c4640b1497d",
    8: "7a4c94b2bcca61cf",
    32: "85f52e559a5aeb15",
}


class TestLegality:
    @pytest.mark.parametrize("name", FAST_PES)
    @pytest.mark.parametrize("mccs", SIZES)
    def test_list_schedule_is_legal(self, name, mccs):
        schedule = list_schedule(mapped_pe(name), TileResources(mccs=mccs))
        validate_schedule(schedule, strict=True)

    @pytest.mark.parametrize("name", FAST_PES)
    def test_level_schedule_is_legal(self, name):
        schedule = level_schedule(mapped_pe(name), TileResources(mccs=2))
        validate_schedule(schedule, strict=True)

    @pytest.mark.slow
    @pytest.mark.parametrize("mccs", (1, 8, 32))
    def test_aes_schedules_are_legal(self, mccs):
        netlist = mapped_pe("AES")
        schedule = list_schedule(netlist, TileResources(mccs=mccs))
        validate_schedule(schedule, strict=True)
        assert digest(netlist_to_dict(netlist)) == AES_NETLIST_PIN
        assert digest(schedule_to_dict(schedule)) == AES_SCHEDULE_PINS[mccs]

    def test_unmapped_gates_rejected(self):
        builder = CircuitBuilder()
        a = builder.bit_input("a")
        builder.output_bit("f", builder.not_(a))
        with pytest.raises(SchedulingError):
            list_schedule(builder.netlist, TileResources())

    def test_wide_luts_rejected_in_4lut_mode(self):
        builder = CircuitBuilder()
        bits = [builder.bit_input(f"x{i}") for i in range(5)]
        builder.output_bit("f", builder.raw_lut(bits, 1))
        netlist = technology_map(builder.netlist, k=5).netlist
        with pytest.raises(SchedulingError):
            list_schedule(netlist, TileResources(lut_inputs=4))


class TestQuality:
    @pytest.mark.parametrize("name", FAST_PES)
    def test_more_mccs_never_hurt_compute_cycles(self, name):
        netlist = mapped_pe(name)
        previous = None
        for mccs in SIZES:
            schedule = list_schedule(netlist, TileResources(mccs=mccs))
            if previous is not None:
                assert schedule.compute_cycles <= previous
            previous = schedule.compute_cycles

    @pytest.mark.parametrize("name", FAST_PES)
    def test_list_beats_or_ties_level(self, name):
        netlist = mapped_pe(name)
        resources = TileResources(mccs=2)
        packed = list_schedule(netlist, resources)
        levelled = level_schedule(netlist, resources)
        assert packed.compute_cycles <= levelled.compute_cycles

    def test_compute_cycles_lower_bound(self):
        """Folds >= ops / slots for every resource class."""
        netlist = mapped_pe("NW")
        resources = TileResources(mccs=1)
        schedule = list_schedule(netlist, resources)
        assert schedule.compute_cycles >= schedule.lut_ops / resources.luts_per_cycle
        bus_ops = schedule.bus_words - schedule.spills.spill_words
        assert schedule.compute_cycles >= bus_ops / resources.bus_ops_per_cycle

    def test_mac_chain_respects_dependences(self):
        builder = CircuitBuilder()
        acc = builder.const_word(0)
        for _ in range(6):
            acc = builder.mac(builder.bus_load("a"), builder.bus_load("b"), acc)
        builder.bus_store("out", acc)
        netlist = technology_map(builder.netlist, k=5).netlist
        # Even with unlimited MCCs the serial chain needs 6 MAC cycles
        # plus a load before and a store after.
        schedule = list_schedule(netlist, TileResources(mccs=32))
        assert schedule.compute_cycles >= 8


class TestSpilling:
    def test_spills_reported_when_pressure_exceeds_ffs(self):
        """Many long-lived loads must overflow one MCC's 256 FF bits."""
        builder = CircuitBuilder()
        loads = [builder.bus_load("a") for _ in range(32)]  # 1024 bits live
        acc = loads[0]
        for word in loads[1:]:
            acc = builder.add_words_mac(acc, word)
        builder.bus_store("out", acc)
        netlist = technology_map(builder.netlist, k=5).netlist
        schedule = list_schedule(netlist, TileResources(mccs=1))
        assert schedule.max_live_bits <= 256 or schedule.spills.spilled_values > 0
        # Spill traffic is charged as bus words and extra cycles.
        if schedule.spills.spilled_values:
            assert schedule.spills.spill_words >= 2
            assert schedule.spills.spill_cycles >= 1

    def test_no_spills_on_tiny_circuits(self):
        builder = CircuitBuilder()
        builder.bus_store(
            "out",
            builder.mac(builder.bus_load("a"), builder.bus_load("b"),
                        builder.const_word(0)),
        )
        schedule = list_schedule(
            technology_map(builder.netlist, k=5).netlist, TileResources()
        )
        assert schedule.spills.spilled_values == 0

    @pytest.mark.parametrize("name", FAST_PES)
    def test_post_spill_pressure_fits(self, name):
        schedule = list_schedule(mapped_pe(name), TileResources(mccs=1))
        assert schedule.max_live_bits <= schedule.resources.ff_bits


class TestDeterminism:
    @given(st.sampled_from(FAST_PES), st.sampled_from(SIZES))
    @settings(max_examples=10, deadline=None)
    def test_scheduling_is_deterministic(self, name, mccs):
        netlist = mapped_pe(name)
        first = list_schedule(netlist, TileResources(mccs=mccs))
        second = list_schedule(netlist, TileResources(mccs=mccs))
        assert first.ops == second.ops
