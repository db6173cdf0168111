"""4-LUT mode end-to-end (paper Sec. III-A: two 4-LUTs per row).

4-LUT mode doubles the LUT slots per cycle by packing two 16-bit
truth tables into each 32-bit configuration row.  These tests run the
full pipeline — map at k=4, schedule in 4-LUT mode, execute on MCCs
configured with eight 4-input mux trees — and compare with simulation.
"""

import random

import numpy as np
import pytest

from repro.circuits import CircuitBuilder, simulate, technology_map
from repro.circuits.library import build_pe
from repro.folding import (
    TileResources,
    generate_config,
    list_schedule,
    validate_schedule,
)
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile


def lut4_pipeline(netlist, mccs=1):
    mapped = technology_map(netlist, k=4).netlist
    schedule = list_schedule(mapped, TileResources(mccs=mccs, lut_inputs=4))
    validate_schedule(schedule, strict=True)
    executor = FoldedExecutor(schedule, make_tile(mccs, lut_inputs=4))
    executor.load_configuration()
    return mapped, schedule, executor


class TestFourLutExecution:
    @pytest.mark.parametrize("name", ["VADD", "NW", "SRT"])
    def test_benchmarks_match_simulation(self, name):
        pe = build_pe(name)
        mapped, _, executor = lut4_pipeline(pe.netlist, mccs=2)
        rng = random.Random(13)
        streams = {
            s: [rng.getrandbits(31) for _ in range(n)]
            for s, n in pe.loads.items()
        }
        folded = executor.run(streams=streams)
        assert folded.stores == simulate(mapped, streams=streams).stores

    def test_eight_slots_per_cycle(self):
        resources = TileResources(mccs=1, lut_inputs=4)
        assert resources.luts_per_cycle == 8

    def test_4lut_mode_can_beat_5lut_on_wide_parallel_logic(self):
        """Plenty of independent narrow logic -> more slots win."""
        builder = CircuitBuilder("parallel_xor")
        word_a = builder.bus_load("a")
        word_b = builder.bus_load("b")
        bits = builder.xor_vec(word_a.bits, word_b.bits)
        builder.bus_store("out", builder.word_from_bits(bits))
        netlist = builder.netlist

        mapped5 = technology_map(netlist, k=5).netlist
        sched5 = list_schedule(mapped5, TileResources(mccs=1, lut_inputs=5))
        mapped4 = technology_map(netlist, k=4).netlist
        sched4 = list_schedule(mapped4, TileResources(mccs=1, lut_inputs=4))
        assert sched4.compute_cycles <= sched5.compute_cycles

    def test_config_rows_hold_two_tables(self):
        pe = build_pe("VADD")
        mapped = technology_map(pe.netlist, k=4).netlist
        schedule = list_schedule(mapped, TileResources(lut_inputs=4))
        image = generate_config(schedule)
        # 8 logical units in 4 stored columns.
        assert image.words.shape[1] == 4


class TestConfigVerification:
    def test_checksum_stable(self):
        pe = build_pe("VADD")
        mapped = technology_map(pe.netlist, k=5).netlist
        schedule = list_schedule(mapped, TileResources())
        assert np.array_equal(generate_config(schedule).words,
                              generate_config(schedule).words)

    def test_verify_detects_corruption(self):
        pe = build_pe("VADD")
        mapped = technology_map(pe.netlist, k=5).netlist
        schedule = list_schedule(mapped, TileResources())
        tile = make_tile(1)
        executor = FoldedExecutor(schedule, tile)
        executor.load_configuration()
        assert executor.verify_configuration()
        tile[0].subarrays[2].write_row(0, 0xBAD)
        assert not executor.verify_configuration()

    def test_verify_requires_loaded_segment(self):
        pe = build_pe("VADD")
        mapped = technology_map(pe.netlist, k=5).netlist
        schedule = list_schedule(mapped, TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            executor.verify_configuration()


class TestLutMode:
    """The MCC's LUT mode must match the schedule's LUT width."""

    def test_mismatched_tile_mode_rejected_before_running(self):
        from repro.errors import DeviceError

        mapped = technology_map(build_pe("NW").netlist, k=4).netlist
        schedule = list_schedule(mapped, TileResources(lut_inputs=4))
        tile = make_tile(1)
        with pytest.raises(DeviceError, match="5-LUT mode"):
            FoldedExecutor(schedule, tile)
        assert all(sub.writes == 0 for sub in tile[0].subarrays)

    def test_set_lut_mode_resizes_the_lut_units(self):
        (mcc,) = make_tile(1)
        assert (mcc.lut_inputs, len(mcc.luts)) == (5, 4)
        mcc.set_lut_mode(4)
        assert (mcc.lut_inputs, len(mcc.luts)) == (4, 8)
        assert all(lut.inputs == 4 for lut in mcc.luts)
        mcc.set_lut_mode(5)
        assert (mcc.lut_inputs, len(mcc.luts)) == (5, 4)

    def test_controller_programs_the_schedule_mode(self):
        """A default (5-LUT) slice serves a k=4 program, and a warm
        slice switches k when programmed again."""
        from repro.circuits.library import mapped_pe
        from repro.folding.schedule import OpSlot
        from repro.freac.ccctrl import ComputeClusterController
        from repro.freac.compute_slice import (
            ReconfigurableComputeSlice,
            SlicePartition,
        )

        compute_slice = ReconfigurableComputeSlice()
        controller = ComputeClusterController(compute_slice)
        controller.setup(SlicePartition(2, 2))
        k4 = list_schedule(mapped_pe("NW", 4), TileResources(lut_inputs=4))
        k5 = list_schedule(mapped_pe("NW", 5), TileResources(lut_inputs=5))
        controller.program(k4)
        assert {mcc.lut_inputs for mcc in compute_slice.mccs} == {4}
        # The k=4 schedule addresses LUT units a 5-LUT MCC lacks.
        assert max(op.unit for op in k4.ops if op.slot is OpSlot.LUT) >= 4
        controller.program(k5)
        assert {mcc.lut_inputs for mcc in compute_slice.mccs} == {5}
        controller.program(k4)
        assert {mcc.lut_inputs for mcc in compute_slice.mccs} == {4}
