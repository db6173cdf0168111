"""Configuration bitstream layout."""

import numpy as np
import pytest

from repro.circuits import technology_map
from repro.circuits.library import mapped_pe
from repro.folding import (
    TileResources,
    generate_config,
    list_schedule,
)
from repro.folding.schedule import OpSlot


def schedule_of(name="VADD", mccs=1, lut_inputs=5):
    netlist = mapped_pe(name) if lut_inputs == 5 else technology_map(
        __import__("repro.circuits.library", fromlist=["build_pe"])
        .build_pe(name).netlist, k=4
    ).netlist
    return list_schedule(netlist, TileResources(mccs=mccs, lut_inputs=lut_inputs))


class TestLayout:
    def test_one_word_per_unit_per_cycle(self):
        schedule = schedule_of()
        image = generate_config(schedule)
        # One MCC, four LUT units, one row per folding cycle.
        assert image.words.shape == (1, 4, schedule.compute_cycles)

    def test_scheduled_tables_land_in_rows(self):
        schedule = schedule_of()
        image = generate_config(schedule)
        netlist = schedule.netlist
        for op in schedule.ops:
            if op.slot is not OpSlot.LUT:
                continue
            node = netlist.nodes[op.nid]
            _, table = node.payload
            word = int(image.words[op.mcc, op.unit, op.cycle - 1])
            assert word == table

    def test_idle_slots_are_zero(self):
        schedule = schedule_of()
        image = generate_config(schedule)
        used = {
            (op.mcc, op.unit, op.cycle - 1)
            for op in schedule.ops
            if op.slot is OpSlot.LUT
        }
        for (mcc, unit, row), word in np.ndenumerate(image.words):
            if (mcc, unit, row) not in used:
                assert word == 0

    def test_total_bytes(self):
        image = generate_config(schedule_of())
        assert image.total_bytes == image.total_words * 4
        assert image.lut_config_words == 4 * image.cycles


class TestFourLutPacking:
    def test_two_tables_share_a_row(self):
        from repro.circuits.library import build_pe

        netlist = technology_map(build_pe("VADD").netlist, k=4).netlist
        schedule = list_schedule(netlist, TileResources(lut_inputs=4))
        image = generate_config(schedule)
        # 8 logical units packed into 4 stored rows.
        assert image.words.shape[1] == 4
        for op in schedule.ops:
            if op.slot is not OpSlot.LUT:
                continue
            node = schedule.netlist.nodes[op.nid]
            _, table = node.payload
            word = int(image.words[op.mcc, op.unit // 2, op.cycle - 1])
            half = (word >> (16 * (op.unit % 2))) & 0xFFFF
            assert half == table


class TestCapacity:
    def test_fits_when_short(self):
        image = generate_config(schedule_of())
        assert image.fits_subarrays
        assert image.reload_segments == 1

    def test_segments_when_long(self):
        schedule = schedule_of()
        image = generate_config(schedule, rows_per_subarray=4)
        assert not image.fits_subarrays
        expected = -(-schedule.compute_cycles // 4)
        assert image.reload_segments == expected

    @pytest.mark.slow
    def test_aes_tile1_needs_segmentation(self):
        schedule = list_schedule(mapped_pe("AES"), TileResources(mccs=1))
        image = generate_config(schedule)
        assert image.reload_segments > 1
