"""CC Ctrl: lifecycle protocol and batch execution."""

import pytest

from repro.errors import DeviceError, ProtocolError
from repro.folding import TileResources, list_schedule
from repro.circuits import CircuitBuilder, technology_map
from repro.circuits.library import mapped_pe
from repro.freac.ccctrl import ComputeClusterController, ControllerState
from repro.freac.compute_slice import ReconfigurableComputeSlice, SlicePartition
from repro.freac.executor import StreamBinding
from repro.freac.timing import config_time_s, reconfig_time_s


def make_controller():
    return ComputeClusterController(ReconfigurableComputeSlice())


def vadd_schedule(mccs=1):
    return list_schedule(mapped_pe("VADD"), TileResources(mccs=mccs))


class TestProtocolOrder:
    def test_program_before_setup_rejected(self):
        controller = make_controller()
        with pytest.raises(ProtocolError):
            controller.program(vadd_schedule())

    def test_run_before_program_rejected(self):
        controller = make_controller()
        controller.setup(SlicePartition(2, 2))
        with pytest.raises(ProtocolError):
            controller.run_item(0, streams={})

    def test_double_setup_rejected(self):
        controller = make_controller()
        controller.setup(SlicePartition(2, 2))
        with pytest.raises(ProtocolError):
            controller.setup(SlicePartition(2, 2))

    def test_teardown_resets(self):
        controller = make_controller()
        controller.setup(SlicePartition(2, 2))
        controller.teardown()
        assert controller.state is ControllerState.IDLE
        controller.setup(SlicePartition(4, 4))  # reusable

    def test_fill_requires_partition(self):
        with pytest.raises(ProtocolError):
            make_controller().fill_scratchpad(0, [1])

    def test_fill_requires_scratchpad_ways(self):
        controller = make_controller()
        controller.setup(SlicePartition(2, 0))
        with pytest.raises(DeviceError):
            controller.fill_scratchpad(0, [1])


class TestSetupReport:
    def test_reports_geometry(self):
        controller = make_controller()
        report = controller.setup(SlicePartition(16, 4))
        assert report.mccs == 32
        assert report.scratchpad_bytes == 256 * 1024

    def test_flush_cost_scales_with_dirty_lines(self):
        controller = make_controller()
        cache = controller.slice.cache
        for set_index in range(64):
            cache.fill(set_index, tag=1, data=bytes(64), dirty=True)
        report = controller.setup(SlicePartition(20, 0))
        assert report.flushed_dirty_lines == 64
        assert report.flushed_bytes == 64 * 64
        assert report.flush_time_s > 0


class TestProgramAndRun:
    def test_program_instantiates_all_tiles(self):
        controller = make_controller()
        controller.setup(SlicePartition(4, 2))
        report = controller.program(vadd_schedule())
        assert report.tiles == 8
        assert report.config_words_total > 0
        assert controller.state is ControllerState.CONFIGURED

    def test_program_larger_tiles(self):
        controller = make_controller()
        controller.setup(SlicePartition(4, 2))
        report = controller.program(vadd_schedule(mccs=4))
        assert report.tiles == 2

    def test_run_batch_round_robin(self):
        controller = make_controller()
        controller.setup(SlicePartition(4, 2))
        controller.program(vadd_schedule())
        controller.fill_scratchpad(0, [1, 2, 3, 4])
        controller.fill_scratchpad(100, [10, 20, 30, 40])
        binding = {
            "a": StreamBinding(0, 1),
            "b": StreamBinding(100, 1),
            "c": StreamBinding(200, 1),
        }
        stats = controller.run_batch(4, binding)
        assert stats.invocations == 4
        assert controller.read_scratchpad(200, 4) == [11, 22, 33, 44]

    def test_back_to_back_batches_report_their_own_counters(self):
        """Each batch returns its own counters, not running totals."""
        controller = make_controller()
        controller.setup(SlicePartition(4, 2))
        schedule = vadd_schedule()
        controller.program(schedule)
        controller.fill_scratchpad(0, [1, 2, 3, 4])
        controller.fill_scratchpad(100, [10, 20, 30, 40])
        binding = {
            "a": StreamBinding(0, 1),
            "b": StreamBinding(100, 1),
            "c": StreamBinding(200, 1),
        }
        first = controller.run_batch(4, binding)
        second = controller.run_batch(4, binding)
        assert first.invocations == second.invocations == 4
        # Four items on eight tiles: one fold per tile, in parallel.
        assert first.cycles == second.cycles == schedule.fold_cycles
        assert first == second
        assert controller.run_batch_reference(4, binding) == first

    def test_sequential_netlist_falls_back_tile_by_tile(self):
        """Flip-flop state threads item to item, so each tile runs its
        own items on the reference loop, one fallback per tile."""
        builder = CircuitBuilder()
        word = builder.bus_load("in")
        state = builder.flipflop(init=0)
        updated = builder.xor_(state, word.bits[0])
        builder.bind_flipflop(state, updated)
        builder.bus_store("out", builder.word_from_bits([updated]))
        netlist = technology_map(builder.netlist, k=5).netlist
        controller = make_controller()
        controller.setup(SlicePartition(2, 2))
        controller.program(list_schedule(netlist, TileResources()))
        assert controller.tiles == 4
        controller.fill_scratchpad(0, [1] * 6)
        binding = {"in": StreamBinding(0, 1), "out": StreamBinding(100, 1)}
        stats = controller.run_batch(6, binding)
        assert stats.invocations == 6
        assert stats.engine_fallbacks == 4
        # Tiles 0 and 1 toggle twice (items 0, 4 and 1, 5).
        assert controller.read_scratchpad(100, 6) == [1, 1, 1, 1, 0, 0]

    def test_run_item_tile_bounds(self):
        controller = make_controller()
        controller.setup(SlicePartition(2, 2))
        controller.program(vadd_schedule())
        with pytest.raises(DeviceError):
            controller.run_item(99, streams={"a": [1], "b": [2]})

    def test_config_time_positive(self):
        controller = make_controller()
        controller.setup(SlicePartition(2, 2))
        report = controller.program(vadd_schedule())
        assert report.config_time_s > 0
        assert report.segments == 1

    def test_verify_configuration_scrubs_all_tiles(self):
        controller = make_controller()
        controller.setup(SlicePartition(4, 2))
        controller.program(vadd_schedule())
        assert controller.verify_configuration()
        # Corrupt one tile's config SRAM: the scrub must notice.
        victim = controller.executors[3].tile[0].subarrays[0]
        victim.write_row(0, victim.peek(0) ^ 0xFFFF)
        assert not controller.verify_configuration()

    def test_verify_requires_programmed_state(self):
        controller = make_controller()
        controller.setup(SlicePartition(2, 2))
        with pytest.raises(ProtocolError):
            controller.verify_configuration()


class TestProgramBilling:
    """One billing rule for configuration writes: a tile's words (the
    whole image on a fresh slice, the delta against the resident image
    on a warm one) streamed over that tile's MCCs, as the timing model
    bills them, and the same words on every tile."""

    def test_reports_bill_what_the_timing_model_bills(self):
        controller = make_controller()
        controller.setup(SlicePartition(4, 2))
        clock = controller.clock_hz
        srt = list_schedule(mapped_pe("SRT"), TileResources())
        cold = controller.program(srt)
        image = controller.config_image
        assert (cold.tiles, cold.delta) == (8, False)
        assert cold.config_time_s == config_time_s(image, clock)
        assert cold.config_words_total == image.total_words * cold.tiles

        controller.teardown()
        controller.setup(SlicePartition(4, 2))
        controller.program(vadd_schedule())
        resident = controller.config_image
        warm = controller.program(srt)
        assert warm.delta
        assert warm.config_time_s == reconfig_time_s(image, resident, clock)
        assert warm.config_words_total == (
            image.delta_words(resident) * warm.tiles
        )
        assert 0 < warm.config_time_s < cold.config_time_s

        again = controller.program(srt)
        assert (again.config_words_total, again.config_time_s) == (0, 0.0)
