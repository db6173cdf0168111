"""Failure injection (DESIGN.md extension).

These tests prove the model is *load-bearing*: corrupting state the
hardware would rely on (configuration rows, scratchpad words, stream
lengths) produces observable failures, not silent success.
"""

import pytest

from repro.circuits import simulate
from repro.circuits.library import mapped_pe
from repro.errors import CapacityError, CircuitError
from repro.folding import TileResources, list_schedule
from repro.folding.schedule import OpSlot
from repro.freac.compute_slice import ReconfigurableComputeSlice, SlicePartition
from repro.freac.executor import FoldedExecutor, StreamBinding
from repro.freac.mcc import make_tile


def make_executor(name="VADD", mccs=1):
    netlist = mapped_pe(name)
    schedule = list_schedule(netlist, TileResources(mccs=mccs))
    executor = FoldedExecutor(schedule, make_tile(mccs))
    executor.load_configuration()
    return executor, schedule


def corrupt_first_lut_row(executor, schedule):
    """Invert the truth table in the config row of a scheduled LUT."""
    lut_op = next(op for op in schedule.ops if op.slot is OpSlot.LUT)
    subarray = executor.tile[lut_op.mcc].subarrays[lut_op.unit]
    original = subarray.peek(lut_op.cycle - 1)
    subarray.write_row(lut_op.cycle - 1, original ^ 0xFFFFFFFF)


class TestConfigCorruption:
    def test_flipped_config_row_changes_output(self):
        """The executor computes from SRAM rows, so a single corrupted
        truth table must corrupt the result."""
        executor, schedule = make_executor("VADD")
        baseline = executor.run(streams={"a": [123456], "b": [654321]})
        corrupt_first_lut_row(executor, schedule)
        corrupted = executor.run(streams={"a": [123456], "b": [654321]})
        assert corrupted.stores != baseline.stores

    def test_flipped_config_row_changes_batch_output(self):
        """The production batch path (the compiled plan) reads the same
        rows, so the same corruption corrupts its result too."""
        executor, schedule = make_executor("VADD")
        streams = {"a": [[123456]], "b": [[654321]]}
        baseline = executor.run_batch(1, streams=streams)
        corrupt_first_lut_row(executor, schedule)
        corrupted = executor.run_batch(1, streams=streams)
        assert corrupted.engine == "specialized"
        assert corrupted.item_stores(0) != baseline.item_stores(0)
        assert corrupted.item_stores(0) == executor.run(
            streams={"a": [123456], "b": [654321]}
        ).stores

    def test_reloading_config_heals_corruption(self):
        executor, schedule = make_executor("VADD")
        good = executor.run(streams={"a": [7], "b": [9]})
        executor.tile[0].subarrays[0].write_row(0, 0xDEAD)
        executor.load_configuration()
        healed = executor.run(streams={"a": [7], "b": [9]})
        assert healed.stores == good.stores


class TestScratchpadFaults:
    def _device(self):
        compute_slice = ReconfigurableComputeSlice()
        compute_slice.apply_partition(SlicePartition(2, 1))
        netlist = mapped_pe("VADD")
        schedule = list_schedule(netlist, TileResources())
        executor = FoldedExecutor(
            schedule, compute_slice.tiles(1)[0], compute_slice.scratchpad
        )
        executor.load_configuration()
        return compute_slice, executor

    def test_out_of_range_binding_trips_capacity_error(self):
        _, executor = self._device()
        binding = {
            "a": StreamBinding(0, 1),
            "b": StreamBinding(1, 1),
            "c": StreamBinding(10**7, 1),  # beyond the 64 KB way
        }
        with pytest.raises(CapacityError):
            executor.run(scratchpad_map=binding)

    def test_corrupted_scratchpad_word_corrupts_result(self):
        compute_slice, executor = self._device()
        pad = compute_slice.scratchpad
        pad.fill_words(0, [100])
        pad.fill_words(10, [23])
        binding = {
            "a": StreamBinding(0, 1),
            "b": StreamBinding(10, 1),
            "c": StreamBinding(20, 1),
        }
        executor.run(scratchpad_map=binding)
        assert pad.read_word(20) == 123
        pad.write_word(10, 24)  # a co-runner scribbles on the operand
        executor.run(scratchpad_map=binding)
        assert pad.read_word(20) == 124


class TestStreamFaults:
    def test_short_stream_raises(self):
        executor, _ = make_executor("DOT")
        with pytest.raises(CircuitError):
            executor.run(streams={"a": [1] * 3, "w": [1] * 8})

    def test_missing_stream_raises(self):
        executor, _ = make_executor("DOT")
        with pytest.raises(CircuitError):
            executor.run(streams={"a": [1] * 8})


class TestCrossCheckWithSimulation:
    @pytest.mark.parametrize("name", ["NW", "SRT", "KMP"])
    def test_executor_never_silently_diverges(self, name):
        """Same streams through the executor and the simulator,
        several times over."""
        executor, schedule = make_executor(name, mccs=2)
        from repro.workloads.datagen import dataset_for

        dataset = dataset_for(name, items=5, seed=21)
        for item in range(5):
            streams = dataset.item_streams(item)
            folded = executor.run(streams=streams)
            functional = simulate(schedule.netlist, streams=streams)
            assert folded.stores == functional.stores
