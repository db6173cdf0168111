"""compiled plan ≡ reference loop, bit for bit.

The production path (the compiled plan of docs/execution.md, run once
per slice by ``ComputeClusterController.run_batch`` and once per tile
by ``FoldedExecutor.run_batch``) must be indistinguishable from the
scalar per-item loop (``run_batch_reference``, the oracle, tile by
tile) in *everything* the model exposes: outputs, stores, scratchpad
contents, executor stats, and every access counter down to the
individual sub-arrays.  These tests run the two side by side on
identical hardware state and diff all of it.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import CircuitBuilder, simulate, technology_map
from repro.circuits.library import build_pe, mapped_pe, pe_names
from repro.errors import DeviceError
from repro.folding import TileResources, list_schedule
from repro.folding.schedule import OpSlot
from repro.freac.ccctrl import ComputeClusterController
from repro.freac.compute_slice import ReconfigurableComputeSlice, SlicePartition
from repro.freac.executor import (
    BatchResult,
    ExecutionStats,
    FoldedExecutor,
    StreamBinding,
)
from repro.freac.mcc import make_tile
from repro.params import SliceParams, SubarrayParams

FAST_PES = [name for name in pe_names() if name != "AES"]
PATHS = ("reference", "specialized")


def make_executors(schedule, mccs, params=None):
    """The oracle and the plan path on identical fresh hardware."""
    k = schedule.resources.lut_inputs
    reference = FoldedExecutor(schedule, make_tile(mccs, params, k))
    plan = FoldedExecutor(schedule, make_tile(mccs, params, k))
    reference.load_configuration()
    plan.load_configuration()
    return {"reference": reference, "specialized": plan}


def run_path(executor, path, batch, **kwargs):
    """``run_batch`` for the plan path, the scalar loop for the oracle."""
    if path == "reference":
        return executor.run_batch_reference(batch, **kwargs)
    return executor.run_batch(batch, **kwargs)


def run_all(executors, batch, **kwargs):
    return {
        path: run_path(executor, path, batch, **kwargs)
        for path, executor in executors.items()
    }


def assert_all_equivalent(executors, results):
    """Two-way diff: the plan against the reference loop."""
    reference = results["reference"]
    result = results["specialized"]
    assert reference.engine == "reference"
    assert result.engine == "specialized"
    assert reference.outputs.keys() == result.outputs.keys()
    for name in reference.outputs:
        np.testing.assert_array_equal(
            reference.outputs[name], result.outputs[name],
            err_msg=f"output {name!r}",
        )
    assert reference.stores.keys() == result.stores.keys()
    for stream in reference.stores:
        np.testing.assert_array_equal(
            reference.stores[stream], result.stores[stream],
            err_msg=f"store {stream!r}",
        )
    assert result.stats == reference.stats
    assert counters(executors["specialized"]) == counters(
        executors["reference"]
    )


def counters(executor):
    """Every counter the model exposes, flattened into one dict."""
    state = executor.stats.as_dict()
    state["subarray_reads"] = sum(
        sub.reads for mcc in executor.tile for sub in mcc.subarrays
    )
    state["subarray_writes"] = sum(
        sub.writes for mcc in executor.tile for sub in mcc.subarrays
    )
    state["lut_evaluations"] = sum(
        lut.evaluations for mcc in executor.tile for lut in mcc.luts
    )
    state["lut_reconfigurations"] = sum(
        lut.reconfigurations for mcc in executor.tile for lut in mcc.luts
    )
    state["mac_operations"] = sum(
        mcc.mac.operations for mcc in executor.tile
    )
    return state


def random_streams(pe, batch, rng):
    return {
        stream: [
            [rng.getrandbits(31) for _ in range(words)]
            for _ in range(batch)
        ]
        for stream, words in pe.loads.items()
    }


class TestBenchmarkEquivalence:
    @pytest.mark.parametrize("name", FAST_PES)
    def test_batch_matches_reference_and_simulation(self, name):
        pe = build_pe(name)
        netlist = mapped_pe(name)
        rng = random.Random(name.__hash__() & 0xFFF)
        batch = 6
        if name == "KMP":
            streams = {
                "state": [[2]] * batch,
                "text": [[0x41 + i] for i in range(batch)],
            }
        else:
            streams = random_streams(pe, batch, rng)
        schedule = list_schedule(netlist, TileResources(mccs=2))
        executors = make_executors(schedule, mccs=2)
        results = run_all(executors, batch, streams=streams)
        assert_all_equivalent(executors, results)
        for lane in range(batch):
            lane_streams = {s: streams[s][lane] for s in streams}
            expected = simulate(netlist, streams=lane_streams)
            for path in PATHS:
                assert results[path].item_stores(lane) == expected.stores

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        batch=st.integers(min_value=1, max_value=64),
        lut_inputs=st.sampled_from((4, 5)),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_circuits_property(self, seed, batch, lut_inputs):
        """plan(batch) == [reference(item) for item in batch], in both
        LUT modes (4-LUT mode packs two tables per row)."""
        rng = random.Random(seed)
        builder = CircuitBuilder(f"rand{seed}")
        a = builder.bus_load("in")
        b = builder.bus_load("in")
        bits = a.bits[:8] + b.bits[:8]
        for _ in range(24):
            x, y = rng.choice(bits), rng.choice(bits)
            bits.append(builder.xor_(x, y) if rng.random() < 0.5
                        else builder.and_(x, y))
        word = builder.word_from_bits(bits[-16:])
        builder.bus_store("out", builder.mac(word, a, b))
        netlist = technology_map(builder.netlist, k=lut_inputs).netlist
        streams = {
            "in": [
                [rng.getrandbits(32), rng.getrandbits(32)]
                for _ in range(batch)
            ]
        }
        mccs = rng.choice((1, 2, 4))
        schedule = list_schedule(
            netlist, TileResources(mccs=mccs, lut_inputs=lut_inputs)
        )
        executors = make_executors(schedule, mccs=mccs)
        results = run_all(executors, batch, streams=streams)
        assert_all_equivalent(executors, results)


class TestSegmentedEquivalence:
    def _segmented_schedule(self):
        builder = CircuitBuilder()
        word = builder.bus_load("in")
        acc = word.bits[0]
        for bit in word.bits[1:]:
            acc = builder.xor_(acc, bit)
        builder.bus_store("out", builder.word_from_bits([acc]))
        netlist = technology_map(builder.netlist, k=2).netlist
        return list_schedule(netlist, TileResources())

    @given(batch=st.integers(min_value=1, max_value=16))
    @settings(max_examples=8, deadline=None)
    def test_config_reload_accounting_matches(self, batch):
        """Segmented schedules reload per item; charges must match."""
        schedule = self._segmented_schedule()
        tiny = SubarrayParams(size_bytes=32)  # 8 rows -> many segments
        executors = make_executors(schedule, mccs=1, params=tiny)
        reference = executors["reference"]
        assert reference.segments > 1
        streams = {"in": [[0b1011 + i] for i in range(batch)]}
        results = run_all(executors, batch, streams=streams)
        assert_all_equivalent(executors, results)
        # The reference loop rewinds to segment 0 for every item after
        # the first; the plan charges the same.
        for path in PATHS:
            assert (executors[path].stats.config_reloads
                    == batch * (reference.segments - 1)), path

    def test_second_batch_rewind_accounting(self):
        """Entering a batch with the last segment loaded still matches."""
        schedule = self._segmented_schedule()
        tiny = SubarrayParams(size_bytes=32)
        executors = make_executors(schedule, mccs=1, params=tiny)
        for batch in (3, 2):  # second batch starts at segment != 0
            streams = {"in": [[batch * 17 + i] for i in range(batch)]}
            run_all(executors, batch, streams=streams)
        assert counters(executors["specialized"]) == counters(
            executors["reference"]
        )


def random_netlist(rng, lut_inputs, chain):
    """A random mapped circuit: gates over two loaded words, a
    ``chain`` of dependent XORs (depth, hence folding cycles), and a
    MAC into one stored word."""
    builder = CircuitBuilder("rand")
    a = builder.bus_load("in")
    b = builder.bus_load("in")
    bits = a.bits[:8] + b.bits[:8]
    for _ in range(16):
        x, y = rng.choice(bits), rng.choice(bits)
        bits.append(builder.xor_(x, y) if rng.random() < 0.5
                    else builder.and_(x, y))
    for _ in range(chain):
        bits.append(builder.xor_(bits[-1], rng.choice(bits[:-1])))
    word = builder.word_from_bits(bits[-16:])
    builder.bus_store("out", builder.mac(word, a, b))
    return technology_map(builder.netlist, k=lut_inputs).netlist


def slice_state(controller):
    """Every counter and SRAM word of a slice, per tile and sub-array."""
    compute_slice = controller.slice
    cache = compute_slice.cache
    subarrays = [
        sub for way in range(cache.ways) for sub in cache.way_subarrays(way)
    ]
    return {
        "tile_stats": [e.stats.as_dict() for e in controller.executors],
        "subarray_counters": [(sub.reads, sub.writes) for sub in subarrays],
        "sram": cache.sram[[sub.index for sub in subarrays]].tolist(),
        "luts": [
            [(lut.evaluations, lut.reconfigurations, lut.config)
             for lut in mcc.luts]
            for mcc in compute_slice.mccs
        ],
        "macs": [mcc.mac.operations for mcc in compute_slice.mccs],
        "register_peaks": [mcc.registers.peak_bits
                           for mcc in compute_slice.mccs],
    }


class TestSliceEquivalence:
    """``ComputeClusterController.run_batch`` (one plan run over the
    slice) ≡ ``run_batch_reference`` (the scalar loop, tile by tile)."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        items=st.integers(min_value=1, max_value=300),
        tiles=st.integers(min_value=1, max_value=8),
        lut_inputs=st.sampled_from((4, 5)),
        segmented=st.booleans(),
        corrupt=st.booleans(),
    )
    @settings(max_examples=14, deadline=None)
    def test_slice_run_matches_per_tile_reference(
        self, seed, items, tiles, lut_inputs, segmented, corrupt
    ):
        rng = random.Random(seed)
        # A tile of ``mccs`` MCCs; every compute-way pair holds four.
        mccs = rng.choice([m for m in (1, 2, 4) if (tiles * m) % 4 == 0])
        pairs = tiles * mccs // 4
        netlist = random_netlist(rng, lut_inputs, chain=40 if segmented
                                 else rng.choice((0, 24)))
        schedule = list_schedule(
            netlist, TileResources(mccs=mccs, lut_inputs=lut_inputs)
        )
        # An even row count keeps a way a whole number of cache lines.
        rows = (2 * max(1, schedule.compute_cycles // 4) if segmented
                else SubarrayParams().rows)
        params = SliceParams(subarray=SubarrayParams(size_bytes=4 * rows))
        partition = SlicePartition(2 * pairs, 20 - 2 * pairs)
        # A second, short batch enters with the last segment loaded.
        # Tiny segmented sub-arrays also shrink the scratchpad.
        second = rng.randint(1, 2 * tiles)
        items = min(items, partition.scratchpad_ways
                    * params.subarrays_per_way * rows // 3 - second)
        span = max(items, second)
        layout = {
            "in": StreamBinding(0, 2),
            "out": StreamBinding(2 * span, 1),
        }
        words = [rng.getrandbits(32) for _ in range(2 * span)]
        lut_ops = [op for op in schedule.ops
                   if op.slot is OpSlot.LUT and op.cycle <= rows]
        victim = rng.randrange(tiles)
        op = rng.choice(lut_ops) if corrupt and lut_ops else None

        twins = {}
        for path in ("plan", "reference"):
            controller = ComputeClusterController(
                ReconfigurableComputeSlice(params)
            )
            controller.setup(partition)
            controller.program(schedule, preflight=False)
            assert controller.tiles == tiles
            assert (controller.executors[0].segments > 1) == segmented
            controller.fill_scratchpad(0, words)
            if op is not None:
                # Invert the LUT's truth table in one tile's row.
                sub = controller.executors[victim].tile[op.mcc].subarrays[
                    op.unit // 2 if lut_inputs == 4 else op.unit
                ]
                table = (0xFFFF << 16 * (op.unit % 2) if lut_inputs == 4
                         else 0xFFFFFFFF)
                sub.write_row(op.cycle - 1, sub.peek(op.cycle - 1) ^ table)
            run = (controller.run_batch if path == "plan"
                   else controller.run_batch_reference)
            returned = [run(count, layout) for count in (items, second)]
            twins[path] = (returned, slice_state(controller))
        assert twins["plan"] == twins["reference"]


class TestScratchpadEquivalence:
    def _scratchpad_executor(self):
        compute_slice = ReconfigurableComputeSlice()
        compute_slice.apply_partition(SlicePartition(2, 2))
        netlist = mapped_pe("VADD")
        schedule = list_schedule(netlist, TileResources())
        executor = FoldedExecutor(
            schedule, compute_slice.tiles(1)[0], compute_slice.scratchpad
        )
        executor.load_configuration()
        return executor, compute_slice.scratchpad

    @pytest.mark.parametrize("path", PATHS)
    def test_batch_through_scratchpad(self, path):
        executor, pad = self._scratchpad_executor()
        pad.fill_words(0, [10, 20, 30])
        pad.fill_words(100, [1, 2, 3])
        binding = {
            "a": StreamBinding(0, 1),
            "b": StreamBinding(100, 1),
            "c": StreamBinding(200, 1),
        }
        run_path(executor, path, 3, scratchpad_map=binding)
        assert pad.dump_words(200, 3) == [11, 22, 33]

    def test_scratchpad_access_counters_match(self):
        results = {}
        for path in PATHS:
            executor, pad = self._scratchpad_executor()
            pad.fill_words(0, [10, 20, 30])
            pad.fill_words(100, [1, 2, 3])
            binding = {
                "a": StreamBinding(0, 1),
                "b": StreamBinding(100, 1),
                "c": StreamBinding(200, 1),
            }
            run_path(executor, path, 3, scratchpad_map=binding)
            results[path] = (pad.reads, pad.writes, counters(executor))
        assert results["specialized"] == results["reference"]

    def test_explicit_item_indices_address_the_scratchpad(self):
        """Global item numbers, not lane positions, pick the region."""
        executor, pad = self._scratchpad_executor()
        pad.fill_words(0, [10, 20, 30])
        pad.fill_words(100, [1, 2, 3])
        binding = {
            "a": StreamBinding(0, 1),
            "b": StreamBinding(100, 1),
            "c": StreamBinding(200, 1),
        }
        result = executor.run_batch([2, 0], scratchpad_map=binding)
        assert result.engine == "specialized"
        assert pad.dump_words(200, 3) == [11, 0, 33]


class TestFallbacks:
    def _sequential_schedule(self):
        """Flip-flop state threads item to item; lanes can't lock-step."""
        builder = CircuitBuilder()
        word = builder.bus_load("in")
        state = builder.flipflop(init=0)
        updated = builder.xor_(state, word.bits[0])
        builder.bind_flipflop(state, updated)
        builder.bus_store("out", builder.word_from_bits([updated]))
        netlist = technology_map(builder.netlist, k=5).netlist
        return list_schedule(netlist, TileResources())

    def test_sequential_netlist_falls_back_to_reference(self):
        executor = FoldedExecutor(self._sequential_schedule(), make_tile(1))
        executor.load_configuration()
        streams = {"in": [[1], [1], [1]]}
        result = executor.run_batch(3, streams=streams)
        assert result.engine == "reference"
        # Alternating state proves the items really ran sequentially.
        assert [int(w) for w in result.stores["out"][:, 0]] == [1, 0, 1]

    def test_fallbacks_are_counted_in_stats(self):
        executor = FoldedExecutor(self._sequential_schedule(), make_tile(1))
        executor.load_configuration()
        streams = {"in": [[1], [1]]}
        assert executor.stats.engine_fallbacks == 0
        executor.run_batch(2, streams=streams)
        assert executor.stats.engine_fallbacks == 1
        executor.run_batch(2, streams=streams)
        assert executor.stats.engine_fallbacks == 2
        executor.run_batch_reference(2, streams=streams)
        assert executor.stats.engine_fallbacks == 2  # explicit, not a fall
        assert executor.stats.as_dict()["engine_fallbacks"] == 2

    def test_ragged_streams_fall_back_to_reference(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        # Lane 1 carries a spare word: no rectangular (batch, words) form.
        result = executor.run_batch(
            2, streams={"a": [[1], [2, 9]], "b": [[3], [4]]}
        )
        assert result.engine == "reference"
        assert executor.stats.engine_fallbacks == 1
        assert [int(w) for w in result.stores["c"][:, 0]] == [4, 6]

    def test_supported_specialized_run_counts_no_fallback(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        result = executor.run_batch(
            2, streams={"a": [[1], [2]], "b": [[3], [4]]},
        )
        assert result.engine == "specialized"
        assert executor.stats.engine_fallbacks == 0

    def test_empty_batch_is_a_no_op(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        result = executor.run_batch(0)
        assert result.items == 0
        assert executor.stats.invocations == 0

    def test_run_batch_requires_configuration(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        with pytest.raises(DeviceError):
            executor.run_batch(1, streams={"a": [[1]], "b": [[2]]})


class TestBatchResult:
    def test_item_accessors_round_trip(self):
        pe = build_pe("VADD")
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        rng = random.Random(3)
        streams = random_streams(pe, 4, rng)
        result = executor.run_batch(4, streams=streams)
        for lane in range(4):
            lane_streams = {s: streams[s][lane] for s in streams}
            expected = simulate(mapped_pe("VADD"), streams=lane_streams)
            assert result.item_stores(lane) == expected.stores
            outputs = result.item_outputs(lane)
            assert all(isinstance(v, int) for v in outputs.values())

    def test_bindings_broadcast_and_per_lane(self):
        builder = CircuitBuilder()
        a = builder.word_input("a")
        b = builder.word_input("b")
        builder.bus_store("out", builder.mac(a, b, builder.const_word(0)))
        netlist = technology_map(builder.netlist, k=5).netlist
        schedule = list_schedule(netlist, TileResources())
        executors = make_executors(schedule, mccs=1)
        bindings = {"a": 3, "b": [1, 2, 5]}  # scalar broadcast + lanes
        results = run_all(executors, 3, bindings=bindings)
        assert_all_equivalent(executors, results)
        for path in PATHS:
            stores = results[path].stores["out"]
            assert [int(w) for w in stores[:, 0]] == [3, 6, 15]


class TestExecutionStatsDict:
    def test_as_dict_is_plain_int_copy(self):
        """Snapshots must not alias live counters or leak numpy types."""
        stats = ExecutionStats()
        stats.cycles += np.int64(5)  # a bulk charge, as the plan does
        snapshot = stats.as_dict()
        assert all(type(value) is int for value in snapshot.values())
        snapshot["cycles"] = 999
        assert stats.cycles == 5
        second = stats.as_dict()
        assert second["cycles"] == 5
        assert second is not snapshot

    def test_as_dict_json_serialisable_after_batch_run(self):
        import json

        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        executor.run_batch(3, streams={"a": [[1]] * 3, "b": [[2]] * 3})
        text = json.dumps(executor.stats.as_dict())
        assert '"invocations": 3' in text

    def test_engines_share_no_mutable_state(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executors = make_executors(schedule, mccs=1)
        reference, plan = executors["reference"], executors["specialized"]
        streams = {"a": [[1], [2]], "b": [[3], [4]]}
        reference.run_batch_reference(2, streams=streams)
        before = plan.stats.as_dict()
        assert before["invocations"] == 0
        plan.run_batch(2, streams=streams)
        assert before["invocations"] == 0  # old snapshot untouched
        assert plan.stats.as_dict() == reference.stats.as_dict()


class TestBatchResultType:
    def test_default_construction(self):
        empty = BatchResult(items=0, engine="specialized")
        assert empty.outputs == {} and empty.stores == {}
