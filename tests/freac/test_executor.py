"""THE logic-folding correctness invariant.

Executing a folded schedule on the MCC model — LUT configs fetched
row-by-row from real (modelled) SRAM sub-arrays, values latched in FF
banks, operands moved over bus ops — must agree bit-for-bit with
direct functional simulation of the netlist.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import CircuitBuilder, simulate, technology_map
from repro.circuits.library import build_pe, mapped_pe, pe_names
from repro.errors import DeviceError
from repro.folding import TileResources, list_schedule, level_schedule
from repro.freac.ccctrl import ComputeClusterController
from repro.freac.compute_slice import ReconfigurableComputeSlice, SlicePartition
from repro.freac.executor import FoldedExecutor, StreamBinding
from repro.freac.mcc import make_tile
from repro.params import SliceParams, SubarrayParams

FAST_PES = [name for name in pe_names() if name != "AES"]


@lru_cache(maxsize=None)
def pe_schedule(name, mccs, lut_inputs):
    return list_schedule(mapped_pe(name, lut_inputs),
                         TileResources(mccs=mccs, lut_inputs=lut_inputs))


def run_folded(netlist, streams, mccs=1, scheduler=list_schedule):
    schedule = scheduler(netlist, TileResources(mccs=mccs))
    executor = FoldedExecutor(schedule, make_tile(mccs))
    executor.load_configuration()
    return executor, executor.run(streams=streams)


class TestFoldingPreservesFunction:
    @pytest.mark.parametrize("name", FAST_PES)
    @pytest.mark.parametrize("mccs", (1, 2, 8))
    def test_benchmarks_match_simulation(self, name, mccs):
        pe = build_pe(name)
        netlist = mapped_pe(name)
        rng = random.Random(name.__hash__() & 0xFFF)
        if name == "KMP":
            streams = {"state": [2], "text": [0x41]}
        else:
            streams = {
                s: [rng.getrandbits(31) for _ in range(n)]
                for s, n in pe.loads.items()
            }
        _, result = run_folded(netlist, streams, mccs=mccs)
        expected = simulate(netlist, streams=streams)
        assert result.stores == expected.stores
        assert result.stores == pe.reference(streams)

    @pytest.mark.parametrize("name", FAST_PES[:4])
    def test_level_schedule_also_executes_correctly(self, name):
        pe = build_pe(name)
        netlist = mapped_pe(name)
        rng = random.Random(7)
        if name == "KMP":
            streams = {"state": [1], "text": [0x42]}
        else:
            streams = {
                s: [rng.getrandbits(31) for _ in range(n)]
                for s, n in pe.loads.items()
            }
        _, result = run_folded(netlist, streams, mccs=2,
                               scheduler=level_schedule)
        assert result.stores == simulate(netlist, streams=streams).stores

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_circuits(self, seed):
        """Random gate networks + MAC survive fold-and-execute."""
        rng = random.Random(seed)
        builder = CircuitBuilder(f"rand{seed}")
        a = builder.bus_load("in")
        b = builder.bus_load("in")
        bits = a.bits[:8] + b.bits[:8]
        for _ in range(30):
            x, y = rng.choice(bits), rng.choice(bits)
            bits.append(builder.xor_(x, y) if rng.random() < 0.5
                        else builder.and_(x, y))
        word = builder.word_from_bits(bits[-16:])
        builder.bus_store("out", builder.mac(word, a, b))
        netlist = technology_map(builder.netlist, k=5).netlist
        streams = {"in": [rng.getrandbits(32), rng.getrandbits(32)]}
        _, result = run_folded(netlist, streams, mccs=rng.choice((1, 2, 4)))
        assert result.stores == simulate(netlist, streams=streams).stores

    @pytest.mark.slow
    def test_aes_folded_matches_fips(self):
        from repro.workloads.kernels import aes_expand_key

        netlist = mapped_pe("AES")
        schedule = list_schedule(netlist, TileResources(mccs=16))
        executor = FoldedExecutor(schedule, make_tile(16))
        executor.load_configuration()
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        rk_words = [
            int.from_bytes(bytes(rk[4 * i : 4 * i + 4]), "little")
            for rk in aes_expand_key(key)
            for i in range(4)
        ]
        pt_words = [
            int.from_bytes(plaintext[4 * i : 4 * i + 4], "little")
            for i in range(4)
        ]
        result = executor.run(streams={"pt": pt_words, "rk": rk_words})
        ciphertext = b"".join(
            int(w).to_bytes(4, "little") for w in result.stores["ct"]
        )
        assert ciphertext == bytes.fromhex(
            "3925841d02dc09fbdc118597196a0b32"
        )


class TestSegmentedConfiguration:
    def test_long_schedule_reloads_mid_run(self):
        """Force tiny sub-arrays so the schedule spans segments."""
        builder = CircuitBuilder()
        word = builder.bus_load("in")
        bits = word.bits
        # A long XOR chain -> many sequential LUT cycles.
        acc = bits[0]
        for bit in bits[1:]:
            acc = builder.xor_(acc, bit)
        builder.bus_store("out", builder.word_from_bits([acc]))
        netlist = technology_map(builder.netlist, k=2).netlist
        schedule = list_schedule(netlist, TileResources())
        from repro.params import SubarrayParams

        tiny = SubarrayParams(size_bytes=32)  # 8 rows
        executor = FoldedExecutor(schedule, make_tile(1, tiny))
        assert executor.segments > 1
        executor.load_configuration()
        streams = {"in": [0b1011]}
        result = executor.run(streams=streams)
        assert result.stores == simulate(netlist, streams=streams).stores
        assert executor.stats.config_reloads >= executor.segments - 1


class TestScratchpadExecution:
    def test_batch_through_scratchpad(self):
        compute_slice = ReconfigurableComputeSlice()
        compute_slice.apply_partition(SlicePartition(2, 2))
        netlist = mapped_pe("VADD")
        schedule = list_schedule(netlist, TileResources())
        executor = FoldedExecutor(
            schedule, compute_slice.tiles(1)[0], compute_slice.scratchpad
        )
        executor.load_configuration()
        pad = compute_slice.scratchpad
        pad.fill_words(0, [10, 20, 30])
        pad.fill_words(100, [1, 2, 3])
        binding = {
            "a": StreamBinding(0, 1),
            "b": StreamBinding(100, 1),
            "c": StreamBinding(200, 1),
        }
        for item in range(3):
            executor.run(scratchpad_map=binding, item=item)
        assert pad.dump_words(200, 3) == [11, 22, 33]

    def test_scratchpad_map_without_scratchpad_rejected(self):
        netlist = mapped_pe("VADD")
        schedule = list_schedule(netlist, TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        with pytest.raises(DeviceError):
            executor.run(scratchpad_map={"a": StreamBinding(0, 1)})


class TestProtocol:
    def test_run_before_configuration_rejected(self):
        netlist = mapped_pe("VADD")
        schedule = list_schedule(netlist, TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        with pytest.raises(DeviceError):
            executor.run(streams={"a": [1], "b": [2]})

    def test_tile_size_mismatch_rejected(self):
        netlist = mapped_pe("VADD")
        schedule = list_schedule(netlist, TileResources(mccs=2))
        with pytest.raises(DeviceError):
            FoldedExecutor(schedule, make_tile(1))

    def test_tile_over_two_buffers_rejected(self):
        """A tile's configuration is written as one block of one
        buffer, so two standalone tiles glued together are refused."""
        schedule = list_schedule(mapped_pe("VADD"), TileResources(mccs=2))
        with pytest.raises(DeviceError, match="one buffer"):
            FoldedExecutor(schedule, make_tile(1) + make_tile(1))

    def test_stats_accumulate(self):
        netlist = mapped_pe("VADD")
        schedule = list_schedule(netlist, TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        executor.run(streams={"a": [1], "b": [2]})
        executor.run(streams={"a": [3], "b": [4]})
        stats = executor.stats
        assert stats.invocations == 2
        assert stats.bus_loads == 4
        assert stats.bus_stores == 2
        assert stats.cycles == 2 * schedule.fold_cycles


class TestConfigurationLayout:
    """Block writes and scrubs against an independent loop over
    (tile, MCC, sub-array): after every configuration step each
    sub-array holds its image rows, and its (reads, writes) are what a
    row-at-a-time loop charges."""

    @given(
        names=st.tuples(st.sampled_from(FAST_PES), st.sampled_from(FAST_PES)),
        mccs=st.sampled_from((1, 2, 4)),
        lut_inputs=st.tuples(st.sampled_from((4, 5)),
                             st.sampled_from((4, 5))),
        split=st.sampled_from((3, 4, 6)),
        data=st.data(),
    )
    @settings(max_examples=12, deadline=None)
    def test_block_layout_matches_a_per_subarray_loop(
        self, names, mccs, lut_inputs, split, data
    ):
        schedules = [pe_schedule(name, mccs, k)
                     for name, k in zip(names, lut_inputs)]
        # A row budget that segments both schedules; an even count
        # keeps a way a whole number of cache lines.
        rows = 2 * max(1, min(s.compute_cycles for s in schedules) // split)
        params = SliceParams(subarray=SubarrayParams(size_bytes=4 * rows))
        controller = ComputeClusterController(
            ReconfigurableComputeSlice(params)
        )
        controller.setup(SlicePartition(4, 2))
        charged = {id(sub): [0, 0] for sub in controller.slice.cache.subarrays}

        def config_subarrays(executors):
            """(sub-array, MCC, sub-array index), tile by tile, MCC-major."""
            for executor in executors:
                for m, mcc in enumerate(executor.tile):
                    for s in range(executor.config.words.shape[1]):
                        yield mcc.subarrays[s], m, s

        def segment_rows(executor):
            start = executor._loaded_segment * rows
            return range(start, min(start + rows, executor.config.cycles))

        def check(flipped=None):
            """``flipped`` is a (sub-array, row) whose bit 0 was flipped."""
            for executor in controller.executors:
                window = segment_rows(executor)
                for sub, m, s in config_subarrays([executor]):
                    held = [sub.peek(row) for row in range(len(window))]
                    expected = [int(executor.config.words[m, s, row])
                                for row in window]
                    if flipped is not None and flipped[0] is sub:
                        expected[flipped[1]] ^= 1
                    assert held == expected, (m, s)
            assert {id(sub): [sub.reads, sub.writes]
                    for sub in controller.slice.cache.subarrays} == charged

        def charge_writes(executors):
            for executor in executors:
                for sub, _, _ in config_subarrays([executor]):
                    charged[id(sub)][1] += len(segment_rows(executor))

        for schedule in schedules:
            resident = controller.schedule
            controller.program(schedule, preflight=False)
            assert controller.executors[0].segments > 1
            if schedule is not resident:  # fresh, then warm
                charge_writes(controller.executors)
            check()

        executors = controller.executors
        for segment in range(executors[0].segments):
            for executor in executors:
                executor.load_segment(segment)
            charge_writes(executors)
            check()

        assert controller.verify_configuration()
        for sub, _, _ in config_subarrays(executors):
            charged[id(sub)][0] += len(segment_rows(executors[0]))
        check()

        # Corrupt one row: the scrub reads up to and including the
        # corrupted sub-array, and no tile after it.
        victim = data.draw(st.sampled_from(
            list(config_subarrays(executors))
        ), label="victim")[0]
        window = segment_rows(executors[0])
        row = data.draw(st.integers(0, len(window) - 1), label="row")
        victim.write_row(row, victim.peek(row) ^ 1)
        charged[id(victim)][1] += 1
        assert not controller.verify_configuration()
        for sub, _, _ in config_subarrays(executors):
            charged[id(sub)][0] += len(window)
            if sub is victim:
                break
        check(flipped=(victim, row))
