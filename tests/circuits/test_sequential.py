"""Sequential circuits: flip-flops through the whole stack.

The paper's synthesis flow emits "look-up tables, flip-flops, adders,
and multipliers"; these tests cover the flip-flop quarter: state
threads across invocations identically in the functional simulator and
in the folded executor (where it lives in the MCC FF banks).
"""

import pytest

from repro.circuits import CircuitBuilder, simulate, technology_map
from repro.circuits.simulate import simulate_sequential
from repro.errors import CircuitError
from repro.folding import TileResources, list_schedule, validate_schedule
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile


def build_counter(width=4):
    """A ``width``-bit counter that increments every invocation."""
    builder = CircuitBuilder("counter")
    state, bind = builder.state_word(width)
    one = builder.const_bits(1, width)
    incremented, _ = builder.add_vec(state, one)
    bind(incremented)
    for index, bit in enumerate(state):
        builder.output_bit(f"q{index}", bit)
    return builder.netlist


def build_accumulator():
    """acc <= acc + bus input; the running sum streams out."""
    builder = CircuitBuilder("accumulator")
    state, bind = builder.state_word(32)
    value = builder.bus_load("in")
    total, _ = builder.add_vec(state, value.bits)
    bind(total)
    builder.bus_store("out", builder.word_from_bits(total))
    return builder.netlist


def read_counter(outputs, width=4):
    return sum(outputs[f"q{i}"] << i for i in range(width))


class TestNetlistRules:
    def test_unbound_ff_fails_validation(self):
        builder = CircuitBuilder()
        builder.flipflop()
        with pytest.raises(CircuitError):
            builder.netlist.validate()

    def test_double_bind_rejected(self):
        builder = CircuitBuilder()
        ff = builder.flipflop()
        bit = builder.bit_input("a")
        builder.bind_flipflop(ff, bit)
        with pytest.raises(CircuitError):
            builder.bind_flipflop(ff, bit)

    def test_bind_non_ff_rejected(self):
        builder = CircuitBuilder()
        bit = builder.bit_input("a")
        with pytest.raises(CircuitError):
            builder.netlist.bind_flipflop(bit, bit)

    def test_bad_init_rejected(self):
        builder = CircuitBuilder()
        with pytest.raises(CircuitError):
            builder.netlist.add(
                __import__("repro.circuits.netlist",
                           fromlist=["NodeKind"]).NodeKind.FLIPFLOP,
                (), 2,
            )


class TestSequentialSimulation:
    def test_counter_counts(self):
        netlist = build_counter()
        netlist.validate()
        results = simulate_sequential(netlist, cycles=10)
        values = [read_counter(r.outputs) for r in results]
        assert values == list(range(10))

    def test_counter_wraps(self):
        results = simulate_sequential(build_counter(width=2), cycles=6)
        values = [
            sum(r.outputs[f"q{i}"] << i for i in range(2)) for r in results
        ]
        assert values == [0, 1, 2, 3, 0, 1]

    def test_accumulator(self):
        netlist = build_accumulator()
        inputs = [5, 7, 100, 1 << 31]
        results = simulate_sequential(
            netlist, cycles=4,
            streams_per_cycle=[{"in": [v]} for v in inputs],
        )
        sums = [r.stores["out"][0] for r in results]
        running = []
        total = 0
        for value in inputs:
            total = (total + value) & 0xFFFFFFFF
            running.append(total)
        assert sums == running

    def test_ff_state_threading_is_explicit(self):
        netlist = build_counter()
        first = simulate(netlist)
        second = simulate(netlist, ff_state=first.ff_next)
        assert read_counter(second.outputs) == 1


class TestSequentialSynthesisAndFolding:
    def test_techmap_preserves_sequential_behaviour(self):
        netlist = build_counter()
        mapped = technology_map(netlist, k=5).netlist
        mapped.validate()
        got = [
            read_counter(r.outputs)
            for r in simulate_sequential(mapped, cycles=7)
        ]
        assert got == list(range(7))

    def test_schedule_is_legal_with_ffs(self):
        mapped = technology_map(build_accumulator(), k=5).netlist
        schedule = list_schedule(mapped, TileResources(mccs=1))
        validate_schedule(schedule, strict=True)

    def test_folded_accumulator_matches_reference(self):
        mapped = technology_map(build_accumulator(), k=5).netlist
        schedule = list_schedule(mapped, TileResources(mccs=2))
        validate_schedule(schedule)
        tile = make_tile(2)
        executor = FoldedExecutor(schedule, tile)
        executor.load_configuration()
        inputs = [3, 9, 1 << 20, 0xFFFFFFFF]
        total = 0
        for value in inputs:
            result = executor.run(streams={"in": [value]})
            total = (total + value) & 0xFFFFFFFF
            assert result.stores["out"] == [total]

    def test_executor_reset_state(self):
        mapped = technology_map(build_accumulator(), k=5).netlist
        schedule = list_schedule(mapped, TileResources(mccs=1))
        tile = make_tile(1)
        executor = FoldedExecutor(schedule, tile)
        executor.load_configuration()
        executor.run(streams={"in": [42]})
        executor.reset_state()
        result = executor.run(streams={"in": [1]})
        assert result.stores["out"] == [1]
