"""Cross-cutting property tests: the grand invariants.

Each test here spans several subsystems with hypothesis-generated
inputs, checking the invariants DESIGN.md Sec. 5 promises hold
*composed*, not just per module.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.circuits import CircuitBuilder, simulate, technology_map
from repro.circuits.netlist import GateOp
from repro.folding import (
    TileResources,
    generate_config,
    level_schedule,
    list_schedule,
    validate_schedule,
)
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile


def random_mixed_circuit(seed: int):
    """A random circuit mixing gates, MACs, and bus traffic."""
    rng = random.Random(seed)
    builder = CircuitBuilder(f"prop{seed}")
    words = [builder.bus_load("in") for _ in range(rng.randint(1, 3))]
    bits = []
    for word in words:
        bits.extend(word.bits[:8])
    for _ in range(rng.randint(5, 25)):
        op = rng.choice([GateOp.AND, GateOp.OR, GateOp.XOR, GateOp.NOT,
                         GateOp.MUX])
        operands = [rng.choice(bits) for _ in range(op.arity)]
        bits.append(builder.gate(op, *operands))
    packed = builder.word_from_bits(bits[-16:])
    acc = packed
    for _ in range(rng.randint(0, 3)):
        acc = builder.mac(acc, rng.choice(words),
                          builder.const_word(rng.getrandbits(8)))
    builder.bus_store("out", acc)
    if rng.random() < 0.5:
        builder.bus_store("out", rng.choice(words))
    return builder.netlist, len(words)


@st.composite
def circuit_and_tile(draw):
    seed = draw(st.integers(0, 10_000))
    k = draw(st.sampled_from([4, 5]))
    mccs = draw(st.sampled_from([1, 2, 3, 4]))
    algorithm = draw(st.sampled_from(["list", "level"]))
    return seed, k, mccs, algorithm


class TestGrandInvariant:
    @given(circuit_and_tile())
    @settings(max_examples=25, deadline=None)
    def test_map_fold_execute_equals_simulate(self, params):
        """Random circuit -> random K mapping -> random tile folding ->
        MCC execution must equal direct simulation, always."""
        seed, k, mccs, algorithm = params
        netlist, n_words = random_mixed_circuit(seed)
        mapped = technology_map(netlist, k=k).netlist
        resources = TileResources(mccs=mccs, lut_inputs=k)
        scheduler = list_schedule if algorithm == "list" else level_schedule
        schedule = scheduler(mapped, resources)
        validate_schedule(schedule)  # legality
        tile = make_tile(mccs, lut_inputs=k)
        executor = FoldedExecutor(schedule, tile)
        executor.load_configuration()
        rng = random.Random(seed ^ 0xABCDEF)
        streams = {"in": [rng.getrandbits(32) for _ in range(n_words)]}
        folded = executor.run(streams=streams)
        functional = simulate(mapped, streams=streams)
        assert folded.stores == functional.stores
        # The original (pre-mapping) circuit agrees too.
        original = simulate(netlist, streams=streams)
        assert functional.stores == original.stores

    @given(circuit_and_tile())
    @settings(max_examples=15, deadline=None)
    def test_config_image_consistency(self, params):
        """Every scheduled LUT's table appears in the bitstream at its
        (mcc, unit, cycle) coordinates."""
        seed, k, mccs, algorithm = params
        netlist, _ = random_mixed_circuit(seed)
        mapped = technology_map(netlist, k=k).netlist
        resources = TileResources(mccs=mccs, lut_inputs=k)
        schedule = list_schedule(mapped, resources)
        image = generate_config(schedule)
        from repro.folding.schedule import OpSlot

        for op in schedule.ops:
            if op.slot is not OpSlot.LUT:
                continue
            _, table = schedule.netlist.nodes[op.nid].payload
            if k == 4:
                word = int(image.words[op.mcc, op.unit // 2, op.cycle - 1])
                half = (word >> (16 * (op.unit % 2))) & 0xFFFF
                assert half == table
            else:
                word = int(image.words[op.mcc, op.unit, op.cycle - 1])
                assert word == table

    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 4]))
    @settings(max_examples=15, deadline=None)
    def test_fold_count_monotone_in_resources(self, seed, base):
        netlist, _ = random_mixed_circuit(seed)
        mapped = technology_map(netlist, k=5).netlist
        small = list_schedule(mapped, TileResources(mccs=base))
        large = list_schedule(mapped, TileResources(mccs=base * 2))
        assert large.compute_cycles <= small.compute_cycles
