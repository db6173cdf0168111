"""Technology mapping: function preservation and structural quality."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import CircuitBuilder, simulate, technology_map
from repro.circuits.netlist import GateOp, Netlist, NodeKind
from repro.circuits.techmap import cone_truth_table
from repro.errors import SynthesisError


def random_gate_network(seed: int, inputs: int = 6, gates: int = 40) -> Netlist:
    """A random combinational gate DAG with all gates as outputs.

    About one operand in ten is a constant, so cuts get CONST leaves.
    """
    rng = random.Random(seed)
    builder = CircuitBuilder(f"rand{seed}")
    nodes = [builder.bit_input(f"x{i}") for i in range(inputs)]
    two_input = [GateOp.AND, GateOp.OR, GateOp.XOR, GateOp.NAND,
                 GateOp.NOR, GateOp.XNOR]
    for _ in range(gates):
        op = rng.choice(two_input + [GateOp.NOT, GateOp.MUX])
        operands = [
            builder.const_bit(rng.getrandbits(1)) if rng.random() < 0.1
            else rng.choice(nodes)
            for _ in range(op.arity)
        ]
        nodes.append(builder.gate(op, *operands))
    # Expose a handful of nodes so the mapper must preserve them.
    for index, node in enumerate(nodes[-8:]):
        builder.output_bit(f"out{index}", node)
    return builder.netlist


def assert_equivalent(original: Netlist, mapped: Netlist, inputs: int,
                      samples: int = 64, seed: int = 0) -> None:
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(inputs)]
    for _ in range(samples):
        bindings = {name: rng.getrandbits(1) for name in names}
        got = simulate(mapped, bindings).outputs
        want = simulate(original, bindings).outputs
        assert got == want


class TestFunctionPreservation:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_networks(self, seed):
        original = random_gate_network(seed)
        mapped = technology_map(original, k=5)
        assert_equivalent(original, mapped.netlist, inputs=6)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_all_k_values(self, k):
        original = random_gate_network(99, inputs=5, gates=30)
        mapped = technology_map(original, k=k)
        assert_equivalent(original, mapped.netlist, inputs=5)
        for node in mapped.netlist.nodes:
            if node.kind is NodeKind.LUT:
                assert node.payload[0] <= k

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_random_seeds(self, seed):
        original = random_gate_network(seed, inputs=5, gates=25)
        mapped = technology_map(original, k=4)
        assert_equivalent(original, mapped.netlist, inputs=5, samples=32)


class TestConeTruthTable:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_simulation_over_the_inputs(self, seed):
        # With the primary inputs as leaves, the constants the generator
        # draws sit inside the cones, not at their leaves.
        netlist = random_gate_network(seed, inputs=5, gates=30)
        leaves = [nid for nid, node in enumerate(netlist.nodes)
                  if node.kind is NodeKind.BIT_INPUT]
        tables = {name: cone_truth_table(netlist, root, leaves)
                  for name, root in netlist.outputs.items()}
        for assignment in range(1 << len(leaves)):
            bindings = {f"x{i}": (assignment >> i) & 1
                        for i in range(len(leaves))}
            outputs = simulate(netlist, bindings).outputs
            for name, table in tables.items():
                assert outputs[name] == (table >> assignment) & 1

    def test_leaves_that_do_not_cut_the_cone_raise(self):
        builder = CircuitBuilder()
        a = builder.bit_input("a")
        b = builder.bit_input("b")
        root = builder.xor_(a, builder.not_(b))
        with pytest.raises(SynthesisError, match="non-logic node"):
            cone_truth_table(builder.netlist, root, (a,))


class TestWideLutDecomposition:
    def test_8_input_table_exhaustive(self):
        rng = random.Random(1)
        table = rng.getrandbits(256)
        builder = CircuitBuilder()
        inputs = [builder.bit_input(f"x{i}") for i in range(8)]
        builder.output_bit("f", builder.raw_lut(inputs, table))
        mapped = technology_map(builder.netlist, k=5).netlist
        for assignment in range(256):
            bindings = {f"x{i}": (assignment >> i) & 1 for i in range(8)}
            got = simulate(mapped, bindings).outputs["f"]
            assert got == (table >> assignment) & 1

    def test_constant_table_becomes_const(self):
        builder = CircuitBuilder()
        inputs = [builder.bit_input(f"x{i}") for i in range(7)]
        builder.output_bit("f", builder.raw_lut(inputs, 0))
        mapped = technology_map(builder.netlist, k=5).netlist
        assert mapped.counts().get("lut", 0) == 0

    def test_equal_cofactors_collapse(self):
        # f independent of the top variable -> no mux level needed.
        builder = CircuitBuilder()
        inputs = [builder.bit_input(f"x{i}") for i in range(6)]
        low_table = random.Random(3).getrandbits(32)
        table = low_table | (low_table << 32)
        builder.output_bit("f", builder.raw_lut(inputs, table))
        mapped = technology_map(builder.netlist, k=5)
        assert mapped.lut_count == 1


class TestStructure:
    def test_adder_lut_budget(self):
        """A 32-bit ripple adder should map to roughly 2 LUTs per bit."""
        builder = CircuitBuilder()
        a = builder.word_input("a")
        b = builder.word_input("b")
        builder.output_word("s", builder.add_words_gates(a, b))
        mapped = technology_map(builder.netlist, k=5)
        assert mapped.lut_count <= 80

    def test_word_nodes_survive(self):
        builder = CircuitBuilder()
        a = builder.bus_load("a")
        b = builder.bus_load("b")
        builder.bus_store("out", builder.mac(a, b, builder.const_word(1)))
        mapped = technology_map(builder.netlist, k=5).netlist
        counts = mapped.counts()
        assert counts["bus_load"] == 2
        assert counts["mac"] == 1
        assert counts["bus_store"] == 1

    def test_buffer_gates_disappear(self):
        builder = CircuitBuilder()
        a = builder.bit_input("x0")
        buffered = builder.gate(GateOp.BUF, a)
        builder.output_bit("f", buffered)
        mapped = technology_map(builder.netlist, k=5).netlist
        assert mapped.counts().get("lut", 0) == 0
        assert simulate(mapped, {"x0": 1}).outputs["f"] == 1

    def test_mux_fits_two_input_luts(self):
        builder = CircuitBuilder()
        select, low, high = (builder.bit_input(f"x{i}") for i in range(3))
        builder.output_bit("f", builder.mux(select, low, high))
        mapped = technology_map(builder.netlist, k=2).netlist
        assert all(node.payload[0] <= 2 for node in mapped.nodes
                   if node.kind is NodeKind.LUT)
        for assignment in range(8):
            bindings = {f"x{i}": (assignment >> i) & 1 for i in range(3)}
            want = bindings["x2"] if bindings["x0"] else bindings["x1"]
            assert simulate(mapped, bindings).outputs["f"] == want

    def test_depth_reported(self):
        original = random_gate_network(5)
        mapped = technology_map(original, k=5)
        assert mapped.depth >= 1

    def test_k_too_small_rejected(self):
        with pytest.raises(SynthesisError):
            technology_map(random_gate_network(0), k=1)
