"""Mutation property: the DF pack flags a break before execution diverges.

hypothesis generates random circuits, schedules them, then corrupts
the schedule the way a buggy scheduler would — retiming a producer
after its reader, or dropping a def entirely.  The invariant under
test is the *ordering* of the two defenses: ``analyze_dataflow`` must
flag the corruption (with the precise pass/node) **before** anyone
runs it, and the folded executor must then actually misbehave
(``DeviceError`` on the read-before-cycle, or a missing value) —
i.e. every DF001 here is a true positive about a real divergence.

Scratchpad-row retargeting (DF002) has no runtime counterpart: spill
residency is a plan-level property (the executor models live values
in FF banks; spills are charged as bus traffic), so the lint is the
only line of defense — which is exactly why the rule exists.  Its
precision is covered in ``test_dataflow.py``.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_dataflow
from repro.analysis.dataflow import build_dataflow
from repro.circuits import CircuitBuilder, technology_map
from repro.errors import CircuitError, DeviceError
from repro.folding import TileResources, list_schedule
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile


@st.composite
def circuits(draw):
    """Small random dataflow circuits through the public builder."""
    builder = CircuitBuilder("mutant")
    streams = draw(st.integers(min_value=1, max_value=3))
    words = [builder.bus_load(f"in{i}") for i in range(streams)]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["mac", "xor", "add"]))
        a = draw(st.sampled_from(words))
        b = draw(st.sampled_from(words))
        if kind == "mac":
            words.append(builder.mac(a, b, builder.const_word(0)))
        elif kind == "xor":
            bits = builder.xor_vec(a.bits, b.bits)
            words.append(builder.word_from_bits(bits))
        else:
            total, _ = builder.add_vec(a.bits, b.bits)
            words.append(builder.word_from_bits(total))
    builder.bus_store("out", words[-1])
    return builder.netlist


def schedule_of(circuit, mccs):
    mapped = technology_map(circuit, k=5).netlist
    return list_schedule(mapped, TileResources(mccs=mccs))


def run_corrupt(schedule):
    """Execute a corrupt schedule the way the device would (no lint)."""
    tile = make_tile(schedule.resources.mccs)
    executor = FoldedExecutor(schedule, tile, preflight=False)
    executor.load_configuration()
    from repro.circuits.netlist import NodeKind

    streams = {}
    for node in schedule.netlist.nodes:
        if node.kind is NodeKind.BUS_LOAD:
            stream, index = node.payload
            streams.setdefault(stream, []).extend(
                [1] * (index + 1 - len(streams.get(stream, [])))
            )
    return executor.run(streams=streams)


def movable_use(schedule):
    """A (use, producer) pair where the producer runs strictly earlier."""
    ir = build_dataflow(schedule)
    for use in sorted(ir.uses, key=lambda u: (u.cycle, u.user)):
        producer_cycle = ir.cycle_of.get(use.producer)
        if producer_cycle is not None and producer_cycle < use.cycle:
            return use
    return None


@given(circuit=circuits(), mccs=st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_retimed_producer_is_flagged_before_execution_diverges(
    circuit, mccs
):
    schedule = schedule_of(circuit, mccs)
    use = movable_use(schedule)
    if use is None:
        return  # fully parallel schedule: nothing to retime
    ops = [
        dataclasses.replace(op, cycle=use.cycle + 1)
        if op.nid == use.producer else op
        for op in schedule.ops
    ]
    bad = dataclasses.replace(
        schedule, ops=ops, compute_cycles=max(op.cycle for op in ops)
    )

    # 1. the lint flags it, at the exact pass and node the device
    #    would fault on ...
    report = analyze_dataflow(bad)
    hits = [d for d in report.errors if d.rule == "DF001"]
    assert hits, "DF pack missed a retimed producer"
    assert any(
        d.loc("nid") == use.user and d.loc("cycle") == use.cycle
        for d in hits
    ), [d.to_dict() for d in hits]

    # 2. ... and the device really does fault there (true positive).
    with pytest.raises((DeviceError, CircuitError)):
        run_corrupt(bad)


@given(circuit=circuits(), mccs=st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_dropped_def_is_flagged_before_execution_diverges(circuit, mccs):
    schedule = schedule_of(circuit, mccs)
    use = movable_use(schedule)
    if use is None:
        return
    ops = [op for op in schedule.ops if op.nid != use.producer]
    bad = dataclasses.replace(schedule, ops=ops)

    report = analyze_dataflow(bad)
    hits = [d for d in report.errors if d.rule == "DF001"]
    assert hits, "DF pack missed a dropped def"
    assert any(
        d.fix_dict().get("missing_def") == use.producer
        for d in hits if d.fix_dict()
    ), [d.to_dict() for d in hits]

    with pytest.raises((DeviceError, CircuitError, KeyError)):
        run_corrupt(bad)


@given(circuit=circuits())
@settings(max_examples=15, deadline=None)
def test_clean_schedules_never_false_positive(circuit):
    schedule = schedule_of(circuit, 1)
    report = analyze_dataflow(schedule)
    assert not report.errors, [d.message for d in report.errors]
