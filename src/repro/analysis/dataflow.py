"""The def-use dataflow IR over a netlist plus its folding schedule.

PR 1's rule packs are per-field shape checks; nothing in them proves
that a folding schedule actually *computes* its netlist.  This module
builds the structure those proofs need:

* per-pass **defs** and **uses** — which op values each folding step
  produces and which earlier values it reads;
* **value liveness intervals** — from a value's defining pass to its
  last consuming pass (extended to the horizon for primary outputs and
  flip-flop next-state values);
* **scratchpad residency** — which spilled value occupies which
  scratchpad row over which passes;
* **segment-reload boundaries** — where the config stream exceeds one
  sub-array's rows and the image must be reloaded mid-invocation
  (paper Sec. IV);
* the **live cone** — ops transitively reachable from an observable
  sink (primary output, flip-flop next-state, bus store); and
* **constant values** — op values computable without any input.

The ``DF*`` rule pack (:mod:`repro.analysis.dataflow_rules`) runs over
this IR.  Construction is deliberately tolerant of corrupt schedules —
out-of-range nids, missing ops, duplicated entries — because the whole
point is to diagnose them; cycle resolution mirrors the executor's
``op_by_nid`` semantics (last entry wins) so a flagged read-before-def
is exactly the read the device would fault on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..circuits.netlist import (
    Netlist,
    NodeKind,
    WORD_MASK,
)
from ..folding.schedule import FoldingSchedule
from ..folding.scheduler import VALUE_BITS, op_dependences

#: Default config rows per cache sub-array (paper Sec. IV).
DEFAULT_ROWS_PER_SUBARRAY = 2048


@dataclass(frozen=True)
class PassUse:
    """One read: op ``user`` consumes the value of op ``producer``.

    ``cycle`` is the folding pass at which the read happens — the
    user's scheduled pass (0 when the user is itself unscheduled).
    """

    user: int
    producer: int
    cycle: int


@dataclass(frozen=True)
class ValueLife:
    """Liveness interval of one op value across folding passes."""

    nid: int
    kind: str
    bits: int
    def_cycle: Optional[int]   # None: the producing op is unscheduled
    last_use: int              # horizon for outputs / FF next-state

    @property
    def live_span(self) -> int:
        if self.def_cycle is None:
            return 0
        return max(0, self.last_use - self.def_cycle)


@dataclass(frozen=True)
class SpillSlot:
    """Scratchpad residency of one spilled value."""

    nid: int
    row: int
    words: int
    store_cycle: int    # pass after which the value sits in the row
    reload_cycle: int   # pass before which it must still be there

    def overlaps(self, other: "SpillSlot") -> bool:
        return (self.store_cycle <= other.reload_cycle
                and other.store_cycle <= self.reload_cycle)


@dataclass
class DataflowIR:
    """Everything the ``DF*`` rules consult, built once per schedule."""

    schedule: FoldingSchedule
    passes: int
    cycle_of: Dict[int, int]
    defs: Dict[int, Tuple[int, ...]]          # pass -> op nids defined
    uses: Tuple[PassUse, ...]
    lives: Dict[int, ValueLife]
    preds: Dict[int, Set[int]]
    succs: Dict[int, Set[int]]
    live_cone: FrozenSet[int]
    dead_ops: Tuple[int, ...]
    const_values: Dict[int, int]
    spill_slots: Tuple[SpillSlot, ...]
    segment_rows: int
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def netlist(self) -> Netlist:
        return self.schedule.netlist

    @property
    def segments(self) -> int:
        """Config segments the schedule folds into (>=1)."""
        if self.passes <= 0:
            return 1
        return -(-self.passes // self.segment_rows)

    def segment_of(self, cycle: int) -> int:
        """Which config segment a 1-based pass executes in."""
        return (cycle - 1) // self.segment_rows

    def segment_boundaries(self) -> List[int]:
        """Passes after which a segment reload occurs."""
        return [
            self.segment_rows * k
            for k in range(1, self.segments)
        ]

    def live_across(self, boundary: int) -> List[ValueLife]:
        """Values defined at or before ``boundary`` and used after it."""
        return sorted(
            (
                life for life in self.lives.values()
                if life.def_cycle is not None
                and life.def_cycle <= boundary < life.last_use
            ),
            key=lambda life: life.nid,
        )


def _constant_values(netlist: Netlist) -> Dict[int, int]:
    """Statically-known node values, propagated through wiring and ops.

    Flip-flops, inputs, and bus loads stay unknown; everything whose
    fanins are all known folds.  Only op nodes are interesting to the
    rules, but wiring constness must be tracked to reach them.
    """
    known: Dict[int, int] = {}
    for nid in netlist.topo_order():
        node = netlist.nodes[nid]
        kind = node.kind
        if kind is NodeKind.CONST or kind is NodeKind.WORD_CONST:
            known[nid] = int(node.payload) & WORD_MASK  # type: ignore[call-overload]
            continue
        if kind in (NodeKind.BIT_INPUT, NodeKind.WORD_INPUT,
                    NodeKind.FLIPFLOP, NodeKind.BUS_LOAD,
                    NodeKind.BUS_STORE, NodeKind.GATE):
            continue
        if any(fanin not in known for fanin in node.fanins):
            continue
        values = [known[fanin] for fanin in node.fanins]
        if kind is NodeKind.BITSLICE:
            known[nid] = (values[0] >> node.payload) & 1  # type: ignore[operator]
        elif kind is NodeKind.PACK:
            known[nid] = sum(bit << i for i, bit in enumerate(values))
        elif kind is NodeKind.LUT:
            _, table = node.payload  # type: ignore[misc]
            index = sum(bit << i for i, bit in enumerate(values))
            known[nid] = (table >> index) & 1
        elif kind is NodeKind.MAC:
            a, b, acc = values
            known[nid] = (a * b + acc) & WORD_MASK
    return known


def build_dataflow(
    schedule: FoldingSchedule,
    *,
    rows_per_subarray: int = DEFAULT_ROWS_PER_SUBARRAY,
) -> DataflowIR:
    """Construct the def-use IR for ``schedule``.

    Never raises on a corrupt schedule: invalid nids are ignored here
    (the SC pack already flags them) and missing definitions surface
    as ``ValueLife.def_cycle is None`` for DF001 to report.
    """
    netlist = schedule.netlist
    n_nodes = len(netlist.nodes)
    preds, succs, outputs = op_dependences(netlist)

    # Executor semantics: op_by_nid, last entry wins.
    cycle_of: Dict[int, int] = {}
    for op in schedule.ops:
        if 0 <= op.nid < n_nodes and netlist.nodes[op.nid].is_op:
            cycle_of[op.nid] = op.cycle

    passes = max(schedule.compute_cycles,
                 max(cycle_of.values(), default=0))

    defs_mut: Dict[int, List[int]] = {}
    for nid, cycle in cycle_of.items():
        defs_mut.setdefault(cycle, []).append(nid)
    defs = {cycle: tuple(sorted(nids)) for cycle, nids in defs_mut.items()}

    uses: List[PassUse] = []
    for nid in sorted(preds):
        user_cycle = cycle_of.get(nid)
        if user_cycle is None:
            continue  # an unscheduled op never executes, so never reads
        for producer in sorted(preds[nid]):
            uses.append(PassUse(user=nid, producer=producer,
                                cycle=user_cycle))

    lives: Dict[int, ValueLife] = {}
    for nid in sorted(preds):
        node = netlist.nodes[nid]
        bits = VALUE_BITS.get(node.kind)
        if bits is None:
            continue
        def_cycle = cycle_of.get(nid)
        use_cycles = [
            cycle_of[s] for s in succs.get(nid, ()) if s in cycle_of
        ]
        last_use = max(use_cycles, default=def_cycle or 0)
        if nid in outputs:
            last_use = max(last_use, passes)
        lives[nid] = ValueLife(
            nid=nid,
            kind=node.kind.value,
            bits=bits,
            def_cycle=def_cycle,
            last_use=last_use,
        )

    # Live cone: ops reachable backwards from an observable sink.
    sinks = set(outputs)
    sinks.update(
        nid for nid, node in enumerate(netlist.nodes)
        if node.kind is NodeKind.BUS_STORE
    )
    cone: Set[int] = set()
    stack = sorted(sinks)
    while stack:
        nid = stack.pop()
        if nid in cone:
            continue
        cone.add(nid)
        stack.extend(p for p in preds.get(nid, ()) if p not in cone)
    dead = tuple(sorted(
        nid for nid in preds
        if nid not in cone
        and netlist.nodes[nid].kind is not NodeKind.BUS_STORE
    ))

    spill_slots: List[SpillSlot] = []
    for index, nid in enumerate(schedule.spills.spilled_nids):
        life = lives.get(nid)
        if life is None or life.def_cycle is None:
            continue
        store = life.def_cycle + 1
        reload = max(store, life.last_use - 1)
        spill_slots.append(SpillSlot(
            nid=nid,
            row=schedule.spills.row_of(index),
            words=max(1, life.bits // 32),
            store_cycle=store,
            reload_cycle=reload,
        ))

    ir = DataflowIR(
        schedule=schedule,
        passes=passes,
        cycle_of=cycle_of,
        defs=defs,
        uses=tuple(uses),
        lives=lives,
        preds=preds,
        succs=succs,
        live_cone=frozenset(cone),
        dead_ops=dead,
        const_values=_constant_values(netlist),
        spill_slots=tuple(spill_slots),
        segment_rows=max(1, rows_per_subarray),
    )
    ir.stats = _compute_stats(ir)
    return ir


def _compute_stats(ir: DataflowIR) -> Dict[str, object]:
    """Depth / fanout / pressure statistics over the IR."""
    depth: Dict[int, int] = {}
    for nid in sorted(ir.preds):
        depth[nid] = 1 + max(
            (depth[p] for p in ir.preds[nid] if p in depth), default=0
        )
    peak_bits, peak_cycle = 0, 0
    if ir.lives and ir.passes > 0:
        diff = [0] * (ir.passes + 2)
        for life in ir.lives.values():
            if life.def_cycle is None or life.last_use <= life.def_cycle:
                continue
            diff[life.def_cycle + 1] += life.bits
            if life.last_use + 1 <= ir.passes:
                diff[life.last_use + 1] -= life.bits
        running = 0
        for cycle in range(1, ir.passes + 1):
            running += diff[cycle]
            if running > peak_bits:
                peak_bits, peak_cycle = running, cycle
    fanouts = [len(ir.succs[nid]) for nid in ir.succs] or [0]
    return {
        "ops": len(ir.preds),
        "passes": ir.passes,
        "critical_depth": max(depth.values(), default=0),
        "max_fanout": max(fanouts),
        "mean_fanout": round(sum(fanouts) / max(1, len(fanouts)), 3),
        "peak_live_bits": peak_bits,
        "peak_live_cycle": peak_cycle,
        "ff_capacity_bits": ir.schedule.resources.ff_bits,
        "dead_ops": len(ir.dead_ops),
        "segments": ir.segments,
        "utilization": ir.schedule.utilization(),
    }
