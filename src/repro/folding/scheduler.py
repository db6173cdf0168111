"""Folding schedulers: resource-constrained mapping of netlists to MCCs.

Two algorithms are provided:

``level_schedule``
    The paper's flow (Sec. IV): topologically level the DAG, then fold
    each level into as many cycles as its widest resource demands.
    Levels never overlap, which is simple but leaves slots idle.

``list_schedule``
    A cone-ordered list scheduler: ops become ready when their
    producers are placed and are packed into the earliest cycle with a
    free slot of their class.  Priority follows a depth-first
    post-order from the primary outputs, which finishes one logic cone
    before starting the next and thereby keeps the live set (and hence
    flip-flop pressure) small.  This is the scheduler the experiments
    use; the level scheduler serves as the ablation baseline.

Both share a register-pressure post-pass: values whose lifetime spans
the peak-pressure region are spilled to the scratchpad, charged as two
bus words (store + reload) and amortised extra folding cycles — see
DESIGN.md for the accuracy trade-off.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set, Tuple

import numpy as np

from ..circuits.level import level_graph
from ..circuits.netlist import Netlist, NodeKind
from ..errors import SchedulingError
from .schedule import (
    FoldingSchedule,
    OpSlot,
    ScheduledOp,
    SpillInfo,
    TileResources,
    slot_for_kind,
)

# Bump when scheduling behaviour changes: the experiment harness keys
# its on-disk schedule cache with this, so stale entries are ignored.
SCHEDULER_VERSION = 2

#: Width in FF bits of each value class held between folding steps
#: (BUS_STORE produces no live value).  The register allocator and the
#: dataflow analysis tier share this table.
VALUE_BITS = {
    NodeKind.LUT: 1,
    NodeKind.MAC: 32,
    NodeKind.BUS_LOAD: 32,
}


# ---------------------------------------------------------------------------
# Op-level dependence structure
# ---------------------------------------------------------------------------

def op_dependences(
    netlist: Netlist,
) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]], Set[int]]:
    """Op-to-op edges, looking *through* wiring nodes, in one walk.

    Returns (preds, succs, outputs).  ``preds[v]`` is the set of op
    nodes whose values v consumes, possibly via PACK/BITSLICE chains;
    ``succs`` is its inverse.  ``outputs`` holds the op nodes whose
    values must stay live to the end of the schedule: primary outputs
    and flip-flop next-state values are both read at the end of the
    invocation.  Public: the register allocator, the dataflow analysis
    tier and the optimizer build on the same structure the schedulers
    use.
    """
    # op_sources[n] = set of op nids whose values flow out of node n.
    op_sources: Dict[int, frozenset] = {}
    preds: Dict[int, Set[int]] = {}
    succs: Dict[int, Set[int]] = {}
    empty = frozenset()
    for nid in netlist.topo_order():
        node = netlist.nodes[nid]
        if node.kind is NodeKind.FLIPFLOP:
            # A flip-flop's output is stored state: no combinational
            # dependence on its (possibly forward) next-state driver.
            op_sources[nid] = empty
            continue
        incoming: Set[int] = set()
        for fanin in node.fanins:
            incoming |= op_sources[fanin]
        if node.is_op:
            preds[nid] = incoming
            succs[nid] = set()
            for p in incoming:
                succs[p].add(nid)
            op_sources[nid] = frozenset((nid,))
        else:
            op_sources[nid] = frozenset(incoming) if incoming else empty
    outputs: Set[int] = set()
    for out in netlist.outputs.values():
        outputs |= op_sources[out]
    for ff in netlist.flipflops():
        if ff.fanins:
            outputs |= op_sources[ff.fanins[0]]
    return preds, succs, outputs


def _cone_priority(
    netlist: Netlist, preds: Dict[int, Set[int]], outputs: Set[int]
) -> Dict[int, int]:
    """Depth-first post-order rank from the outputs / stores."""
    roots = sorted(
        set(nid for nid, node in enumerate(netlist.nodes)
            if node.kind is NodeKind.BUS_STORE)
        | outputs
    )
    rank: Dict[int, int] = {}
    counter = 0
    for root in roots:
        if root in rank:
            continue
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            nid, expanded = stack.pop()
            if expanded:
                if nid not in rank:
                    rank[nid] = counter
                    counter += 1
                continue
            if nid in rank:
                continue
            stack.append((nid, True))
            for p in sorted(preds[nid], reverse=True):
                if p not in rank:
                    stack.append((p, False))
    # Ops unreachable from any output (dead bus loads etc.) go last.
    for nid, node in enumerate(netlist.nodes):
        if node.is_op and nid not in rank:
            rank[nid] = counter
            counter += 1
    return rank


# ---------------------------------------------------------------------------
# Slot tracking
# ---------------------------------------------------------------------------

class _SlotGrid:
    """Per-cycle usage counters with path-compressed next-free pointers.

    Per slot class, ``_used[c]`` counts the ops placed in cycle ``c``
    and ``_next[c]`` is ``c`` while that cycle has a free slot; once it
    is full, a later cycle such that every cycle in between is full
    too.  Cycles past the end of the lists are empty, and index 0 is
    unused (cycles are 1-based).
    """

    def __init__(self, resources: TileResources) -> None:
        self._capacity = {slot: resources.slots(slot) for slot in OpSlot}
        self._used: Dict[OpSlot, List[int]] = {slot: [0] for slot in OpSlot}
        self._next: Dict[OpSlot, List[int]] = {slot: [0] for slot in OpSlot}

    def place(self, slot: OpSlot, earliest: int) -> Tuple[int, int]:
        """Earliest cycle >= ``earliest`` with a free slot; returns
        (cycle, index-within-cycle)."""
        used = self._used[slot]
        following = self._next[slot]
        cycle = earliest
        path: List[int] = []
        while cycle < len(following) and following[cycle] != cycle:
            path.append(cycle)
            cycle = following[cycle]
        for visited in path:
            following[visited] = cycle
        while len(used) <= cycle:
            following.append(len(used))
            used.append(0)
        index = used[cycle]
        used[cycle] = index + 1
        if index + 1 >= self._capacity[slot]:
            following[cycle] = cycle + 1
        return cycle, index

    @property
    def max_cycle(self) -> int:
        return max(len(column) for column in self._used.values()) - 1


def _physical(resources: TileResources, slot: OpSlot, index: int) -> Tuple[int, int]:
    """Map a within-cycle slot index to (mcc, unit)."""
    if slot is OpSlot.LUT:
        per_mcc = resources.luts_per_mcc
        return index // per_mcc, index % per_mcc
    return index, 0


#: Public aliases shared with ``repro.optimizer.rebuild``.
physical_slot = _physical


# ---------------------------------------------------------------------------
# Register pressure / spilling
# ---------------------------------------------------------------------------

def _pressure_pass(
    netlist: Netlist,
    resources: TileResources,
    cycle_of: Dict[int, int],
    total_cycles: int,
    succs: Dict[int, Set[int]],
    outputs: Set[int],
) -> Tuple[int, SpillInfo]:
    """Compute peak FF occupancy and spill down to capacity.

    While the leftmost peak of the occupancy profile exceeds the FF
    capacity, one value live across the peak cycle is spilled: of the
    unspilled values that cover it and span at least 3 cycles (room
    for the store and the reload), the one with the largest (idle
    span, width), the first in ``cycle_of`` order on ties.  A spilled
    value stays resident only in the cycle after its definition and in
    its last-use cycle.
    """
    intervals: List[Tuple[int, int, int, int]] = []  # (def, last_use, bits, nid)
    for nid, cycle in cycle_of.items():
        bits = VALUE_BITS.get(netlist.nodes[nid].kind)
        if bits is None:
            continue  # BUS_STORE produces no live value
        last_use = max((cycle_of[s] for s in succs[nid]), default=cycle)
        if nid in outputs:
            last_use = max(last_use, total_cycles)
        if last_use > cycle:
            intervals.append((cycle, last_use, bits, nid))

    capacity = resources.ff_bits
    spills = SpillInfo()
    if not intervals:
        return 0, spills

    # occupancy[c - 1] is the FF bits live in cycle c: the widths of the
    # values with def < c <= last_use.
    defs, last_uses, widths, _ = (np.array(column) for column in zip(*intervals))
    delta = np.zeros(total_cycles + 1, dtype=np.int64)
    np.add.at(delta, defs, widths)
    np.add.at(delta, last_uses, -widths)
    occupancy = np.cumsum(delta[:total_cycles])
    peak = int(np.argmax(occupancy))  # the leftmost peak is cycle peak + 1
    max_live = int(occupancy[peak])
    if max_live <= capacity:
        return max_live, spills

    # Spill candidates in victim order: the stable sort keeps equal
    # ones in ``cycle_of`` order.
    ranked = sorted(
        (iv for iv in intervals if iv[1] - iv[0] >= 3),
        key=lambda iv: (iv[0] - iv[1], -iv[2]),
    )
    ranked_defs = np.array([iv[0] for iv in ranked], dtype=np.int64)
    ranked_last_uses = np.array([iv[1] for iv in ranked], dtype=np.int64)
    unspilled = np.ones(len(ranked), dtype=bool)
    while max_live > capacity:
        # Live in cycle peak + 1: def <= peak < last_use.
        covering = unspilled & (ranked_defs <= peak) & (peak < ranked_last_uses)
        if not covering.any():
            break
        victim = int(np.argmax(covering))
        unspilled[victim] = False
        start, end, bits, nid = ranked[victim]
        # Resident only in cycles start + 1 and end from now on.
        occupancy[start + 1:end - 1] -= bits
        words = max(1, bits // 32)
        spills.spilled_values += 1
        spills.spill_words += 2 * words
        spills.spilled_nids.append(nid)
        peak = int(np.argmax(occupancy))
        max_live = int(occupancy[peak])

    per_cycle_bus = max(resources.bus_ops_per_cycle, 1)
    spills.spill_cycles = -(-spills.spill_words // per_cycle_bus)
    return max_live, spills


#: Public alias shared with ``repro.optimizer.rebuild`` — an optimized
#: cycle assignment pays the same spill charges as a heuristic one, so
#: fold-count comparisons are apples to apples.
pressure_pass = _pressure_pass


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------

def list_schedule(netlist: Netlist, resources: TileResources) -> FoldingSchedule:
    """Cone-ordered list scheduling (the production scheduler)."""
    _reject_unmapped(netlist, resources)
    preds, succs, outputs = op_dependences(netlist)
    priority = _cone_priority(netlist, preds, outputs)
    grid = _SlotGrid(resources)

    remaining = {nid: len(preds[nid]) for nid in preds}
    ready: List[Tuple[int, int]] = [
        (priority[nid], nid) for nid, count in remaining.items() if count == 0
    ]
    heapq.heapify(ready)

    cycle_of: Dict[int, int] = {}
    ops: List[ScheduledOp] = []
    scheduled = 0
    total_ops = len(preds)
    while ready:
        _, nid = heapq.heappop(ready)
        node = netlist.nodes[nid]
        slot = slot_for_kind(node.kind)
        earliest = 1 + max((cycle_of[p] for p in preds[nid]), default=0)
        cycle, index = grid.place(slot, earliest)
        mcc, unit = _physical(resources, slot, index)
        cycle_of[nid] = cycle
        ops.append(ScheduledOp(nid, slot, cycle, mcc, unit))
        scheduled += 1
        for succ in succs[nid]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(ready, (priority[succ], succ))
    if scheduled != total_ops:
        raise SchedulingError(
            f"scheduled {scheduled} of {total_ops} ops; the netlist has a cycle"
        )

    total_cycles = grid.max_cycle
    max_live, spills = _pressure_pass(
        netlist, resources, cycle_of, total_cycles, succs, outputs
    )
    ops.sort(key=lambda op: (op.cycle, op.slot.value, op.mcc, op.unit))
    return FoldingSchedule(
        netlist=netlist,
        resources=resources,
        ops=ops,
        compute_cycles=total_cycles,
        max_live_bits=max_live,
        spills=spills,
        algorithm="list",
    )


def level_schedule(netlist: Netlist, resources: TileResources) -> FoldingSchedule:
    """The paper's level-partition folding (ablation baseline)."""
    _reject_unmapped(netlist, resources)
    _, succs, outputs = op_dependences(netlist)
    graph = level_graph(netlist)
    cycle_of: Dict[int, int] = {}
    ops: List[ScheduledOp] = []
    level_start = 1
    for level_nodes in graph.levels:
        # Each level folds into enough cycles for its widest resource.
        demand: Dict[OpSlot, int] = {slot: 0 for slot in OpSlot}
        for nid in level_nodes:
            demand[slot_for_kind(netlist.nodes[nid].kind)] += 1
        span = max(
            (-(-count // resources.slots(slot)))
            for slot, count in demand.items()
            if count
        )
        placed: Dict[OpSlot, int] = {slot: 0 for slot in OpSlot}
        for nid in level_nodes:
            slot = slot_for_kind(netlist.nodes[nid].kind)
            position = placed[slot]
            placed[slot] += 1
            cycle = level_start + position // resources.slots(slot)
            index = position % resources.slots(slot)
            mcc, unit = _physical(resources, slot, index)
            cycle_of[nid] = cycle
            ops.append(ScheduledOp(nid, slot, cycle, mcc, unit))
        level_start += span
    total_cycles = level_start - 1
    max_live, spills = _pressure_pass(
        netlist, resources, cycle_of, total_cycles, succs, outputs
    )
    ops.sort(key=lambda op: (op.cycle, op.slot.value, op.mcc, op.unit))
    return FoldingSchedule(
        netlist=netlist,
        resources=resources,
        ops=ops,
        compute_cycles=total_cycles,
        max_live_bits=max_live,
        spills=spills,
        algorithm="level",
    )


def _reject_unmapped(netlist: Netlist, resources: TileResources) -> None:
    limit = resources.lut_inputs
    for node in netlist.nodes:
        if node.kind is NodeKind.GATE:
            raise SchedulingError(
                "netlist contains raw gates; run technology_map first"
            )
        if node.kind is NodeKind.LUT and node.payload[0] > limit:  # type: ignore[index]
            raise SchedulingError(
                f"netlist contains a "  # type: ignore[index]
                f"{node.payload[0]}-input LUT but the "
                f"tile is configured for {limit}-input LUTs; re-map with "
                f"k={limit}"
            )
