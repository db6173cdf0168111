"""Lower bounds on the fold count of a mapped netlist.

Three bounds, each cheap enough to run inside the time box:

``resource_bound``
    ``max_s ceil(ops_s / capacity_s)`` over the three MCC slot
    classes — the bound area re-covering attacks by shrinking the LUT
    count.

``critical_path_bound``
    The longest op-to-op dependence chain: no schedule beats the DAG's
    depth regardless of capacity.

``window bound`` (inside :func:`lower_bound`)
    The LP-style strengthening: give every op its precedence window
    ``[asap, T - 1 - tail]`` and check, for every interval spanned by
    window endpoints, that the ops *confined* to the interval fit its
    slot-cycles.  This is the fractional relaxation of the
    interval-capacity constraints of the scheduling ILP (SNIPPETS.md
    Snippet 3): the smallest ``T`` no interval refutes is a valid
    lower bound, and it is what the branch-and-bound search and the
    reported ``bound_gap`` are measured against.

All cycle arithmetic here is 0-based; the rebuild step converts to the
1-based cycles :class:`~repro.folding.schedule.FoldingSchedule` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..circuits.netlist import Netlist
from ..folding.schedule import OpSlot, TileResources, slot_for_kind
from ..folding.scheduler import op_dependences

#: Skip the O(endpoints^2)-flavoured window bound above this many ops
#: (AES-sized instances; the resource bound dominates there anyway).
WINDOW_OP_LIMIT = 4000

#: Give up strengthening after this many candidate makespans — a
#: backstop, not a tuning knob (real gaps close within a few steps).
_WINDOW_SWEEP_LIMIT = 64


@dataclass
class OpGraph:
    """The op-level dependence structure the optimizer schedules."""

    netlist: Netlist
    preds: Dict[int, Set[int]]
    succs: Dict[int, Set[int]]
    slot_of: Dict[int, OpSlot]
    order: List[int] = field(default_factory=list)   # topo order of ops
    asap: Dict[int, int] = field(default_factory=dict)
    tail: Dict[int, int] = field(default_factory=dict)

    @property
    def op_count(self) -> int:
        return len(self.preds)


def build_graph(netlist: Netlist) -> OpGraph:
    preds, succs, _ = op_dependences(netlist)
    slot_of = {
        nid: slot_for_kind(netlist.nodes[nid].kind) for nid in preds
    }
    op_set = set(preds)
    order = [nid for nid in netlist.topo_order() if nid in op_set]
    asap: Dict[int, int] = {}
    for nid in order:
        asap[nid] = 1 + max(
            (asap[p] for p in preds[nid]), default=-1
        )
    tail: Dict[int, int] = {}
    for nid in reversed(order):
        tail[nid] = 1 + max(
            (tail[s] for s in succs[nid]), default=-1
        )
    return OpGraph(
        netlist=netlist, preds=preds, succs=succs, slot_of=slot_of,
        order=order, asap=asap, tail=tail,
    )


def resource_bound(graph: OpGraph, resources: TileResources) -> int:
    demand: Dict[OpSlot, int] = {slot: 0 for slot in OpSlot}
    for slot in graph.slot_of.values():
        demand[slot] += 1
    return max(
        (
            -(-count // resources.slots(slot))
            for slot, count in demand.items() if count
        ),
        default=0,
    )


def critical_path_bound(graph: OpGraph) -> int:
    return max(
        (graph.asap[nid] + graph.tail[nid] + 1 for nid in graph.asap),
        default=0,
    )


def window_infeasible(
    graph: OpGraph, resources: TileResources, total_cycles: int
) -> bool:
    """True when some interval provably cannot hold its confined ops.

    An op's window is ``[asap, total_cycles - 1 - tail]``; an op whose
    window is empty, or an interval ``[a, b]`` confining more ops of
    one class than ``capacity * (b - a + 1)``, refutes the makespan.
    """
    per_class: Dict[OpSlot, List[Tuple[int, int]]] = {s: [] for s in OpSlot}
    for nid in graph.asap:
        latest = total_cycles - 1 - graph.tail[nid]
        if graph.asap[nid] > latest:
            return True
        per_class[graph.slot_of[nid]].append((graph.asap[nid], latest))
    for slot, windows in per_class.items():
        if not windows:
            continue
        capacity = resources.slots(slot)
        starts = sorted({start for start, _ in windows})
        windows.sort()
        for a in starts:
            # Ops that cannot start before ``a``: walk their latest
            # cycles in order; the (i+1)-th confined op needs i+1
            # slot-cycles inside [a, latest_i].
            confined = sorted(
                latest for start, latest in windows if start >= a
            )
            for count, latest in enumerate(confined, start=1):
                if count > capacity * (latest - a + 1):
                    return True
    return False


def lower_bound(graph: OpGraph, resources: TileResources) -> int:
    """The strongest cheap bound on compute cycles (0 ops -> 0)."""
    base = max(resource_bound(graph, resources), critical_path_bound(graph))
    if graph.op_count == 0 or graph.op_count > WINDOW_OP_LIMIT:
        return base
    bound = base
    for _ in range(_WINDOW_SWEEP_LIMIT):
        if not window_infeasible(graph, resources, bound):
            return bound
        bound += 1
    return bound
