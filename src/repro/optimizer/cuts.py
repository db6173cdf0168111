"""Area-oriented cut re-covering of an already-mapped netlist.

The heuristic tech-mapper (:mod:`repro.circuits.techmap`) ranks cuts
by *depth*: it minimises logic levels, which is the right call for an
FPGA clock but the wrong one for folded execution, where every LUT
costs a slot-cycle and the fold count is bounded below by
``ceil(luts / luts_per_cycle)``.  This pass re-covers the mapped
netlist with priority cuts ranked by **area flow** (the ABC/WireMap
heuristic: the estimated LUT area of a cone divided by how many
fanouts share it), iterating so reference counts converge on the
actual cover.  Fewer LUTs lower the resource bound directly — on the
LUT-dominated MachSuite benchmarks this is where most of the fold
reduction comes from (docs/optimizer.md has per-benchmark numbers).

Function is preserved exactly: each chosen cut's truth table is built
by bitwise composition over its cone in the *original* netlist
(:func:`repro.circuits.techmap.cone_truth_table`), property-tested
against random netlists in ``tests/optimizer/test_remap.py``.

The pass is deadline-aware: it polls the injected clock between work
chunks and returns ``None`` when the budget expires, so the caller
falls back to the original netlist instead of blowing the time box.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..circuits.netlist import Netlist, NodeKind
from ..circuits.techmap import cone_truth_table

Cut = FrozenSet[int]

_MAPPABLE = (NodeKind.GATE, NodeKind.LUT)

#: Deadline poll granularity (nodes between clock reads).
_CHUNK = 512


def lut_count(netlist: Netlist) -> int:
    return sum(1 for node in netlist.nodes if node.kind is NodeKind.LUT)


def _external_refs(netlist: Netlist, mappable: List[bool]) -> Dict[int, int]:
    """Fanout counts seen from outside the logic network: word-level
    consumers and primary outputs.  These never change across
    re-covering rounds."""
    refs: Dict[int, int] = {}
    for node in netlist.nodes:
        if node.kind in _MAPPABLE:
            continue
        for fanin in node.fanins:
            if mappable[fanin]:
                refs[fanin] = refs.get(fanin, 0) + 1
    for out in netlist.outputs.values():
        if mappable[out]:
            refs[out] = refs.get(out, 0) + 1
    return refs


def _initial_refs(netlist: Netlist, mappable: List[bool]) -> Dict[int, int]:
    """Round-0 reference counts: the current netlist's own fanout."""
    refs = _external_refs(netlist, mappable)
    for node in netlist.nodes:
        if node.kind not in _MAPPABLE:
            continue
        for fanin in node.fanins:
            if mappable[fanin]:
                refs[fanin] = refs.get(fanin, 0) + 1
    return refs


def area_remap(
    netlist: Netlist,
    k: int,
    *,
    cut_limit: int = 8,
    iterations: int = 2,
    deadline: Optional[float] = None,
    clock: Callable[[], float] = time.monotonic,
) -> Optional[Netlist]:
    """Re-cover ``netlist`` with area-flow-ranked K-feasible cuts.

    Returns the re-covered netlist (function-equivalent, every LUT
    still <= ``k`` inputs), or ``None`` if ``deadline`` expired before
    the cover finished.  The result is not guaranteed to have fewer
    LUTs — the caller compares *schedules*, not LUT counts, and keeps
    whichever folds shorter.
    """
    mappable = [node.kind in _MAPPABLE for node in netlist.nodes]
    if not any(mappable):
        return netlist
    order = [nid for nid in netlist.topo_order() if mappable[nid]]
    external = _external_refs(netlist, mappable)
    refs = _initial_refs(netlist, mappable)

    chosen: Dict[int, Tuple[int, ...]] = {}
    for _ in range(max(1, iterations)):
        # -- forward pass: priority cuts ranked by (area flow, depth) --
        flow: Dict[int, float] = {}
        arrival: Dict[int, int] = {}
        cuts: Dict[int, List[Cut]] = {}
        since_poll = 0
        for nid in order:
            since_poll += 1
            if since_poll >= _CHUNK:
                since_poll = 0
                if deadline is not None and clock() >= deadline:
                    return None
            node = netlist.nodes[nid]

            def raw_cost(cut: Cut) -> Tuple[float, int, int]:
                area = 1.0
                depth = 0
                for leaf in cut:
                    if mappable[leaf]:
                        area += flow[leaf]
                        if arrival[leaf] > depth:
                            depth = arrival[leaf]
                return (area, 1 + depth, len(cut))

            merged: List[Cut] = [frozenset()]
            for fanin in node.fanins:
                fanin_cuts = (
                    cuts[fanin] if mappable[fanin]
                    else [frozenset((fanin,))]
                )
                next_merged: List[Cut] = []
                seen = set()
                for base in merged:
                    for cut in fanin_cuts:
                        union = base | cut
                        if len(union) > k or union in seen:
                            continue
                        seen.add(union)
                        next_merged.append(union)
                if not next_merged:
                    merged = []
                    break
                # Prune per fold step so an f-fanin node stays
                # O(f * cut_limit^2) instead of cut_limit^f.
                next_merged.sort(key=raw_cost)
                merged = next_merged[:cut_limit]
            if not merged:
                # Every merged cut exceeded k inputs; the node's own
                # fanins are always feasible (it is a <=k-input LUT).
                merged = [frozenset(node.fanins)]

            share = max(1, refs.get(nid, 1))
            ranked = sorted(dict.fromkeys(merged), key=raw_cost)[:cut_limit]
            best_area, best_depth, _ = raw_cost(ranked[0])
            flow[nid] = best_area / share
            arrival[nid] = best_depth
            # The trivial cut lets fanouts stop at this node; it rides
            # along un-ranked (its flow is the node's own).
            cuts[nid] = ranked + [frozenset((nid,))]

        # -- cover from the required roots ----------------------------
        required: List[int] = list(external)
        seen_required = set(required)
        chosen = {}
        index = 0
        while index < len(required):
            nid = required[index]
            index += 1
            trivial = frozenset((nid,))
            best: Optional[Cut] = None
            best_cost: Optional[Tuple[float, int, int]] = None
            for cut in cuts[nid]:
                if cut == trivial:
                    continue
                area = 1.0
                depth = 0
                for leaf in cut:
                    if mappable[leaf]:
                        area += flow[leaf]
                        if arrival[leaf] > depth:
                            depth = arrival[leaf]
                this_cost = (area, 1 + depth, len(cut))
                if best_cost is None or this_cost < best_cost:
                    best, best_cost = cut, this_cost
            if best is None:
                # A mappable node with only the trivial cut: a primary
                # input of the logic region (no mappable or leafable
                # fanins).  Cover it with its own fanins.
                best = frozenset(netlist.nodes[nid].fanins)
            leaves = tuple(sorted(best))
            chosen[nid] = leaves
            for leaf in leaves:
                if mappable[leaf] and leaf not in seen_required:
                    seen_required.add(leaf)
                    required.append(leaf)

        # -- refs for the next round: the actual cover's sharing ------
        refs = dict(external)
        for leaves in chosen.values():
            for leaf in leaves:
                if mappable[leaf]:
                    refs[leaf] = refs.get(leaf, 0) + 1
        if deadline is not None and clock() >= deadline:
            return None

    return _emit(netlist, mappable, chosen, deadline=deadline, clock=clock)


def _emit(
    netlist: Netlist,
    mappable: List[bool],
    chosen: Dict[int, Tuple[int, ...]],
    *,
    deadline: Optional[float],
    clock: Callable[[], float],
) -> Optional[Netlist]:
    """Materialise the chosen cover (mirrors the tech-mapper's emit)."""
    result = Netlist(netlist.name)
    remap: Dict[int, int] = {}
    ff_bindings: List[Tuple[int, int]] = []
    since_poll = 0
    for nid in netlist.topo_order():
        since_poll += 1
        if since_poll >= _CHUNK:
            since_poll = 0
            if deadline is not None and clock() >= deadline:
                return None
        node = netlist.nodes[nid]
        if node.kind is NodeKind.FLIPFLOP:
            remap[nid] = result.add(NodeKind.FLIPFLOP, (), node.payload)
            if node.fanins:
                ff_bindings.append((remap[nid], node.fanins[0]))
            continue
        if mappable[nid]:
            if nid not in chosen:
                continue  # internal to some cone
            leaves = chosen[nid]
            table = cone_truth_table(netlist, nid, leaves)
            size = 1 << len(leaves)
            mask = (1 << size) - 1
            if (table & mask) == 0:
                remap[nid] = result.add(NodeKind.CONST, (), 0)
            elif (table & mask) == mask:
                remap[nid] = result.add(NodeKind.CONST, (), 1)
            elif len(leaves) == 1 and table == 0b10:
                remap[nid] = remap[leaves[0]]  # buffer: alias the leaf
            else:
                remap[nid] = result.add(
                    NodeKind.LUT,
                    tuple(remap[leaf] for leaf in leaves),
                    (len(leaves), table & mask),
                )
        else:
            remap[nid] = result.add(
                node.kind, tuple(remap[f] for f in node.fanins), node.payload
            )
    for new_ff, old_driver in ff_bindings:
        result.bind_flipflop(new_ff, remap[old_driver])
    for name, out in netlist.outputs.items():
        result.set_output(name, remap[out])
    return result
