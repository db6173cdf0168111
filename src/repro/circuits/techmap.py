"""Technology mapping: cover the gate-level region with K-input LUTs.

This module stands in for the paper's VTR logic-synthesis step
(Sec. IV: "we use the open-source VTR toolchain to perform logic
synthesis and technology mapping, in order to map the circuit into a
netlist of look-up tables, flip-flops, adders, and multipliers").

Two passes:

1. **Shannon decomposition** — arbitrary-arity LUTs written by the
   benchmark generators (e.g. the 8-input AES S-box bit functions) are
   cofactored into a mux tree of K-input LUTs.  At K = 2 each mux,
   written or emitted, becomes two-input gates.
2. **Priority-cut covering** — classic depth-oriented cut enumeration
   (a small-C variant of the algorithm used by ABC/VTR): every gate or
   narrow-LUT node accumulates a bounded set of K-feasible cuts ranked
   by (depth, size), each cut carrying its depth; the cover phase walks
   from the required bit roots and materialises one LUT per chosen cut,
   with the cut's truth table built by bitwise composition over the
   cone (:func:`cone_truth_table`).

The result preserves function exactly — property-tested against random
gate networks in ``tests/circuits/test_techmap.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..errors import SynthesisError
from .netlist import GateOp, Netlist, NodeKind, gate_truth_table

# How many cuts to keep per node.  Small values trade mapping quality
# for speed; 6 is plenty for the arithmetic/logic cones we build.
CUT_LIMIT = 6

_MAPPABLE = (NodeKind.GATE, NodeKind.LUT)


@dataclass
class TechMapResult:
    """A mapped netlist plus mapping statistics."""

    netlist: Netlist
    lut_count: int
    depth: int
    node_map: Dict[int, int] = field(repr=False, default_factory=dict)

    def counts(self) -> Dict[str, int]:
        return self.netlist.counts()


# ---------------------------------------------------------------------------
# Pass 1: Shannon decomposition of wide LUTs
# ---------------------------------------------------------------------------

def _decompose_table(
    netlist: Netlist, fanins: Sequence[int], table: int, k: int
) -> int:
    """Emit a ≤k-input realisation of (fanins, table) into ``netlist``."""
    width = len(fanins)
    size = 1 << width
    mask = (1 << size) - 1
    table &= mask
    if table == 0:
        return netlist.add(NodeKind.CONST, (), 0)
    if table == mask:
        return netlist.add(NodeKind.CONST, (), 1)
    if width <= k:
        return netlist.add(NodeKind.LUT, fanins, (width, table))
    half = 1 << (width - 1)
    low = table & ((1 << half) - 1)
    high = table >> half
    select = fanins[-1]
    rest = fanins[:-1]
    if low == high:
        return _decompose_table(netlist, rest, low, k)
    low_nid = _decompose_table(netlist, rest, low, k)
    high_nid = _decompose_table(netlist, rest, high, k)
    return _add_mux(netlist, select, low_nid, high_nid, k)


def _add_mux(netlist: Netlist, select: int, low: int, high: int, k: int) -> int:
    """``low`` when ``select`` is 0, else ``high``, in gates of <= k inputs."""
    if k >= GateOp.MUX.arity:
        return netlist.add(NodeKind.GATE, (select, low, high), GateOp.MUX)
    inverted = netlist.add(NodeKind.GATE, (select,), GateOp.NOT)
    pick_low = netlist.add(NodeKind.GATE, (inverted, low), GateOp.AND)
    pick_high = netlist.add(NodeKind.GATE, (select, high), GateOp.AND)
    return netlist.add(NodeKind.GATE, (pick_low, pick_high), GateOp.OR)


def decompose_wide_luts(netlist: Netlist, k: int) -> Tuple[Netlist, Dict[int, int]]:
    """Rewrite so every LUT and gate has at most ``k`` inputs."""
    result = Netlist(netlist.name)
    remap: Dict[int, int] = {}
    ff_bindings: List[Tuple[int, int]] = []  # (new ff id, old driver id)
    for nid in netlist.topo_order():
        node = netlist.nodes[nid]
        if node.kind is NodeKind.FLIPFLOP:
            # The next-state edge may point forward; re-bind afterwards.
            remap[nid] = result.add(NodeKind.FLIPFLOP, (), node.payload)
            if node.fanins:
                ff_bindings.append((remap[nid], node.fanins[0]))
            continue
        fanins = tuple(remap[f] for f in node.fanins)
        if node.kind is NodeKind.LUT and node.payload[0] > k:  # type: ignore[index]
            table = node.payload[1]  # type: ignore[index]
            remap[nid] = _decompose_table(result, fanins, table, k)
        elif node.payload is GateOp.MUX and k < GateOp.MUX.arity:
            select, low, high = fanins
            remap[nid] = _add_mux(result, select, low, high, k)
        else:
            remap[nid] = result.add(node.kind, fanins, node.payload)
    for new_ff, old_driver in ff_bindings:
        result.bind_flipflop(new_ff, remap[old_driver])
    for name, out in netlist.outputs.items():
        result.set_output(name, remap[out])
    return result, remap


# ---------------------------------------------------------------------------
# Pass 2: priority-cut mapping
# ---------------------------------------------------------------------------

Cut = FrozenSet[int]
#: A cut with its depth: 1 + the latest arrival among its leaves.
RankedCut = Tuple[Cut, int]


def _merge_cut_lists(lists: Sequence[List[RankedCut]], k: int) -> List[RankedCut]:
    """Fold the fanins' cut lists into K-feasible merged cuts.

    A union's depth is the larger of its parts' depths (the empty
    starting cut has depth 1).
    """
    merged: List[RankedCut] = [(frozenset(), 1)]
    for cuts in lists:
        next_merged: List[RankedCut] = []
        seen = set()
        for base, base_depth in merged:
            for cut, depth in cuts:
                union = base | cut
                if len(union) > k or union in seen:
                    continue
                seen.add(union)
                next_merged.append(
                    (union, depth if depth > base_depth else base_depth)
                )
        if not next_merged:
            return []
        merged = _prune(next_merged)
    return merged


def _rank(entry: RankedCut) -> Tuple[int, int]:
    cut, depth = entry
    return depth, len(cut)


def _prune(cuts: List[RankedCut]) -> List[RankedCut]:
    """The ``CUT_LIMIT`` best cuts by (depth, size), ties in list order.

    The cuts arrive distinct: each merge step drops repeated unions,
    and a node's trivial cut is the only one that holds the node.
    """
    cuts.sort(key=_rank)
    return cuts[:CUT_LIMIT]


@lru_cache(maxsize=None)
def _projections(count: int) -> Tuple[int, ...]:
    """Each of ``count`` variables' truth table over all assignments."""
    size = 1 << count
    return tuple(
        sum(1 << assignment for assignment in range(size)
            if assignment >> index & 1)
        for index in range(count)
    )


def _apply_table(table: int, operands: List[int], full: int) -> int:
    """``table``'s function applied bitwise to its operands' truth tables."""
    negated = [full ^ operand for operand in operands]
    result = 0
    for minterm in range(1 << len(operands)):
        if table >> minterm & 1:
            term = full
            for position, operand in enumerate(operands):
                term &= (
                    operand if minterm >> position & 1 else negated[position]
                )
            result |= term
    return result


def cone_truth_table(
    netlist: Netlist, root: int, leaves: Sequence[int]
) -> int:
    """Truth table of the cone rooted at ``root`` over ``leaves``.

    Bit *a* of the result is the root's value when leaf *i* carries
    bit *i* of *a*.  One walk of the cone composes whole truth tables
    bitwise: leaf *i* is the projection mask of variable *i* over the
    2^len(leaves) assignments, a CONST is 0 or all ones, and a gate or
    LUT applies its table to its fanins' tables.  Raises
    :class:`SynthesisError` if the walk reaches any other node, that
    is, if ``leaves`` do not cut the cone.
    """
    full = (1 << (1 << len(leaves))) - 1
    tables: Dict[int, int] = dict(zip(leaves, _projections(len(leaves))))
    nodes = netlist.nodes
    stack = [root]
    while stack:
        nid = stack[-1]
        if nid in tables:
            stack.pop()
            continue
        node = nodes[nid]
        if node.kind is NodeKind.CONST:
            tables[nid] = full if node.payload else 0
            stack.pop()
            continue
        if node.kind is NodeKind.GATE:
            table = gate_truth_table(node.payload)[1]  # type: ignore[arg-type]
        elif node.kind is NodeKind.LUT:
            table = node.payload[1]  # type: ignore[index]
        else:
            raise SynthesisError(
                f"cone evaluation crossed a non-logic node {node.kind}"
            )
        missing = [fanin for fanin in node.fanins if fanin not in tables]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        tables[nid] = _apply_table(
            table, [tables[fanin] for fanin in node.fanins], full
        )
    return tables[root]


def technology_map(netlist: Netlist, k: int = 5) -> TechMapResult:
    """Map all gate/LUT logic in ``netlist`` into K-input LUTs."""
    if k < 2:
        raise SynthesisError("LUTs need at least 2 inputs")
    work, _ = decompose_wide_luts(netlist, k)

    mappable = [node.kind in _MAPPABLE for node in work.nodes]
    # CONST nodes can be absorbed into cones as zero-arity leaves; they
    # are treated as region leaves with arrival 0.
    cuts: Dict[int, List[RankedCut]] = {}
    arrivals: Dict[int, int] = {}

    for nid in work.topo_order():
        if not mappable[nid]:
            continue
        node = work.nodes[nid]
        fanin_lists: List[List[RankedCut]] = []
        for fanin in node.fanins:
            if mappable[fanin]:
                fanin_lists.append(cuts[fanin])
            else:
                fanin_lists.append([(frozenset((fanin,)), 1)])
        merged = _merge_cut_lists(fanin_lists, k)
        if not merged:
            # All merged cuts exceeded k inputs; fall back to the
            # node's own fanins as a cut (always feasible because a
            # single gate/LUT has at most k inputs after decomposition).
            depth = 1 + max(
                (arrivals.get(fanin, 0) for fanin in node.fanins), default=0
            )
            merged = [(frozenset(node.fanins), depth)]
        arrivals[nid] = merged[0][1]
        cuts[nid] = _prune(merged + [(frozenset((nid,)), 1 + arrivals[nid])])

    # ------------------------------------------------------------------
    # Cover from the required bit roots.
    # ------------------------------------------------------------------
    required: List[int] = []
    seen_required = set()

    def require(nid: int) -> None:
        if mappable[nid] and nid not in seen_required:
            seen_required.add(nid)
            required.append(nid)

    for node in work.nodes:
        if node.kind in _MAPPABLE:
            continue
        for fanin in node.fanins:
            require(fanin)
    for out in work.outputs.values():
        require(out)

    # Choose a cut for each required node, requiring its mappable leaves.
    chosen: Dict[int, Tuple[int, ...]] = {}
    index = 0
    while index < len(required):
        nid = required[index]
        index += 1
        # cuts[nid] is ranked, so the first non-trivial cut is the best.
        trivial = frozenset((nid,))
        best = next((cut for cut, _ in cuts[nid] if cut != trivial), None)
        if best is None:
            raise SynthesisError(f"no non-trivial cut for node {nid}")
        leaves = tuple(sorted(best))
        chosen[nid] = leaves
        for leaf in leaves:
            require(leaf)

    # ------------------------------------------------------------------
    # Emit the mapped netlist in topological order.
    # ------------------------------------------------------------------
    mapped = Netlist(netlist.name)
    remap: Dict[int, int] = {}
    ff_bindings: List[Tuple[int, int]] = []
    for nid in work.topo_order():
        node = work.nodes[nid]
        if node.kind is NodeKind.FLIPFLOP:
            remap[nid] = mapped.add(NodeKind.FLIPFLOP, (), node.payload)
            if node.fanins:
                ff_bindings.append((remap[nid], node.fanins[0]))
            continue
        if mappable[nid]:
            if nid not in chosen:
                continue  # internal to some cone
            leaves = chosen[nid]
            table = cone_truth_table(work, nid, leaves)
            size = 1 << len(leaves)
            mask = (1 << size) - 1
            if (table & mask) == 0:
                remap[nid] = mapped.add(NodeKind.CONST, (), 0)
            elif (table & mask) == mask:
                remap[nid] = mapped.add(NodeKind.CONST, (), 1)
            elif len(leaves) == 1 and table == 0b10:
                remap[nid] = remap[leaves[0]]  # buffer: alias the leaf
            else:
                remap[nid] = mapped.add(
                    NodeKind.LUT,
                    tuple(remap[leaf] for leaf in leaves),
                    (len(leaves), table & mask),
                )
        else:
            remap[nid] = mapped.add(
                node.kind, tuple(remap[f] for f in node.fanins), node.payload
            )
    for new_ff, old_driver in ff_bindings:
        mapped.bind_flipflop(new_ff, remap[old_driver])
    for name, out in work.outputs.items():
        mapped.set_output(name, remap[out])

    lut_count = sum(1 for node in mapped.nodes if node.kind is NodeKind.LUT)
    depth = max(arrivals.values(), default=0)
    return TechMapResult(netlist=mapped, lut_count=lut_count, depth=depth,
                         node_map=remap)
