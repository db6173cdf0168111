"""Rebuild a standard :class:`FoldingSchedule` from a cycle assignment.

The makespan search produces only ``nid -> cycle``; this step assigns
physical slots (the same ``(mcc, unit)`` layout the heuristic
schedulers use), re-runs the register-pressure spill pass so the
optimized schedule pays the same scratchpad charges, and emits a plain
:class:`~repro.folding.schedule.FoldingSchedule` — downstream
(validation, the DF rule pack, certificates, the compiled plan and the
reference executor, the bitstream generator) cannot tell an optimized schedule from a
heuristic one except by its ``algorithm`` tag.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..circuits.netlist import Netlist
from ..errors import OptimizerError
from ..folding.schedule import (
    FoldingSchedule,
    OpSlot,
    ScheduledOp,
    TileResources,
    slot_for_kind,
)
from ..folding.scheduler import op_dependences, physical_slot, pressure_pass


def rebuild_schedule(
    netlist: Netlist,
    resources: TileResources,
    cycle_of: Dict[int, int],
    *,
    algorithm: str,
) -> FoldingSchedule:
    """``nid -> cycle`` (1-based) to a complete folding schedule.

    Raises :class:`OptimizerError` if the assignment overfills a slot
    class in any cycle or violates a dependence edge — the rebuilder
    trusts no search.
    """
    preds, succs, outputs = op_dependences(netlist)
    if set(cycle_of) != set(preds):
        missing = len(set(preds) - set(cycle_of))
        extra = len(set(cycle_of) - set(preds))
        raise OptimizerError(
            f"cycle assignment does not cover the netlist's ops "
            f"({missing} missing, {extra} unknown)"
        )
    for nid, cycle in cycle_of.items():
        if cycle < 1:
            raise OptimizerError(f"op {nid} assigned to cycle {cycle} < 1")
        for pred in preds[nid]:
            if cycle_of[pred] >= cycle:
                raise OptimizerError(
                    f"op {nid} at cycle {cycle} does not follow its "
                    f"producer {pred} at cycle {cycle_of[pred]}"
                )

    # Deterministic within-cycle packing: ops sorted by nid take
    # consecutive indices, mapped to (mcc, unit) exactly like the
    # heuristic schedulers' slot grid.
    by_cycle: Dict[Tuple[int, OpSlot], List[int]] = {}
    for nid, cycle in cycle_of.items():
        slot = slot_for_kind(netlist.nodes[nid].kind)
        by_cycle.setdefault((cycle, slot), []).append(nid)
    ops: List[ScheduledOp] = []
    for (cycle, slot), members in by_cycle.items():
        capacity = resources.slots(slot)
        if len(members) > capacity:
            raise OptimizerError(
                f"cycle {cycle} holds {len(members)} {slot.value} ops "
                f"but the tile has {capacity} slots"
            )
        for index, nid in enumerate(sorted(members)):
            mcc, unit = physical_slot(resources, slot, index)
            ops.append(ScheduledOp(nid, slot, cycle, mcc, unit))

    total_cycles = max(cycle_of.values(), default=0)
    max_live, spills = pressure_pass(
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
        algorithm=algorithm,
    )
