"""Register allocation: live values -> physical FF-bank bits.

The folding schedule says *when* each value exists; the micro compute
cluster stores it in a 256-bit flip-flop bank, and the operand
crossbar's configuration (held in the tag arrays, Sec. III-B) selects
*which physical bits* feed each LUT/MAC input every cycle.  This
module performs that assignment: a linear-scan allocator over the
schedule's live intervals, placing 1-bit LUT results and 32-bit
word values into concrete bit ranges of concrete MCC banks.

Values prefer their producer's bank; when it is full they overflow to
any bank in the tile (the switch fabric routes cross-cluster operands
— Sec. III-E).  Scheduler-spilled values only occupy their short
residency stubs.  The allocation is independently validated: no two
simultaneously-live values may overlap a single bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CapacityError
from .schedule import FoldingSchedule
from .scheduler import VALUE_BITS, op_dependences


@dataclass(frozen=True)
class Placement:
    """One value's home: bits [offset, offset+width) of an MCC's bank."""

    nid: int
    mcc: int
    offset: int
    width: int
    start_cycle: int
    end_cycle: int


@dataclass
class RegisterAllocation:
    """The complete physical assignment for one schedule.

    Spilled values have two placements (their residency stubs), so
    ``placements`` maps a value to a list.
    """

    schedule: FoldingSchedule
    placements: Dict[int, List[Placement]] = field(default_factory=dict)
    overflowed: int = 0          # values placed outside their producer MCC
    unplaced: List[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.unplaced

    def all_placements(self) -> List[Placement]:
        return [p for group in self.placements.values() for p in group]

    def peak_bits_per_mcc(self) -> Dict[int, int]:
        peaks: Dict[int, int] = {}
        for placement in self.all_placements():
            top = placement.offset + placement.width
            peaks[placement.mcc] = max(peaks.get(placement.mcc, 0), top)
        return peaks

    def validate(self) -> None:
        """No two overlapping-lifetime values may share a bank bit."""
        by_mcc: Dict[int, List[Placement]] = {}
        for placement in self.all_placements():
            by_mcc.setdefault(placement.mcc, []).append(placement)
        for mcc, placements in by_mcc.items():
            placements.sort(key=lambda p: p.offset)
            for i, a in enumerate(placements):
                for b in placements[i + 1 :]:
                    if b.offset >= a.offset + a.width:
                        break
                    lifetimes_overlap = not (
                        a.end_cycle <= b.start_cycle
                        or b.end_cycle <= a.start_cycle
                    )
                    if lifetimes_overlap and a.nid != b.nid:
                        raise CapacityError(
                            f"values {a.nid} and {b.nid} overlap in MCC "
                            f"{mcc} bits [{b.offset}, {a.offset + a.width})"
                        )


class _Bank:
    """A free-bit tracker with first-fit contiguous allocation."""

    def __init__(self, bits: int) -> None:
        self.bits = bits
        # Sorted list of (offset, length) free runs.
        self.free: List[Tuple[int, int]] = [(0, bits)]

    def allocate(self, width: int) -> Optional[int]:
        """First-fit for single bits, last-fit (top of bank) for words.

        Segregating widths keeps 1-bit LUT results from fragmenting
        the contiguous runs 32-bit values need.
        """
        if width == 1:
            for index, (offset, length) in enumerate(self.free):
                if length >= width:
                    if length == width:
                        self.free.pop(index)
                    else:
                        self.free[index] = (offset + width, length - width)
                    return offset
            return None
        for index in range(len(self.free) - 1, -1, -1):
            offset, length = self.free[index]
            if length >= width:
                if length == width:
                    self.free.pop(index)
                else:
                    self.free[index] = (offset, length - width)
                return offset + length - width
        return None

    def release(self, offset: int, width: int) -> None:
        self.free.append((offset, width))
        self.free.sort()
        merged: List[Tuple[int, int]] = []
        for run_offset, run_length in self.free:
            if merged and merged[-1][0] + merged[-1][1] == run_offset:
                last_offset, last_length = merged[-1]
                merged[-1] = (last_offset, last_length + run_length)
            else:
                merged.append((run_offset, run_length))
        self.free = merged


def _live_intervals(schedule: FoldingSchedule) -> List[Tuple[int, int, int, int]]:
    """(def, last_use, width, nid) per value, post-spill residency."""
    netlist = schedule.netlist
    _, succs, output_ops = op_dependences(netlist)
    cycle_of = {op.nid: op.cycle for op in schedule.ops}
    total = schedule.compute_cycles
    spilled = set(schedule.spills.spilled_nids)
    intervals: List[Tuple[int, int, int, int]] = []
    for nid, cycle in cycle_of.items():
        node = netlist.nodes[nid]
        width = VALUE_BITS.get(node.kind)
        if width is None:
            continue
        uses = [cycle_of[s] for s in succs[nid]]
        last_use = max(uses, default=cycle)
        if nid in output_ops:
            last_use = max(last_use, total)
        if last_use <= cycle:
            continue
        if nid in spilled:
            # Spilled values are bank-resident only just after their
            # definition and just before their reload-use.
            intervals.append((cycle, cycle + 1, width, nid))
            if last_use - 1 > cycle + 1:
                intervals.append((last_use - 1, last_use, width, nid))
        else:
            intervals.append((cycle, last_use, width, nid))
    return intervals


def allocate_registers(schedule: FoldingSchedule) -> RegisterAllocation:
    """Linear-scan allocation of all live values into the FF banks."""
    resources = schedule.resources
    banks = [
        _Bank(resources.mcc.register_file_bits) for _ in range(resources.mccs)
    ]
    producer_mcc = {op.nid: op.mcc for op in schedule.ops}
    allocation = RegisterAllocation(schedule=schedule)

    intervals = sorted(_live_intervals(schedule))
    # active: (end_cycle, mcc, offset, width)
    active: List[Tuple[int, int, int, int]] = []
    for start, end, width, nid in intervals:
        # Expire finished lifetimes.
        still_active = []
        for entry in active:
            if entry[0] <= start:
                banks[entry[1]].release(entry[2], entry[3])
            else:
                still_active.append(entry)
        active = still_active

        home = producer_mcc.get(nid, 0)
        offset = banks[home].allocate(width)
        mcc = home
        if offset is None:
            for candidate in range(resources.mccs):
                if candidate == home:
                    continue
                offset = banks[candidate].allocate(width)
                if offset is not None:
                    mcc = candidate
                    allocation.overflowed += 1
                    break
        if offset is None:
            allocation.unplaced.append(nid)
            continue
        active.append((end, mcc, offset, width))
        allocation.placements.setdefault(nid, []).append(
            Placement(
                nid=nid, mcc=mcc, offset=offset, width=width,
                start_cycle=start, end_cycle=end,
            )
        )
    return allocation
