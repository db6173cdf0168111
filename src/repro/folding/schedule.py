"""Folding-schedule data structures.

A :class:`FoldingSchedule` assigns every *op* node of a mapped netlist
to a (cycle, MCC, slot) triple subject to the per-cycle resources of a
micro compute cluster (paper Sec. III-D: "On each time step the
cluster can access up to four 5-LUTs or eight 4-LUTs, one MAC, and one
bus operation").

The schedule is the single source of truth shared by:

* the functional folded executor (``repro.freac.executor``),
* the configuration-bitstream generator (``repro.folding.config``),
* the timing model (``repro.freac.timing``), and
* the validator (``repro.folding.validate``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..circuits.netlist import Netlist, NodeKind
from ..errors import ConfigurationError
from ..params import MccParams


class OpSlot(enum.Enum):
    """The MCC resource class an op occupies."""

    LUT = "lut"
    MAC = "mac"
    BUS = "bus"


_KIND_TO_SLOT = {
    NodeKind.LUT: OpSlot.LUT,
    NodeKind.MAC: OpSlot.MAC,
    NodeKind.BUS_LOAD: OpSlot.BUS,
    NodeKind.BUS_STORE: OpSlot.BUS,
}


def slot_for_kind(kind: NodeKind) -> OpSlot:
    try:
        return _KIND_TO_SLOT[kind]
    except KeyError:
        raise ConfigurationError(f"node kind {kind} does not occupy a slot")


@dataclass(frozen=True)
class TileResources:
    """Per-cycle resources of an accelerator tile of ``mccs`` clusters.

    ``lut_inputs`` selects 5-LUT mode (4 LUTs/cycle/MCC) or 4-LUT mode
    (8 LUTs/cycle/MCC) — paper Sec. III-A.
    """

    mccs: int = 1
    lut_inputs: int = 5
    mcc: MccParams = field(default_factory=MccParams)

    def __post_init__(self) -> None:
        if self.mccs < 1:
            raise ConfigurationError("a tile needs at least one MCC")
        # Raises for unsupported widths:
        self.mcc.lut_slots(self.lut_inputs)

    @property
    def luts_per_cycle(self) -> int:
        return self.mccs * self.mcc.lut_slots(self.lut_inputs)

    @property
    def luts_per_mcc(self) -> int:
        return self.mcc.lut_slots(self.lut_inputs)

    @property
    def config_subarrays(self) -> int:
        """Sub-arrays per MCC that hold LUT configuration rows: one per
        5-LUT, one per pair of 4-LUTs (two 16-bit tables share a 32-bit
        row, paper Sec. III-A)."""
        units = self.luts_per_mcc
        return units if self.lut_inputs == 5 else -(-units // 2)

    @property
    def macs_per_cycle(self) -> int:
        return self.mccs * self.mcc.macs_per_cycle

    @property
    def bus_ops_per_cycle(self) -> int:
        return self.mccs * self.mcc.bus_ops_per_cycle

    @property
    def ff_bits(self) -> int:
        return self.mccs * self.mcc.register_file_bits

    def slots(self, slot: OpSlot) -> int:
        if slot is OpSlot.LUT:
            return self.luts_per_cycle
        if slot is OpSlot.MAC:
            return self.macs_per_cycle
        return self.bus_ops_per_cycle


@dataclass(frozen=True)
class ScheduledOp:
    """One op pinned to a cycle and a physical slot."""

    nid: int
    slot: OpSlot
    cycle: int       # 1-based folding step
    mcc: int         # cluster index within the tile
    unit: int        # LUT slot within the MCC (0 for MAC/BUS ops)


@dataclass
class SpillInfo:
    """Register-file pressure handling (see DESIGN.md Sec. 5).

    When the live set exceeds the tile's flip-flop capacity, values
    are spilled to the scratchpad.  Spills are charged as extra bus
    traffic and extra folding cycles rather than being woven into the
    op grid — a timing-accuracy compromise documented in DESIGN.md.
    """

    spilled_values: int = 0
    spill_words: int = 0
    spill_cycles: int = 0
    spilled_nids: List[int] = field(default_factory=list)
    # Scratchpad row per spilled value, parallel to ``spilled_nids``.
    # Empty means the identity assignment (i-th spill -> row i); the
    # dataflow tier reads this to prove rows are never clobbered while
    # a spilled value is resident.
    spill_rows: List[int] = field(default_factory=list)

    def row_of(self, index: int) -> int:
        """Scratchpad row of the ``index``-th spilled value."""
        if index < len(self.spill_rows):
            return self.spill_rows[index]
        return index


@dataclass
class FoldingSchedule:
    """The complete folding solution for one netlist on one tile."""

    netlist: Netlist
    resources: TileResources
    ops: List[ScheduledOp]
    compute_cycles: int                 # cycles occupied by the op grid
    max_live_bits: int                  # post-spill peak FF occupancy
    spills: SpillInfo = field(default_factory=SpillInfo)
    algorithm: str = "list"

    def __post_init__(self) -> None:
        # Lookup tables every executor of this schedule reads; built
        # once here rather than once per tile per program.
        self.op_by_nid: Dict[int, ScheduledOp] = {op.nid: op for op in self.ops}
        self.ops_by_cycle: Dict[int, List[ScheduledOp]] = {}
        for op in self.ops:
            self.ops_by_cycle.setdefault(op.cycle, []).append(op)
        self.initial_ff_state: Dict[int, int] = {
            node.nid: node.payload or 0 for node in self.netlist.flipflops()
        }

    @property
    def fold_cycles(self) -> int:
        """Total folding steps per invocation, including spill stalls.

        This is the N in "effective clock rate = CacheClock / N"
        (paper Sec. IV).
        """
        return self.compute_cycles + self.spills.spill_cycles

    @property
    def lut_ops(self) -> int:
        return sum(1 for op in self.ops if op.slot is OpSlot.LUT)

    @property
    def mac_ops(self) -> int:
        return sum(1 for op in self.ops if op.slot is OpSlot.MAC)

    @property
    def bus_words(self) -> int:
        """Bus words moved per invocation (operand traffic + spills)."""
        demand = sum(1 for op in self.ops if op.slot is OpSlot.BUS)
        return demand + self.spills.spill_words

    def effective_clock_hz(self, cache_clock_hz: float) -> float:
        if self.fold_cycles == 0:
            return cache_clock_hz
        return cache_clock_hz / self.fold_cycles

    def utilization(self) -> Dict[str, float]:
        """Fraction of each resource's slot-cycles actually used."""
        cycles = max(self.compute_cycles, 1)
        return {
            "lut": self.lut_ops / (cycles * self.resources.luts_per_cycle),
            "mac": self.mac_ops / (cycles * self.resources.macs_per_cycle),
            "bus": sum(1 for op in self.ops if op.slot is OpSlot.BUS)
            / (cycles * self.resources.bus_ops_per_cycle),
        }

    def ops_at(self, cycle: int) -> List[ScheduledOp]:
        return list(self.ops_by_cycle.get(cycle, ()))

    def cycle_of(self, nid: int) -> Optional[int]:
        op = self.op_by_nid.get(nid)
        return op.cycle if op else None

    def summary(self) -> Dict[str, object]:
        return {
            "circuit": self.netlist.name,
            "algorithm": self.algorithm,
            "mccs": self.resources.mccs,
            "fold_cycles": self.fold_cycles,
            "compute_cycles": self.compute_cycles,
            "lut_ops": self.lut_ops,
            "mac_ops": self.mac_ops,
            "bus_words": self.bus_words,
            "spilled_values": self.spills.spilled_values,
            "max_live_bits": self.max_live_bits,
            "utilization": self.utilization(),
        }
