"""Configuration bitstream generation.

The paper stores per-step LUT configurations in *sequential rows* of
each compute sub-array ("we store the configuration bits of each level
in sequential addresses in the sub-arrays, and reuse the existing
address busses to step through addresses", Sec. III-B) and the operand
crossbar configuration in the way's otherwise-idle tag/state arrays.

``generate_config`` lays a :class:`FoldingSchedule` out exactly that
way: for every folding cycle it produces

* one 32-bit LUT configuration word per (MCC, configuration sub-array)
  — the LUT's truth table (two 16-bit tables in 4-LUT mode), zero (a
  constant-0 LUT) for idle units, and
* a crossbar descriptor per MCC listing which latched values feed the
  LUT inputs and the MAC that cycle (packed into tag-array words for
  the size/energy accounting).

The LUT words form one ``(MCCs, sub-arrays, cycles)`` block, so
writing a tile's configuration is one block copy into its buffer
rows.  The image knows whether it fits the sub-array row budget; when
it does not, the executor/timing layers charge configuration reloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..circuits.netlist import NodeKind
from ..errors import CapacityError
from .schedule import FoldingSchedule, OpSlot

# A crossbar source selector: enough bits to index the 256-entry FF
# bank plus the bus/MAC/latch tap points.
XBAR_SELECT_BITS = 10


@dataclass
class ConfigImage:
    """The physical layout of one accelerator configuration.

    ``words[m, s, t]`` is row ``t`` of configuration sub-array ``s`` of
    MCC ``m``: the truth table(s) that sub-array's LUT unit(s) latch at
    folding step ``t + 1``.  The array is read-only, so every tile and
    wave of a schedule can share one image (:func:`image_for`).
    """

    #: ``(MCCs, sub-arrays, cycles)`` uint32 LUT words.
    words: np.ndarray
    #: Packed crossbar descriptor words per MCC per cycle.
    xbar_words_per_cycle: int
    rows_per_subarray: int

    @property
    def mccs(self) -> int:
        return self.words.shape[0]

    @property
    def cycles(self) -> int:
        return self.words.shape[2]

    @property
    def lut_config_words(self) -> int:
        """Total LUT configuration words across the tile."""
        return self.words.size

    @property
    def xbar_config_words(self) -> int:
        return self.cycles * self.xbar_words_per_cycle * self.mccs

    @property
    def total_words(self) -> int:
        return self.lut_config_words + self.xbar_config_words

    @property
    def total_bytes(self) -> int:
        return self.total_words * 4

    @property
    def fits_subarrays(self) -> bool:
        """Do all folding steps fit the sub-array rows without reloads?"""
        return self.cycles <= self.rows_per_subarray

    def delta_words(self, other: Optional["ConfigImage"]) -> int:
        """Config words that must be written to replace ``other``.

        With nothing resident (``other`` is None) that is the whole
        image.  Otherwise the unit of reconfiguration is a sub-array
        row: a folding cycle whose LUT words match the resident image
        on every MCC keeps its row (and its crossbar descriptors) in
        place, while a changed or new cycle rewrites its LUT words plus
        that cycle's crossbar words on every MCC.  Structurally
        different images (different MCC count, sub-array count, or row
        budget) cannot share rows and pay the full rewrite.
        """
        if (other is None
                or self.words.shape[:2] != other.words.shape[:2]
                or self.rows_per_subarray != other.rows_per_subarray
                or self.xbar_words_per_cycle != other.xbar_words_per_cycle):
            return self.total_words
        shared = min(self.cycles, other.cycles)
        kept = int(np.count_nonzero(
            (self.words[:, :, :shared] == other.words[:, :, :shared])
            .all(axis=(0, 1))
        ))
        words_per_cycle = self.mccs * (
            self.words.shape[1] + self.xbar_words_per_cycle
        )
        return (self.cycles - kept) * words_per_cycle

    @property
    def reload_segments(self) -> int:
        """Config segments needed when the schedule exceeds the rows.

        Segment 0 is loaded up front; each further segment is a
        mid-run reconfiguration the timing model must charge.
        """
        if self.cycles == 0:
            return 1
        return -(-self.cycles // self.rows_per_subarray)


def generate_xbar_config(schedule: FoldingSchedule, allocation) -> dict:
    """Concrete crossbar select fields per (cycle, mcc).

    Each LUT input and MAC operand of each folding step resolves to a
    physical source: ``("reg", mcc, bit_offset)`` for a value latched
    in an FF bank, ``("const",)`` for constants baked into the step,
    or ``("bus",)`` for the operand data path.  These are the bits the
    paper stores in the way's tag/state arrays (Sec. III-B); the sized
    estimate in :class:`ConfigImage` covers their storage cost.

    ``allocation`` is a :class:`~repro.folding.regalloc.RegisterAllocation`
    for the same schedule.
    """
    from ..circuits.netlist import NodeKind

    netlist = schedule.netlist

    def source_of(nid: int, cycle: int):
        node = netlist.nodes[nid]
        if node.kind in (NodeKind.CONST, NodeKind.WORD_CONST):
            return ("const",)
        if node.kind in (NodeKind.BIT_INPUT, NodeKind.WORD_INPUT):
            return ("bus",)
        if node.kind is NodeKind.BITSLICE:
            base = source_of(node.fanins[0], cycle)
            if base[0] == "reg":
                return ("reg", base[1], base[2] + node.payload)
            return base
        if node.kind is NodeKind.PACK:
            # Packed words are wiring; each consumer reads the bit
            # sources directly. Report the first bit's source.
            return source_of(node.fanins[0], cycle)
        if node.kind is NodeKind.FLIPFLOP:
            return ("state",)
        placements = allocation.placements.get(nid, [])
        for placement in placements:
            if placement.start_cycle <= cycle <= placement.end_cycle:
                return ("reg", placement.mcc, placement.offset)
        return ("spilled",)

    selects = {}
    for op in schedule.ops:
        if op.slot is OpSlot.BUS:
            continue
        node = netlist.nodes[op.nid]
        selects[(op.cycle, op.mcc, op.unit, op.slot.value)] = tuple(
            source_of(fanin, op.cycle) for fanin in node.fanins
        )
    return selects


def _lut_table(schedule: FoldingSchedule, nid: int) -> int:
    node = schedule.netlist.nodes[nid]
    assert node.kind is NodeKind.LUT
    _, table = node.payload  # type: ignore[misc]
    return table & 0xFFFFFFFF


def generate_config(
    schedule: FoldingSchedule, rows_per_subarray: int = 2048
) -> ConfigImage:
    """Lay out LUT truth tables row-by-row per (MCC, sub-array)."""
    resources = schedule.resources
    units = resources.luts_per_mcc
    if units > 4 and resources.lut_inputs == 5:
        raise CapacityError("a sub-array provides at most 4 x 5-LUT words")

    words = np.zeros(
        (resources.mccs, resources.config_subarrays, schedule.compute_cycles),
        dtype=np.uint32,
    )
    for op in schedule.ops:
        if op.slot is not OpSlot.LUT:
            continue
        table = _lut_table(schedule, op.nid)
        # In 4-LUT mode two 16-bit tables share a 32-bit row; model the
        # packing by placing the table in the unit's half-word.
        if resources.lut_inputs == 4:
            words[op.mcc, op.unit // 2, op.cycle - 1] |= np.uint32(
                (table & 0xFFFF) << 16 * (op.unit % 2)
            )
        else:
            words[op.mcc, op.unit, op.cycle - 1] = table
    words.flags.writeable = False

    # Crossbar: each cycle each MCC routes up to (units * lut_inputs)
    # LUT operands + 3 MAC operands + 1 bus address source.
    selects = units * resources.lut_inputs + 3 + 1
    xbar_bits = selects * XBAR_SELECT_BITS
    return ConfigImage(
        words=words,
        xbar_words_per_cycle=-(-xbar_bits // 32),
        rows_per_subarray=rows_per_subarray,
    )


def image_for(schedule: FoldingSchedule,
              rows_per_subarray: int) -> ConfigImage:
    """The schedule's image for ``rows_per_subarray``-row sub-arrays,
    built once and cached on the schedule.

    Compiled programs hold their schedule across waves, so every tile
    and every program of a schedule shares one read-only image, as
    they share its plan (:func:`repro.freac.specialize.plan_for`).
    """
    images = getattr(schedule, "_config_images", None)
    if images is None:
        images = {}
        object.__setattr__(schedule, "_config_images", images)
    image = images.get(rows_per_subarray)
    if image is None:
        image = generate_config(schedule, rows_per_subarray)
        images[rows_per_subarray] = image
    return image
