"""Per-program compiled execution plans: the production execution path.

The reference :meth:`~repro.freac.executor.FoldedExecutor.run` loop
walks the folding schedule one batch item at a time in pure Python —
faithful, but then the simulator, not the modeled hardware, is the
bottleneck.  The structural fact the plan exploits (shared with
DRAM-PIM LUT inference engines such as LOCALUT) is that at folding
step *t* every in-flight item selects through the same latched
configuration row, so the walk vectorizes over the batch axis — and,
because the walk is the same for every batch of a program, it can be
compiled once.  Every tile of a slice runs the same schedule in
lock-step, so one run of the plan serves the whole slice
(:meth:`~repro.freac.ccctrl.ComputeClusterController.run_batch`);
a single executor's batch is its one-tile case.

:func:`build_plan` flattens a :class:`~repro.folding.schedule.FoldingSchedule`
into a :class:`SpecializedPlan`:

* every netlist value gets a row in one dense ``(slots, batch)`` uint32
  value table; crossbar wiring (BITSLICE chains, constants, input
  masks) is folded into per-source ``(slot, shift, mask)`` triples at
  build time;
* ops are re-levelized by true data dependence (not schedule cycles)
  and fused into **passes**: one stacked LUT pass per level evaluates
  every LUT of that level with a single gather
  ``(tables >> index) & 1``, where ``index`` comes from the fused
  fanin index arrays; MAC/PACK/bus passes are equally stacked;
* each LUT instruction is a column that knows the configuration row
  holding its truth table (MCC, sub-array, folding cycle, 4-LUT
  half-word), so a run reads the tables from the tiles' SRAM;
* scratchpad traffic becomes precomputed gather/scatter index maps
  (``base + word_index + item * words_per_item``) issued as one bulk
  :meth:`~repro.freac.scratchpad.Scratchpad.read_words_batch` /
  ``write_words_batch`` per stream per level, charging exactly the
  per-invocation accesses the reference loop charges;
* all remaining accounting — per-sub-array config-row reads, per-LUT
  reconfiguration/evaluation counts, MAC operation counts, register
  peak occupancy — is reduced to per-item totals that each tile is
  charged in bulk for its share of the batch.

``run_batch_specialized`` is therefore a short sequence of numpy ops
with zero per-step Python dispatch, bit-exact with running the
reference loop tile by tile, item *i* on tile ``i % tiles``: outputs,
stores, AND every access counter, including segment-reload and
rewind-to-segment-0 charging.  A corrupted configuration row on one
tile corrupts exactly that tile's items, as it does in the reference.

Unsupported runs (flip-flops: their state threads sequentially from
item to item; ragged host streams) raise
:class:`SpecializationUnsupported` before any state is mutated; the
executor falls back to the reference loop and counts the degradation
in ``ExecutionStats.engine_fallbacks``.

Ordering caveat: loads and stores are serialized *per stream name*
(a load observes every earlier store to the same stream, and stores to
one stream keep their schedule order).  Two different streams bound to
overlapping scratchpad regions would not see each other's writes in
schedule order — the layout planner never produces such bindings.

Plans are deterministic functions of the schedule, cached on the
schedule object itself (one build per compiled program, shared by
every tile and wave), and content-addressed via :meth:`SpecializedPlan.
digest` so the program cache can store and verify them as artifacts
(docs/execution.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuits.netlist import NodeKind, WORD_MASK
from ..errors import CircuitError, DeviceError
from ..folding.schedule import FoldingSchedule, OpSlot
from .executor import (
    BatchResult,
    ExecutionStats,
    FoldedExecutor,
    StreamBinding,
)


class SpecializationUnsupported(Exception):
    """Raised *before any state mutation* when a run cannot go through
    a compiled plan (flip-flops, ragged streams); the executor falls
    back to the reference loop."""


#: Value-table row 0 is a constant zero every pass may read (padding
#: for missing LUT fanins, annihilated bit slices, short PACKs).
_ZERO_SLOT = 0


@dataclass(frozen=True)
class _Source:
    """A value read: ``(V[slot] >> shift) & mask``."""

    slot: int
    shift: int
    mask: int


class _Instr:
    """One schedule op (or materialized PACK) before pass fusion."""

    __slots__ = ("kind", "out", "srcs", "table", "stream", "index",
                 "mcc", "unit", "cycle", "deps", "order", "positions")

    def __init__(self, kind: str, out: int, srcs: Sequence[_Source],
                 *, table: int = 0, stream: str = "", index: int = 0,
                 mcc: int = 0, unit: int = 0, cycle: int = 0,
                 positions: Sequence[int] = ()) -> None:
        self.kind = kind
        self.out = out
        self.srcs = list(srcs)
        self.table = table
        self.stream = stream
        self.index = index
        self.mcc = mcc
        self.unit = unit
        self.cycle = cycle
        self.positions = list(positions)
        self.deps: set = set()
        self.order = -1


@dataclass
class _LutPass:
    src: np.ndarray      # (n, K) int32 slot ids
    shift: np.ndarray    # (n, K, 1) uint32
    weight: np.ndarray   # (1, K, 1) uint32 — index bit positions
    table: np.ndarray    # (n, 1) uint32 — the tables the image writes
    out: np.ndarray      # (n,) int32
    any_shift: bool = True
    #: This pass's LUT columns in the plan's ``lut_*`` arrays.
    start: int = 0
    stop: int = 0


@dataclass
class _PackPass:
    src: np.ndarray      # (n, W) int32
    shift: np.ndarray    # (n, W, 1) uint32
    position: np.ndarray  # (n, W, 1) uint32
    out: np.ndarray      # (n,) int32
    any_shift: bool = True


@dataclass
class _MacPass:
    a: np.ndarray        # (n,) int32 ... with (n,1) shift/mask companions
    a_shift: np.ndarray
    a_mask: np.ndarray
    b: np.ndarray
    b_shift: np.ndarray
    b_mask: np.ndarray
    c: np.ndarray
    c_shift: np.ndarray
    c_mask: np.ndarray
    out: np.ndarray      # (n,) int32
    #: All shifts zero and all masks full: operands are plain words.
    simple: bool = False


@dataclass
class _Mac1Pass:
    """A one-op MAC level on plain word operands (common in reduction
    chains like DOT/CONV): integer row indices keep the hot path on
    numpy views with no fancy-index gathers."""

    a: int
    b: int
    c: int
    out: int


@dataclass
class _LoadPass:
    stream: str
    word_index: np.ndarray   # (n,) int64, in op order
    out: np.ndarray          # (n,) int32


@dataclass
class _StorePass:
    stream: str
    word_index: np.ndarray   # (n,) int64, in op order
    src: np.ndarray          # (n,) int32
    src_shift: np.ndarray    # (n, 1) uint32
    src_mask: np.ndarray     # (n, 1) uint32
    out: np.ndarray          # (n,) int32


@dataclass
class SpecializedPlan:
    """The compiled execution plan for one folding schedule."""

    slots: int
    template: np.ndarray                      # (slots,) uint32 prefill
    inputs: List[Tuple[str, int, int]]        # (name, slot, kind mask)
    passes: List[object]                      # level-ordered fused passes
    outputs: List[Tuple[str, int, int, int]]  # (name, slot, shift, mask)
    #: stream -> (sorted word indices, last-writer slot per index)
    result_stores: Dict[str, Tuple[List[int], np.ndarray]]
    # --- configuration rows, one LUT column per LUT instruction, in
    # pass order (a pass owns columns ``start:stop``) ---
    lut_tables: np.ndarray    # (N,) uint32 — the table the image writes
    lut_rows: np.ndarray      # (N,) int64 — row: folding cycle - 1
    lut_shift: np.ndarray     # (N,) uint32 — a 4-LUT's half of its row
    lut_mask: np.uint32       # the truth-table width
    #: (N,) int64 — the column's configuration sub-array, MCC-major
    #: (``mcc * config_subarrays + sub-array``)
    lut_subarray: np.ndarray
    # --- bulk accounting, per batch item ---
    subarray_reads: List[Tuple[int, int, int]]      # (mcc, subarray, count)
    #: (mcc, unit, count, final table, final table's LUT column)
    lut_charges: List[Tuple[int, int, int, int, int]]
    mac_charges: List[Tuple[int, int]]              # (mcc, count)
    register_bits: List[int]                        # peak bits per mcc
    lut_evaluations: int = 0
    mac_operations: int = 0
    bus_loads: int = 0
    bus_stores: int = 0
    depth: int = 0
    instructions: int = 0
    _digest: Optional[str] = field(default=None, repr=False)

    @property
    def digest(self) -> str:
        """Content address of the plan (sha256 over every fused array)."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(f"v1:{self.slots}:{self.depth}:"
                     f"{self.instructions}".encode())
            h.update(self.template.tobytes())
            for name, slot, mask in self.inputs:
                h.update(f"i:{name}:{slot}:{mask}".encode())
            for p in self.passes:
                h.update(type(p).__name__.encode())
                for key in p.__dataclass_fields__:
                    value = getattr(p, key)
                    if isinstance(value, np.ndarray):
                        h.update(value.tobytes())
                    else:
                        h.update(str(value).encode())
            for name, slot, shift, mask in self.outputs:
                h.update(f"o:{name}:{slot}:{shift}:{mask}".encode())
            for stream in sorted(self.result_stores):
                indices, slots = self.result_stores[stream]
                h.update(f"s:{stream}:{indices}".encode())
                h.update(slots.tobytes())
            for array in (self.lut_tables, self.lut_rows, self.lut_shift,
                          self.lut_subarray):
                h.update(array.tobytes())
            h.update(repr((self.subarray_reads, self.lut_charges,
                           self.mac_charges, self.register_bits)).encode())
            object.__setattr__(self, "_digest", h.hexdigest())
        return self._digest

    def summary(self) -> Dict[str, object]:
        """The content-addressed artifact stored in the program cache."""
        return {
            "supported": True,
            "digest": self.digest,
            "slots": int(self.slots),
            "passes": len(self.passes),
            "depth": int(self.depth),
            "instructions": int(self.instructions),
        }


class _PlanBuilder:
    def __init__(self, schedule: FoldingSchedule) -> None:
        self.schedule = schedule
        self.netlist = schedule.netlist
        resources = schedule.resources
        self.lut_inputs = resources.lut_inputs
        self.table_mask = (1 << (1 << resources.lut_inputs)) - 1
        self.template: List[int] = [0]          # slot 0: constant zero
        self.const_slots: Dict[int, int] = {0: _ZERO_SLOT}
        self.node_slots: Dict[int, int] = {}
        self.node_sources: Dict[int, _Source] = {}
        self.inputs: List[Tuple[str, int, int]] = []
        self.instrs: List[_Instr] = []
        self.producer: Dict[int, int] = {}      # slot -> instr index
        self.last_store: Dict[str, int] = {}
        self.readers: Dict[str, List[int]] = {}

    # -- slots ---------------------------------------------------------

    def new_slot(self, prefill: int = 0) -> int:
        self.template.append(prefill & WORD_MASK)
        return len(self.template) - 1

    def const_slot(self, value: int) -> int:
        value &= WORD_MASK
        slot = self.const_slots.get(value)
        if slot is None:
            slot = self.new_slot(value)
            self.const_slots[value] = slot
        return slot

    # -- wiring resolution --------------------------------------------

    def resolve(self, nid: int) -> _Source:
        cached = self.node_sources.get(nid)
        if cached is not None:
            return cached
        node = self.netlist.nodes[nid]
        kind = node.kind
        if kind is NodeKind.CONST:
            source = _Source(self.const_slot(int(node.payload)), 0, WORD_MASK)
        elif kind is NodeKind.WORD_CONST:
            source = _Source(
                self.const_slot(node.payload & WORD_MASK),  # type: ignore[operator]
                0, WORD_MASK,
            )
        elif kind is NodeKind.BIT_INPUT or kind is NodeKind.WORD_INPUT:
            slot = self.node_slots.get(nid)
            if slot is None:
                slot = self.new_slot()
                self.node_slots[nid] = slot
                mask = 1 if kind is NodeKind.BIT_INPUT else WORD_MASK
                self.inputs.append((node.payload, slot, mask))  # type: ignore[arg-type]
            source = _Source(slot, 0, WORD_MASK)
        elif kind is NodeKind.BITSLICE:
            inner = self.resolve(node.fanins[0])
            position: int = node.payload  # type: ignore[assignment]
            if inner.mask == 1:
                # Slicing an already-extracted bit: bit 0 is the bit
                # itself, anything higher is constant zero.
                source = (inner if position == 0
                          else _Source(_ZERO_SLOT, 0, WORD_MASK))
            else:
                source = _Source(inner.slot, inner.shift + position, 1)
        elif kind is NodeKind.PACK:
            source = _Source(self.materialize_pack(nid), 0, WORD_MASK)
        elif kind is NodeKind.FLIPFLOP:
            raise SpecializationUnsupported(
                "sequential netlist (flip-flops)"
            )
        else:
            slot = self.node_slots.get(nid)
            if slot is None:
                raise SpecializationUnsupported(
                    f"op node {nid} ({kind.value}) read before its cycle"
                )
            source = _Source(slot, 0, WORD_MASK)
        self.node_sources[nid] = source
        return source

    def materialize_pack(self, nid: int) -> int:
        slot = self.node_slots.get(nid)
        if slot is not None:
            return slot
        node = self.netlist.nodes[nid]
        srcs = [self.resolve(fanin) for fanin in node.fanins]
        slot = self.new_slot()
        self.node_slots[nid] = slot
        self.add_instr(_Instr("pack", slot, srcs,
                              positions=range(len(srcs))))
        return slot

    # -- instructions --------------------------------------------------

    def add_instr(self, instr: _Instr) -> int:
        index = len(self.instrs)
        instr.order = index
        for source in instr.srcs:
            dep = self.producer.get(source.slot)
            if dep is not None:
                instr.deps.add(dep)
        self.producer[instr.out] = index
        self.instrs.append(instr)
        return index

    def build(self) -> SpecializedPlan:
        netlist = self.netlist
        if netlist.flipflops():
            raise SpecializationUnsupported("sequential netlist (flip-flops)")
        for cycle in range(1, self.schedule.compute_cycles + 1):
            for op in self.schedule.ops_by_cycle.get(cycle, ()):
                node = netlist.nodes[op.nid]
                if op.slot is OpSlot.LUT:
                    srcs = [self.resolve(f) for f in node.fanins]
                    slot = self.new_slot()
                    self.node_slots[op.nid] = slot
                    table = node.payload[1] & self.table_mask  # type: ignore[index]
                    self.add_instr(_Instr("lut", slot, srcs, table=table,
                                          mcc=op.mcc, unit=op.unit,
                                          cycle=cycle))
                elif op.slot is OpSlot.MAC:
                    srcs = [self.resolve(f) for f in node.fanins]
                    slot = self.new_slot()
                    self.node_slots[op.nid] = slot
                    self.add_instr(_Instr("mac", slot, srcs, mcc=op.mcc))
                elif node.kind is NodeKind.BUS_LOAD:
                    stream, word_index = node.payload  # type: ignore[misc]
                    slot = self.new_slot()
                    self.node_slots[op.nid] = slot
                    index = self.add_instr(
                        _Instr("load", slot, (), stream=stream,
                               index=word_index)
                    )
                    writer = self.last_store.get(stream)
                    if writer is not None:
                        self.instrs[index].deps.add(writer)
                    self.readers.setdefault(stream, []).append(index)
                else:  # BUS_STORE
                    stream, word_index = node.payload  # type: ignore[misc]
                    source = self.resolve(node.fanins[0])
                    slot = self.new_slot()
                    self.node_slots[op.nid] = slot
                    index = self.add_instr(
                        _Instr("store", slot, (source,), stream=stream,
                               index=word_index)
                    )
                    instr = self.instrs[index]
                    writer = self.last_store.get(stream)
                    if writer is not None:
                        instr.deps.add(writer)
                    instr.deps.update(self.readers.pop(stream, ()))
                    self.last_store[stream] = index
        outputs = [
            (name, *self._source_tuple(self.resolve(nid)))
            for name, nid in netlist.outputs.items()
        ]
        return self._finalize(outputs)

    @staticmethod
    def _source_tuple(source: _Source) -> Tuple[int, int, int]:
        return source.slot, source.shift, source.mask

    # -- fusion --------------------------------------------------------

    def _finalize(
        self, outputs: List[Tuple[str, int, int, int]]
    ) -> SpecializedPlan:
        levels: List[int] = []
        for instr in self.instrs:
            level = 0
            for dep in instr.deps:
                if levels[dep] >= level:
                    level = levels[dep] + 1
            levels.append(level)
        depth = max(levels, default=-1) + 1

        by_level: List[Dict[str, List[_Instr]]] = [
            {} for _ in range(depth)
        ]
        for instr, level in zip(self.instrs, levels):
            key = instr.kind
            if instr.kind in ("load", "store"):
                key = f"{instr.kind}:{instr.stream}"
            by_level[level].setdefault(key, []).append(instr)

        passes: List[object] = []
        columns: List[_Instr] = []
        for groups in by_level:
            # Load before compute before store within a level is safe:
            # same-level instructions never depend on each other.
            for key in sorted(groups, key=self._group_rank):
                pass_ = self._fuse(key, groups[key])
                if isinstance(pass_, _LutPass):
                    pass_.start = len(columns)
                    columns.extend(groups[key])
                    pass_.stop = len(columns)
                passes.append(pass_)
        column_of = {instr.order: column
                     for column, instr in enumerate(columns)}

        # --- where each LUT column's table lives ---------------------
        # A 4-LUT row packs two 16-bit tables (paper Sec. III-A).
        resources = self.schedule.resources
        halves = self.lut_inputs == 4
        stored = resources.config_subarrays
        lut_subarray = np.array(
            [i.mcc * stored + (i.unit // 2 if halves else i.unit)
             for i in columns],
            dtype=np.int64,
        )

        # --- bulk accounting -----------------------------------------
        sa_reads: Dict[Tuple[int, int], int] = {}
        lut_units: Dict[Tuple[int, int], List[int]] = {}
        mac_ops: Dict[int, int] = {}
        register_bits = [0] * resources.mccs
        totals = {"lut": 0, "mac": 0, "load": 0, "store": 0}
        for instr in self.instrs:
            if instr.kind == "lut":
                subarray = instr.unit // 2 if halves else instr.unit
                sa_reads[(instr.mcc, subarray)] = (
                    sa_reads.get((instr.mcc, subarray), 0) + 1
                )
                entry = lut_units.setdefault((instr.mcc, instr.unit),
                                             [0, 0, 0])
                entry[0] += 1
                entry[1] = instr.table
                entry[2] = column_of[instr.order]
                register_bits[instr.mcc] += 1
                totals["lut"] += 1
            elif instr.kind == "mac":
                mac_ops[instr.mcc] = mac_ops.get(instr.mcc, 0) + 1
                register_bits[instr.mcc] += 32
                totals["mac"] += 1
            elif instr.kind == "load":
                totals["load"] += 1
            elif instr.kind == "store":
                totals["store"] += 1

        result_stores: Dict[str, Tuple[List[int], np.ndarray]] = {}
        last_writer: Dict[str, Dict[int, int]] = {}
        for instr in self.instrs:
            if instr.kind == "store":
                last_writer.setdefault(instr.stream, {})[instr.index] = \
                    instr.out
        for stream, by_index in last_writer.items():
            indices = sorted(by_index)
            result_stores[stream] = (
                indices,
                np.array([by_index[i] for i in indices], dtype=np.int32),
            )

        return SpecializedPlan(
            slots=len(self.template),
            template=np.array(self.template, dtype=np.uint32),
            inputs=self.inputs,
            passes=passes,
            outputs=outputs,
            result_stores=result_stores,
            lut_tables=np.array([i.table for i in columns], dtype=np.uint32),
            lut_rows=np.array([i.cycle - 1 for i in columns],
                              dtype=np.int64),
            lut_shift=np.array(
                [16 * (i.unit % 2) if halves else 0 for i in columns],
                dtype=np.uint32,
            ),
            lut_mask=np.uint32(self.table_mask),
            lut_subarray=lut_subarray,
            subarray_reads=[(m, s, c) for (m, s), c in sorted(sa_reads.items())],
            lut_charges=[(m, u, c, t, col) for (m, u), (c, t, col)
                         in sorted(lut_units.items())],
            mac_charges=sorted(mac_ops.items()),
            register_bits=register_bits,
            lut_evaluations=totals["lut"],
            mac_operations=totals["mac"],
            bus_loads=totals["load"],
            bus_stores=totals["store"],
            depth=depth,
            instructions=len(self.instrs),
        )

    @staticmethod
    def _group_rank(key: str) -> Tuple[int, str]:
        kind = key.split(":", 1)[0]
        rank = {"load": 0, "lut": 1, "pack": 2, "mac": 3, "store": 4}[kind]
        return rank, key

    def _fuse(self, key: str, instrs: List[_Instr]) -> object:
        kind = key.split(":", 1)[0]
        n = len(instrs)
        if kind == "lut":
            width = self.lut_inputs
            src = np.full((n, width), _ZERO_SLOT, dtype=np.int32)
            shift = np.zeros((n, width, 1), dtype=np.uint32)
            for row, instr in enumerate(instrs):
                for col, source in enumerate(instr.srcs):
                    src[row, col] = source.slot
                    shift[row, col, 0] = source.shift
            return _LutPass(
                src=src,
                shift=shift,
                weight=np.arange(width, dtype=np.uint32).reshape(1, width, 1),
                table=np.array([[i.table] for i in instrs], dtype=np.uint32),
                out=np.array([i.out for i in instrs], dtype=np.int32),
                any_shift=bool(shift.any()),
            )
        if kind == "pack":
            width = max(len(i.srcs) for i in instrs)
            src = np.full((n, width), _ZERO_SLOT, dtype=np.int32)
            shift = np.zeros((n, width, 1), dtype=np.uint32)
            position = np.zeros((n, width, 1), dtype=np.uint32)
            for row, instr in enumerate(instrs):
                for col, source in enumerate(instr.srcs):
                    src[row, col] = source.slot
                    shift[row, col, 0] = source.shift
                    position[row, col, 0] = instr.positions[col]
            return _PackPass(
                src=src, shift=shift, position=position,
                out=np.array([i.out for i in instrs], dtype=np.int32),
                any_shift=bool(shift.any()),
            )
        if kind == "mac":
            def column(slot_index: int):
                slots = np.array(
                    [i.srcs[slot_index].slot for i in instrs], dtype=np.int32
                )
                shifts = np.array(
                    [[i.srcs[slot_index].shift] for i in instrs],
                    dtype=np.uint32,
                )
                masks = np.array(
                    [[i.srcs[slot_index].mask] for i in instrs],
                    dtype=np.uint32,
                )
                return slots, shifts, masks

            a, a_shift, a_mask = column(0)
            b, b_shift, b_mask = column(1)
            c, c_shift, c_mask = column(2)
            out = np.array([i.out for i in instrs], dtype=np.int32)
            simple = bool(
                not a_shift.any() and not b_shift.any()
                and not c_shift.any()
                and int(a_mask.min(initial=WORD_MASK)) == WORD_MASK
                and int(b_mask.min(initial=WORD_MASK)) == WORD_MASK
                and int(c_mask.min(initial=WORD_MASK)) == WORD_MASK
            )
            if simple and n == 1:
                return _Mac1Pass(a=int(a[0]), b=int(b[0]), c=int(c[0]),
                                 out=int(out[0]))
            return _MacPass(
                a=a, a_shift=a_shift, a_mask=a_mask,
                b=b, b_shift=b_shift, b_mask=b_mask,
                c=c, c_shift=c_shift, c_mask=c_mask,
                out=out,
                simple=simple,
            )
        if kind == "load":
            return _LoadPass(
                stream=instrs[0].stream,
                word_index=np.array([i.index for i in instrs],
                                    dtype=np.int64),
                out=np.array([i.out for i in instrs], dtype=np.int32),
            )
        return _StorePass(
            stream=instrs[0].stream,
            word_index=np.array([i.index for i in instrs], dtype=np.int64),
            src=np.array([i.srcs[0].slot for i in instrs], dtype=np.int32),
            src_shift=np.array([[i.srcs[0].shift] for i in instrs],
                               dtype=np.uint32),
            src_mask=np.array([[i.srcs[0].mask] for i in instrs],
                              dtype=np.uint32),
            out=np.array([i.out for i in instrs], dtype=np.int32),
        )


def build_plan(schedule: FoldingSchedule) -> SpecializedPlan:
    """Compile one schedule into a specialized plan (uncached)."""
    return _PlanBuilder(schedule).build()


def plan_for(schedule: FoldingSchedule) -> SpecializedPlan:
    """The schedule's plan, built once and cached on the schedule.

    Compiled programs hold their schedule object across waves (program
    cache, ``AcceleratorProgram.schedules``), so every tile and every
    wave of a program shares one plan — build cost is paid at program
    (compile) time, never on the run path.  Unsupported schedules cache
    the failure so repeated fallbacks stay cheap.
    """
    cached = getattr(schedule, "_specialized_plan", None)
    if cached is not None:
        if isinstance(cached, SpecializedPlan):
            return cached
        raise SpecializationUnsupported(cached)
    try:
        plan = build_plan(schedule)
    except SpecializationUnsupported as exc:
        object.__setattr__(schedule, "_specialized_plan", str(exc))
        raise
    object.__setattr__(schedule, "_specialized_plan", plan)
    return plan


def plan_artifact(schedule: FoldingSchedule) -> Dict[str, object]:
    """The content-addressed plan summary stored with compiled programs
    (program-cache disk format v4); unsupported netlists record why."""
    try:
        return plan_for(schedule).summary()
    except SpecializationUnsupported as exc:
        return {"supported": False, "reason": str(exc)}


def _as_item_major(
    streams: Mapping[str, Sequence[Sequence[int]]], batch: int
) -> Dict[str, np.ndarray]:
    """Convert per-item stream data to ``(batch, words)`` arrays."""
    arrays: Dict[str, np.ndarray] = {}
    for stream, data in streams.items():
        try:
            arr = np.asarray(data, dtype=np.uint64)
        except (TypeError, ValueError) as exc:
            raise SpecializationUnsupported(
                f"stream {stream!r} is not rectangular: {exc}"
            ) from None
        if arr.ndim != 2 or arr.shape[0] != batch:
            raise SpecializationUnsupported(
                f"stream {stream!r} has shape {arr.shape}, expected "
                f"({batch}, words)"
            )
        arrays[stream] = (arr & np.uint64(WORD_MASK)).astype(np.uint32)
    return arrays


def _as_lane_bindings(
    bindings: Mapping[str, object], batch: int
) -> Dict[str, np.ndarray]:
    lanes: Dict[str, np.ndarray] = {}
    for name, value in bindings.items():
        if isinstance(value, (int, np.integer)):
            lanes[name] = np.full(batch, int(value) & WORD_MASK,
                                  dtype=np.uint32)
        else:
            arr = np.asarray(value, dtype=np.uint64)
            if arr.shape != (batch,):
                raise SpecializationUnsupported(
                    f"binding {name!r} has shape {arr.shape}, expected "
                    f"({batch},)"
                )
            lanes[name] = (arr & np.uint64(WORD_MASK)).astype(np.uint32)
    return lanes


def _charge_segment(executor: FoldedExecutor, segment: int,
                    times: int) -> None:
    """Charge ``times`` logical loads of ``segment`` without moving data.

    The reference loop re-streams the configuration window once per
    item; the plan loads it physically once and adds the remaining
    items' traffic here so every counter — executor stats,
    per-sub-array writes, telemetry — matches bit for bit.
    """
    if times <= 0:
        return
    start = segment * executor._rows
    rows = min(start + executor._rows, executor.config.cycles) - start
    for sub in executor._config_subarrays:
        sub.charge_writes(rows * times)
    words = rows * len(executor._config_subarrays)
    total = words * times
    executor.stats.config_words_loaded += total
    if segment > 0:
        executor.stats.config_reloads += times
    telemetry = executor.telemetry
    if telemetry.enabled and total:
        telemetry.counter(
            "freac.config_words_written",
            "configuration words streamed into compute sub-arrays",
        ).inc(total, tile=executor.trace_track)
        if segment > 0:
            telemetry.counter(
                "freac.reconfig_events",
                "mid-run configuration segment reloads",
            ).inc(times, tile=executor.trace_track)
            telemetry.counter(
                "freac.stall_cycles",
                "cycles stalled waiting on configuration reloads",
            ).inc(times * (words // max(len(executor.tile), 1)),
                  tile=executor.trace_track)


def _stream_segments(executor: FoldedExecutor, items: int,
                     base_cycle: int) -> None:
    """The configuration traffic of a tile's ``items`` invocations
    once its first item has segment 0 resident.

    The reference loop streams every window of a segmented schedule in
    per item, rewinding to segment 0 before each item after the
    first.  Each window is written physically once, in the reference's
    order (so the sub-arrays end up holding what the reference leaves),
    and the repeats are charged in bulk.
    """
    segments = executor.segments
    if segments == 1:
        return
    telemetry = executor.telemetry
    for segment in range(segments):
        repeats = items - 1 if segment == 0 else items
        if not repeats:
            continue
        executor.load_segment(segment)
        _charge_segment(executor, segment, repeats - 1)
        if segment and telemetry.enabled:
            telemetry.cycle_event(
                "reconfig", base_cycle + segment * executor._rows,
                track=executor.trace_track, segment=segment, items=items,
            )


def _config_tables(plan: SpecializedPlan, busy: Sequence[FoldedExecutor],
                   tiles: int, batch: int) -> Optional[np.ndarray]:
    """The truth tables the batch's lanes select through, read from
    the configuration rows of the tiles that received items.

    The reads are not charged: the plan bills every row read per
    invocation (:func:`_charge_tile`).  ``None`` means each of those
    tiles holds the plan's own tables, which is the common case.
    Otherwise the result is ``(N, batch)``, lane *i* selecting through
    tile ``i % tiles``, or ``(N, 1)`` when every lane agrees.

    On a segmented schedule only each tile's first item can select
    through its resident segment 0: the reference loop streams every
    later window in from the image, and reloads segment 0 from the
    image before each later item.
    """
    if not plan.lut_tables.size:
        return None
    rows = busy[0]._rows
    segmented = busy[0].segments > 1
    read = np.minimum(plan.lut_rows, rows - 1) if segmented else plan.lut_rows
    words = np.stack([
        executor._sram[executor._sram_rows.ravel()[plan.lut_subarray], read]
        for executor in busy
    ])
    words = (words >> plan.lut_shift) & plan.lut_mask
    if segmented:
        later = plan.lut_rows >= rows
        words[:, later] = plan.lut_tables[later]
    if (words == plan.lut_tables).all():
        return None
    lanes = np.arange(batch)
    if segmented:
        words = np.vstack([words, plan.lut_tables])
        lane_rows = np.where(lanes < tiles, lanes, len(busy))
    else:
        lane_rows = lanes % tiles
    tables = words[lane_rows].T
    if (tables == tables[:, :1]).all():
        tables = tables[:, :1]
    return np.ascontiguousarray(tables)


def _charge_tile(plan: SpecializedPlan, executor: FoldedExecutor,
                 items: int, latched: Optional[np.ndarray],
                 base_cycle: int) -> None:
    """Charge one tile exactly what the reference loop charges for
    running ``items`` invocations on it, as a handful of bulk adds.

    ``latched`` holds the tables the tile's last item selected through
    (``None``: the plan's own), so each LUT ends on the table the
    reference leaves latched.
    """
    tile = executor.tile
    stats = executor.stats
    schedule = executor.schedule
    for mcc_index, subarray, count in plan.subarray_reads:
        tile[mcc_index].subarrays[subarray].charge_reads(count * items)
    for mcc_index, unit, count, table, column in plan.lut_charges:
        lut = tile[mcc_index].luts[unit]
        lut.evaluations += count * items
        lut.reconfigure(table if latched is None else int(latched[column]))
        lut.reconfigurations += count * items - 1
    for mcc_index, count in plan.mac_charges:
        tile[mcc_index].mac.operations += count * items
    for mcc_index, bits in enumerate(plan.register_bits):
        if bits:
            bank = tile[mcc_index].registers
            if bits > bank.peak_bits:
                bank.peak_bits = bits
    stats.lut_evaluations += plan.lut_evaluations * items
    stats.mac_operations += plan.mac_operations * items
    stats.bus_loads += plan.bus_loads * items
    stats.bus_stores += plan.bus_stores * items
    stats.cycles += schedule.fold_cycles * items
    stats.invocations += items
    telemetry = executor.telemetry
    if telemetry.enabled:
        track = executor.trace_track
        total_cycles = schedule.compute_cycles
        telemetry.counter(
            "freac.invocations", "accelerator invocations executed"
        ).inc(items, tile=track)
        telemetry.counter(
            "freac.folding_steps", "folding cycles executed"
        ).inc(total_cycles * items, tile=track)
        telemetry.counter(
            "freac.rows_read",
            "configuration rows read from compute sub-arrays",
        ).inc(
            total_cycles * len(tile) * schedule.resources.luts_per_mcc
            * items,
            tile=track,
        )
        # One instant per folding cycle, as the reference loop emits
        # (docs/observability.md); ``items`` is how many invocations
        # the step stood for.
        ops_by_cycle = schedule.ops_by_cycle
        for cycle in range(1, total_cycles + 1):
            telemetry.cycle_event(
                "fold_step", base_cycle + cycle - 1, track=track,
                ops=len(ops_by_cycle.get(cycle, ())), items=items,
            )


def run_batch_specialized(
    executors: Sequence[FoldedExecutor],
    item_indices: Sequence[int],
    *,
    streams: Optional[Mapping[str, Sequence[Sequence[int]]]] = None,
    bindings: Optional[Mapping[str, object]] = None,
    scratchpad_map: Optional[Mapping[str, StreamBinding]] = None,
) -> BatchResult:
    """Execute a batch through the compiled plan, lane *i* on tile
    ``i % len(executors)``.

    The tiles run one schedule in lock-step, so one pass over the plan
    serves every lane.  Each LUT pass selects through the tables the
    lanes' tiles hold in their configuration rows
    (:func:`_config_tables`); each tile is then charged as if it had
    run its own lanes through the reference loop
    (:meth:`FoldedExecutor.run_batch_reference`).  Tiles with no lane
    read nothing and are charged nothing.

    Raises :class:`SpecializationUnsupported` (no plan for this
    netlist, or ragged inputs) before touching any state, so the
    caller can fall back to the reference loop.
    """
    if any(executor._loaded_segment < 0 for executor in executors):
        raise DeviceError("load the configuration before running")
    lead = executors[0]
    scratchpad = lead.scratchpad
    if scratchpad_map and scratchpad is None:
        raise DeviceError("scratchpad bindings given but no scratchpad")
    plan = plan_for(lead.schedule)
    batch = len(item_indices)
    # --- plan phase: convert inputs; nothing is mutated on failure ---
    stream_arrays = _as_item_major(streams or {}, batch)
    lane_bindings = _as_lane_bindings(bindings or {}, batch)
    scratchpad_map = dict(scratchpad_map or {})
    if batch == 0:
        return BatchResult(items=0, engine="specialized")
    indices = (np.asarray(item_indices, dtype=np.int64)
               if scratchpad_map else None)

    tiles = len(executors)
    busy = executors[:batch]
    shares = [len(range(tile, batch, tiles)) for tile in range(len(busy))]
    base_cycles = [executor.stats.cycles for executor in busy]
    words_before = sum(e.stats.config_words_loaded for e in busy)
    reloads_before = sum(e.stats.config_reloads for e in busy)
    # Each tile's first item starts on segment 0: a tile that a
    # segmented run left on a later window reloads it from the image.
    for executor in busy:
        if executor._loaded_segment != 0:
            executor.load_segment(0)
    tables = _config_tables(plan, busy, tiles, batch)
    for executor, items, base_cycle in zip(busy, shares, base_cycles):
        _stream_segments(executor, items, base_cycle)

    # --- the value table and the fused passes ------------------------
    one = np.uint32(1)
    values = np.empty((plan.slots, batch), dtype=np.uint32)
    values[:] = plan.template[:, None]
    for name, slot, mask in plan.inputs:
        lanes = lane_bindings.get(name)
        if lanes is None:
            raise CircuitError(f"missing binding for input {name!r}")
        values[slot] = lanes & np.uint32(mask)

    for pass_ in plan.passes:
        kind = type(pass_)
        if kind is _LutPass:
            # The gather is a fresh copy: shift and mask it in place, so
            # a wide batch holds one (n, K, batch) temporary, not four.
            src = values[pass_.src]
            if pass_.any_shift:
                src >>= pass_.shift
            src &= one
            src <<= pass_.weight
            index = src.sum(axis=1, dtype=np.uint32)
            table = (pass_.table if tables is None
                     else tables[pass_.start:pass_.stop])
            values[pass_.out] = (table >> index) & one
        elif kind is _Mac1Pass:
            values[pass_.out] = (
                values[pass_.a] * values[pass_.b] + values[pass_.c]
            )
        elif kind is _MacPass:
            if pass_.simple:
                values[pass_.out] = (
                    values[pass_.a] * values[pass_.b] + values[pass_.c]
                )
            else:
                a = (values[pass_.a] >> pass_.a_shift) & pass_.a_mask
                b = (values[pass_.b] >> pass_.b_shift) & pass_.b_mask
                c = (values[pass_.c] >> pass_.c_shift) & pass_.c_mask
                values[pass_.out] = a * b + c
        elif kind is _PackPass:
            src = values[pass_.src]
            if pass_.any_shift:
                src >>= pass_.shift
            src &= one
            src <<= pass_.position
            values[pass_.out] = src.sum(axis=1, dtype=np.uint32)
        elif kind is _LoadPass:
            stream = pass_.stream
            if stream in scratchpad_map:
                binding = scratchpad_map[stream]
                assert scratchpad is not None
                addresses = (
                    binding.base_word + pass_.word_index[:, None]
                    + indices[None, :] * binding.words_per_item
                )
                values[pass_.out] = scratchpad.read_words_batch(
                    addresses.ravel()
                ).reshape(addresses.shape)
            elif stream in stream_arrays:
                data = stream_arrays[stream]
                exhausted = pass_.word_index >= data.shape[1]
                if exhausted.any():
                    first = int(pass_.word_index[exhausted][0])
                    raise CircuitError(
                        f"stream {stream!r} exhausted at {first}"
                    )
                values[pass_.out] = data[:, pass_.word_index].T
            else:
                raise CircuitError(f"no source for load stream {stream!r}")
        else:  # _StorePass
            words = (values[pass_.src] >> pass_.src_shift) & pass_.src_mask
            values[pass_.out] = words
            stream = pass_.stream
            if stream in scratchpad_map:
                binding = scratchpad_map[stream]
                assert scratchpad is not None
                addresses = (
                    binding.base_word + pass_.word_index[:, None]
                    + indices[None, :] * binding.words_per_item
                )
                scratchpad.write_words_batch(
                    addresses.ravel(), words.ravel()
                )

    # --- bulk accounting: exactly what the reference loop charges ----
    for tile, (executor, items, base_cycle) in enumerate(
            zip(busy, shares, base_cycles)):
        latched = None
        if tables is not None:
            last = tile + (items - 1) * tiles
            latched = tables[:, min(last, tables.shape[1] - 1)]
        _charge_tile(plan, executor, items, latched, base_cycle)
    stats = ExecutionStats(
        invocations=batch,
        cycles=lead.schedule.fold_cycles * shares[0],
        lut_evaluations=plan.lut_evaluations * batch,
        mac_operations=plan.mac_operations * batch,
        bus_loads=plan.bus_loads * batch,
        bus_stores=plan.bus_stores * batch,
        config_words_loaded=(
            sum(e.stats.config_words_loaded for e in busy) - words_before
        ),
        config_reloads=(
            sum(e.stats.config_reloads for e in busy) - reloads_before
        ),
    )

    outputs = {}
    for name, slot, shift, mask in plan.outputs:
        row = values[slot]
        if shift:
            row = row >> np.uint32(shift)
        if mask != WORD_MASK:
            outputs[name] = row & np.uint32(mask)
        elif row.base is values:
            outputs[name] = row.copy()
        else:
            outputs[name] = row
    stores = {
        stream: np.ascontiguousarray(values[slots].T)
        for stream, (_indices, slots) in plan.result_stores.items()
    }
    return BatchResult(
        items=batch, engine="specialized", outputs=outputs, stores=stores,
        stats=stats,
    )
