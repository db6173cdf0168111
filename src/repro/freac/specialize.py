"""Per-program compiled execution plans: the production execution path.

The reference :meth:`~repro.freac.executor.FoldedExecutor.run` loop
walks the folding schedule one batch item at a time in pure Python —
faithful, but then the simulator, not the modeled hardware, is the
bottleneck.  The structural fact the plan exploits (shared with
DRAM-PIM LUT inference engines such as LOCALUT) is that at folding
step *t* every in-flight item selects through the same latched
configuration row, so the walk vectorizes over the batch axis — and,
because the walk is the same for every batch of a program, it can be
compiled once.

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
* scratchpad traffic becomes precomputed gather/scatter index maps
  (``base + word_index + item * words_per_item``) issued as one bulk
  :meth:`~repro.freac.scratchpad.Scratchpad.read_words_batch` /
  ``write_words_batch`` per stream per level, charging exactly the
  per-invocation accesses the reference loop charges;
* all remaining accounting — per-sub-array config-row reads, per-LUT
  reconfiguration/evaluation counts, MAC operation counts, register
  peak occupancy — is reduced to bulk totals applied once per batch.

``run_batch_specialized`` is therefore a short sequence of numpy ops
with zero per-step Python dispatch, bit-exact with the reference loop:
outputs, stores, AND every access counter, including segment-reload
and rewind-to-segment-0 charging.

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
from .executor import BatchResult, FoldedExecutor, StreamBinding


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
                 "mcc", "unit", "deps", "order", "positions")

    def __init__(self, kind: str, out: int, srcs: Sequence[_Source],
                 *, table: int = 0, stream: str = "", index: int = 0,
                 mcc: int = 0, unit: int = 0,
                 positions: Sequence[int] = ()) -> None:
        self.kind = kind
        self.out = out
        self.srcs = list(srcs)
        self.table = table
        self.stream = stream
        self.index = index
        self.mcc = mcc
        self.unit = unit
        self.positions = list(positions)
        self.deps: set = set()
        self.order = -1


@dataclass
class _LutPass:
    src: np.ndarray      # (n, K) int32 slot ids
    shift: np.ndarray    # (n, K, 1) uint32
    weight: np.ndarray   # (1, K, 1) uint32 — index bit positions
    table: np.ndarray    # (n, 1) uint32
    out: np.ndarray      # (n,) int32
    any_shift: bool = True


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
    # --- bulk accounting, per batch item ---
    subarray_reads: List[Tuple[int, int, int]]      # (mcc, subarray, count)
    lut_charges: List[Tuple[int, int, int, int]]    # (mcc, unit, count, final table)
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
        ops_by_cycle: Dict[int, List] = {}
        for op in self.schedule.ops:
            ops_by_cycle.setdefault(op.cycle, []).append(op)
        for cycle in range(1, self.schedule.compute_cycles + 1):
            for op in ops_by_cycle.get(cycle, ()):
                node = netlist.nodes[op.nid]
                if op.slot is OpSlot.LUT:
                    srcs = [self.resolve(f) for f in node.fanins]
                    slot = self.new_slot()
                    self.node_slots[op.nid] = slot
                    table = node.payload[1] & self.table_mask  # type: ignore[index]
                    self.add_instr(_Instr("lut", slot, srcs, table=table,
                                          mcc=op.mcc, unit=op.unit))
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
        for groups in by_level:
            # Load before compute before store within a level is safe:
            # same-level instructions never depend on each other.
            for key in sorted(groups, key=self._group_rank):
                passes.append(self._fuse(key, groups[key]))

        # --- bulk accounting -----------------------------------------
        resources = self.schedule.resources
        sa_reads: Dict[Tuple[int, int], int] = {}
        lut_units: Dict[Tuple[int, int], List[int]] = {}
        mac_ops: Dict[int, int] = {}
        register_bits = [0] * resources.mccs
        totals = {"lut": 0, "mac": 0, "load": 0, "store": 0}
        for instr in self.instrs:
            if instr.kind == "lut":
                subarray = (instr.unit // 2 if self.lut_inputs == 4
                            else instr.unit)
                sa_reads[(instr.mcc, subarray)] = (
                    sa_reads.get((instr.mcc, subarray), 0) + 1
                )
                entry = lut_units.setdefault((instr.mcc, instr.unit), [0, 0])
                entry[0] += 1
                entry[1] = instr.table
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
            subarray_reads=[(m, s, c) for (m, s), c in sorted(sa_reads.items())],
            lut_charges=[(m, u, c, t) for (m, u), (c, t)
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
        try:
            object.__setattr__(schedule, "_specialized_plan", str(exc))
        except (AttributeError, TypeError):  # pragma: no cover - slots
            pass
        raise
    try:
        object.__setattr__(schedule, "_specialized_plan", plan)
    except (AttributeError, TypeError):  # pragma: no cover - slots
        pass
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
    words = 0
    for mcc_index, mcc in enumerate(executor.tile):
        for unit, _column in enumerate(executor.config.lut_words[mcc_index]):
            mcc.subarrays[unit].charge_writes(rows * times)
            words += rows
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


def run_batch_specialized(
    executor: FoldedExecutor,
    item_indices: Sequence[int],
    *,
    streams: Optional[Mapping[str, Sequence[Sequence[int]]]] = None,
    bindings: Optional[Mapping[str, object]] = None,
    scratchpad_map: Optional[Mapping[str, StreamBinding]] = None,
) -> BatchResult:
    """Execute a batch through the executor's compiled plan.

    Raises :class:`SpecializationUnsupported` (no plan for this
    netlist, or ragged inputs) before touching any state, so the
    caller can fall back to the reference loop.
    """
    if executor._loaded_segment < 0:
        raise DeviceError("load the configuration before running")
    if scratchpad_map and executor.scratchpad is None:
        raise DeviceError("scratchpad bindings given but no scratchpad")
    plan = plan_for(executor.schedule)
    batch = len(item_indices)
    # --- plan phase: convert inputs; nothing is mutated on failure ---
    stream_arrays = _as_item_major(streams or {}, batch)
    lane_bindings = _as_lane_bindings(bindings or {}, batch)
    scratchpad_map = dict(scratchpad_map or {})
    if batch == 0:
        return BatchResult(items=0, engine="specialized")
    indices = (np.asarray(item_indices, dtype=np.int64)
               if scratchpad_map else None)

    stats = executor.stats
    tile = executor.tile
    scratchpad = executor.scratchpad
    telemetry = executor.telemetry
    emit = telemetry.enabled
    track = executor.trace_track
    base_cycle = stats.cycles
    total_cycles = executor.schedule.compute_cycles
    segments = executor.segments
    rows = executor._rows

    # Load each window physically once and charge the other batch
    # items in bulk.  Segment-0 rewinds: in the reference loop every
    # item whose run starts with a different segment loaded re-streams
    # the first window.  Item 1 rewinds iff something later is loaded
    # now; items 2..B rewind iff the schedule is segmented at all.
    rewinds = (1 if executor._loaded_segment != 0 else 0)
    rewinds += batch - 1 if segments > 1 else 0
    if executor._loaded_segment != 0:
        executor.load_segment(0)
        rewinds -= 1
    _charge_segment(executor, 0, rewinds)
    for segment in range(1, segments):
        executor.load_segment(segment)
        _charge_segment(executor, segment, batch - 1)
        if emit:
            telemetry.cycle_event(
                "reconfig", base_cycle + segment * rows, track=track,
                segment=segment, items=batch,
            )

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
            src = values[pass_.src]
            if pass_.any_shift:
                src = src >> pass_.shift
            index = ((src & one) << pass_.weight).sum(
                axis=1, dtype=np.uint32
            )
            values[pass_.out] = (pass_.table >> index) & one
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
                src = src >> pass_.shift
            values[pass_.out] = ((src & one) << pass_.position).sum(
                axis=1, dtype=np.uint32
            )
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
    for mcc_index, subarray, count in plan.subarray_reads:
        tile[mcc_index].subarrays[subarray].charge_reads(count * batch)
    for mcc_index, unit, count, table in plan.lut_charges:
        lut = tile[mcc_index].luts[unit]
        lut.evaluations += count * batch
        lut.reconfigure(table)
        lut.reconfigurations += count * batch - 1
    for mcc_index, count in plan.mac_charges:
        tile[mcc_index].mac.operations += count * batch
    for mcc_index, bits in enumerate(plan.register_bits):
        if bits:
            bank = tile[mcc_index].registers
            if bits > bank.peak_bits:
                bank.peak_bits = bits
    stats.lut_evaluations += plan.lut_evaluations * batch
    stats.mac_operations += plan.mac_operations * batch
    stats.bus_loads += plan.bus_loads * batch
    stats.bus_stores += plan.bus_stores * batch
    stats.cycles += executor.schedule.fold_cycles * batch
    stats.invocations += batch
    if emit:
        telemetry.counter(
            "freac.invocations", "accelerator invocations executed"
        ).inc(batch, tile=track)
        telemetry.counter(
            "freac.folding_steps", "folding cycles executed"
        ).inc(total_cycles * batch, tile=track)
        telemetry.counter(
            "freac.rows_read",
            "configuration rows read from compute sub-arrays",
        ).inc(
            total_cycles * len(tile)
            * executor.schedule.resources.luts_per_mcc * batch,
            tile=track,
        )
        # One instant per folding cycle, as the reference loop emits
        # (docs/observability.md); ``items`` is how many invocations
        # the step stood for.
        ops_by_cycle = executor._ops_by_cycle
        for cycle in range(1, total_cycles + 1):
            telemetry.cycle_event(
                "fold_step", base_cycle + cycle - 1, track=track,
                ops=len(ops_by_cycle.get(cycle, ())), items=batch,
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
        items=batch, engine="specialized", outputs=outputs, stores=stores
    )
