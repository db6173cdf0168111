"""Cycle-by-cycle functional execution of a folded accelerator.

``FoldedExecutor`` is the model of what the hardware actually does at
run time (paper Sec. III-B "Operation"): every folding cycle each MCC
reads one configuration row per LUT unit from its compute sub-arrays
(a real, counted SRAM access), latches it into the mux tree, routes
operands through the crossbar (here: the schedule's fanin wiring), and
fires the MAC and at most one bus operation per cluster.

Its outputs must equal :func:`repro.circuits.simulate` on the same
netlist — the logic-folding correctness invariant, property-tested in
``tests/freac/test_executor.py``.

Schedules longer than the sub-array row budget are executed in
segments: the configuration for the next window of folding steps is
re-loaded mid-run, and the reload traffic is reported so the timing
model can charge it (an aspect the paper leaves implicit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..analysis import preflight_schedule
from ..circuits.netlist import NodeKind, WORD_MASK
from ..errors import CircuitError, DeviceError
from ..folding.config import ConfigImage, image_for
from ..folding.schedule import FoldingSchedule, OpSlot
from ..telemetry import Telemetry
from ..telemetry.core import resolve
from .mcc import MicroComputeCluster
from .scratchpad import Scratchpad


@dataclass(frozen=True)
class TraceEvent:
    """One executed op, for gem5-style activity traces."""

    cycle: int
    kind: str       # "lut" | "mac" | "load" | "store"
    nid: int
    mcc: int
    unit: int
    value: int


@dataclass(frozen=True)
class StreamBinding:
    """Maps a bus stream onto a scratchpad region.

    Word ``index`` of the stream for batch item ``item`` lives at
    ``base_word + item * words_per_item + index``.
    """

    base_word: int
    words_per_item: int


@dataclass
class ExecutionStats:
    """Counters from one or more invocations."""

    invocations: int = 0
    cycles: int = 0
    lut_evaluations: int = 0
    mac_operations: int = 0
    bus_loads: int = 0
    bus_stores: int = 0
    config_words_loaded: int = 0
    config_reloads: int = 0
    #: Batches the compiled plan could not represent (sequential
    #: netlist, ragged streams) that ran on the scalar reference loop.
    engine_fallbacks: int = 0

    @property
    def bus_words(self) -> int:
        return self.bus_loads + self.bus_stores

    def as_dict(self) -> Dict[str, int]:
        """A detached plain-``int`` snapshot of the counters.

        Bulk charges on the plan path may carry numpy integer types;
        coercing here guarantees the dict is JSON-serialisable and
        shares no mutable state with the live counters, so two
        executors (or two snapshots) can never alias each other.
        """
        return {key: int(value) for key, value in self.__dict__.items()}

    def merge(self, other: "ExecutionStats") -> None:
        """Add another tile's (or slice's) counters for the same batch.

        Tiles and slices run in parallel, so ``cycles`` is the longest
        of them; every other counter adds up.
        """
        for key, value in other.__dict__.items():
            mine = getattr(self, key)
            setattr(self, key,
                    max(mine, value) if key == "cycles" else mine + value)


@dataclass
class BatchResult:
    """Results of one batched run, item-major.

    ``outputs[name]`` is a ``(items,)`` array, ``stores[stream]`` an
    ``(items, words)`` array; :meth:`item_outputs` and
    :meth:`item_stores` recover the plain-int view a scalar
    :class:`InvocationResult` gives.  ``engine`` names the path that
    ran: ``"specialized"`` (the compiled plan) or ``"reference"``;
    ``stats`` holds the counters this batch charged, merged over the
    tiles that ran it (:meth:`ExecutionStats.merge`).
    """

    items: int
    engine: str
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    stores: Dict[str, np.ndarray] = field(default_factory=dict)
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    def item_outputs(self, item: int) -> Dict[str, int]:
        return {name: int(col[item]) for name, col in self.outputs.items()}

    def item_stores(self, item: int) -> Dict[str, List[int]]:
        return {
            stream: [int(word) for word in rows[item]]
            for stream, rows in self.stores.items()
        }


class FoldedExecutor:
    """Runs a :class:`FoldingSchedule` on a tile of MCCs."""

    def __init__(
        self,
        schedule: FoldingSchedule,
        tile: Sequence[MicroComputeCluster],
        scratchpad: Optional[Scratchpad] = None,
        *,
        preflight: bool = True,
        telemetry: Optional[Telemetry] = None,
        trace_track: str = "tile0",
    ) -> None:
        if len(tile) != schedule.resources.mccs:
            raise DeviceError(
                f"schedule needs {schedule.resources.mccs} MCCs, tile has "
                f"{len(tile)}"
            )
        lut_inputs = schedule.resources.lut_inputs
        buffer = tile[0].subarrays[0].buffer
        for mcc in tile:
            if mcc.lut_inputs != lut_inputs:
                raise DeviceError(
                    f"MCC {mcc.index} is in {mcc.lut_inputs}-LUT mode but "
                    f"the schedule folds {lut_inputs}-input LUTs"
                )
            if any(sub.buffer is not buffer for sub in mcc.subarrays):
                raise DeviceError(
                    f"MCC {mcc.index}'s sub-arrays are not rows of the "
                    "tile's one buffer; build standalone tiles with "
                    "make_tile"
                )
        if preflight:
            # Pre-flight lint (docs/analysis.md): refuse to generate
            # configuration bits from an illegal schedule; warnings
            # (pressure/bus trends) go to the repro.analysis logger.
            preflight_schedule(schedule, stage="execute")
        self.schedule = schedule
        self.tile = list(tile)
        self.scratchpad = scratchpad
        self.stats = ExecutionStats()
        self.telemetry = resolve(telemetry)
        self.trace_track = trace_track
        rows = self.tile[0].config_rows
        # Lock-step tiles running one schedule share its read-only image.
        self.config: ConfigImage = image_for(schedule, rows)
        self._rows = rows
        self._loaded_segment = -1
        # The configuration sub-arrays, MCC-major, and their rows of
        # the tile's buffer in the image's (MCCs, sub-arrays) shape.
        stored = self.config.words.shape[1]
        self._config_subarrays = [
            sub for mcc in self.tile for sub in mcc.subarrays[:stored]
        ]
        self._sram = buffer
        self._sram_rows = np.array(
            [sub.index for sub in self._config_subarrays], dtype=np.intp
        ).reshape(len(self.tile), stored)
        # Sequential state: flip-flop values persist across invocations
        # in the cluster FF banks.
        self._ff_state: Dict[int, int] = dict(schedule.initial_ff_state)

    def reset_state(self) -> None:
        """Reset all flip-flops to their initial values."""
        self._ff_state.update(self.schedule.initial_ff_state)

    @property
    def ff_state(self) -> Dict[int, int]:
        return dict(self._ff_state)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    @property
    def segments(self) -> int:
        return self.config.reload_segments

    def load_segment(self, segment: int) -> int:
        """Write one window of folding steps into the sub-arrays: one
        block copy of the image into the tile's buffer rows."""
        if not 0 <= segment < self.segments:
            raise DeviceError(f"segment {segment} out of range")
        start = segment * self._rows
        end = min(start + self._rows, self.config.cycles)
        rows = end - start
        self._sram[self._sram_rows, :rows] = self.config.words[:, :, start:end]
        for sub in self._config_subarrays:
            sub.charge_writes(rows)
        words_written = rows * len(self._config_subarrays)
        self._loaded_segment = segment
        self.stats.config_words_loaded += words_written
        if segment > 0:
            self.stats.config_reloads += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.counter(
                "freac.config_words_written",
                "configuration words streamed into compute sub-arrays",
            ).inc(words_written, tile=self.trace_track)
            if segment > 0:
                telemetry.counter(
                    "freac.reconfig_events",
                    "mid-run configuration segment reloads",
                ).inc(tile=self.trace_track)
                # MCC config busses load in parallel; one MCC's words
                # stream serially at one word per cycle (Sec. III-B).
                telemetry.counter(
                    "freac.stall_cycles",
                    "cycles stalled waiting on configuration reloads",
                ).inc(words_written // max(len(self.tile), 1),
                      tile=self.trace_track)
        return words_written

    def load_configuration(self) -> int:
        """Fig. 5 step 4: write the (first segment of the) bitstream."""
        return self.load_segment(0)

    def verify_configuration(self) -> bool:
        """Check the loaded segment against the bitstream image.

        Reads the configuration rows back (charging real accesses, as
        a hardware scrub would) and compares with the expected words.
        The scrub goes sub-array by sub-array, MCC-major, and stops at
        the first one whose rows were corrupted or overwritten; it
        then returns False.
        """
        if self._loaded_segment < 0:
            raise DeviceError("no configuration segment is loaded")
        start = self._loaded_segment * self._rows
        end = min(start + self._rows, self.config.cycles)
        rows = end - start
        held = self._sram[self._sram_rows, :rows]
        bad = np.flatnonzero(
            (held != self.config.words[:, :, start:end]).any(axis=2)
        )
        scrubbed = self._config_subarrays[:bad[0] + 1 if bad.size else None]
        for sub in scrubbed:
            sub.charge_reads(rows)
        return not bad.size

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        streams: Optional[Mapping[str, Sequence[int]]] = None,
        bindings: Optional[Mapping[str, int]] = None,
        scratchpad_map: Optional[Mapping[str, StreamBinding]] = None,
        item: int = 0,
        collect_trace: bool = False,
    ) -> "InvocationResult":
        """Execute one invocation (one batch item) of the accelerator.

        Input operands come either from in-memory ``streams`` (host
        push model) or from the slice ``scratchpad`` via
        ``scratchpad_map``; results symmetrically.  With
        ``collect_trace`` the result carries one :class:`TraceEvent`
        per executed op, in execution order.
        """
        if self._loaded_segment < 0:
            raise DeviceError("load the configuration before running")
        if scratchpad_map and self.scratchpad is None:
            raise DeviceError("scratchpad bindings given but no scratchpad")
        netlist = self.schedule.netlist
        values: Dict[int, int] = {}
        store_streams: Dict[str, Dict[int, int]] = {}
        streams = streams or {}
        bindings = bindings or {}
        scratchpad_map = scratchpad_map or {}

        def value_of(nid: int) -> int:
            """Resolve a value through wiring nodes (crossbar routing)."""
            if nid in values:
                return values[nid]
            node = netlist.nodes[nid]
            kind = node.kind
            if kind is NodeKind.CONST:
                result = node.payload  # type: ignore[assignment]
            elif kind is NodeKind.WORD_CONST:
                result = node.payload & WORD_MASK  # type: ignore[operator]
            elif kind is NodeKind.BIT_INPUT or kind is NodeKind.WORD_INPUT:
                name = node.payload
                if name not in bindings:
                    raise CircuitError(f"missing binding for input {name!r}")
                mask = 1 if kind is NodeKind.BIT_INPUT else WORD_MASK
                result = bindings[name] & mask
            elif kind is NodeKind.BITSLICE:
                position: int = node.payload  # type: ignore[assignment]
                result = (value_of(node.fanins[0]) >> position) & 1
            elif kind is NodeKind.PACK:
                result = 0
                for position, fanin in enumerate(node.fanins):
                    result |= (value_of(fanin) & 1) << position
            elif kind is NodeKind.FLIPFLOP:
                result = self._ff_state.get(nid, node.payload or 0)
            else:
                raise DeviceError(
                    f"op node {nid} ({kind.value}) read before its cycle — "
                    "the schedule is not dependence-correct"
                )
            values[nid] = result
            return result

        trace: List[TraceEvent] = []
        telemetry = self.telemetry
        emit = telemetry.enabled
        base_cycle = self.stats.cycles  # device-cycle timeline offset
        track = self.trace_track
        total_cycles = self.schedule.compute_cycles
        for cycle in range(1, total_cycles + 1):
            segment = (cycle - 1) // self._rows
            if segment != self._loaded_segment:
                self.load_segment(segment)
                if emit:
                    telemetry.cycle_event(
                        "reconfig", base_cycle + cycle - 1, track=track,
                        segment=segment,
                    )
            local_cycle = (cycle - 1) % self._rows + 1
            ops = self.schedule.ops_by_cycle.get(cycle, ())
            if emit:
                telemetry.cycle_event(
                    "fold_step", base_cycle + cycle - 1, track=track,
                    ops=len(ops),
                )
            for op in ops:  # deterministic order
                node = netlist.nodes[op.nid]
                if op.slot is OpSlot.LUT:
                    width = node.payload[0]  # type: ignore[index]
                    bits = [value_of(f) for f in node.fanins]
                    bits += [0] * (self.tile[op.mcc].lut_inputs - width)
                    values[op.nid] = self.tile[op.mcc].evaluate_lut(
                        op.unit, local_cycle, bits
                    )
                    self.tile[op.mcc].registers.write(op.nid, values[op.nid], 1)
                    self.stats.lut_evaluations += 1
                    kind = "lut"
                elif op.slot is OpSlot.MAC:
                    a, b, acc = (value_of(f) for f in node.fanins)
                    values[op.nid] = self.tile[op.mcc].mac.mac(a, b, acc)
                    self.tile[op.mcc].registers.write(op.nid, values[op.nid], 32)
                    self.stats.mac_operations += 1
                    kind = "mac"
                elif node.kind is NodeKind.BUS_LOAD:
                    stream, index = node.payload  # type: ignore[misc]
                    values[op.nid] = self._bus_read(
                        stream, index, item, streams, scratchpad_map
                    )
                    self.stats.bus_loads += 1
                    kind = "load"
                else:  # BUS_STORE
                    stream, index = node.payload  # type: ignore[misc]
                    word = value_of(node.fanins[0]) & WORD_MASK
                    self._bus_write(
                        stream, index, item, word, scratchpad_map, store_streams
                    )
                    values[op.nid] = word
                    self.stats.bus_stores += 1
                    kind = "store"
                if collect_trace:
                    trace.append(
                        TraceEvent(cycle, kind, op.nid, op.mcc, op.unit,
                                   values[op.nid])
                    )
        self.stats.cycles += self.schedule.fold_cycles
        self.stats.invocations += 1
        if emit:
            telemetry.counter(
                "freac.invocations", "accelerator invocations executed"
            ).inc(tile=track)
            telemetry.counter(
                "freac.folding_steps", "folding cycles executed"
            ).inc(total_cycles, tile=track)
            # Every folding cycle latches one configuration row per LUT
            # unit in every MCC of the tile (Sec. III-B "Operation").
            telemetry.counter(
                "freac.rows_read",
                "configuration rows read from compute sub-arrays",
            ).inc(
                total_cycles * len(self.tile)
                * self.schedule.resources.luts_per_mcc,
                tile=track,
            )
        # Clock edge: latch every flip-flop's next state.
        next_state = {
            node.nid: value_of(node.fanins[0]) & 1
            for node in netlist.flipflops()
            if node.fanins
        }
        outputs = {name: value_of(nid) for name, nid in netlist.outputs.items()}
        self._ff_state.update(next_state)
        for mcc in self.tile:
            mcc.registers.clear()
        stores = {
            stream: [by_index[i] for i in sorted(by_index)]
            for stream, by_index in store_streams.items()
        }
        return InvocationResult(outputs=outputs, stores=stores, trace=trace)

    def run_batch(
        self,
        items: "int | Sequence[int]",
        *,
        streams: Optional[Mapping[str, Sequence[Sequence[int]]]] = None,
        bindings: Optional[Mapping[str, object]] = None,
        scratchpad_map: Optional[Mapping[str, StreamBinding]] = None,
    ) -> BatchResult:
        """Execute a whole batch of invocations in one call.

        ``items`` is either a count (items ``0..N-1``) or an explicit
        sequence of global item indices (which place each lane in the
        scratchpad).  ``streams`` is item-major — ``streams[s][lane]``
        is lane *lane*'s word list; ``bindings`` values may be scalars
        (broadcast) or per-lane sequences.

        The batch runs through the program's compiled execution plan
        (:mod:`repro.freac.specialize`) as its one-tile case: the same
        pass interpreter serves a whole slice in
        :meth:`ComputeClusterController.run_batch
        <repro.freac.ccctrl.ComputeClusterController.run_batch>`.  Runs
        the plan cannot represent (sequential netlists, ragged streams)
        fall back to :meth:`run_batch_reference`, counted in
        ``stats.engine_fallbacks``.  Results and every counter are
        bit-for-bit identical between the two paths.
        """
        from .specialize import SpecializationUnsupported, run_batch_specialized

        indices = _item_indices(items)
        try:
            return run_batch_specialized(
                [self],
                indices,
                streams=streams,
                bindings=bindings,
                scratchpad_map=scratchpad_map,
            )
        except SpecializationUnsupported:
            self.stats.engine_fallbacks += 1
        result = self.run_batch_reference(
            indices,
            streams=streams,
            bindings=bindings,
            scratchpad_map=scratchpad_map,
        )
        result.stats.engine_fallbacks += 1
        return result

    def run_batch_reference(
        self,
        items: "int | Sequence[int]",
        *,
        streams: Optional[Mapping[str, Sequence[Sequence[int]]]] = None,
        bindings: Optional[Mapping[str, object]] = None,
        scratchpad_map: Optional[Mapping[str, StreamBinding]] = None,
    ) -> BatchResult:
        """The scalar :meth:`run` loop, reshaped into a batch result.

        The ground truth the compiled plan must match bit for bit, and
        its fallback; tests call it directly as the oracle.
        """
        indices = _item_indices(items)
        streams = streams or {}
        bindings = bindings or {}
        before = self.stats.as_dict()
        results: List[InvocationResult] = []
        for lane, item in enumerate(indices):
            lane_streams = {s: data[lane] for s, data in streams.items()}
            lane_bindings = {
                name: int(value) if isinstance(value, (int, np.integer))
                else int(value[lane])  # type: ignore[index]
                for name, value in bindings.items()
            }
            results.append(
                self.run(
                    streams=lane_streams,
                    bindings=lane_bindings,
                    scratchpad_map=scratchpad_map,
                    item=item,
                )
            )
        outputs: Dict[str, np.ndarray] = {}
        stores: Dict[str, np.ndarray] = {}
        if results:
            outputs = {
                name: np.array(
                    [r.outputs[name] for r in results], dtype=np.uint32
                )
                for name in results[0].outputs
            }
            stores = {
                stream: np.array(
                    [r.stores[stream] for r in results], dtype=np.uint32
                )
                for stream in results[0].stores
            }
        return BatchResult(
            items=len(indices),
            engine="reference",
            outputs=outputs,
            stores=stores,
            stats=ExecutionStats(**{
                key: value - before[key]
                for key, value in self.stats.as_dict().items()
            }),
        )

    # ------------------------------------------------------------------

    def _bus_read(
        self,
        stream: str,
        index: int,
        item: int,
        streams: Mapping[str, Sequence[int]],
        scratchpad_map: Mapping[str, StreamBinding],
    ) -> int:
        if stream in scratchpad_map:
            binding = scratchpad_map[stream]
            assert self.scratchpad is not None
            word = binding.base_word + item * binding.words_per_item + index
            return self.scratchpad.read_word(word)
        if stream in streams:
            data = streams[stream]
            if index >= len(data):
                raise CircuitError(f"stream {stream!r} exhausted at {index}")
            return data[index] & WORD_MASK
        raise CircuitError(f"no source for load stream {stream!r}")

    def _bus_write(
        self,
        stream: str,
        index: int,
        item: int,
        word: int,
        scratchpad_map: Mapping[str, StreamBinding],
        store_streams: Dict[str, Dict[int, int]],
    ) -> None:
        if stream in scratchpad_map:
            binding = scratchpad_map[stream]
            assert self.scratchpad is not None
            address = binding.base_word + item * binding.words_per_item + index
            self.scratchpad.write_word(address, word)
        store_streams.setdefault(stream, {})[index] = word


def _item_indices(items: "int | Sequence[int]") -> List[int]:
    """A batch's global item indices from a count or an explicit list."""
    if isinstance(items, (int, np.integer)):
        return list(range(int(items)))
    return [int(i) for i in items]


@dataclass
class InvocationResult:
    outputs: Dict[str, int] = field(default_factory=dict)
    stores: Dict[str, List[int]] = field(default_factory=dict)
    trace: List[TraceEvent] = field(default_factory=list)
