"""The compute cluster controller (CC Ctrl, paper Sec. III-C).

The CC Ctrl is the unit added to the slice's control box.  It owns the
whole accelerator lifecycle of Fig. 5: way selection, flushing and
locking (steps 1-3), configuration writes (step 4), scratchpad fills
(step 5), and run control (step 6).  It enforces protocol order — a
RUN before configuration, or a fill before locking, is a
:class:`~repro.errors.ProtocolError`, mirroring hardware that simply
has no datapath for the out-of-order operation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import DeviceError, ProtocolError
from ..folding.config import ConfigImage, generate_config
from ..folding.schedule import FoldingSchedule
from ..memory.dram import DramModel
from ..telemetry import Telemetry
from ..telemetry.core import resolve
from .compute_slice import (
    ReconfigurableComputeSlice,
    ResizeDelta,
    SlicePartition,
)
from .executor import (
    BatchResult,
    ExecutionStats,
    FoldedExecutor,
    StreamBinding,
)
from .specialize import SpecializationUnsupported, run_batch_specialized


class ControllerState(enum.Enum):
    IDLE = "idle"
    PARTITIONED = "partitioned"
    CONFIGURED = "configured"


@dataclass
class SetupReport:
    """Cost of preparing the slice for compute (Fig. 5 steps 1-3)."""

    flushed_dirty_lines: int
    flushed_bytes: int
    flush_time_s: float
    mccs: int
    scratchpad_bytes: int


@dataclass
class ProgramReport:
    """Cost of writing the accelerator configuration (step 4)."""

    tiles: int
    config_words_per_mcc: int
    config_words_total: int
    config_time_s: float
    segments: int
    #: True when this was a live reprogram billed as a delta against
    #: the resident image instead of a full bitstream write.
    delta: bool = False
    #: Config words the delta skipped relative to a full write.
    words_saved: int = 0


@dataclass
class ResizeReport:
    """Cost of an in-place elastic repartition (no teardown)."""

    delta: ResizeDelta
    flush_time_s: float
    mccs: int
    scratchpad_bytes: int


class ComputeClusterController:
    """Per-slice controller driving partitioning, config, and runs."""

    def __init__(
        self,
        compute_slice: ReconfigurableComputeSlice,
        dram: Optional[DramModel] = None,
        clock_hz: float = 4.0e9,
        *,
        telemetry: Optional[Telemetry] = None,
        slice_index: int = 0,
    ) -> None:
        self.slice = compute_slice
        self.dram = dram or DramModel()
        self.clock_hz = clock_hz
        self.state = ControllerState.IDLE
        self.executors: List[FoldedExecutor] = []
        self.schedule: Optional[FoldingSchedule] = None
        self.config_image: Optional[ConfigImage] = None
        self.telemetry = resolve(telemetry)
        self.slice_index = slice_index

    # ------------------------------------------------------------------
    # Steps 1-3: select, flush, lock
    # ------------------------------------------------------------------

    def setup(self, partition: SlicePartition) -> SetupReport:
        if self.state is not ControllerState.IDLE:
            raise ProtocolError("slice already set up; teardown first")
        with self.telemetry.span("device.setup", "device",
                                 slice=self.slice_index):
            self.slice.apply_partition(partition)
            line_bytes = self.slice.params.line_bytes
            flushed_bytes = self.slice.flushed_dirty_lines * line_bytes
            report = SetupReport(
                flushed_dirty_lines=self.slice.flushed_dirty_lines,
                flushed_bytes=flushed_bytes,
                flush_time_s=self.dram.flush_time_s(flushed_bytes),
                mccs=len(self.slice.mccs),
                scratchpad_bytes=(
                    self.slice.scratchpad.size_bytes
                    if self.slice.scratchpad else 0
                ),
            )
            self.state = ControllerState.PARTITIONED
        if self.telemetry.enabled:
            self.telemetry.counter(
                "freac.flushed_lines",
                "dirty LLC lines written back during way locking",
            ).inc(report.flushed_dirty_lines, slice=self.slice_index)
        return report

    def teardown(self) -> None:
        """Unlock every way and return to a plain cache slice.

        Idempotent: tearing down an already-idle slice is a no-op, so
        a duplicate teardown (e.g. an error path followed by a drain)
        can never unlock ways that a later occupant has re-locked.
        """
        if self.state is ControllerState.IDLE:
            return
        with self.telemetry.span("device.teardown", "device",
                                 slice=self.slice_index):
            self.slice.release_partition()
            self.executors = []
            self.schedule = None
            self.config_image = None
            self.state = ControllerState.IDLE

    def resize(self, partition: SlicePartition) -> ResizeReport:
        """Repartition a warm slice in place (elastic grow/shrink).

        The slice stays locked for the ways both partitions share;
        only the delta is flushed/unlocked (see
        :meth:`ReconfigurableComputeSlice.resize_partition`).  Any
        resident program is dropped — MCC membership changed — so the
        controller returns to PARTITIONED and must be reprogrammed.
        """
        if self.state is ControllerState.IDLE:
            raise ProtocolError("set up the slice before resizing")
        with self.telemetry.span("device.resize", "device",
                                 slice=self.slice_index):
            delta = self.slice.resize_partition(partition)
            self.executors = []
            self.schedule = None
            self.config_image = None
            self.state = ControllerState.PARTITIONED
            report = ResizeReport(
                delta=delta,
                flush_time_s=self.dram.flush_time_s(delta.flushed_bytes),
                mccs=len(self.slice.mccs),
                scratchpad_bytes=(
                    self.slice.scratchpad.size_bytes
                    if self.slice.scratchpad else 0
                ),
            )
        if self.telemetry.enabled:
            self.telemetry.counter(
                "freac.ways_resized",
                "ways that changed role in elastic repartitions",
            ).inc(delta.ways_changed, slice=self.slice_index)
        return report

    # ------------------------------------------------------------------
    # Step 4: configuration
    # ------------------------------------------------------------------

    def program(self, schedule: FoldingSchedule, *,
                preflight: bool = True) -> ProgramReport:
        """Instantiate the accelerator on every tile the slice can hold.

        All tiles of a slice run the same schedule in lock-step
        (Sec. III-D), so one programming call configures them all.
        ``preflight=False`` skips the per-executor schedule lint for
        callers that already vetted the schedule (e.g. the serving
        layer's admission control).
        """
        if self.state is ControllerState.IDLE:
            raise ProtocolError("set up the slice partition before programming")
        with self.telemetry.span("device.program", "device",
                                 slice=self.slice_index):
            tile_size = schedule.resources.mccs
            tiles, image = self._instantiate(schedule, preflight=preflight)
            words_total = 0
            for executor in self.executors:
                words_total += executor.load_configuration()
            words_per_mcc = (
                words_total // (len(tiles) * tile_size) if tiles else 0
            )
            # The config bus of each MCC pair loads in parallel; words for
            # one MCC stream serially at one word per cache cycle.
            config_time_s = words_per_mcc / self.clock_hz
            self.schedule = schedule
            self.config_image = image
            self.state = ControllerState.CONFIGURED
        if self.telemetry.enabled:
            self.telemetry.counter(
                "freac.config_image_writes",
                "accelerator programming operations (one per slice program)",
            ).inc(slice=self.slice_index)
        return ProgramReport(
            tiles=len(tiles),
            config_words_per_mcc=words_per_mcc,
            config_words_total=words_total,
            config_time_s=config_time_s,
            segments=self.executors[0].segments if self.executors else 0,
        )

    def reprogram(self, schedule: FoldingSchedule, *,
                  preflight: bool = False) -> ProgramReport:
        """Swap the resident program on a warm slice (live reprogram).

        Keeps the locked ways and bills only the configuration words
        that differ from the resident :class:`ConfigImage` — the
        LUTstructions-style delta write — instead of the full
        teardown→setup→program cycle.  Requires a CONFIGURED slice;
        reprogramming the already-resident schedule is free.
        """
        if self.state is not ControllerState.CONFIGURED:
            raise ProtocolError("nothing resident; use program() first")
        if schedule is self.schedule:
            return ProgramReport(
                tiles=len(self.executors),
                config_words_per_mcc=0,
                config_words_total=0,
                config_time_s=0.0,
                segments=self.executors[0].segments if self.executors else 0,
                delta=True,
                words_saved=(
                    self.config_image.total_words if self.config_image else 0
                ),
            )
        previous = self.config_image
        with self.telemetry.span("device.reprogram", "device",
                                 slice=self.slice_index):
            tile_size = schedule.resources.mccs
            tiles, image = self._instantiate(schedule, preflight=preflight)
            for executor in self.executors:
                executor.load_configuration()
            full_words = image.total_words if image else 0
            billed_words = (
                image.delta_words(previous)
                if image is not None and previous is not None
                else full_words
            )
            words_per_mcc = (
                -(-billed_words // (len(tiles) * tile_size)) if tiles else 0
            )
            config_time_s = words_per_mcc / self.clock_hz
            self.schedule = schedule
            self.config_image = image
        if self.telemetry.enabled:
            self.telemetry.counter(
                "freac.config_image_rewrites",
                "live reprograms (delta config writes on a warm slice)",
            ).inc(slice=self.slice_index)
        return ProgramReport(
            tiles=len(tiles),
            config_words_per_mcc=words_per_mcc,
            config_words_total=billed_words,
            config_time_s=config_time_s,
            segments=self.executors[0].segments if self.executors else 0,
            delta=True,
            words_saved=max(0, full_words - billed_words),
        )

    def _instantiate(
        self, schedule: FoldingSchedule, *, preflight: bool
    ) -> Tuple[List[list], Optional[ConfigImage]]:
        """Install one executor per tile for ``schedule`` (unloaded).

        Every tile has the same sub-array geometry and runs the same
        schedule, so the configuration image is generated once and
        shared read-only.  Every MCC is then switched to the schedule's
        LUT mode: a k=4 schedule addresses twice as many LUT units as a
        k=5 one, and a warm slice may switch k between programs.
        """
        tiles = self.slice.tiles(schedule.resources.mccs)
        image = (
            generate_config(
                schedule, rows_per_subarray=tiles[0][0].config_rows
            )
            if tiles else None
        )
        for mcc in self.slice.mccs:
            mcc.set_lut_mode(schedule.resources.lut_inputs)
        self.executors = [
            FoldedExecutor(
                schedule, tile, self.slice.scratchpad,
                preflight=preflight, config=image,
                telemetry=self.telemetry,
                trace_track=f"slice{self.slice_index}/tile{index}",
            )
            for index, tile in enumerate(tiles)
        ]
        return tiles, image

    def verify_configuration(self) -> bool:
        """Scrub every tile's loaded bitstream against the image.

        A pre-run integrity check (the configuration shares SRAM with
        whatever previously occupied the ways); returns False if any
        tile's rows were corrupted.
        """
        if self.state is not ControllerState.CONFIGURED:
            raise ProtocolError("nothing is programmed to verify")
        return all(
            executor.verify_configuration() for executor in self.executors
        )

    # ------------------------------------------------------------------
    # Step 5: scratchpad access
    # ------------------------------------------------------------------

    def fill_scratchpad(self, start_word: int, values: Sequence[int]) -> None:
        if self.state is ControllerState.IDLE:
            raise ProtocolError("no scratchpad: slice is not partitioned")
        if self.slice.scratchpad is None:
            raise DeviceError("partition reserved no scratchpad ways")
        self.slice.scratchpad.fill_words(start_word, values)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "scratchpad.fill_words", "operand words written by the host"
            ).inc(len(values), slice=self.slice_index)

    def read_scratchpad(self, start_word: int, count: int) -> List[int]:
        if self.state is ControllerState.IDLE:
            raise ProtocolError("no scratchpad: slice is not partitioned")
        if self.slice.scratchpad is None:
            raise DeviceError("partition reserved no scratchpad ways")
        if self.telemetry.enabled:
            self.telemetry.counter(
                "scratchpad.read_words", "result words drained by the host"
            ).inc(count, slice=self.slice_index)
        return self.slice.scratchpad.dump_words(start_word, count)

    # ------------------------------------------------------------------
    # Step 6: run
    # ------------------------------------------------------------------

    @property
    def tiles(self) -> int:
        return len(self.executors)

    def run_item(
        self,
        tile: int,
        *,
        streams=None,
        bindings=None,
        scratchpad_map: Optional[Dict[str, StreamBinding]] = None,
        item: int = 0,
    ):
        """Run one invocation on one accelerator tile."""
        if self.state is not ControllerState.CONFIGURED:
            raise ProtocolError("program the accelerator before running")
        if not 0 <= tile < len(self.executors):
            raise DeviceError(f"tile {tile} out of range")
        return self.executors[tile].run(
            streams=streams,
            bindings=bindings,
            scratchpad_map=scratchpad_map,
            item=item,
        )

    def run_batch(
        self,
        items: int,
        scratchpad_map: Dict[str, StreamBinding],
    ) -> ExecutionStats:
        """Run ``items`` invocations, item *i* on tile ``i % tiles``.

        Tiles operate in lock-step on the same schedule — the CC Ctrl
        sends one configuration address to every tile (Sec. III-C) —
        and work is "divided evenly across all available accelerator
        tiles" (Sec. V).  So the program's compiled plan runs once over
        all of the slice's items; every LUT selects through the
        configuration rows of its item's tile, and each tile is charged
        as if it had run its own items (docs/execution.md).  The result
        equals :meth:`run_batch_reference`, the per-tile oracle, in
        scratchpad contents and every counter.  Sequential netlists
        run tile by tile on :meth:`FoldedExecutor.run_batch`, which
        falls back to the reference loop.

        Returns this batch's own counters, merged over the tiles
        (:meth:`ExecutionStats.merge`).
        """
        if self.state is not ControllerState.CONFIGURED:
            raise ProtocolError("program the accelerator before running")
        try:
            return run_batch_specialized(
                self.executors, range(items), scratchpad_map=scratchpad_map
            ).stats
        except SpecializationUnsupported:
            return self._run_per_tile(FoldedExecutor.run_batch, items,
                                      scratchpad_map)

    def run_batch_reference(
        self,
        items: int,
        scratchpad_map: Dict[str, StreamBinding],
    ) -> ExecutionStats:
        """The oracle for :meth:`run_batch`: tile *t* runs items
        ``i ≡ t (mod tiles)`` through the scalar
        :meth:`FoldedExecutor.run_batch_reference` loop, tile by tile.
        Tests only."""
        return self._run_per_tile(FoldedExecutor.run_batch_reference,
                                  items, scratchpad_map)

    def _run_per_tile(
        self,
        run: Callable[..., BatchResult],
        items: int,
        scratchpad_map: Dict[str, StreamBinding],
    ) -> ExecutionStats:
        if self.state is not ControllerState.CONFIGURED:
            raise ProtocolError("program the accelerator before running")
        total = ExecutionStats()
        tiles = len(self.executors)
        for tile, executor in enumerate(self.executors):
            indices = range(tile, items, tiles)
            if indices:
                total.merge(
                    run(executor, indices, scratchpad_map=scratchpad_map).stats
                )
        return total


def run_on_slices(
    controllers: Sequence[ComputeClusterController],
    items: int,
    scratchpad_map: Dict[str, StreamBinding],
    *,
    per_slice_items: Optional[Sequence[int]] = None,
    fill: Optional[Callable[[ComputeClusterController, int, int], None]] = None,
) -> Dict[str, int]:
    """Run one batch data-parallel across programmed slice controllers.

    Items are block-distributed unless ``per_slice_items`` says
    otherwise: slice *s* runs its share against its own scratchpad,
    mirroring the paper's data-parallel decomposition.
    ``fill(controller, first, count)`` runs before each non-empty share,
    ``first`` being the share's first batch-global item.  Returns this
    batch's own counters (each slice's :meth:`ComputeClusterController.
    run_batch` return, merged, plus ``bus_words``), so repeated batches
    on the same programmed slices never double-count.
    """
    if per_slice_items is None:
        chunk = -(-items // len(controllers))
        per_slice_items = [
            max(0, min(chunk, items - index * chunk))
            for index in range(len(controllers))
        ]
    total = ExecutionStats()
    first = 0
    for controller, count in zip(controllers, per_slice_items):
        if count:
            if fill is not None:
                fill(controller, first, count)
            total.merge(controller.run_batch(count, scratchpad_map))
        first += count
    return dict(total.as_dict(), bus_words=total.bus_words)
