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
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import DeviceError, ProtocolError
from ..folding.config import ConfigImage
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
    """Cost of writing the accelerator configuration (step 4).

    Every tile takes the same words, streamed in parallel across its
    MCCs at one word per cycle per MCC: ``config_words_per_mcc`` is a
    tile's words over its MCCs (rounded up), ``config_time_s`` that
    many cache cycles, and ``config_words_total`` a tile's words times
    the tiles.
    """

    tiles: int
    config_words_per_mcc: int
    config_words_total: int
    config_time_s: float
    segments: int
    #: True when an image was resident, so only the words that differ
    #: from it were billed (a live reprogram of a warm slice).
    delta: bool = False


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
        self.telemetry = resolve(telemetry)
        self.slice_index = slice_index

    @property
    def schedule(self) -> Optional[FoldingSchedule]:
        """The resident schedule, None when nothing is programmed."""
        return self.executors[0].schedule if self.executors else None

    @property
    def config_image(self) -> Optional[ConfigImage]:
        """The resident image, None when nothing is programmed."""
        return self.executors[0].config if self.executors else None

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
            self.state = ControllerState.IDLE

    def resize(self, partition: SlicePartition) -> ResizeReport:
        """Repartition a warm slice in place (elastic grow/shrink).

        The slice stays locked for the ways both partitions share;
        only the delta is flushed/unlocked (see
        :meth:`ReconfigurableComputeSlice.resize_partition`).  Any
        resident program is dropped — MCC membership changed — so the
        controller returns to PARTITIONED and must be programmed again.
        """
        if self.state is ControllerState.IDLE:
            raise ProtocolError("set up the slice before resizing")
        with self.telemetry.span("device.resize", "device",
                                 slice=self.slice_index):
            delta = self.slice.resize_partition(partition)
            self.executors = []
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
        """Configure every tile the slice can hold with ``schedule``.

        All tiles of a slice run the same schedule in lock-step
        (Sec. III-D), so one call configures them all, each tile
        taking one block write of the schedule's image.  A fresh slice
        is a warm slice with nothing resident: the report bills the
        words that must travel, the whole image or only its delta
        against the resident one (the LUTstructions-style live
        reprogram), as :func:`repro.freac.timing.reconfig_time_s`
        does.  Programming the resident schedule again is free.
        ``preflight=False`` skips the per-executor schedule lint for
        callers that already vetted the schedule (e.g. the serving
        layer's admission control).
        """
        if self.state is ControllerState.IDLE:
            raise ProtocolError("set up the slice partition before programming")
        resident = self.config_image
        with self.telemetry.span("device.program", "device",
                                 slice=self.slice_index):
            if schedule is not self.schedule:
                tiles = self.slice.tiles(schedule.resources.mccs)
                # A k=4 schedule addresses twice as many LUT units as
                # a k=5 one, and a warm slice may switch k between
                # programs.
                for mcc in self.slice.mccs:
                    mcc.set_lut_mode(schedule.resources.lut_inputs)
                self.executors = [
                    FoldedExecutor(
                        schedule, tile, self.slice.scratchpad,
                        preflight=preflight, telemetry=self.telemetry,
                        trace_track=f"slice{self.slice_index}/tile{index}",
                    )
                    for index, tile in enumerate(tiles)
                ]
                for executor in self.executors:
                    executor.load_configuration()
                self.state = ControllerState.CONFIGURED
                if self.telemetry.enabled:
                    self.telemetry.counter(
                        "freac.config_image_writes",
                        "accelerator images written into a slice",
                    ).inc(slice=self.slice_index,
                          delta=str(resident is not None).lower())
        image = self.executors[0].config
        words = image.delta_words(resident)
        words_per_mcc = -(-words // image.mccs)
        return ProgramReport(
            tiles=len(self.executors),
            config_words_per_mcc=words_per_mcc,
            config_words_total=words * len(self.executors),
            config_time_s=words_per_mcc / self.clock_hz,
            segments=self.executors[0].segments,
            delta=resident is not None,
        )

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
