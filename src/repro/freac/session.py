"""``ExecutionSession``: one accelerator lifecycle as a context manager.

The session owns the Fig. 5 flow — select/flush/lock ways, write the
configuration, fill operands, run, unlock — and tears down on every
error path:

    with ExecutionSession(device, partition, slices=(0, 2)) as session:
        session.program(program, mccs_per_tile=2)
        totals, mismatched = session.execute(dataset, layout)
    # ways are unlocked here, even if execute() raised

It pins the slice indices it claimed and the telemetry sink, so the
runner and the serving layer are thin callers.

Serving waves run lease → attach → program → run → check-in instead:
a way partitioner's lease locks (or keeps) the ways, an
``attach=True`` session verifies that partition rather than flushing
again and never unlocks, and the lease's check-in decides when the
ways return to the cache.
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from ..errors import DeviceError, ProtocolError
from ..telemetry import Telemetry
from .ccctrl import (
    ComputeClusterController,
    ControllerState,
    ProgramReport,
    SetupReport,
    run_on_slices,
)
from .compute_slice import SlicePartition
from .device import AcceleratorProgram, FreacDevice
from .executor import StreamBinding


class ExecutionSession:
    """Owns ``setup → program → fill/run → teardown`` on one device.

    Entering the session partitions the chosen slices; leaving it —
    normally or via an exception — releases them back to plain cache.
    An ``attach=True`` session does neither: it runs on slices a
    partitioner has already locked and leaves them locked.  A session
    is single-use: re-entering a closed session raises.
    """

    def __init__(
        self,
        device: FreacDevice,
        partition: Optional[SlicePartition] = None,
        *,
        slices: Union[int, Sequence[int], None] = None,
        telemetry: Optional[Telemetry] = None,
        attach: bool = False,
    ) -> None:
        self.device = device
        self.partition = partition or SlicePartition(
            compute_ways=4, scratchpad_ways=4
        )
        if telemetry is not None:
            device.set_telemetry(telemetry)
        self.telemetry = device.telemetry
        self._requested_slices = slices
        self.slice_indices: Tuple[int, ...] = ()
        self.setup_reports: List[SetupReport] = []
        self.program_reports: List[ProgramReport] = []
        self._attach = attach
        self._active = False
        self._used = False
        self._lifecycle_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "ExecutionSession":
        with self._lifecycle_lock:
            if self._active:
                raise ProtocolError("the session is already active")
            if self._used:
                raise ProtocolError(
                    "a session is single-use; create a new one"
                )
            # Claim single-use up front: even a failed setup burns the
            # session, so a retry can never race a half-torn one.
            self._used = True
        self.slice_indices = tuple(
            self.device._resolve_slices(self._requested_slices)
        )
        if self._attach:
            # Attach (serving): an ElasticPartitioner has already
            # partitioned these slices under a lease; verify instead of
            # re-flushing.
            for index in self.slice_indices:
                controller = self.device.controllers[index]
                if controller.state is ControllerState.IDLE:
                    raise ProtocolError(
                        f"cannot attach to idle slice {index}; it is "
                        "not partitioned"
                    )
                if controller.slice.partition != self.partition:
                    raise ProtocolError(
                        f"slice {index} holds partition "
                        f"{controller.slice.partition}, session wants "
                        f"{self.partition}"
                    )
            self.setup_reports = []
        else:
            self.setup_reports = self.device._setup_slices(
                self.partition, self.slice_indices
            )
        with self._lifecycle_lock:
            self._active = True
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Release the session's slices (idempotent, single-shot).

        The active flag is cleared atomically *before* the teardown
        runs, so a second ``close()``/``__exit__`` — from an error
        path, a ``finally`` block, or a concurrent drain — is a no-op
        rather than a second teardown.  Without this, a late duplicate
        close could re-free ways that a *newer* session has since
        locked on the same slices, corrupting its partition.
        """
        with self._lifecycle_lock:
            if not self._active:
                return
            self._active = False
        try:
            # An attached session's ways belong to the partitioner that
            # leased them; it unlocks them at check-in or when idle.
            if not self._attach:
                self.device._teardown_slices(self.slice_indices)
        finally:
            self.program_reports = []

    @property
    def active(self) -> bool:
        return self._active

    @property
    def programmed(self) -> bool:
        return bool(self.program_reports)

    @property
    def controllers(self) -> List[ComputeClusterController]:
        self._require_active()
        return [self.device.controllers[i] for i in self.slice_indices]

    def _require_active(self) -> None:
        if not self._active:
            raise ProtocolError("the session is not active; use `with`")

    def _require_programmed(self) -> None:
        self._require_active()
        if not self.program_reports:
            raise ProtocolError("program the session before running")

    # ------------------------------------------------------------------
    # Fig. 5 steps 4-6
    # ------------------------------------------------------------------

    def program(
        self,
        program: AcceleratorProgram,
        mccs_per_tile: int = 1,
        *,
        preflight: bool = True,
    ) -> List[ProgramReport]:
        """Write the accelerator bitstream into every session slice.

        A merely partitioned slice is billed the full config write; one
        that already holds a program (a warm slice a partitioner kept
        locked) only the delta against it
        (:meth:`ComputeClusterController.program`).
        """
        self._require_active()
        schedule = program.schedule_for(mccs_per_tile)
        self.program_reports = [
            controller.program(schedule, preflight=preflight)
            for controller in self.controllers
        ]
        return self.program_reports

    def fill(self, start_word: int, values: Sequence[int],
             *, slice_index: int = 0) -> None:
        """Fill one session slice's scratchpad (host push, step 5)."""
        self._require_active()
        self._controller(slice_index).fill_scratchpad(start_word, values)

    def read(self, start_word: int, count: int,
             *, slice_index: int = 0) -> List[int]:
        """Drain result words from one session slice's scratchpad."""
        self._require_active()
        return self._controller(slice_index).read_scratchpad(
            start_word, count
        )

    def _controller(self, slice_index: int) -> ComputeClusterController:
        if not 0 <= slice_index < len(self.slice_indices):
            raise DeviceError(
                f"session slice {slice_index} out of range "
                f"0..{len(self.slice_indices) - 1}"
            )
        return self.device.controllers[self.slice_indices[slice_index]]

    def run_batch(
        self,
        items: int,
        scratchpad_map: Dict[str, StreamBinding],
        *,
        per_slice_items: Optional[Sequence[int]] = None,
    ) -> Dict[str, int]:
        """Run a batch data-parallel across the session's slices.

        Same contract as ``FreacDevice.run_batch`` (this batch's own
        counters), but scoped to this session's slices.
        """
        self._require_programmed()
        return run_on_slices(self.controllers, items, scratchpad_map,
                             per_slice_items=per_slice_items)

    def execute(self, dataset, layout, *, pe=None):
        """Fill, run, and verify a whole dataset batch on the session.

        Thin wrapper over
        :func:`repro.freac.runner.execute_on_controllers` that supplies
        the session's controllers and telemetry.  Returns
        ``(totals, mismatched_item_indices)``.
        """
        self._require_programmed()
        from .runner import execute_on_controllers

        return execute_on_controllers(
            self.controllers, dataset, layout,
            pe=pe, telemetry=self.telemetry,
        )
