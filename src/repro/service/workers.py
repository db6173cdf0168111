"""The serving layer's one dispatch loop: claim a wave, run it, repeat.

The paper's LLC slices operate independently under their CC Ctrls
(Sec. III-E), so dispatch is a single loop: claim the highest-priority
placeable batch group (jobs + disjoint slices from the
:class:`~repro.service.placement.SlicePool`), drive its whole
:class:`~repro.freac.session.ExecutionSession` lifecycle, and repeat.
Only the number of threads running that loop varies.
``WorkerPool(service, N)`` runs it on N threads, so waves on disjoint
slice groups are in flight simultaneously — exactly how independent
slices serve independent tenants.  With ``N=0`` there are no threads:
the service's ``pump()`` steps the loop inline through :meth:`step`,
which claims every placeable wave before it runs any.

Both modes share the claim step (the service's ``_next_wave``, atomic
under the service's lock, so no job can be double-claimed or lost
between the queue and the pool), the per-wave runner (``_run_wave``)
and the crash handler (``_abandon_wave``): an exception that escapes a
wave turns into ``FAILED`` results for its jobs and releases its
slices, and the loop goes on.  Threads park on a condition variable
and are kicked by submissions, requeues, and releases; a short poll
timeout guards against missed wakeups.  :meth:`stop` lets every thread
finish its in-flight wave and joins it, so by the time it returns
every lease has been checked back in.

The pool refers to its service weakly: the service owns the pool, and
a strong back-reference would keep every shut-down service alive until
a full garbage collection.  A running thread holds the service while
it runs.
"""

from __future__ import annotations

import logging
import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..errors import ServiceError
from .jobs import Job
from .placement import Placement
from .programs import CompiledProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..freac.session import ExecutionSession
    from .elastic import ElasticLease
    from .service import AcceleratorService

logger = logging.getLogger("repro.service")


@dataclass
class Wave:
    """One claimed unit of work: a batch group plus its placement.

    ``released`` makes placement release idempotent — whichever of the
    normal path, the error path, or the loop's last-resort handler
    gets there first wins, and the others are no-ops.
    """

    jobs: List[Job]
    placement: Placement
    compiled: CompiledProgram
    session: Optional["ExecutionSession"] = None
    released: bool = field(default=False)
    #: The way lease this wave runs under.  Checked back in by
    #: ``_close_wave_session`` (always, even on error paths) so the
    #: slice's ways can return to the cache.
    lease: Optional["ElasticLease"] = None
    #: Jobs left queued when this wave was claimed: the backlog its
    #: lease is sized for, even when the wave runs after the rest of
    #: an inline step's claims.
    queue_depth: int = 0


class WorkerPool:
    """The dispatch loop, run by ``count`` threads (0 = inline steps)."""

    #: Condition re-check cadence; a backstop against missed wakeups,
    #: not the scheduling latency (kicks wake workers immediately).
    _POLL_S = 0.05

    #: Mutated only under ``self._cv`` (the service lock) — enforced
    #: by ``repro.analysis.selfcheck`` in CI.
    _GUARDED_BY_LOCK = ("_stopping", "_busy")

    def __init__(self, service: "AcceleratorService", count: int) -> None:
        self._service = weakref.ref(service)
        self.count = count
        # One lock for queue + pool + job state: the service's.
        self._cv = threading.Condition(service._lock)
        self._stopping = False
        self._busy = 0
        self._threads = [
            threading.Thread(
                target=self._run, args=(index,),
                name=f"freac-worker-{index}", daemon=True,
            )
            for index in range(count)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Signals from the service
    # ------------------------------------------------------------------

    def kick(self) -> None:
        """Wake parked workers (new job, requeue, or freed slices)."""
        with self._cv:
            self._cv.notify_all()

    @property
    def busy(self) -> int:
        """Waves currently executing."""
        return self._busy

    def stop(self, *, timeout_s: Optional[float] = None) -> None:
        """Stop every thread after its in-flight wave and join it.

        No wave is ever abandoned mid-flight, so every session is torn
        down before this returns.  Raises :class:`ServiceError` if a
        worker fails to stop within ``timeout_s``.
        """
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout_s)
            if thread.is_alive():
                raise ServiceError(
                    f"{thread.name} did not stop within {timeout_s}s "
                    "(a wave is stuck; its jobs are still RUNNING)"
                )

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """One inline pass of the loop, for a pool without threads.

        Claims every placeable wave before running any, so the waves of
        one step co-reside on disjoint slices, then runs them in claim
        order.
        """
        service = self._service()
        assert service is not None
        with self._cv:
            waves = list(iter(service._next_wave, None))
        for wave in waves:
            self._dispatch(service, wave, worker=0)
        service.elastic.maybe_reclaim()

    def _run(self, index: int) -> None:
        service = self._service()
        if service is None:     # dropped before this thread started
            return
        while True:
            wave = self._claim(service)
            if wave is None:
                return
            self._dispatch(service, wave, worker=index)

    def _claim(self, service: "AcceleratorService") -> Optional[Wave]:
        """Block until a wave is claimable or the pool is stopping."""
        with self._cv:
            while not self._stopping:
                wave = service._next_wave()
                if wave is not None:
                    return wave
                self._cv.wait(timeout=self._POLL_S)
                # Idle poll: give the way partitioner a chance to
                # return ways nobody has leased back to the cache.
                # Lock order is service -> elastic (elastic is a leaf).
                service.elastic.maybe_reclaim()
        return None

    def _dispatch(self, service: "AcceleratorService", wave: Wave,
                  worker: int) -> None:
        """Run one claimed wave; a crash costs the wave, never the loop."""
        with self._cv:
            self._busy += 1
        try:
            service._run_wave(wave, worker)
        except Exception as exc:  # last resort: never lose the wave
            logger.exception(
                "worker %d: wave of %d job(s) crashed", worker,
                len(wave.jobs),
            )
            service._abandon_wave(wave, exc)
        finally:
            with self._cv:
                self._busy -= 1
