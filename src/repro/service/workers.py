"""The worker pool: concurrent wave dispatch for the serving layer.

The paper's LLC slices operate independently under their CC Ctrls
(Sec. III/V), so nothing about the hardware model forces the serving
layer to run one wave at a time.  ``WorkerPool`` gives
:class:`~repro.service.service.AcceleratorService` N dispatch threads:
each worker claims the highest-priority placeable batch group (jobs +
disjoint slices from the :class:`~repro.service.placement.SlicePool`),
drives the whole :class:`~repro.freac.session.ExecutionSession`
lifecycle for it, and loops.  Waves on disjoint slice groups are in
flight simultaneously — exactly how independent slices serve
independent tenants.

Coordination deliberately shares the *service's* lock: claiming a wave
(queue pop + deadline check + placement) is atomic with respect to
``submit``/``cancel``/``stats``, so no job can be double-claimed or
lost between the queue and the pool.  Workers park on a condition
variable and are kicked by submissions, requeues, and releases; a
short poll timeout guards against missed wakeups.

A worker never dies with work in hand: any exception that escapes the
wave runner is turned into ``FAILED`` results for the wave's jobs and
the placement is released, then the worker goes back to claiming.
Shutdown is graceful by default — ``stop(drain=True)`` lets workers
empty the queue first — and always joins the threads, so by the time
``stop`` returns every session has been torn down.
"""

from __future__ import annotations

import logging
import threading
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
    normal path, the error path, or the worker's last-resort handler
    gets there first wins, and the others are no-ops.
    """

    jobs: List[Job]
    placement: Placement
    compiled: CompiledProgram
    session: Optional["ExecutionSession"] = None
    released: bool = field(default=False)
    #: Elastic serving only: the way lease this wave runs under.
    #: Checked back in by ``_close_wave_session`` (always, even on
    #: error paths) so an idle slice's ways can return to the cache.
    lease: Optional["ElasticLease"] = None


class WorkerPool:
    """N threads dispatching waves onto free slice groups."""

    #: Condition re-check cadence; a backstop against missed wakeups,
    #: not the scheduling latency (kicks wake workers immediately).
    _POLL_S = 0.05

    #: Mutated only under ``self._cv`` (the service lock) — enforced
    #: by ``repro.analysis.selfcheck`` in CI.
    _GUARDED_BY_LOCK = ("_stopping", "_draining", "_busy")

    def __init__(self, service: "AcceleratorService", count: int) -> None:
        if count < 1:
            raise ServiceError("a worker pool needs at least one worker")
        self.service = service
        self.count = count
        # One lock for queue + pool + job state: the service's.
        self._cv = threading.Condition(service._lock)
        self._stopping = False
        self._draining = True
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
        """Workers currently executing a wave."""
        return self._busy

    @property
    def alive(self) -> int:
        return sum(1 for thread in self._threads if thread.is_alive())

    def stop(self, *, drain: bool = True,
             timeout_s: Optional[float] = None) -> None:
        """Stop the pool and join every worker.

        ``drain=True`` (the default) lets workers keep claiming waves
        until the queue is empty; ``drain=False`` stops them after the
        wave they are currently executing — either way no wave is ever
        abandoned mid-flight, so every session is torn down before
        this returns.  Raises :class:`ServiceError` if a worker fails
        to stop within ``timeout_s``.
        """
        with self._cv:
            self._stopping = True
            self._draining = drain
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout_s)
            if thread.is_alive():
                raise ServiceError(
                    f"{thread.name} did not stop within {timeout_s}s "
                    "(a wave is stuck; its jobs are still RUNNING)"
                )

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _run(self, index: int) -> None:
        service = self.service
        while True:
            wave = self._claim()
            if wave is None:
                return
            try:
                service._run_wave(wave, worker=index)
            except Exception as exc:  # last resort: never lose the wave
                logger.exception(
                    "worker %d: wave of %d job(s) crashed", index,
                    len(wave.jobs),
                )
                service._abandon_wave(wave, exc)
            finally:
                self._wave_done()

    def _claim(self) -> Optional[Wave]:
        """Block until a wave is claimable or the pool is stopping."""
        service = self.service
        with self._cv:
            while True:
                if self._stopping and (
                    not self._draining or len(service.queue) == 0
                ):
                    return None
                wave = service._next_wave()
                if wave is not None:
                    self._busy += 1
                    return wave
                self._cv.wait(timeout=self._POLL_S)
                # Idle poll: give the elastic partitioner a chance to
                # return ways nobody has leased back to the cache.
                # Lock order is service -> elastic (elastic is a leaf).
                service._elastic_tick()

    def _wave_done(self) -> None:
        with self._cv:
            self._busy -= 1
            self._cv.notify_all()
