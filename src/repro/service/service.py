"""``AcceleratorService``: device pool + job scheduler + admission.

The runtime between many callers and a pool of
:class:`~repro.freac.device.FreacDevice` instances.  One *wave* does:

1. **Claim** — pop the highest-priority batch group (same-benchmark
   jobs merge into one run), expiring jobs whose deadline passed, and
   claim disjoint slices for it from the pool (best-fit packing, so
   independent jobs co-reside on one device);
2. **Lease and program** — lease exactly those slices from the way
   partitioner (:mod:`repro.service.elastic`), attach a session to
   the locked ways and program them from the compiled-program cache
   entry;
3. **Execution** — re-check deadlines, fill scratchpads, run, verify,
   with bounded retry: a :class:`~repro.errors.CapacityError` (batch
   too big for the scratchpad) resubmits the chunk at half size
   instead of failing;
4. **Completion** — per-job results, latency samples, lease check-in,
   slice release.

That is one lifecycle for both partitioning policies.  A static
service pins the partitioner to its ``partition``: each lease locks
the ways and each check-in unlocks them, the paper's per-offload
lock → run → unlock.  An elastic one (``elastic=``) resizes slices
with load and keeps them locked and programmed between waves.

Dispatch is one loop — claim a placed wave, run it, repeat — owned by
:class:`~repro.service.workers.WorkerPool`; ``workers`` only sets how
many threads run it:

* ``workers=0`` (the default) starts no threads: ``pump()`` steps the
  loop inline, claiming every placeable wave before running each, and
  ``result()``/``drain()`` pump until done — fully deterministic.
* ``workers=N`` runs the loop on N threads that claim waves as slices
  free up, so waves on disjoint slice groups are in flight
  simultaneously — the paper's independent slices serving independent
  tenants.  ``submit`` stays non-blocking (a full bounded queue
  rejects with ``SATURATED`` backpressure) and ``result``/``drain``
  block on a condition variable.

``shutdown`` drains through ``drain()`` in both modes, then stops the
threads before unlocking the devices.  The service is single-process:
this is a simulator, not an RPC server, but it exercises the real
multi-tenant mechanics — priority, co-residency, batching, rejection,
deadline, retry, backpressure, and crash-safe shutdown.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..circuits.library import build_pe
from ..errors import (
    CapacityError,
    ConfigurationError,
    ReproError,
    RequestError,
    ServiceError,
)
from ..freac.compute_slice import SlicePartition
from ..freac.device import FreacDevice
from ..freac.runner import plan_layout
from ..freac.session import ExecutionSession
from ..freac.timing import kernel_timing
from ..optimizer import OptimizerConfig
from ..params import SystemParams
from ..power.energy import EnergyModel
from ..telemetry import Telemetry
from ..telemetry.core import resolve
from ..workloads.datagen import Dataset, dataset_for
from .elastic import ElasticConfig, ElasticPartitioner
from .jobs import Job, JobQueue, JobRequest, JobResult, JobState
from .placement import SlicePool
from .programs import CompiledProgram, ProgramCache
from .stats import LatencyTracker, ServiceStats
from .workers import Wave, WorkerPool

logger = logging.getLogger("repro.service")

_ZERO_TOTALS = {
    "invocations": 0,
    "lut_evaluations": 0,
    "mac_operations": 0,
    "bus_words": 0,
}

#: Terminal state -> the ``ServiceStats`` counter it bumps.
_STATE_COUNTERS = {
    JobState.DONE: "completed",
    JobState.REJECTED: "rejected",
    JobState.FAILED: "failed",
    JobState.CANCELLED: "cancelled",
    JobState.TIMED_OUT: "timed_out",
    JobState.SATURATED: "saturated",
}


class _WaveDeadline(Exception):
    """Internal: a wave's end-to-end deadline passed mid-execution.

    Deliberately *not* a :class:`ReproError` subclass, so the generic
    run-failure handler cannot swallow it into ``FAILED`` — the wave
    aborter decides per job between ``TIMED_OUT`` and a requeue.
    """


class AcceleratorService:
    """A multi-tenant serving layer over a pool of FReaC devices."""

    #: Mutated only under ``self._lock`` (``_job_cv`` wraps the same
    #: lock) — enforced by ``repro.analysis.selfcheck`` in CI.
    _GUARDED_BY_LOCK = (
        "_next_id", "jobs", "_results", "_compiled", "_counters",
        "_closed", "latencies",
    )

    def __init__(
        self,
        *,
        devices: int = 1,
        system: Optional[SystemParams] = None,
        partition: Optional[SlicePartition] = None,
        cache: Optional[ProgramCache] = None,
        cache_dir: Optional[str] = None,
        cache_namespace: Optional[str] = None,
        max_retries: int = 2,
        batching: bool = True,
        telemetry: Optional[Telemetry] = None,
        optimizer: Optional[OptimizerConfig] = None,
        workers: int = 0,
        max_queue_depth: Optional[int] = None,
        wave_latency_s: Optional[float] = None,
        item_latency_s: Optional[float] = None,
        elastic: Union[ElasticConfig, bool, None] = None,
        done_callback: Optional[Callable[[Job], None]] = None,
    ) -> None:
        if devices < 1:
            raise ServiceError("the service needs at least one device")
        if workers < 0:
            raise ServiceError("workers must be >= 0 (0 = synchronous)")
        if wave_latency_s is not None and wave_latency_s < 0:
            raise ServiceError("wave latency must be non-negative")
        if item_latency_s is not None and item_latency_s < 0:
            raise ServiceError("item latency must be non-negative")
        self.telemetry = resolve(telemetry)
        self.partition = partition or SlicePartition(
            compute_ways=4, scratchpad_ways=4
        )
        if self.partition.scratchpad_ways == 0:
            raise ServiceError("the service partition needs scratchpad ways")
        self.devices = [
            FreacDevice(system, telemetry=self.telemetry)
            for _ in range(devices)
        ]
        self.pool = SlicePool([d.slice_count for d in self.devices])
        # Not `cache or ...`: an empty ProgramCache is falsy (len == 0).
        self.cache = (
            cache if cache is not None
            else ProgramCache(
                directory=cache_dir, telemetry=self.telemetry,
                namespace=cache_namespace,
            )
        )
        self.max_retries = max_retries
        self.batching = batching
        #: Base config for ``submit(..., optimize=True)`` jobs.
        self.optimizer = optimizer or OptimizerConfig()
        #: Emulated device-busy time per wave: the host blocks this long
        #: after each wave's compute, standing in for the interval the
        #: cache-side accelerator would own the work (the simulator
        #: otherwise burns host CPU *as* the device model).  Workers
        #: overlap these intervals across disjoint slices — the
        #: concurrency the paper's independent slices actually buy.
        #: ``item_latency_s`` is the per-invocation variant: the busy
        #: interval grows with the wave's merged item count, so total
        #: emulated device time is conserved under batch merging (a
        #: deeper queue must not make a shard look faster by merging
        #: its sleep away).
        self.wave_latency_s = wave_latency_s
        self.item_latency_s = item_latency_s
        #: Energy bookkeeping for items/s-per-watt stats.
        self.energy_model = EnergyModel()
        #: The way partitioner every wave leases its slices from
        #: (docs/elastic.md).  ``True`` or an :class:`ElasticConfig`
        #: grows and shrinks each slice's compute/cache split with load
        #: and keeps warm slices locked and programmed between waves;
        #: without it the pinned policy locks ``partition`` for each
        #: wave and returns the ways to the cache at check-in.
        self.elastic = ElasticPartitioner(
            self.devices,
            self.partition,
            elastic if isinstance(elastic, ElasticConfig)
            else ElasticConfig() if elastic
            else ElasticConfig.pinned(self.partition.compute_ways),
            energy=self.energy_model,
            clocking=self.devices[0].system.clocking,
        )
        #: The widest tile any lease can hold; wider requests are refused
        #: at submit instead of failing when their wave is programmed.
        self.max_tile_mccs = SlicePartition(
            self.elastic.max_ways, self.partition.scratchpad_ways,
            self.partition.total_ways,
        ).mccs()
        #: Invoked once per job, on the thread that finished it, as the
        #: last step of ``_finish``: the job's result, counters and
        #: telemetry are all recorded by then (the gateway shard sends
        #: the result from here).  A cancel or a deadline found at claim
        #: finishes its job under the service lock, so the hook must
        #: not wait on the service.  Exceptions are logged, never
        #: propagated into the finishing wave.
        self.done_callback = done_callback

        # One re-entrant lock is the root of the ordering discipline:
        # service lock first, component locks (queue/pool/cache/metric)
        # only underneath it, never the reverse.
        self._lock = threading.RLock()
        self._job_cv = threading.Condition(self._lock)

        self.queue = JobQueue(max_depth=max_queue_depth)
        #: Jobs not yet terminal.  A finished job leaves only its
        #: result behind, so a long-lived service holds no request or
        #: timing record per job it has served.
        self.jobs: Dict[int, Job] = {}
        self._results: Dict[int, JobResult] = {}
        self._compiled: Dict[int, CompiledProgram] = {}
        self._next_id = 1
        self.latencies = LatencyTracker()
        self._counters = {
            "submitted": 0, "completed": 0, "rejected": 0, "failed": 0,
            "cancelled": 0, "timed_out": 0, "saturated": 0, "requeued": 0,
            "retries": 0, "batches": 0, "batched_jobs": 0,
            "warm_waves": 0, "device_s": 0.0, "energy_j": 0.0,
            "energy_items": 0,
        }
        self._closed = False
        # Construct last: worker threads start claiming immediately and
        # touch everything above.
        self.workers = WorkerPool(self, workers)

    def __enter__(self) -> "AcceleratorService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Drain on a clean exit; on an exception just stop and unlock.
        self.shutdown(drain=exc_type is None, timeout_s=60.0)
        return False

    # ------------------------------------------------------------------
    # Front end: submit / result / cancel
    # ------------------------------------------------------------------

    def submit(
        self,
        benchmark: str,
        items: int,
        *,
        priority: int = 0,
        mccs_per_tile: int = 1,
        lut_inputs: int = 5,
        slices: int = 1,
        timeout_s: Optional[float] = None,
        seed: int = 0,
        dataset: Optional[Dataset] = None,
        optimize: bool = False,
        opt_budget_s: Optional[float] = None,
    ) -> Job:
        """Admit one request; returns its :class:`Job` immediately.

        Invalid *requests* raise :class:`~repro.errors.RequestError`;
        programs whose lint reports carry error findings are admitted
        as ``REJECTED`` jobs whose result holds the full
        :class:`~repro.analysis.AnalysisReport` — admission never
        crashes mid-run.  With a bounded queue, a job that finds it
        full is returned ``SATURATED`` (backpressure, not an
        exception): the caller decides whether to retry later.
        """
        if self._closed:
            raise ServiceError("the service is shut down")
        if items < 1:
            raise RequestError("a job needs at least one item")
        if not 1 <= slices <= self.pool.max_slices:
            raise RequestError(
                f"a job may use 1..{self.pool.max_slices} slices, "
                f"not {slices}"
            )
        if dataset is not None:
            if dataset.items != items:
                raise RequestError(
                    f"dataset has {dataset.items} items but {items} "
                    "were requested"
                )
            if dataset.benchmark != benchmark.upper():
                raise RequestError(
                    f"dataset is for {dataset.benchmark}, "
                    f"not {benchmark.upper()}"
                )

        if opt_budget_s is not None and opt_budget_s <= 0:
            raise RequestError("the optimizer budget must be positive")
        if not 1 <= mccs_per_tile <= self.max_tile_mccs:
            raise RequestError(
                f"a tile may use 1..{self.max_tile_mccs} MCCs, "
                f"not {mccs_per_tile}"
            )

        # Compile outside the service lock: the cache has its own, and
        # a cold compile is the slowest thing admission ever does.
        # An optimizing submission compiles (and caches) under its own
        # content address — a first ``optimize=True`` job pays the
        # time-boxed search once, every repeat is a warm hit on the
        # shorter-fold program.
        opt_config: Optional[OptimizerConfig] = None
        if optimize:
            opt_config = (
                self.optimizer.replace(budget_s=opt_budget_s)
                if opt_budget_s is not None else self.optimizer
            )
        try:
            compiled, cache_hit = self.cache.lookup(
                benchmark, lut_inputs=lut_inputs,
                mccs_per_tile=mccs_per_tile, optimizer=opt_config,
            )
        except (KeyError, ConfigurationError) as exc:
            raise RequestError(str(exc)) from None

        request = JobRequest(
            benchmark=benchmark.upper(), items=items, priority=priority,
            mccs_per_tile=mccs_per_tile, lut_inputs=lut_inputs,
            slices=slices, timeout_s=timeout_s, seed=seed, dataset=dataset,
            optimize=optimize, opt_budget_s=opt_budget_s,
        )
        with self._lock:
            # Re-checked in the step that registers the job: a shutdown
            # that landed during the compile above has already cancelled
            # its leftovers, stopped the loop and torn the devices down.
            if self._closed:
                raise ServiceError("the service is shut down")
            job = Job(
                id=self._next_id, request=request,
                submitted_at=time.perf_counter(),
                cache_hit=cache_hit,
            )
            self._next_id += 1
            self.jobs[job.id] = job
            self._counters["submitted"] += 1
            queued = False
            if compiled.ok:
                self._compiled[job.id] = compiled
                queued = self.queue.offer(job)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "service.submissions", "jobs offered to admission"
            ).inc(benchmark=request.benchmark)

        if not compiled.ok:
            report = compiled.admission_report()
            self._admission_outcome("rejected")
            self._finish(job, JobState.REJECTED, admission=report,
                         error=f"{len(report.errors)} lint error(s)")
            return job
        if not queued:
            self._admission_outcome("saturated")
            self._finish(
                job, JobState.SATURATED,
                error=(
                    f"queue is full ({self.queue.max_depth} jobs pending); "
                    "retry later"
                ),
            )
            return job
        self._admission_outcome("accepted")
        self.elastic.note_submit()
        self._gauge_queue_depth()
        self.workers.kick()
        return job

    def _admission_outcome(self, outcome: str) -> None:
        if self.telemetry.enabled:
            self.telemetry.counter(
                "service.admission", "admission outcomes"
            ).inc(outcome=outcome)

    def submit_request(self, request) -> Job:
        """Admit one :class:`repro.request.RunRequest`.

        The CLI front ends build a validated request object once and
        hand it over whole instead of re-threading each knob.
        """
        return self.submit(
            request.benchmark, request.items, **request.submit_kwargs()
        )

    def result(self, job: Union[Job, int],
               timeout_s: Optional[float] = None) -> JobResult:
        """Block until the job is terminal.

        Without worker threads this pumps the loop inline; with them it
        parks on the completion condition until a worker finishes the
        job.  Raises :class:`ServiceError` if ``timeout_s`` elapses
        first (the job itself keeps whatever state it has).
        """
        target = self._resolve(job)
        if isinstance(target, JobResult):
            return target
        self._wait(lambda: target.done, timeout_s,
                   f"job {target.id} not finished within {timeout_s}s")
        assert target.result is not None
        return target.result

    def cancel(self, job: Union[Job, int]) -> bool:
        """Cancel a still-queued job; running/terminal jobs are not."""
        job = self._resolve(job)
        if isinstance(job, JobResult):
            return False
        with self._lock:
            # The state check and the finish are one atomic step, so a
            # worker claiming this job concurrently either beats the
            # cancel (state already RUNNING) or loses it cleanly (the
            # queue compacts terminal jobs away).
            if job.state is not JobState.PENDING:
                return False
            self._finish(job, JobState.CANCELLED, error="cancelled by caller")
            return True

    def _resolve(self, job: Union[Job, int]) -> Union[Job, JobResult]:
        """The job an id names, or the result it left if it finished."""
        if isinstance(job, Job):
            return job
        with self._lock:
            found = self.jobs.get(job) or self._results.get(job)
        if found is None:
            raise ServiceError(f"unknown job id {job!r}")
        return found

    # ------------------------------------------------------------------
    # The dispatch loop: claim a wave, run it (repeat in WorkerPool)
    # ------------------------------------------------------------------

    def pump(self) -> int:
        """Step the dispatch loop inline; returns jobs brought to terminal.

        One step claims every placeable wave, so independent jobs
        co-reside on disjoint slices, then runs each through the loop's
        runner.  Only a service without worker threads may pump — with
        threads, the workers *are* the loop, and pumping would race
        them.
        """
        if self.workers.count:
            raise ServiceError(
                "pump() drives a synchronous service; this one dispatches "
                "through worker threads — use result(), drain(), or "
                "shutdown() instead"
            )
        before = self._finished_total()
        self.workers.step()
        return self._finished_total() - before

    def _finished_total(self) -> int:
        with self._lock:
            return sum(self._counters[key] for key in _STATE_COUNTERS.values())

    def _wait(self, done: Callable[[], bool], timeout_s: Optional[float],
              error: str) -> None:
        """Block until ``done()``; raise ``ServiceError(error)`` after
        ``timeout_s``.  Pumps when there are no worker threads, parks
        on the completion condition otherwise."""
        deadline = (
            time.perf_counter() + timeout_s if timeout_s is not None else None
        )
        while True:
            with self._job_cv:
                if done():
                    return
                remaining = (
                    deadline - time.perf_counter()
                    if deadline is not None else 0.1
                )
                if remaining <= 0:
                    raise ServiceError(error)
                if self.workers.count:
                    self._job_cv.wait(timeout=min(0.1, remaining))
                    continue
            self.pump()

    def _expired(self, job: Job) -> bool:
        limit = job.request.timeout_s
        if limit is None:
            return False
        waited = time.perf_counter() - job.submitted_at
        if waited <= limit:
            return False
        self._finish(
            job, JobState.TIMED_OUT,
            error=f"deadline of {limit}s exceeded after {waited:.3f}s",
        )
        return True

    def _next_wave(self) -> Optional[Wave]:
        """Claim one placed batch group; ``None`` when nothing placeable.

        The caller must hold ``self._lock`` (the worker pool's
        condition shares it): pop + expiry + placement + the RUNNING
        flip are one atomic step, so no job can be double-claimed,
        cancelled mid-claim, or lost between queue and pool.
        """
        while True:
            group = self.queue.pop_group(batch=self.batching)
            if not group:
                return None
            live = [job for job in group if not self._expired(job)]
            if not live:
                continue
            placement = self.pool.acquire(live[0].request.slices)
            if placement is None:
                self.queue.requeue(live)
                return None
            now = time.perf_counter()
            for job in live:
                job.state = JobState.RUNNING
                job.started_at = now
            if self.telemetry.enabled:
                hist = self.telemetry.histogram(
                    "service.queue_wait_s",
                    "seconds between submission and placement",
                )
                for job in live:
                    hist.observe(now - job.submitted_at)
            self._gauge_queue_depth()
            return Wave(
                jobs=live, placement=placement,
                compiled=self._compiled[live[0].id],
                queue_depth=len(self.queue),
            )

    def _run_wave(self, wave: Wave, worker: int) -> None:
        """Drive one claimed wave's whole lifecycle on the loop's
        ``worker`` (a thread, or 0 for an inline pump)."""
        tel = self.telemetry
        jobs = wave.jobs
        if tel.enabled:
            tel.gauge(
                "service.worker_busy",
                "1 while this worker is executing a wave",
            ).set(1, worker=worker)
            tel.gauge(
                "service.workers_busy",
                "workers currently executing waves",
            ).set(self.workers.busy)
            tel.counter(
                "service.worker_waves", "waves dispatched, per worker"
            ).inc(worker=worker)
        try:
            try:
                self._open_wave_session(wave)
            except ReproError as exc:
                logger.warning(
                    "worker %d: programming a wave of %d job(s) failed: %s",
                    worker, len(jobs), exc,
                )
                for job in jobs:
                    self._finish(job, JobState.FAILED,
                                 error=f"{type(exc).__name__}: {exc}")
                return
            with tel.span(
                "service.worker_wave", "service",
                worker=worker, benchmark=wave.compiled.benchmark,
                jobs=len(jobs),
            ):
                self._execute_wave(wave)
        finally:
            self._close_wave_session(wave)
            if tel.enabled:
                tel.gauge(
                    "service.worker_busy",
                    "1 while this worker is executing a wave",
                ).set(0, worker=worker)
            self._release_wave(wave)

    def _open_wave_session(self, wave: Wave) -> None:
        """Lease, attach and program one wave's session.

        The lease is a cold setup, an in-place resize or a warm attach;
        the program is a full write on a fresh slice and a delta on a
        warm one.  Lease and session go on the wave as soon as they
        exist, so ``_close_wave_session`` checks the lease back in on
        every path, a failed program included.
        """
        placement, compiled = wave.placement, wave.compiled
        wave.lease = self.elastic.lease(
            placement,
            queue_depth=wave.queue_depth,
            deadline_slack_s=self._tightest_slack(wave.jobs),
            schedule=compiled.schedule,
            items=sum(job.request.items for job in wave.jobs),
        )
        wave.session = ExecutionSession(
            self.devices[placement.device], wave.lease.partition,
            slices=placement.slices, attach=True,
        )
        wave.session.__enter__()
        # Admission already linted this program's schedule (the report
        # ships with the cache entry), so skip the per-executor
        # preflight repeat.
        reports = wave.session.program(
            compiled.to_accelerator(), compiled.mccs_per_tile,
            preflight=False,
        )
        # Bill the config words that actually travelled (the full
        # bitstream on a fresh slice, the delta on a warm one) onto
        # the partitioner's cost/energy books.
        config_s = sum(r.config_time_s for r in reports)
        config_words = sum(r.config_words_total for r in reports)
        if config_words or config_s:
            self.elastic.bill_program(
                config_s,
                self.energy_model.reconfiguration_energy(
                    flushed_bytes=0, config_words=config_words
                ),
            )
        if all(r.delta and r.config_words_total == 0 for r in reports):
            with self._lock:
                self._counters["warm_waves"] += 1

    def _close_wave_session(self, wave: Wave) -> None:
        """Close a wave's session and check its lease back in."""
        if wave.session is not None:
            wave.session.close()
        if wave.lease is not None:
            self.elastic.checkin(wave.lease)
            wave.lease = None

    def _tightest_slack(self, jobs: List[Job]) -> Optional[float]:
        """Seconds until the nearest deadline in ``jobs`` (None = none)."""
        now = time.perf_counter()
        slacks = [
            job.submitted_at + job.request.timeout_s - now
            for job in jobs if job.request.timeout_s is not None
        ]
        return min(slacks) if slacks else None

    def _release_wave(self, wave: Wave) -> None:
        """Give a wave's slices back (idempotent) and wake claimers."""
        with self._lock:
            if wave.released:
                return
            wave.released = True
            self.pool.release(wave.placement)
        self.elastic.maybe_reclaim()
        self.workers.kick()

    def _abandon_wave(self, wave: Wave, exc: Exception) -> None:
        """Last resort when a wave crashed with an unexpected exception:
        fail whatever jobs are not terminal yet, naming the exception,
        and free the slices, so a bug costs one wave, never the loop."""
        error = f"wave crashed: {type(exc).__name__}: {exc}"
        for job in wave.jobs:
            if not job.done:
                self._finish(job, JobState.FAILED, error=error)
        self._release_wave(wave)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_wave(self, wave: Wave) -> None:
        # Deadline re-check at execution start: a job whose deadline
        # lapsed between dequeue/placement and this point must not run
        # (and must not be billed DONE) — it times out before the wave
        # touches its data.
        group = [job for job in wave.jobs if not self._expired(job)]
        if not group:
            return
        session, lease, compiled, placement = (
            wave.session, wave.lease, wave.compiled, wave.placement
        )
        assert session is not None and lease is not None
        scratchpad = session.controllers[0].slice.scratchpad
        assert scratchpad is not None
        pad_words = scratchpad.words
        pe = build_pe(compiled.benchmark)
        if self.telemetry.enabled:
            self.telemetry.histogram(
                "service.batch_size", "jobs merged into one wave",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
            ).observe(float(len(group)))

        datasets = [
            job.request.dataset
            if job.request.dataset is not None
            else dataset_for(
                job.request.benchmark, job.request.items,
                seed=job.request.seed,
            )
            for job in group
        ]
        merged = datasets[0] if len(datasets) == 1 else Dataset.concat(datasets)
        limits = [
            job.submitted_at + job.request.timeout_s
            for job in group if job.request.timeout_s is not None
        ]
        deadline = min(limits) if limits else None

        try:
            with self.telemetry.span(
                "service.wave", "service",
                benchmark=compiled.benchmark, jobs=len(group),
                items=merged.items, device=placement.device,
            ):
                totals, mismatched, retries = self._run_with_retry(
                    session, merged, pad_words, pe, deadline=deadline
                )
                kernel = kernel_timing(
                    compiled.schedule,
                    items=merged.items,
                    slices=len(session.slice_indices),
                    tiles_per_slice=max(
                        session.program_reports[0].tiles, 1
                    ) if session.program_reports else 1,
                    scratchpad_service_words_per_cycle=(
                        session.device.scratchpad_service_rate(
                            session.partition
                        )
                    ),
                    clocking=session.device.system.clocking,
                )
                busy_s = (self.wave_latency_s or 0.0) + (
                    merged.items * (self.item_latency_s or 0.0)
                )
                if busy_s > 0:
                    time.sleep(busy_s)
        except _WaveDeadline:
            self._abort_wave_on_deadline(group)
            return
        except ReproError as exc:
            logger.warning("wave of %d job(s) failed: %s", len(group), exc)
            for job in group:
                self._finish(job, JobState.FAILED,
                             error=f"{type(exc).__name__}: {exc}",
                             placement=placement, batch_size=len(group))
            return

        clocking = session.device.system.clocking
        breakdown = self.energy_model.accelerator_energy(
            lut_config_reads=totals["lut_evaluations"],
            mac_ops=totals["mac_operations"],
            bus_words=totals["bus_words"],
            seconds=kernel.seconds,
            slices_active=len(session.slice_indices),
            uses_switch_fabric=(
                compiled.schedule.resources.mccs
                >= clocking.large_tile_threshold
            ),
        )
        wave_energy_j = breakdown.total_j + lease.energy_j
        # Modeled device time: the kernel plus this wave's config
        # writes and its lease's way transitions (flushes and way
        # switches).  Warm waves pay neither, which is the whole point
        # of keeping ways locked between waves.
        device_s = kernel.seconds + lease.cost_s + sum(
            r.config_time_s for r in session.program_reports
        )
        with self._lock:
            self._counters["retries"] += retries
            self._counters["batches"] += 1
            self._counters["device_s"] += device_s
            self._counters["energy_j"] += wave_energy_j
            self._counters["energy_items"] += merged.items
            if len(group) > 1:
                self._counters["batched_jobs"] += len(group)

        offset = 0
        for job, dataset in zip(group, datasets):
            window = range(offset, offset + dataset.items)
            bad = sum(1 for item in mismatched if item in window)
            offset += dataset.items
            self._finish(
                job, JobState.DONE,
                verified=bad == 0, mismatches=bad,
                invocations=dataset.items, retries=retries,
                batch_size=len(group), placement=placement,
            )

    def _abort_wave_on_deadline(self, group: List[Job]) -> None:
        """A wave overran its tightest deadline mid-execution.

        The expired jobs are ``TIMED_OUT``; jobs with slack left go
        back to the queue (an already-admitted job is never dropped).
        """
        now = time.perf_counter()
        requeue: List[Job] = []
        for job in group:
            limit = job.request.timeout_s
            if limit is not None and now - job.submitted_at > limit:
                self._finish(
                    job, JobState.TIMED_OUT,
                    error=f"deadline of {limit}s exceeded during execution",
                )
            else:
                job.state = JobState.PENDING
                requeue.append(job)
        if requeue:
            with self._lock:
                self._counters["requeued"] += len(requeue)
                self.queue.requeue(requeue)
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "service.requeues",
                    "jobs returned to the queue by a deadline abort",
                ).inc(len(requeue))
            self.workers.kick()

    def _run_with_retry(
        self,
        session: ExecutionSession,
        dataset: Dataset,
        pad_words: int,
        pe,
        deadline: Optional[float] = None,
    ) -> Tuple[Dict[str, int], List[int], int]:
        """Run a batch, splitting it in half on scratchpad overflow.

        ``CapacityError`` from layout planning is transient — a smaller
        batch fits — so each occurrence (bounded by ``max_retries``)
        splits the offending chunk and resubmits both halves at once
        (the split is deterministic, so waiting first would gain
        nothing); chunk order preserves item order, so mismatch indices
        stay batch-global.

        ``deadline`` is the wave's tightest end-to-end deadline (an
        absolute ``perf_counter`` instant): it is checked before every
        chunk, raising :class:`_WaveDeadline` rather than running work
        whose requester already gave up.
        """
        attempts = 0
        pending = deque([dataset])
        totals = dict(_ZERO_TOTALS)
        mismatched: List[int] = []
        done_items = 0
        while pending:
            if deadline is not None and time.perf_counter() > deadline:
                raise _WaveDeadline()
            chunk = pending.popleft()
            try:
                layout = plan_layout(chunk, pad_words, pe=pe)
            except CapacityError:
                attempts += 1
                if self.telemetry.enabled:
                    self.telemetry.counter(
                        "service.capacity_retries",
                        "scratchpad overflows resubmitted at half size",
                    ).inc()
                if attempts > self.max_retries or chunk.items <= 1:
                    raise
                half = chunk.items // 2
                logger.info(
                    "batch of %d items overflowed the scratchpad; "
                    "retrying as %d + %d (attempt %d/%d)",
                    chunk.items, half, chunk.items - half,
                    attempts, self.max_retries,
                )
                pending.appendleft(chunk.slice(half, chunk.items))
                pending.appendleft(chunk.slice(0, half))
                continue
            chunk_totals, bad = session.execute(chunk, layout, pe=pe)
            for key in totals:
                totals[key] += chunk_totals[key]
            mismatched.extend(done_items + item for item in bad)
            done_items += chunk.items
        return totals, mismatched, attempts

    # ------------------------------------------------------------------
    # Completion + observability
    # ------------------------------------------------------------------

    def _finish(self, job: Job, state: JobState, **fields) -> None:
        with self._job_cv:
            if job.done:
                # A racing finisher (cancel vs worker, abandon vs the
                # normal path) got here first; the job keeps its first
                # terminal state.
                return
            job.state = state
            job.finished_at = time.perf_counter()
            latency = job.finished_at - job.submitted_at
            queue_s = (
                job.started_at - job.submitted_at
                if job.started_at is not None else None
            )
            placement = fields.pop("placement", None)
            job.result = JobResult(
                job_id=job.id,
                state=state,
                benchmark=job.request.benchmark,
                items=job.request.items,
                latency_s=latency,
                queue_s=queue_s,
                cache_hit=job.cache_hit,
                placement=(
                    (placement.device, placement.slices) if placement else None
                ),
                **fields,
            )
            self._compiled.pop(job.id, None)
            self.jobs.pop(job.id, None)
            self._results[job.id] = job.result
            key = _STATE_COUNTERS[state]
            self._counters[key] += 1
            if state is JobState.DONE:
                self.latencies.add(latency)
            self._job_cv.notify_all()
        if self.telemetry.enabled:
            self.telemetry.counter(
                "service.jobs_finished", "jobs by terminal state"
            ).inc(state=key)
            self.telemetry.histogram(
                "service.latency_s", "end-to-end job latency"
            ).observe(latency)
            self._gauge_queue_depth()
            # Retroactive span from the timestamps the job already
            # carries: submit-to-terminal, covering queue + run.
            self.telemetry.record_span(
                "job", job.submitted_at, job.finished_at, "service",
                job_id=job.id, benchmark=job.request.benchmark,
                items=job.request.items, state=key,
            )
        if self.done_callback is not None:
            try:
                self.done_callback(job)
            except Exception:
                logger.exception(
                    "done_callback failed for job %d (ignored)", job.id
                )

    def _gauge_queue_depth(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "service.queue_depth", "jobs waiting for placement"
            ).set(len(self.queue))

    def stats(self) -> ServiceStats:
        elastic = self.elastic.counters()
        locked_ways = self.elastic.locked_ways()
        with self._lock:
            energy_j = self._counters["energy_j"]
            energy_items = self._counters["energy_items"]
            return ServiceStats(
                submitted=self._counters["submitted"],
                completed=self._counters["completed"],
                rejected=self._counters["rejected"],
                failed=self._counters["failed"],
                cancelled=self._counters["cancelled"],
                timed_out=self._counters["timed_out"],
                saturated=self._counters["saturated"],
                requeued=self._counters["requeued"],
                retries=self._counters["retries"],
                batches=self._counters["batches"],
                batched_jobs=self._counters["batched_jobs"],
                queue_depth=len(self.queue),
                running=sum(
                    1 for job in self.jobs.values()
                    if job.state is JobState.RUNNING
                ),
                workers=self.workers.count,
                workers_busy=self.workers.busy,
                slice_utilization=self.pool.utilization(),
                cache=self.cache.stats(),
                latency_p50_s=self.latencies.p50,
                latency_p95_s=self.latencies.p95,
                latency_samples=self.latencies.sample_count,
                ways_resized=int(elastic["ways_resized"]),
                resize_cost_s=float(elastic["resize_cost_s"]),
                warm_attaches=int(elastic["warm_attaches"]),
                warm_waves=self._counters["warm_waves"],
                locked_ways=locked_ways,
                device_s=self._counters["device_s"],
                energy_j=energy_j,
                items_per_joule=(
                    energy_items / energy_j if energy_j > 0 else 0.0
                ),
            )

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------

    def drain(self, timeout_s: Optional[float] = None) -> None:
        """Block until every submitted job is terminal.

        Without worker threads this pumps inline; with them it waits
        for the workers to empty the queue.  Raises
        :class:`ServiceError` if ``timeout_s`` elapses with jobs still
        outstanding.
        """
        self._wait(lambda: all(job.done for job in self.jobs.values()),
                   timeout_s, f"drain did not finish in {timeout_s}s")

    def shutdown(self, *, drain: bool = True,
                 timeout_s: Optional[float] = None) -> None:
        """Stop the service and unlock every device way (idempotent).

        ``drain=True`` finishes the queued work first (``drain()``).
        Then the worker threads stop after their in-flight wave (a wave
        is never interrupted mid-run, so every lease is checked back in
        before the partitioner drains its ways).  Jobs still pending
        afterwards are ``CANCELLED``, so no submitted job is ever left
        without a result.
        """
        if self._closed:
            return
        if drain:
            self.drain(timeout_s=timeout_s)
        self.workers.stop(timeout_s=timeout_s)
        with self._lock:
            self._closed = True
            leftovers = [job for job in self.jobs.values() if not job.done]
        for job in leftovers:
            self._finish(job, JobState.CANCELLED, error="service shut down")
        try:
            self.elastic.drain()
        except ServiceError:
            # A crashed wave can leave a lease marked active; the
            # device-wide teardown below force-frees its ways.
            logger.warning("elastic drain found active leases")
        for device in self.devices:
            device._teardown_slices(range(device.slice_count))

    def close(self) -> None:
        """Stop now (no drain) and release every device way."""
        self.shutdown(drain=False)
