"""The asyncio gateway: routing, admission, health, and aggregation.

One :class:`Gateway` fronts N shard processes (see
:mod:`repro.gateway.shard`).  Division of labour:

* **Routing** — submits are routed by the job's program-cache route
  key over a consistent-hash ring (:mod:`repro.gateway.hashring`), so
  jobs compiling the same program keep landing on the same shard and
  reuse its warm program cache (the PR 6 certificate fast path stays
  shard-local).  A bounded-load check spills a hot key's overflow to
  the next ring candidate instead of letting one shard drown while
  the rest idle.

* **Admission** — the *aggregate* number of in-flight jobs across the
  fleet is bounded by ``max_inflight``; a submit over the bound
  resolves immediately as ``SATURATED`` (backpressure, never an
  exception), mirroring the single-service bounded-queue contract.

* **Health** — every shard heartbeats; a shard silent past
  ``heartbeat_timeout_s`` (or whose pipe EOFs) is declared dead, its
  process killed, its ring points removed.  Jobs that were in flight
  there are rerouted to live shards after a seeded, jittered backoff
  (or resolved ``FAILED`` once their reroute budget is spent — no job
  is ever lost or left hanging).  Dead shards are restarted with a
  bumped generation up to ``max_shard_restarts`` times, then evicted.

* **Aggregation** — :meth:`Gateway.fleet_stats` snapshots every
  shard's :class:`~repro.service.stats.ServiceStats`, metrics, and
  wall-clock span dump, folding them into one
  :class:`FleetStats` and (via
  :func:`repro.telemetry.merge.merge_chrome_trace`) one Chrome trace
  with a process lane per shard.

Threading model: the asyncio event loop owns all routing state (the
ring, the pending-job table, per-shard assignment counts).  One
daemonised reader thread per shard blocks on the pipe and forwards
messages into the loop with ``call_soon_threadsafe``; the only state
it touches directly is the heartbeat fields on its
:class:`ShardHandle`, under the handle's lock — that keeps liveness
detection honest even when the loop itself is busy.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ServiceError
from ..service.jobs import JobResult, JobState
from ..service.stats import ServiceStats
from ..telemetry.merge import merge_chrome_trace, merge_metrics
from .hashring import HashRing
from .protocol import (
    ByeMsg,
    HeartbeatMsg,
    JobSpec,
    ReadyMsg,
    RejectMsg,
    ResultMsg,
    ShutdownMsg,
    StatsMsg,
    StatsReplyMsg,
    SubmitMsg,
)
from .shard import ShardConfig, shard_main

logger = logging.getLogger("repro.gateway")

#: Reroute backoff: doubles from ``retry_backoff_s`` up to this cap,
#: then jitters by +-``RETRY_JITTER`` (seeded by ``GatewayConfig.seed``).
RETRY_BACKOFF_CAP_S = 1.0
RETRY_JITTER = 0.1
#: A shard takes a key's overflow when the primary's assigned load
#: exceeds ``SPILL_FACTOR``x the fleet average plus ``SPILL_SLACK``.
SPILL_FACTOR = 1.25
SPILL_SLACK = 4
#: Seconds every shard has to report ready at start.
START_TIMEOUT_S = 60.0


@dataclass
class GatewayConfig:
    """Fleet-level knobs (the per-shard ones live in ShardConfig)."""

    shards: int = 2
    shard: ShardConfig = field(default_factory=ShardConfig)
    #: Aggregate in-flight bound across the fleet; ``None`` = unbounded.
    max_inflight: Optional[int] = None
    #: Reroute budget per job after shard deaths / shard saturation.
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    seed: int = 0
    heartbeat_timeout_s: float = 3.0
    monitor_interval_s: float = 0.25
    #: Times a dead shard slot is restarted before being evicted.
    max_shard_restarts: int = 1


@dataclass
class GatewayJob:
    """Gateway-side bookkeeping for one in-flight job."""

    id: int
    spec: JobSpec
    future: "asyncio.Future"
    shard_id: Optional[int] = None
    attempts: int = 0          # reroutes consumed (0 = first placement)
    submitted_at: float = 0.0


class ShardHandle:
    """The gateway's view of one shard process."""

    #: Heartbeat state is written by this shard's reader thread and
    #: read by the event loop's health monitor; mutated only under
    #: ``self._lock`` — enforced by ``repro.analysis.selfcheck`` in CI.
    _GUARDED_BY_LOCK = (
        "last_heartbeat_s", "heartbeat_seq", "reported_inflight",
        "reported_queue_depth", "alive",
    )

    def __init__(self, shard_id: int, generation: int = 0) -> None:
        self.shard_id = shard_id
        self.generation = generation
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.connection = None
        self.reader: Optional[threading.Thread] = None
        self.ready = False          # loop-only, like ``assigned``
        #: Jobs currently routed here (event-loop-thread only; the
        #: loop is single-threaded, so no lock).
        self.assigned = 0
        self._lock = threading.Lock()
        self.last_heartbeat_s = time.monotonic()
        self.heartbeat_seq = 0
        self.reported_inflight = 0
        self.reported_queue_depth = 0
        self.alive = True

    def observe_heartbeat(self, msg: HeartbeatMsg) -> None:
        """Called from the reader thread on every heartbeat message."""
        with self._lock:
            self.last_heartbeat_s = time.monotonic()
            self.heartbeat_seq = msg.sequence
            self.reported_inflight = msg.inflight
            self.reported_queue_depth = msg.queue_depth

    def touch(self) -> None:
        """Any message from the shard proves it lives."""
        with self._lock:
            self.last_heartbeat_s = time.monotonic()

    def heartbeat_age_s(self) -> float:
        with self._lock:
            return time.monotonic() - self.last_heartbeat_s

    def mark_dead(self) -> None:
        with self._lock:
            self.alive = False

    def is_alive(self) -> bool:
        with self._lock:
            return self.alive


@dataclass
class FleetStats:
    """One aggregated snapshot of the whole gateway fleet."""

    submitted: int = 0
    completed: int = 0
    saturated: int = 0             # resolved SATURATED at the gateway
    rejected: int = 0
    failed: int = 0
    reroutes: int = 0              # jobs moved off a dead/full shard
    shard_restarts: int = 0
    shards_evicted: int = 0
    pending: int = 0
    live_shards: int = 0
    shards: Dict[int, Dict] = field(default_factory=dict)
    aggregate: Dict = field(default_factory=dict)

    # Elastic fleet figures, folded from the shard snapshots by
    # :func:`aggregate_stats` (zero when every shard runs static).

    @property
    def ways_resized(self) -> int:
        return int(self.aggregate.get("ways_resized", 0))

    @property
    def resize_cost_s(self) -> float:
        return float(self.aggregate.get("resize_cost_s", 0.0))

    @property
    def locked_ways(self) -> int:
        return int(self.aggregate.get("locked_ways", 0))

    @property
    def energy_j(self) -> float:
        return float(self.aggregate.get("energy_j", 0.0))

    @property
    def items_per_joule(self) -> float:
        return float(self.aggregate.get("items_per_joule", 0.0))

    def to_dict(self) -> Dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "saturated": self.saturated,
            "rejected": self.rejected,
            "failed": self.failed,
            "reroutes": self.reroutes,
            "shard_restarts": self.shard_restarts,
            "shards_evicted": self.shards_evicted,
            "pending": self.pending,
            "live_shards": self.live_shards,
            "shards": {str(k): v for k, v in self.shards.items()},
            "aggregate": dict(self.aggregate),
        }


#: ServiceStats fields that sum across shards in the aggregate view.
_SUMMABLE = (
    "submitted", "completed", "rejected", "failed", "cancelled",
    "timed_out", "saturated", "requeued", "retries", "batches",
    "batched_jobs", "queue_depth", "running", "workers", "workers_busy",
    "ways_resized", "warm_attaches", "warm_waves", "locked_ways",
)

#: Float-valued modeled figures that also sum across shards.
_SUMMABLE_F = ("resize_cost_s", "energy_j", "device_s")


def aggregate_stats(per_shard: Dict[int, Dict]) -> Dict:
    """Fold shard ``ServiceStats.to_dict()`` dumps into one fleet row.

    Counts sum; the cache hit rate becomes a lookup-weighted mean;
    latency percentiles do not aggregate across reservoirs, so the
    fleet view keeps the worst (max) per-shard p50/p95 — a conservative
    bound rather than a fabricated merge.
    """
    out: Dict = {key: 0 for key in _SUMMABLE}
    out.update({key: 0.0 for key in _SUMMABLE_F})
    cache_totals: Dict[str, float] = {}
    p50s: List[float] = []
    p95s: List[float] = []
    samples = 0
    for stats in per_shard.values():
        for key in _SUMMABLE:
            out[key] += stats.get(key, 0)
        for key in _SUMMABLE_F:
            out[key] += stats.get(key, 0.0)
        for key, value in stats.get("cache", {}).items():
            if key != "hit_rate":
                cache_totals[key] = cache_totals.get(key, 0) + value
        if stats.get("latency_p50_s") is not None:
            p50s.append(stats["latency_p50_s"])
        if stats.get("latency_p95_s") is not None:
            p95s.append(stats["latency_p95_s"])
        samples += stats.get("latency_samples", 0)
    lookups = cache_totals.get("hits", 0) + cache_totals.get("misses", 0)
    cache_totals["hit_rate"] = (
        cache_totals.get("hits", 0) / lookups if lookups else 0.0
    )
    out["cache"] = cache_totals
    out["latency_p50_s"] = max(p50s) if p50s else None
    out["latency_p95_s"] = max(p95s) if p95s else None
    out["latency_samples"] = samples
    # Fleet efficiency: energy-weighted mean of the per-shard
    # items-per-joule figures (equivalently total items / total joules).
    total_items = sum(
        stats.get("items_per_joule", 0.0) * stats.get("energy_j", 0.0)
        for stats in per_shard.values()
    )
    out["items_per_joule"] = (
        total_items / out["energy_j"] if out["energy_j"] > 0 else 0.0
    )
    return out


class Gateway:
    """Multi-process sharded serving front end (asyncio)."""

    def __init__(self, config: Optional[GatewayConfig] = None) -> None:
        self.config = config or GatewayConfig()
        if self.config.shards < 1:
            raise ServiceError("the gateway needs at least one shard")
        self.ring = HashRing()
        self.handles: Dict[int, ShardHandle] = {}
        self.pending: Dict[int, GatewayJob] = {}
        self._next_id = 1
        self._next_stats_id = 1
        self._stats_waiters: Dict[int, "asyncio.Future"] = {}
        self._rng = random.Random(self.config.seed)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._monitor_task: Optional["asyncio.Task"] = None
        self._drain_event: Optional[asyncio.Event] = None
        self._closed = False
        self._ctx = multiprocessing.get_context("spawn")
        # fleet counters (event-loop thread only)
        self.counters = {
            "submitted": 0, "completed": 0, "saturated": 0,
            "rejected": 0, "failed": 0, "reroutes": 0,
            "shard_restarts": 0, "shards_evicted": 0,
        }
        self._restarts_used: Dict[int, int] = {}
        self._last_spans: Dict[int, List[Dict]] = {}
        self._last_metrics: Dict[int, Dict] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every shard and wait until all report ready.

        A shard that dies or stays silent before it is ready fails the
        start: every shard process is stopped, then :class:`ServiceError`
        names the shard.
        """
        self._loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        self._drain_event.set()
        for shard_id in range(self.config.shards):
            self._spawn_shard(shard_id, generation=0)
        try:
            await self._await_ready(set(self.handles))
        except ServiceError:
            self._closed = True
            for handle in self.handles.values():
                handle.process.terminate()
            for handle in self.handles.values():
                handle.process.join()
                handle.connection.close()
            raise
        self._monitor_task = self._loop.create_task(self._monitor())

    def _spawn_shard(self, shard_id: int, generation: int) -> None:
        handle = ShardHandle(shard_id, generation)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        handle.connection = parent_conn
        handle.process = self._ctx.Process(
            target=shard_main,
            args=(shard_id, child_conn, self.config.shard),
            name=f"freac-shard{shard_id}-g{generation}",
        )
        handle.process.daemon = True
        handle.process.start()
        child_conn.close()
        handle.reader = threading.Thread(
            target=self._read_loop,
            args=(handle,),
            name=f"gateway-reader-shard{shard_id}-g{generation}",
            daemon=True,
        )
        self.handles[shard_id] = handle
        handle.reader.start()

    async def _await_ready(self, shard_ids: set) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            for sid in sorted(shard_ids):
                if not self.handles[sid].is_alive():
                    raise ServiceError(
                        f"shard {sid} exited before it was ready"
                    )
            missing = [
                sid for sid in shard_ids if not self.handles[sid].ready
            ]
            if not missing:
                return
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"shards {missing} not ready within {START_TIMEOUT_S}s"
                )
            await asyncio.sleep(0.02)

    # ------------------------------------------------------------------
    # Reader threads -> event loop
    # ------------------------------------------------------------------

    def _read_loop(self, handle: ShardHandle) -> None:
        """One blocking reader per shard (daemon thread)."""
        while True:
            try:
                msg = handle.connection.recv()
            except (EOFError, OSError):
                handle.mark_dead()
                self._post(self._on_shard_eof, handle)
                return
            if isinstance(msg, HeartbeatMsg):
                handle.observe_heartbeat(msg)
                continue
            handle.touch()
            self._post(self._on_message, handle, msg)
            if isinstance(msg, ByeMsg):
                return

    def _post(self, callback, *args) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    # ------------------------------------------------------------------
    # Message handling (event-loop thread)
    # ------------------------------------------------------------------

    def _on_message(self, handle: ShardHandle, msg) -> None:
        if isinstance(msg, ReadyMsg):
            handle.ready = True
            self.ring.add(handle.shard_id)
            logger.info("shard %d ready (pid %d, generation %d)",
                        handle.shard_id, msg.pid, handle.generation)
        elif isinstance(msg, ResultMsg):
            self._on_result(handle, msg)
        elif isinstance(msg, RejectMsg):
            self._resolve_rejected(msg.job_id, msg.error)
        elif isinstance(msg, StatsReplyMsg):
            waiter = self._stats_waiters.pop(msg.request_id, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(msg)
        elif isinstance(msg, ByeMsg):
            for job_id in msg.abandoned:
                self._reroute_or_fail(
                    job_id, f"shard {handle.shard_id} shut down"
                )

    def _on_result(self, handle: ShardHandle, msg: ResultMsg) -> None:
        job = self.pending.get(msg.job_id)
        if job is None:
            return  # already rerouted away or resolved
        result = msg.result
        if (result.state is JobState.SATURATED
                and job.attempts < self.config.max_retries):
            # The shard's own queue was full — back off and try the
            # ring's next candidate rather than surfacing SATURATED
            # while other shards have room.
            self._schedule_reroute(
                job, exclude=handle.shard_id,
                reason=f"shard {handle.shard_id} saturated",
            )
            return
        self._resolve(msg.job_id, result)

    def _on_shard_eof(self, handle: ShardHandle) -> None:
        # Until start() has seen every shard ready, a death fails the
        # start instead of restarting the shard.
        if (self._closed or self._monitor_task is None
                or self.handles.get(handle.shard_id) is not handle):
            return
        self._declare_dead(handle, reason="pipe EOF")

    # ------------------------------------------------------------------
    # Submission and routing (event-loop thread)
    # ------------------------------------------------------------------

    def _live_handles(self) -> List[ShardHandle]:
        return [
            h for h in self.handles.values() if h.ready and h.is_alive()
        ]

    def _pick_shard(self, spec: JobSpec) -> Optional[int]:
        """Consistent-hash primary with bounded-load spill."""
        candidates = self.ring.candidates(spec.route_key(), 2)
        candidates = [
            sid for sid in candidates
            if (h := self.handles.get(sid)) is not None
            and h.ready and h.is_alive()
        ]
        if not candidates:
            live = self._live_handles()
            return min(
                (h for h in live), key=lambda h: h.assigned, default=None
            ).shard_id if live else None
        if len(candidates) == 1:
            return candidates[0]
        primary, spill = candidates[0], candidates[1]
        live = self._live_handles()
        average = sum(h.assigned for h in live) / max(1, len(live))
        bound = SPILL_FACTOR * average + SPILL_SLACK
        primary_handle = self.handles[primary]
        spill_handle = self.handles[spill]
        if (primary_handle.assigned > bound
                and spill_handle.assigned < primary_handle.assigned):
            return spill
        return primary

    def submit(self, spec: JobSpec) -> GatewayJob:
        """Admit one job (event-loop thread); returns its handle.

        Over-bound submits resolve immediately as ``SATURATED`` — the
        future is already done when this returns.
        """
        if self._closed:
            raise ServiceError("the gateway is shut down")
        assert self._loop is not None, "gateway not started"
        job = GatewayJob(
            id=self._next_id,
            spec=spec,
            future=self._loop.create_future(),
            submitted_at=time.monotonic(),
        )
        self._next_id += 1
        self.counters["submitted"] += 1
        limit = self.config.max_inflight
        if limit is not None and len(self.pending) >= limit:
            self.counters["saturated"] += 1
            job.future.set_result(self._synthetic_result(
                job, JobState.SATURATED,
                error=(
                    f"gateway at max_inflight={limit}; retry later"
                ),
            ))
            return job
        shard_id = self._pick_shard(spec)
        if shard_id is None:
            self.counters["failed"] += 1
            job.future.set_result(self._synthetic_result(
                job, JobState.FAILED, error="no live shards",
            ))
            return job
        self.pending[job.id] = job
        if self._drain_event is not None:
            self._drain_event.clear()
        self._dispatch(job, shard_id)
        return job

    def _dispatch(self, job: GatewayJob, shard_id: int) -> None:
        handle = self.handles[shard_id]
        job.shard_id = shard_id
        handle.assigned += 1
        try:
            handle.connection.send(SubmitMsg(job_id=job.id, spec=job.spec))
        except (BrokenPipeError, OSError):
            # The shard just died under us; the EOF path will reroute
            # everything assigned there, including this job.
            logger.warning("dispatch to shard %d failed mid-send",
                           shard_id)

    def _synthetic_result(self, job: GatewayJob, state: JobState,
                          error: str) -> JobResult:
        return JobResult(
            job_id=job.id,
            state=state,
            benchmark=job.spec.benchmark.upper(),
            items=job.spec.items,
            retries=job.attempts,
            error=error,
        )

    # ------------------------------------------------------------------
    # Completion / reroute (event-loop thread)
    # ------------------------------------------------------------------

    def _unassign(self, job: GatewayJob) -> None:
        if job.shard_id is not None:
            handle = self.handles.get(job.shard_id)
            if handle is not None and handle.assigned > 0:
                handle.assigned -= 1
            job.shard_id = None

    def _resolve(self, job_id: int, result: JobResult) -> None:
        job = self.pending.pop(job_id, None)
        if job is None:
            return
        self._unassign(job)
        # Re-stamp the shard-local id with the fleet-wide one so the
        # caller's view is consistent with what it submitted.
        result = JobResult(**{
            **result.__dict__, "job_id": job.id,
            "retries": result.retries + job.attempts,
        })
        if result.state is JobState.DONE:
            self.counters["completed"] += 1
        elif result.state is JobState.REJECTED:
            self.counters["rejected"] += 1
        elif result.state is JobState.SATURATED:
            self.counters["saturated"] += 1
        else:
            self.counters["failed"] += 1
        if not job.future.done():
            job.future.set_result(result)
        if not self.pending and self._drain_event is not None:
            self._drain_event.set()

    def _resolve_rejected(self, job_id: int, error: str) -> None:
        job = self.pending.get(job_id)
        if job is None:
            return
        self._resolve(job_id, self._synthetic_result(
            job, JobState.REJECTED, error=error
        ))

    def _backoff_delay(self, attempt: int) -> float:
        base = min(
            RETRY_BACKOFF_CAP_S,
            self.config.retry_backoff_s * (2 ** max(0, attempt - 1)),
        )
        jitter = 1.0 + RETRY_JITTER * (2.0 * self._rng.random() - 1.0)
        return max(0.0, base * jitter)

    def _schedule_reroute(self, job: GatewayJob, exclude: Optional[int],
                          reason: str) -> None:
        self._unassign(job)
        job.attempts += 1
        self.counters["reroutes"] += 1
        delay = self._backoff_delay(job.attempts)
        logger.info("job %d: reroute #%d in %.3fs (%s)",
                    job.id, job.attempts, delay, reason)
        assert self._loop is not None
        self._loop.call_later(
            delay, self._redispatch, job, exclude, reason
        )

    def _redispatch(self, job: GatewayJob, exclude: Optional[int],
                    reason: str) -> None:
        if job.id not in self.pending:
            return  # resolved while backing off (e.g. gateway shutdown)
        candidates = [
            sid for sid in self.ring.candidates(job.spec.route_key(), 2)
            if sid != exclude
        ]
        shard_id = candidates[0] if candidates else self._pick_shard(job.spec)
        if shard_id is None:
            # No shard is ready *right now* — typically a restart in
            # progress. Burn another attempt and back off again until
            # the budget is spent.
            if not self._closed and self.handles:
                self._reroute_or_fail(job.id, reason)
            else:
                self._resolve(job.id, self._synthetic_result(
                    job, JobState.FAILED,
                    error=f"no live shard to reroute to ({reason})",
                ))
            return
        self._dispatch(job, shard_id)

    def _reroute_or_fail(self, job_id: int, reason: str) -> None:
        job = self.pending.get(job_id)
        if job is None:
            return
        if job.attempts >= self.config.max_retries:
            self._resolve(job_id, self._synthetic_result(
                job, JobState.FAILED,
                error=f"{reason}; reroute budget spent",
            ))
            return
        self._schedule_reroute(job, exclude=None, reason=reason)

    # ------------------------------------------------------------------
    # Health monitoring (event-loop thread)
    # ------------------------------------------------------------------

    async def _monitor(self) -> None:
        while not self._closed:
            await asyncio.sleep(self.config.monitor_interval_s)
            for handle in list(self.handles.values()):
                if not handle.ready:
                    continue
                dead = (
                    not handle.is_alive()
                    or not handle.process.is_alive()
                    or handle.heartbeat_age_s()
                    > self.config.heartbeat_timeout_s
                )
                if dead and self.handles.get(handle.shard_id) is handle:
                    self._declare_dead(
                        handle,
                        reason=(
                            "process exit" if not handle.process.is_alive()
                            else "heartbeat timeout"
                        ),
                    )

    def _declare_dead(self, handle: ShardHandle, reason: str) -> None:
        shard_id = handle.shard_id
        logger.warning("shard %d declared dead (%s)", shard_id, reason)
        handle.mark_dead()
        handle.ready = False
        self.ring.remove(shard_id)
        if handle.process is not None and handle.process.is_alive():
            handle.process.terminate()
        try:
            handle.connection.close()
        except OSError:
            pass

        stranded = [
            job for job in self.pending.values()
            if job.shard_id == shard_id
        ]
        # Restart (or evict) *before* rerouting so a 1-shard fleet can
        # still land the stranded jobs on the replacement.
        used = self._restarts_used.get(shard_id, 0)
        if not self._closed and used < self.config.max_shard_restarts:
            self._restarts_used[shard_id] = used + 1
            self.counters["shard_restarts"] += 1
            logger.warning("restarting shard %d (generation %d)",
                           shard_id, handle.generation + 1)
            self._spawn_shard(shard_id, generation=handle.generation + 1)
        else:
            self.counters["shards_evicted"] += 1
            del self.handles[shard_id]
            logger.warning("shard %d evicted (restart budget spent)",
                           shard_id)
        for job in stranded:
            job.shard_id = None  # its handle is gone; nothing to unassign
            self._reroute_or_fail(
                job.id, f"shard {shard_id} died ({reason})"
            )

    # ------------------------------------------------------------------
    # Stats / trace aggregation
    # ------------------------------------------------------------------

    async def fleet_stats(self, *, with_telemetry: bool = True,
                          timeout_s: float = 10.0) -> FleetStats:
        """Snapshot every live shard and fold the fleet view."""
        assert self._loop is not None
        waiters: Dict[int, "asyncio.Future"] = {}
        for handle in self._live_handles():
            request_id = self._next_stats_id
            self._next_stats_id += 1
            waiter = self._loop.create_future()
            self._stats_waiters[request_id] = waiter
            waiters[handle.shard_id] = waiter
            try:
                handle.connection.send(StatsMsg(
                    request_id=request_id, with_telemetry=with_telemetry,
                ))
            except (BrokenPipeError, OSError):
                self._stats_waiters.pop(request_id, None)
                waiter.cancel()

        per_shard: Dict[int, Dict] = {}
        for shard_id, waiter in waiters.items():
            try:
                reply: StatsReplyMsg = await asyncio.wait_for(
                    asyncio.shield(waiter), timeout=timeout_s
                )
            except (asyncio.TimeoutError, asyncio.CancelledError):
                continue
            per_shard[shard_id] = reply.stats
            if with_telemetry:
                self._last_spans[shard_id] = list(reply.spans)
                self._last_metrics[shard_id] = dict(reply.metrics)

        stats = FleetStats(
            submitted=self.counters["submitted"],
            completed=self.counters["completed"],
            saturated=self.counters["saturated"],
            rejected=self.counters["rejected"],
            failed=self.counters["failed"],
            reroutes=self.counters["reroutes"],
            shard_restarts=self.counters["shard_restarts"],
            shards_evicted=self.counters["shards_evicted"],
            pending=len(self.pending),
            live_shards=len(self._live_handles()),
            shards=per_shard,
            aggregate=aggregate_stats(per_shard),
        )
        return stats

    def merged_trace(self) -> Dict:
        """One Chrome trace over the latest shard span snapshots."""
        return merge_chrome_trace(self._last_spans)

    def merged_metrics(self) -> Dict:
        """The latest shard metric snapshots, folded."""
        return merge_metrics(self._last_metrics)

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------

    async def drain(self, timeout_s: Optional[float] = None) -> None:
        """Wait until every submitted job is terminal."""
        assert self._drain_event is not None
        if timeout_s is None:
            await self._drain_event.wait()
            return
        try:
            await asyncio.wait_for(self._drain_event.wait(), timeout_s)
        except asyncio.TimeoutError:
            raise ServiceError(
                f"gateway drain did not finish in {timeout_s}s "
                f"({len(self.pending)} jobs pending)"
            ) from None

    async def shutdown(self, *, drain: bool = True,
                       timeout_s: float = 60.0) -> None:
        """Stop the fleet; every pending job resolves first (idempotent)."""
        if self._closed:
            return
        if drain and self.pending:
            try:
                await self.drain(timeout_s=timeout_s)
            except ServiceError:
                logger.warning("shutdown proceeding with %d jobs pending",
                               len(self.pending))
        self._closed = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        for handle in list(self.handles.values()):
            try:
                handle.connection.send(ShutdownMsg(drain=drain))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout_s
        for handle in list(self.handles.values()):
            if handle.process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            await asyncio.get_running_loop().run_in_executor(
                None, handle.process.join, remaining
            )
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(5.0)
            try:
                handle.connection.close()
            except OSError:
                pass
        # Nothing submitted may be left without an answer.
        for job_id in list(self.pending):
            job = self.pending[job_id]
            self._resolve(job_id, self._synthetic_result(
                job, JobState.CANCELLED, error="gateway shut down",
            ))
