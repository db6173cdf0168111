"""The shard process: one :class:`AcceleratorService` behind a pipe.

``freac gateway`` spawns N of these (``multiprocessing`` *spawn*
start method — fork is unsafe under the thread pools both sides run).
Each shard process hosts a full service — its own device pool, worker
threads, and a namespaced on-disk program cache — and exchanges the
messages of :mod:`repro.gateway.protocol` over the
``multiprocessing.Pipe`` it was born with, one ``Connection.send``
pickle each.

Thread layout inside a shard (all non-daemon, all joined on exit):

* **main thread** — blocking receive loop; admits submits into the
  service, answers stats requests, executes shutdown.
* **service workers** — run the waves; the service's
  ``done_callback`` sends each job's
  :class:`~repro.gateway.protocol.ResultMsg` from the worker that
  finished it.
* **heartbeat** — periodic :class:`HeartbeatMsg` with live load
  figures, the gateway's liveness signal.

All writes to the pipe go through one send lock — messages from the
workers, the heartbeat and the main thread must never interleave.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional

from ..params import scaled_system
from ..errors import ReproError, ServiceError
from ..telemetry import Telemetry
from ..telemetry.merge import spans_snapshot
from ..service.elastic import ElasticConfig
from ..service.jobs import Job
from ..service.service import AcceleratorService
from .protocol import (
    ByeMsg,
    HeartbeatMsg,
    ReadyMsg,
    RejectMsg,
    ResultMsg,
    ShutdownMsg,
    StatsMsg,
    StatsReplyMsg,
    SubmitMsg,
)

logger = logging.getLogger("repro.gateway.shard")


@dataclass(frozen=True)
class ShardConfig:
    """Everything a shard needs to build its service (picklable)."""

    devices: int = 1
    l3_slices: int = 2
    workers: int = 2
    cache_dir: Optional[str] = None
    max_queue_depth: Optional[int] = None
    batching: bool = True
    wave_latency_s: Optional[float] = None
    item_latency_s: Optional[float] = None
    #: Elastic way partitioning (docs/elastic.md).  ``ElasticConfig``
    #: is a frozen dataclass, so the whole ShardConfig stays picklable
    #: across the spawn boundary.
    elastic: Optional["ElasticConfig"] = None
    heartbeat_s: float = 0.2
    telemetry: bool = True

    def __post_init__(self) -> None:
        # A shard never steps its service inline: without a worker
        # thread no submitted job would ever run.
        if self.workers < 1:
            raise ServiceError("a shard needs at least one worker thread")


class ShardRuntime:
    """The in-process state of one shard (testable without spawning)."""

    #: Mutated only under ``self._lock`` — enforced by
    #: ``repro.analysis.selfcheck`` in CI.
    _GUARDED_BY_LOCK = ("_gateway_ids", "_heartbeat_seq", "_closed")

    def __init__(self, shard_id: int, connection,
                 config: ShardConfig) -> None:
        self.shard_id = shard_id
        self.connection = connection
        self.config = config
        self.telemetry = Telemetry(seed=shard_id) if config.telemetry else None
        #: service job id -> gateway job id; doubles as the in-flight set.
        self._gateway_ids: Dict[int, int] = {}
        self._heartbeat_seq = 0
        self._closed = False
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        #: one writer at a time on the pipe; independent of ``_lock``
        #: (never hold both — send under _lock would let a slow pipe
        #: block admission).
        self._send_lock = threading.Lock()
        self.service = AcceleratorService(
            devices=config.devices,
            system=scaled_system(l3_slices=config.l3_slices),
            cache_dir=config.cache_dir,
            cache_namespace=f"shard{shard_id}",
            workers=config.workers,
            max_queue_depth=config.max_queue_depth,
            batching=config.batching,
            wave_latency_s=config.wave_latency_s,
            item_latency_s=config.item_latency_s,
            elastic=config.elastic,
            telemetry=self.telemetry,
            done_callback=self._job_done,
        )
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"shard{shard_id}-heartbeat",
        )

    # -- outbound ------------------------------------------------------

    def _send(self, message) -> None:
        with self._send_lock:
            try:
                self.connection.send(message)
            except (BrokenPipeError, OSError):
                # The gateway is gone; shutdown will follow via the
                # receive loop's EOF. Dropping the message is correct —
                # there is nobody left to read it.
                logger.warning("shard %d: send failed, gateway gone",
                               self.shard_id)

    def _job_done(self, job: Job) -> None:
        """``done_callback`` hook, on whichever service thread finished
        the job.  A job that finishes before ``_handle_submit`` maps it
        finds no id here, and ``_handle_submit`` sends it instead."""
        with self._lock:
            gateway_id = self._gateway_ids.pop(job.id, None)
        if gateway_id is not None:
            self._send(ResultMsg(job_id=gateway_id, result=job.result))

    def _heartbeat_loop(self) -> None:
        while True:
            with self._cv:
                if self._closed:
                    return
                self._heartbeat_seq += 1
                sequence = self._heartbeat_seq
                inflight = len(self._gateway_ids)
                self._cv.wait(timeout=self.config.heartbeat_s)
            stats = self.service.stats()
            self._send(HeartbeatMsg(
                shard_id=self.shard_id,
                sequence=sequence,
                inflight=inflight,
                queue_depth=stats.queue_depth,
                locked_ways=stats.locked_ways,
            ))

    # -- inbound -------------------------------------------------------

    def _handle_submit(self, msg: SubmitMsg) -> None:
        try:
            job = self.service.submit(
                msg.spec.benchmark, msg.spec.items,
                **msg.spec.submit_kwargs(),
            )
        except ReproError as exc:
            self._send(RejectMsg(job_id=msg.job_id, error=str(exc)))
            return
        with self._lock:
            # A job that ended inside submit (SATURATED, REJECTED), or
            # that a worker has already finished, is never mapped: its
            # done_callback finds no id, so it is sent from here.
            finished = job.result is not None
            if not finished:
                self._gateway_ids[job.id] = msg.job_id
        if finished:
            self._send(ResultMsg(job_id=msg.job_id, result=job.result))

    def _handle_stats(self, msg: StatsMsg) -> None:
        spans = []
        metrics: Dict = {}
        if self.telemetry is not None and msg.with_telemetry:
            spans = spans_snapshot(self.telemetry)
            metrics = self.telemetry.metrics.snapshot()
        self._send(StatsReplyMsg(
            request_id=msg.request_id,
            shard_id=self.shard_id,
            stats=self.service.stats().to_dict(),
            metrics=metrics,
            spans=spans,
        ))

    def _shutdown(self, drain: bool) -> None:
        # Drain (or cancel) everything; every job reaches a terminal
        # state and its done_callback has sent its result by the time
        # shutdown returns.
        self.service.shutdown(drain=drain)
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self._heartbeat.join(timeout=10.0)
        with self._cv:
            abandoned = tuple(sorted(self._gateway_ids.values()))
        self._send(ByeMsg(shard_id=self.shard_id, abandoned=abandoned))

    def run(self) -> None:
        """The blocking receive loop (the shard process's main thread)."""
        self._heartbeat.start()
        self._send(ReadyMsg(
            shard_id=self.shard_id,
            pid=os.getpid(),
            slices=self.service.pool.max_slices,
        ))
        try:
            while True:
                try:
                    msg = self.connection.recv()
                except EOFError:
                    # Gateway died; stop without draining — nobody is
                    # listening for results anymore.
                    logger.warning("shard %d: gateway EOF, stopping",
                                   self.shard_id)
                    self._shutdown(drain=False)
                    return
                if isinstance(msg, SubmitMsg):
                    self._handle_submit(msg)
                elif isinstance(msg, StatsMsg):
                    self._handle_stats(msg)
                elif isinstance(msg, ShutdownMsg):
                    self._shutdown(drain=msg.drain)
                    return
                else:
                    logger.error("shard %d: unknown message %r",
                                 self.shard_id, type(msg).__name__)
        finally:
            try:
                self.connection.close()
            except OSError:
                pass


def shard_main(shard_id: int, connection, config: ShardConfig) -> None:
    """Process entry point (must stay top-level: spawn pickles it)."""
    logging.basicConfig(
        level=logging.WARNING,
        format=f"[shard{shard_id}] %(levelname)s %(message)s",
    )
    ShardRuntime(shard_id, connection, config).run()
