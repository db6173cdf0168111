"""Job model and priority queue for the serving layer.

A :class:`Job` is one caller request moving through admission,
queueing, placement, execution, and completion.  The queue orders by
descending priority (ties FIFO) and supports pulling a whole *batch
group* — every queued job that can share one programmed accelerator —
so same-benchmark traffic amortises configuration writes the way the
paper's host interface intends (one program step, many invocations).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis import AnalysisReport
from ..workloads.datagen import Dataset


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    REJECTED = "rejected"      # admission control said no (lint errors)
    FAILED = "failed"          # ran, but errored (e.g. retries exhausted)
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"
    SATURATED = "saturated"    # bounded queue was full (backpressure)

    @property
    def terminal(self) -> bool:
        return self not in (JobState.PENDING, JobState.RUNNING)


@dataclass(frozen=True)
class JobRequest:
    """What a caller asks for: benchmark, batch, and service knobs."""

    benchmark: str
    items: int
    priority: int = 0
    mccs_per_tile: int = 1
    lut_inputs: int = 5
    slices: int = 1                    # device slices this job wants
    timeout_s: Optional[float] = None  # queue-wait deadline
    seed: int = 0
    dataset: Optional[Dataset] = None
    optimize: bool = False             # fold-count-minimized program
    opt_budget_s: Optional[float] = None  # optimizer time box override

    def batch_key(self) -> Tuple:
        """Jobs with equal keys can share one programmed accelerator.

        The optimizer knobs are part of the key: different budgets
        compile to different cache entries, and a wave is programmed
        from exactly one of them.
        """
        return (self.benchmark, self.lut_inputs, self.mccs_per_tile,
                self.slices, self.optimize, self.opt_budget_s)


@dataclass
class JobResult:
    """The terminal outcome handed back by ``result()``.

    This is the serving layer's *wire format*: every field is a plain
    int/str/float/bool (or a nesting of those) — no device, session,
    or lock references — so a result round-trips losslessly through
    both :mod:`pickle` (the sharded gateway's reply channel) and
    :meth:`to_dict`/:meth:`from_dict` (JSON sidecars, stats files).
    """

    job_id: int
    state: JobState
    benchmark: str
    items: int
    verified: Optional[bool] = None
    mismatches: int = 0
    invocations: int = 0
    latency_s: Optional[float] = None     # submit -> terminal
    queue_s: Optional[float] = None       # submit -> placement
    retries: int = 0
    batch_size: int = 1                   # jobs merged into this run
    cache_hit: Optional[bool] = None
    placement: Optional[Tuple[int, Tuple[int, ...]]] = None
    admission: Optional[AnalysisReport] = None   # full report on rejection
    error: Optional[str] = None

    def to_dict(self) -> Dict:
        data: Dict = {
            "job_id": self.job_id,
            "state": self.state.value,
            "benchmark": self.benchmark,
            "items": self.items,
            "verified": self.verified,
            "mismatches": self.mismatches,
            "invocations": self.invocations,
            "latency_s": self.latency_s,
            "queue_s": self.queue_s,
            "retries": self.retries,
            "batch_size": self.batch_size,
            "cache_hit": self.cache_hit,
            "placement": (
                [self.placement[0], list(self.placement[1])]
                if self.placement else None
            ),
            "error": self.error,
        }
        if self.admission is not None:
            data["admission"] = self.admission.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "JobResult":
        """Inverse of :meth:`to_dict` (the wire-format contract)."""
        placement = data.get("placement")
        admission = data.get("admission")
        return cls(
            job_id=data["job_id"],
            state=JobState(data["state"]),
            benchmark=data["benchmark"],
            items=data["items"],
            verified=data.get("verified"),
            mismatches=data.get("mismatches", 0),
            invocations=data.get("invocations", 0),
            latency_s=data.get("latency_s"),
            queue_s=data.get("queue_s"),
            retries=data.get("retries", 0),
            batch_size=data.get("batch_size", 1),
            cache_hit=data.get("cache_hit"),
            placement=(
                (placement[0], tuple(placement[1]))
                if placement is not None else None
            ),
            admission=(
                AnalysisReport.from_dict(admission)
                if admission is not None else None
            ),
            error=data.get("error"),
        )


@dataclass
class Job:
    """One request's lifecycle record inside the service."""

    id: int
    request: JobRequest
    state: JobState = JobState.PENDING
    submitted_at: float = 0.0           # time.perf_counter timestamps
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cache_hit: bool = False
    result: Optional[JobResult] = None

    @property
    def done(self) -> bool:
        return self.state.terminal


class JobQueue:
    """Priority queue (max priority first, FIFO within a priority).

    Thread-safe: every operation holds one internal lock, so many
    submitter threads and many worker threads can push/pop
    concurrently.  ``max_depth`` bounds the queue: :meth:`offer`
    refuses (returns ``False``) once that many jobs are pending, which
    the service turns into a ``SATURATED`` rejection — backpressure
    instead of unbounded memory growth under overload.  Requeues
    (placement failures, mid-wave deadline aborts) bypass the bound:
    a job already admitted must never be dropped.
    """

    #: Mutated only under ``self._lock`` — enforced by
    #: ``repro.analysis.selfcheck`` in CI.
    _GUARDED_BY_LOCK = ("_heap",)

    def __init__(self, max_depth: Optional[int] = None) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError("queue depth bound must be at least one job")
        self.max_depth = max_depth
        self._heap: List[Tuple[int, int, Job]] = []
        self._sequence = itertools.count()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            self._compact()
            return len(self._heap)

    def push(self, job: Job) -> None:
        """Unbounded push (requeues and tests); see :meth:`offer`."""
        with self._lock:
            heapq.heappush(
                self._heap, (-job.request.priority, next(self._sequence), job)
            )

    def offer(self, job: Job) -> bool:
        """Bounded push: ``False`` when the queue is saturated."""
        with self._lock:
            self._compact()
            if self.max_depth is not None and len(self._heap) >= self.max_depth:
                return False
            self.push(job)
            return True

    def _compact(self) -> None:
        # Cancelled/timed-out jobs are abandoned in place; drop them
        # lazily so depth and pop never see them.
        while self._heap and self._heap[0][2].state is not JobState.PENDING:
            heapq.heappop(self._heap)

    def pop(self) -> Optional[Job]:
        with self._lock:
            self._compact()
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]

    def pop_group(self, *, batch: bool = True) -> List[Job]:
        """Pop the head job plus every queued job batchable with it.

        Group members share a :meth:`JobRequest.batch_key`; the head's
        priority wins (a batched low-priority job rides along — strict
        priority order is preserved for the *head* of every group).
        """
        with self._lock:
            head = self.pop()
            if head is None:
                return []
            group = [head]
            if not batch:
                return group
            key = head.request.batch_key()
            kept: List[Tuple[int, int, Job]] = []
            self._compact()
            for entry in sorted(self._heap):
                job = entry[2]
                if job.state is not JobState.PENDING:
                    continue
                if job.request.batch_key() == key:
                    group.append(job)
                else:
                    kept.append(entry)
            self._heap = kept
            heapq.heapify(self._heap)
            return group

    def requeue(self, jobs: List[Job]) -> None:
        """Return unplaced jobs to the queue (priority order holds;
        within a priority they line up behind current arrivals)."""
        with self._lock:
            for job in jobs:
                heapq.heappush(
                    self._heap,
                    (-job.request.priority, next(self._sequence), job),
                )
