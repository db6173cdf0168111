"""Message types on the gateway <-> shard wire.

Everything here is a frozen dataclass of plain ints/strs/floats (or
wire-format objects like :class:`~repro.service.jobs.JobResult` that
guarantee the same), sent as one ``multiprocessing.Connection``
message each: ``Connection.send`` pickles and length-prefixes it, and
both ends run the same code.  Two directions:

Gateway -> shard
    :class:`SubmitMsg` (one job), :class:`StatsMsg` (snapshot
    request), :class:`ShutdownMsg` (drain-and-exit or stop-now).

Shard -> gateway
    :class:`ReadyMsg` (the shard's service is up), :class:`ResultMsg`
    (one terminal job), :class:`RejectMsg` (admission raised before a
    job existed), :class:`HeartbeatMsg` (liveness + load),
    :class:`StatsReplyMsg` (ServiceStats + telemetry snapshot),
    :class:`ByeMsg` (clean exit acknowledgement).

``job_id`` fields always carry the *gateway's* fleet-wide id; the
shard's internal service ids never cross the wire (each shard numbers
its own jobs from 1, so they would collide the moment two shards
exist).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..service.jobs import JobResult


@dataclass(frozen=True)
class JobSpec:
    """One job request as it travels gateway -> shard.

    A plain-payload mirror of the ``AcceleratorService.submit``
    keyword surface (datasets deliberately excluded: the shard
    regenerates them from ``seed``, which keeps submit messages tiny).
    """

    benchmark: str
    items: int
    priority: int = 0
    mccs_per_tile: int = 1
    lut_inputs: int = 5
    slices: int = 1
    timeout_s: Optional[float] = None
    seed: int = 0
    optimize: bool = False
    opt_budget_s: Optional[float] = None

    def route_key(self) -> str:
        """The content-addressed program-cache coordinate this job
        compiles under (sans library hash, which is fleet-constant):
        jobs with equal keys reuse one compiled program, so the
        consistent-hash router keeps them shard-local.  Optimized jobs
        compile under a different cache entry, so they route as a
        distinct coordinate too."""
        key = (
            f"{self.benchmark.upper()}:k{self.lut_inputs}"
            f":t{self.mccs_per_tile}"
        )
        if self.optimize:
            key += ":opt"
        return key

    def submit_kwargs(self) -> Dict[str, object]:
        return {
            "priority": self.priority,
            "mccs_per_tile": self.mccs_per_tile,
            "lut_inputs": self.lut_inputs,
            "slices": self.slices,
            "timeout_s": self.timeout_s,
            "seed": self.seed,
            "optimize": self.optimize,
            "opt_budget_s": self.opt_budget_s,
        }


# ---------------------------------------------------------------------------
# Gateway -> shard
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmitMsg:
    job_id: int
    spec: JobSpec


@dataclass(frozen=True)
class StatsMsg:
    """Ask the shard for a stats + telemetry snapshot."""

    request_id: int
    #: Include the (potentially large) telemetry span list.
    with_telemetry: bool = True


@dataclass(frozen=True)
class ShutdownMsg:
    drain: bool = True


# ---------------------------------------------------------------------------
# Shard -> gateway
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReadyMsg:
    shard_id: int
    pid: int
    slices: int          # placement capacity, for the gateway's view


@dataclass(frozen=True)
class ResultMsg:
    job_id: int
    result: JobResult


@dataclass(frozen=True)
class RejectMsg:
    """Admission raised (RequestError and kin) before a job existed."""

    job_id: int
    error: str


@dataclass(frozen=True)
class HeartbeatMsg:
    shard_id: int
    sequence: int
    inflight: int        # jobs admitted on the shard, not yet terminal
    queue_depth: int
    locked_ways: int = 0  # elastic gauge: ways held out of cache now


@dataclass(frozen=True)
class StatsReplyMsg:
    request_id: int
    shard_id: int
    stats: Dict          # ServiceStats.to_dict()
    metrics: Dict = field(default_factory=dict)
    #: Wall-clock (unix-epoch) span dicts from
    #: :func:`repro.telemetry.merge.spans_snapshot` — the cross-process
    #: trace-stitching payload.
    spans: List[Dict] = field(default_factory=list)


@dataclass(frozen=True)
class ByeMsg:
    shard_id: int
    #: Job ids the shard knew about but could not finish (stop-now
    #: shutdown); the gateway terminally resolves them.
    abandoned: Tuple[int, ...] = ()
