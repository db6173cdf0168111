"""Service observability: latency percentiles and stats snapshots."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..telemetry.metrics import Reservoir


def percentile(samples: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    if not samples:
        return None
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("percentile fraction must be within [0, 1]")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * len(ordered)) - 1))
    return ordered[rank]


class LatencyTracker:
    """Bounded reservoir of job latencies (seconds).

    Backed by a seeded Algorithm-R :class:`~repro.telemetry.Reservoir`,
    so the retained sample — and therefore p50/p95 — is a deterministic
    function of the latency sequence: replaying the same run yields the
    same percentiles, and memory never exceeds ``max_samples`` floats.
    :attr:`sample_count` says how many samples the percentiles actually
    rest on, so a p95 over three jobs is visibly a p95 over three jobs.
    """

    def __init__(self, max_samples: int = 4096, seed: int = 0) -> None:
        self.max_samples = max_samples
        self._reservoir = Reservoir(capacity=max_samples, seed=seed)

    def add(self, seconds: float) -> None:
        self._reservoir.add(seconds)

    @property
    def count(self) -> int:
        """Latencies ever observed (>= :attr:`sample_count`)."""
        return self._reservoir.count

    @property
    def sample_count(self) -> int:
        """Samples retained — the denominator behind p50/p95."""
        return self._reservoir.sample_count

    def percentile(self, fraction: float) -> Optional[float]:
        return self._reservoir.percentile(fraction)

    @property
    def p50(self) -> Optional[float]:
        return self._reservoir.percentile(0.50)

    @property
    def p95(self) -> Optional[float]:
        return self._reservoir.percentile(0.95)


@dataclass
class ServiceStats:
    """One point-in-time snapshot of an :class:`AcceleratorService`.

    Like :class:`~repro.service.jobs.JobResult` this is wire-format
    data: plain ints/floats/lists/dicts only, so a snapshot pickles
    across the sharded gateway's process boundary and round-trips
    losslessly through :meth:`to_dict`/:meth:`from_dict`.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    cancelled: int = 0
    timed_out: int = 0
    saturated: int = 0             # rejected by bounded-queue backpressure
    requeued: int = 0              # returned to the queue by deadline aborts
    retries: int = 0
    batches: int = 0               # merged runs executed
    batched_jobs: int = 0          # jobs that shared a run with another
    queue_depth: int = 0
    running: int = 0
    workers: int = 0               # dispatch threads (0 = synchronous)
    workers_busy: int = 0          # of which currently executing a wave
    slice_utilization: List[float] = field(default_factory=list)
    cache: Dict[str, float] = field(default_factory=dict)
    latency_p50_s: Optional[float] = None
    latency_p95_s: Optional[float] = None
    latency_samples: int = 0       # samples behind the percentiles
    # Elastic partitioning (zero when the service runs static):
    ways_resized: int = 0          # way grow/shrink/setup transitions
    resize_cost_s: float = 0.0     # modeled flush+switch+delta-config time
    warm_attaches: int = 0         # waves that reused locked ways
    warm_waves: int = 0            # of which also reused the program
    locked_ways: int = 0           # gauge: ways held out of cache now
    device_s: float = 0.0          # modeled kernel+transition+config time
    energy_j: float = 0.0          # modeled accelerator + transition energy
    items_per_joule: float = 0.0   # executed items per modeled joule

    @property
    def cache_hit_rate(self) -> float:
        return float(self.cache.get("hit_rate", 0.0))

    def to_dict(self) -> Dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "timed_out": self.timed_out,
            "saturated": self.saturated,
            "requeued": self.requeued,
            "retries": self.retries,
            "batches": self.batches,
            "batched_jobs": self.batched_jobs,
            "queue_depth": self.queue_depth,
            "running": self.running,
            "workers": self.workers,
            "workers_busy": self.workers_busy,
            "slice_utilization": list(self.slice_utilization),
            "cache": dict(self.cache),
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_samples": self.latency_samples,
            "ways_resized": self.ways_resized,
            "resize_cost_s": self.resize_cost_s,
            "warm_attaches": self.warm_attaches,
            "warm_waves": self.warm_waves,
            "locked_ways": self.locked_ways,
            "device_s": self.device_s,
            "energy_j": self.energy_j,
            "items_per_joule": self.items_per_joule,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ServiceStats":
        """Inverse of :meth:`to_dict` (the wire-format contract)."""
        fields_ = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields_})
