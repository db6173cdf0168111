"""Multi-tenant accelerator serving layer (docs/serving.md).

The paper exposes FReaC Cache through memory-mapped control registers
precisely so many host threads can share the fabric (Sec. III-E); this
package is the runtime between those callers and
:class:`~repro.freac.device.FreacDevice`:

* :mod:`~repro.service.programs` — a content-addressed compiled-program
  cache (in-memory LRU + optional on-disk JSON store) so admission
  never repeats synthesis/tech-map/fold for a benchmark already seen;
* :mod:`~repro.service.jobs` — the job model and priority queue;
* :mod:`~repro.service.placement` — slice-aware placement packing
  independent jobs onto disjoint slices of one device;
* :mod:`~repro.service.stats` — latency tracking and the
  :class:`ServiceStats` snapshot;
* :mod:`~repro.service.service` — :class:`AcceleratorService`, the
  device pool + scheduler with admission control, batching, deadlines,
  backpressure, and bounded split-and-retry;
* :mod:`~repro.service.workers` — :class:`WorkerPool`, the one dispatch
  loop, run inline (``workers=0``) or on N threads that run waves on
  disjoint slice groups concurrently;
* :mod:`~repro.service.frontend` — the ``freac serve`` / ``freac
  submit`` command-line front ends.
"""

from .jobs import Job, JobQueue, JobRequest, JobResult, JobState
from .placement import Placement, SlicePool
from .programs import (
    CompiledProgram,
    ProgramCache,
    ProgramKey,
    compile_program,
    program_key,
)
from .service import AcceleratorService
from .stats import LatencyTracker, ServiceStats
from .workers import WorkerPool

__all__ = [
    "AcceleratorService",
    "CompiledProgram",
    "Job",
    "JobQueue",
    "JobRequest",
    "JobResult",
    "JobState",
    "LatencyTracker",
    "Placement",
    "ProgramCache",
    "ProgramKey",
    "ServiceStats",
    "SlicePool",
    "WorkerPool",
    "compile_program",
    "program_key",
]
