"""Optimal-mapping tier: fold-count minimization behind the cache.

The heuristic flow (priority-cut tech-map + cone-ordered list
scheduling) is fast but leaves folds on the table; because compiled
programs are content-addressed and cached, a *slow* optimizer that
runs once per program is pure win for all subsequent serving traffic —
effective clock is CacheClock / fold-count (paper Sec. IV).

This package is that optimizer: area-flow cut re-covering
(:mod:`~repro.optimizer.cuts`), LP-style lower bounds
(:mod:`~repro.optimizer.bounds`), a time-boxed pure-python
branch-and-bound (:mod:`~repro.optimizer.search`), and a rebuild
step emitting standard schedules (:mod:`~repro.optimizer.rebuild`) —
orchestrated by :func:`optimize_schedule`, which never returns more
folds than the heuristic.  ``freac optimize`` is the CLI; see
docs/optimizer.md.
"""

from .bounds import build_graph, lower_bound
from .config import OPTIMIZER_VERSION, OptimizerConfig
from .core import OptimizationOutcome, optimize_schedule
from .cuts import area_remap
from .rebuild import rebuild_schedule

__all__ = [
    "OPTIMIZER_VERSION",
    "OptimizationOutcome",
    "OptimizerConfig",
    "area_remap",
    "build_graph",
    "lower_bound",
    "optimize_schedule",
    "rebuild_schedule",
]
