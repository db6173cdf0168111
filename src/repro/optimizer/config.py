"""Optimizer configuration: one frozen knob bundle, content-hashable.

The optimal-mapping tier is *optional* and *cached*: an optimized
program lands in the content-addressed program cache next to its
heuristic sibling, so the configuration that produced it must be part
of the cache key.  :meth:`OptimizerConfig.digest` canonicalises every
behaviour-relevant knob (plus :data:`OPTIMIZER_VERSION`, bumped on any
algorithm change) into a hash, and :meth:`OptimizerConfig.token` turns
that into the short suffix :class:`~repro.service.programs.ProgramKey`
carries — heuristic and optimized artifacts can never collide or
cross-serve (docs/optimizer.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Any

from ..errors import OptimizerError

#: Bump when optimization behaviour changes: the token (and hence the
#: program-cache key) includes it, so stale optimized entries become
#: unreachable instead of silently wrong.
OPTIMIZER_VERSION = 1

@dataclass(frozen=True)
class OptimizerConfig:
    """Every knob of one optimization pass (frozen, hashable)."""

    enabled: bool = True
    #: Wall-clock budget for the optimization work (remap + search).
    #: The pass is *time-boxed*: whatever the deadline interrupts, the
    #: heuristic schedule is always available.  The final lint gate on
    #: a winning candidate runs to completion — correctness checks are
    #: never truncated — so a huge PE (AES) can finish somewhat past
    #: the budget.
    budget_s: float = 8.0
    #: Priority cuts kept per node during area re-covering (the
    #: heuristic tech-mapper keeps 6, ranked by depth; re-covering
    #: ranks by area flow and can afford a little more width).
    cut_limit: int = 8
    #: Area-flow re-covering rounds (refs converge quickly; 2 is the
    #: classic ABC-style choice).
    remap_iterations: int = 2
    #: Randomized greedy restarts per candidate makespan in the
    #: branch-and-bound search.
    restarts: int = 64
    #: Instances up to this many ops get the exhaustive feasibility
    #: search (which can *prove* optimality); larger ones rely on the
    #: greedy/randomized descent only.
    exhaustive_op_limit: int = 160
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget_s <= 0:
            raise OptimizerError("optimizer budget must be positive")
        if self.cut_limit < 1:
            raise OptimizerError("cut limit must be at least 1")
        if self.remap_iterations < 0:
            raise OptimizerError("remap iterations must be >= 0")
        if self.restarts < 0:
            raise OptimizerError("restarts must be >= 0")

    def digest(self) -> str:
        """Content hash over every behaviour-relevant knob."""
        payload = asdict(self)
        payload["version"] = OPTIMIZER_VERSION
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def token(self) -> str:
        """The short cache-key suffix ('' when disabled = heuristic)."""
        if not self.enabled:
            return ""
        return f"o{self.digest()[:10]}"

    def replace(self, **changes: Any) -> "OptimizerConfig":
        """A copy with ``changes`` applied (frozen-safe)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(changes)
        return OptimizerConfig(**values)
