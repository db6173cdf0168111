"""``RunRequest``: one frozen bundle of run/submit knobs.

The CLI front ends (``freac run``, ``freac submit``, ``freac serve``,
``freac trace``, ``freac metrics``) all accept the same cluster of
options — benchmark, batch size, tile shape, LUT width, seed — but
used to pull them out of ``argparse`` namespaces ad hoc, each with its
own defaults.  ``RunRequest`` consolidates them:
one frozen, validated dataclass built once (usually via
:meth:`RunRequest.from_args`) and handed to whichever layer executes
it — :meth:`repro.service.AcceleratorService.submit_request` or
:func:`repro.freac.runner.run_workload`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from .errors import RequestError


@dataclass(frozen=True)
class RunRequest:
    """What one CLI invocation asks the stack to execute."""

    benchmark: str
    items: int = 8
    mccs_per_tile: int = 1
    lut_inputs: int = 5
    seed: int = 0
    slices: int = 1                    # device slices the job spans
    priority: int = 0
    timeout_s: Optional[float] = None
    preflight: bool = True             # lint netlist+schedule up front
    telemetry: bool = False            # wire a live Telemetry through
    optimize: bool = False             # serve fold-count-minimized programs
    opt_budget_s: Optional[float] = None  # optimizer time box override

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmark", self.benchmark.upper())
        if self.items < 1:
            raise RequestError("a run needs at least one item")
        if self.mccs_per_tile < 1:
            raise RequestError("a tile needs at least one MCC")
        if self.opt_budget_s is not None and self.opt_budget_s <= 0:
            raise RequestError("the optimizer budget must be positive")

    # Maps dataclass fields to the argparse attribute(s) that feed
    # them, in priority order (``freac submit`` says --job-slices where
    # ``freac run`` says --slices for a different knob, so job slices
    # only ever come from job_slices).
    _ARG_SOURCES = {
        "benchmark": ("benchmark",),
        "items": ("items",),
        "mccs_per_tile": ("tile", "mccs_per_tile"),
        "lut_inputs": ("lut_inputs",),
        "seed": ("seed",),
        "slices": ("job_slices",),
        "priority": ("priority",),
        "timeout_s": ("timeout_s",),
        "optimize": ("optimize",),
        "opt_budget_s": ("opt_budget_s",),
    }

    @classmethod
    def from_args(cls, args: argparse.Namespace, **overrides: Any
                  ) -> "RunRequest":
        """Build a request from an ``argparse`` namespace.

        Only attributes present on the namespace participate; missing
        ones keep their dataclass defaults, and keyword ``overrides``
        win over both (the trace front end passes ``telemetry=True``).
        """
        values: Dict[str, Any] = {}
        for name, sources in cls._ARG_SOURCES.items():
            for source in sources:
                value = getattr(args, source, None)
                if value is not None:
                    values[name] = value
                    break
        values.update(overrides)
        return cls(**values)

    def submit_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``AcceleratorService.submit``."""
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

    def replace(self, **changes: Any) -> "RunRequest":
        """A copy with ``changes`` applied (frozen-safe)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(changes)
        return RunRequest(**values)
