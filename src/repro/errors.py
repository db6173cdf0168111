"""Exception hierarchy for the FReaC Cache reproduction.

Every error raised by the library derives from :class:`ReproError` so
callers can catch one type at an API boundary.  Subclasses are grouped
by subsystem: circuits/synthesis, folding/scheduling, the cache
substrate, and the FReaC device model.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An architecture parameter set is inconsistent or out of range."""


class CircuitError(ReproError):
    """A netlist is malformed (cycles, bad arity, dangling references)."""


class SynthesisError(ReproError):
    """Technology mapping could not cover the circuit with K-LUTs."""


class SchedulingError(ReproError):
    """Logic folding could not produce a legal schedule."""


class ScheduleViolation(SchedulingError):
    """A produced schedule violates an MCC resource constraint.

    Raised by the schedule validator; carries the offending cycle and
    a human-readable description of the violated constraint.
    """

    def __init__(self, cycle: int, constraint: str) -> None:
        self.cycle = cycle
        self.constraint = constraint
        super().__init__(f"cycle {cycle}: {constraint}")


class OptimizerError(ReproError):
    """The optimal-mapping tier was misconfigured or misused.

    (An invalid knob, an inconsistent cycle assignment handed to the
    schedule rebuilder — *not* an optimization that merely failed to
    improve, which falls back to the heuristic schedule silently.)
    """


class AnalysisError(ReproError):
    """The static-analysis framework itself was misused.

    (Bad rule registration, unknown rule ids, un-dispatchable
    artifacts — *not* findings about an artifact, which are collected
    as diagnostics in an ``AnalysisReport``.)
    """


class PreflightError(AnalysisError):
    """A pre-flight lint found error-severity diagnostics.

    Raised by the executor/runner gate before an artifact is allowed
    to touch the fabric; carries the complete ``AnalysisReport`` so
    callers see every violation, not just the first.
    """

    def __init__(self, stage: str, report) -> None:
        self.stage = stage
        self.report = report
        errors = report.errors
        head = "; ".join(f"{d.rule}: {d.message}" for d in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"pre-flight {stage} check failed with {len(errors)} "
            f"error(s): {head}{more}"
        )


class RequestError(ReproError, ValueError):
    """A caller-supplied request is invalid.

    Bad user input — an unknown benchmark, a dataset that does not
    match the requested batch size, a non-positive item count — as
    opposed to :class:`DeviceError`, which marks an illegal *device
    state* transition.  Derives from :class:`ValueError` so callers
    that treat the library as a plain Python API catch it naturally.
    """


class ServiceError(ReproError):
    """The serving layer was driven inconsistently.

    For example: asking for the result of a job id the service never
    issued, or pumping a service whose devices were torn down.
    """


class CacheError(ReproError):
    """The cache substrate was used inconsistently."""


class LockedWayError(CacheError):
    """A cache operation touched a way that is locked for compute."""


class DeviceError(ReproError):
    """The FReaC device was driven through an illegal state transition."""


class CapacityError(DeviceError):
    """A resource (scratchpad, config rows, FF bank) overflowed."""


class ProtocolError(DeviceError):
    """The host interface was used out of protocol order.

    For example: issuing RUN before configuration bits were written, or
    filling a scratchpad before ways were locked.
    """
