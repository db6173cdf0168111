"""The optimization pass: remap, search, rebuild, gate, never worsen.

:func:`optimize_schedule` is the whole tier behind one call.  Within
one wall-clock budget it

1. takes (or builds) the heuristic list schedule as the incumbent,
2. re-covers the netlist with area-flow-ranked cuts
   (:mod:`repro.optimizer.cuts`) and re-schedules the smaller netlist,
3. runs the branch-and-bound makespan minimization
   (:mod:`repro.optimizer.search`) on the best candidate so far,
   re-running the spill pass per candidate so comparisons are on
   **fold cycles** — the paper's N — never on compute cycles alone (a shorter op grid that spills more is a
   regression, and early prototypes hit exactly that on SRT),
4. gates any would-be winner through strict schedule validation plus
   the DF dataflow rule pack; findings reject it (``optimizer.rejected``
   counter + log) and the heuristic schedule is served instead,
5. returns an :class:`OptimizationOutcome` whose schedule is
   **guaranteed** to fold in no more cycles than the heuristic one.

Time is read through an injectable ``clock`` so the budget-respected
property is testable without sleeping.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..analysis import analyze_dataflow
from ..circuits.netlist import Netlist
from ..folding.schedule import FoldingSchedule, TileResources
from ..folding.scheduler import list_schedule
from ..folding.validate import collect_violations
from ..telemetry import Telemetry
from ..telemetry.core import resolve
from .bounds import OpGraph, build_graph, lower_bound
from .config import OptimizerConfig
from .cuts import area_remap, lut_count
from .rebuild import rebuild_schedule
from .search import minimize_makespan

logger = logging.getLogger("repro.optimizer")


@dataclass
class OptimizationOutcome:
    """One pass's result: the schedule to serve, plus its audit trail."""

    schedule: FoldingSchedule
    heuristic_fold_cycles: int
    optimized_fold_cycles: int
    lower_bound: int
    improved: bool = False
    proven_optimal: bool = False
    remapped: bool = False
    lut_count_before: int = 0
    lut_count_after: int = 0
    time_to_best_s: float = 0.0
    elapsed_s: float = 0.0
    timed_out: bool = False
    rejected: bool = False
    rejection_reasons: List[str] = field(default_factory=list)

    @property
    def bound_gap(self) -> int:
        """Folds between what we serve and what the bound allows."""
        return max(0, self.optimized_fold_cycles - self.lower_bound)

    def stats_dict(self) -> Dict[str, object]:
        """Plain-JSON audit record (cached with the program entry)."""
        return {
            "heuristic_fold_cycles": self.heuristic_fold_cycles,
            "optimized_fold_cycles": self.optimized_fold_cycles,
            "lower_bound": self.lower_bound,
            "bound_gap": self.bound_gap,
            "improved": self.improved,
            "proven_optimal": self.proven_optimal,
            "remapped": self.remapped,
            "lut_count_before": self.lut_count_before,
            "lut_count_after": self.lut_count_after,
            "time_to_best_s": round(self.time_to_best_s, 6),
            "elapsed_s": round(self.elapsed_s, 6),
            "timed_out": self.timed_out,
            "rejected": self.rejected,
            "rejection_reasons": list(self.rejection_reasons),
        }


def _gate(schedule: FoldingSchedule) -> List[str]:
    """Strict validation + DF rule pack; error findings as strings."""
    reasons: List[str] = []
    schedule_report = collect_violations(schedule, strict=True)
    for diagnostic in schedule_report.errors:
        reasons.append(f"{diagnostic.rule}: {diagnostic.message}")
    dataflow_report = analyze_dataflow(schedule)
    for diagnostic in dataflow_report.errors:
        reasons.append(f"{diagnostic.rule}: {diagnostic.message}")
    return reasons


def optimize_schedule(
    netlist: Netlist,
    resources: TileResources,
    *,
    config: Optional[OptimizerConfig] = None,
    heuristic: Optional[FoldingSchedule] = None,
    telemetry: Optional[Telemetry] = None,
    clock: Callable[[], float] = time.monotonic,
) -> OptimizationOutcome:
    """Minimize fold count within ``config.budget_s``; never worsen.

    ``heuristic`` injects an already-computed list schedule (the
    program-cache compile path has one in hand); otherwise one is
    built first, *outside* the budget — the time box covers
    optimization work only, and the fallback must always exist.
    """
    config = config or OptimizerConfig()
    tel = resolve(telemetry)
    if heuristic is None:
        heuristic = list_schedule(netlist, resources)
    start = clock()
    deadline = start + config.budget_s

    best = heuristic
    algorithm = "opt-bnb"
    state = {"time_to_best": 0.0, "remapped_used": False}

    def consider(candidate: FoldingSchedule, *, remapped: bool) -> None:
        nonlocal best
        if candidate.fold_cycles < best.fold_cycles:
            best = candidate
            state["time_to_best"] = clock() - start
            state["remapped_used"] = remapped

    # -- 1. area re-covering --------------------------------------------
    luts_before = lut_count(netlist)
    remapped_netlist: Optional[Netlist] = None
    timed_out = False
    if config.remap_iterations > 0:
        remapped_netlist = area_remap(
            netlist, resources.lut_inputs,
            cut_limit=config.cut_limit,
            iterations=config.remap_iterations,
            deadline=deadline, clock=clock,
        )
        if remapped_netlist is None:
            timed_out = True
        elif clock() < deadline:
            try:
                remapped_schedule = list_schedule(
                    remapped_netlist, resources
                )
            except Exception:
                logger.exception(
                    "optimizer: scheduling the re-covered %s netlist "
                    "failed; keeping the original cover", netlist.name,
                )
                remapped_netlist = None
            else:
                remapped_schedule.algorithm = algorithm
                consider(remapped_schedule, remapped=True)
        else:
            timed_out = True

    # -- 2. makespan search on the best candidate netlist ---------------
    search_netlist = (
        remapped_netlist
        if state["remapped_used"] and remapped_netlist is not None
        else netlist
    )
    graph: OpGraph = build_graph(search_netlist)
    bound = lower_bound(graph, resources)
    # Whichever candidate currently leads is scheduled on
    # ``search_netlist``, so it seeds the search as the incumbent.
    incumbent = best
    proven = incumbent.compute_cycles <= bound
    remaining = deadline - clock()
    if remaining > 0 and incumbent.compute_cycles > bound:

        def on_improve(cycle_of: Dict[int, int], _makespan: int) -> None:
            candidate = rebuild_schedule(
                search_netlist, resources, cycle_of,
                algorithm=algorithm,
            )
            consider(
                candidate,
                remapped=search_netlist is not netlist,
            )

        info = minimize_makespan(
            graph, resources,
            upper=incumbent.compute_cycles, lower=bound,
            restarts=config.restarts,
            exhaustive_op_limit=config.exhaustive_op_limit,
            seed=config.seed,
            deadline=deadline, clock=clock,
            on_improve=on_improve,
        )
        proven = proven or info.proven_optimal
        timed_out = timed_out or info.timed_out
    elif remaining <= 0:
        timed_out = True

    # -- 3. the gate + the never-worse guarantee ------------------------
    rejected = False
    reasons: List[str] = []
    if best is not heuristic:
        reasons = _gate(best)
        if reasons:
            rejected = True
            logger.warning(
                "optimizer: rejecting optimized %s schedule "
                "(%d finding(s): %s); serving the heuristic one",
                netlist.name, len(reasons), "; ".join(reasons[:3]),
            )
            best = heuristic
    if best.fold_cycles > heuristic.fold_cycles:  # pragma: no cover
        # Unreachable by construction (``consider`` only ever lowers
        # the fold count); a belt-and-braces guard on the contract.
        best = heuristic

    improved = best.fold_cycles < heuristic.fold_cycles
    if tel.enabled:
        tel.counter(
            "optimizer.runs", "optimization passes attempted"
        ).inc()
        if improved:
            tel.counter(
                "optimizer.improved", "passes that beat the heuristic"
            ).inc()
        if rejected:
            tel.counter(
                "optimizer.rejected",
                "optimized schedules rejected by the lint gate",
            ).inc()

    return OptimizationOutcome(
        schedule=best,
        heuristic_fold_cycles=heuristic.fold_cycles,
        optimized_fold_cycles=best.fold_cycles,
        lower_bound=bound,
        improved=improved,
        # "Proven" means: the search (or the bound itself) certified
        # the served schedule's compute makespan is minimal for its
        # netlist.  A rejection voids the proof — the proof was about
        # the candidate we refused to serve.
        proven_optimal=(
            proven and not rejected
            and best.netlist is search_netlist
        ),
        remapped=improved and state["remapped_used"],
        lut_count_before=luts_before,
        lut_count_after=lut_count(best.netlist),
        time_to_best_s=state["time_to_best"] if improved else 0.0,
        elapsed_s=clock() - start,
        timed_out=timed_out,
        rejected=rejected,
        rejection_reasons=reasons,
    )
