"""optimize_schedule: improvement, budget, lint gate, never worse."""

import pytest

from repro.analysis.core import AnalysisReport, Diagnostic, Severity
from repro.circuits.library import mapped_pe
from repro.folding.schedule import TileResources
from repro.folding.scheduler import list_schedule
from repro.optimizer import OptimizerConfig, optimize_schedule
from repro.telemetry import Telemetry

RESOURCES = TileResources(mccs=1)


def bnb_config(**changes):
    return OptimizerConfig().replace(**changes)


class TestImprovement:
    def test_vadd_improves_and_is_audited(self):
        netlist = mapped_pe("VADD")
        heuristic = list_schedule(netlist, RESOURCES)
        outcome = optimize_schedule(
            netlist, RESOURCES, config=bnb_config(), heuristic=heuristic
        )
        assert outcome.improved and not outcome.rejected
        assert outcome.heuristic_fold_cycles == heuristic.fold_cycles
        assert outcome.optimized_fold_cycles == outcome.schedule.fold_cycles
        assert outcome.optimized_fold_cycles < heuristic.fold_cycles
        assert outcome.schedule.algorithm == "opt-bnb"
        assert outcome.lower_bound <= outcome.optimized_fold_cycles
        assert outcome.lut_count_after < outcome.lut_count_before

    def test_stats_dict_is_plain_json(self):
        import json

        netlist = mapped_pe("STN3")
        outcome = optimize_schedule(netlist, RESOURCES, config=bnb_config())
        stats = outcome.stats_dict()
        json.dumps(stats)   # must not raise
        assert stats["bound_gap"] == outcome.bound_gap

    def test_heuristic_built_when_not_injected(self):
        netlist = mapped_pe("DOT")
        outcome = optimize_schedule(netlist, RESOURCES, config=bnb_config())
        heuristic = list_schedule(netlist, RESOURCES)
        assert outcome.heuristic_fold_cycles == heuristic.fold_cycles
        assert outcome.schedule.fold_cycles <= heuristic.fold_cycles


class TestBudget:
    def test_expired_budget_serves_the_heuristic(self):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 100.0   # every poll blows the budget
            return clock_value[0]

        netlist = mapped_pe("VADD")
        heuristic = list_schedule(netlist, RESOURCES)
        outcome = optimize_schedule(
            netlist, RESOURCES,
            config=bnb_config(budget_s=1.0),
            heuristic=heuristic, clock=clock,
        )
        assert outcome.timed_out
        assert not outcome.improved
        assert outcome.schedule is heuristic
        assert outcome.time_to_best_s == 0.0

    def test_elapsed_uses_the_injected_clock(self):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 0.5
            return clock_value[0]

        outcome = optimize_schedule(
            mapped_pe("STN3"), RESOURCES,
            config=bnb_config(), clock=clock,
        )
        assert outcome.elapsed_s == pytest.approx(
            clock_value[0] - 0.5, abs=1e-9
        )


class TestNeverWorse:
    @pytest.mark.parametrize("name", ["VADD", "DOT", "SRT", "KMP", "STN3"])
    def test_fold_count_never_increases(self, name):
        netlist = mapped_pe(name)
        heuristic = list_schedule(netlist, RESOURCES)
        outcome = optimize_schedule(
            netlist, RESOURCES, config=bnb_config(), heuristic=heuristic
        )
        assert outcome.schedule.fold_cycles <= heuristic.fold_cycles


class TestGate:
    def test_lint_findings_reject_the_candidate(self, monkeypatch):
        def poisoned(schedule):
            report = AnalysisReport(artifact="schedule")
            report.diagnostics.append(Diagnostic(
                rule="DF999", severity=Severity.ERROR,
                message="synthetic rejection", artifact="schedule",
            ))
            return report

        monkeypatch.setattr(
            "repro.optimizer.core.analyze_dataflow", poisoned
        )
        netlist = mapped_pe("VADD")
        heuristic = list_schedule(netlist, RESOURCES)
        telemetry = Telemetry()
        outcome = optimize_schedule(
            netlist, RESOURCES, config=bnb_config(),
            heuristic=heuristic, telemetry=telemetry,
        )
        assert outcome.rejected and not outcome.improved
        assert outcome.schedule is heuristic
        assert not outcome.proven_optimal
        assert any("DF999" in reason
                   for reason in outcome.rejection_reasons)
        counter = telemetry.counter("optimizer.rejected")
        assert counter.value() == 1

    def test_gate_not_run_when_nothing_beat_the_heuristic(self, monkeypatch):
        def explode(schedule):   # pragma: no cover - must not be called
            raise AssertionError("gate ran without a candidate")

        monkeypatch.setattr(
            "repro.optimizer.core.analyze_dataflow", explode
        )
        clock_value = [0.0]

        def clock():
            clock_value[0] += 100.0
            return clock_value[0]

        netlist = mapped_pe("DOT")
        heuristic = list_schedule(netlist, RESOURCES)
        outcome = optimize_schedule(
            netlist, RESOURCES, config=bnb_config(budget_s=1.0),
            heuristic=heuristic, clock=clock,
        )
        assert outcome.schedule is heuristic


class TestTelemetry:
    def test_runs_and_improved_counters(self):
        telemetry = Telemetry()
        netlist = mapped_pe("VADD")
        optimize_schedule(
            netlist, RESOURCES, config=bnb_config(), telemetry=telemetry
        )
        assert telemetry.counter("optimizer.runs").value() == 1
        assert (
            telemetry.counter("optimizer.improved").value() == 1
        )
        assert (
            telemetry.counter("optimizer.rejected").value() == 0
        )
