"""Pre-flight gating: the executor refuses artifacts with errors."""

import dataclasses
import logging

import pytest

from repro.analysis import preflight_netlist, preflight_schedule
from repro.circuits import CircuitBuilder, technology_map
from repro.circuits.netlist import Node, NodeKind
from repro.errors import PreflightError
from repro.folding import TileResources, list_schedule
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile


def make_schedule():
    builder = CircuitBuilder("pf")
    a = builder.bus_load("a")
    b = builder.bus_load("b")
    builder.bus_store("out", builder.mac(a, b, builder.const_word(0)))
    netlist = technology_map(builder.netlist, k=5).netlist
    return list_schedule(netlist, TileResources())


def corrupt(schedule):
    """Duplicate an op: an SC001 error the executor must refuse."""
    return dataclasses.replace(
        schedule, ops=list(schedule.ops) + [schedule.ops[0]]
    )


class TestPreflightSchedule:
    def test_clean_schedule_passes(self):
        report = preflight_schedule(make_schedule())
        assert report.ok

    def test_errors_raise_with_full_report(self):
        schedule = make_schedule()
        broken = dataclasses.replace(
            schedule,
            ops=[dataclasses.replace(op, cycle=1) for op in schedule.ops]
            + [schedule.ops[0]],
        )
        with pytest.raises(PreflightError) as excinfo:
            preflight_schedule(broken, stage="unit-test")
        err = excinfo.value
        assert err.stage == "unit-test"
        assert len(err.report.errors) >= 2  # all violations, not the first
        assert "unit-test" in str(err)

    def test_warnings_log_and_pass(self, caplog):
        schedule = make_schedule()
        inflated = dataclasses.replace(
            schedule,
            ops=list(schedule.ops),
            max_live_bits=schedule.resources.ff_bits + 1,
        )
        with caplog.at_level(logging.WARNING, logger="repro.analysis"):
            report = preflight_schedule(inflated)
        assert report.ok
        assert any("SC011" in record.message for record in caplog.records)

    def test_strict_escalates_warning_to_refusal(self):
        schedule = make_schedule()
        inflated = dataclasses.replace(
            schedule,
            ops=list(schedule.ops),
            max_live_bits=schedule.resources.ff_bits + 1,
        )
        with pytest.raises(PreflightError):
            preflight_schedule(inflated, strict=True)


class TestPreflightNetlist:
    def test_clean_netlist_passes(self):
        assert preflight_netlist(make_schedule().netlist).ok

    def test_broken_netlist_refused(self):
        netlist = make_schedule().netlist
        nid = len(netlist.nodes)
        netlist.nodes.append(Node(nid, NodeKind.LUT, (9999,), (1, 0b10)))
        with pytest.raises(PreflightError):
            preflight_netlist(netlist)


class TestExecutorGate:
    def test_executor_refuses_illegal_schedule(self):
        with pytest.raises(PreflightError):
            FoldedExecutor(corrupt(make_schedule()), make_tile(1))

    def test_preflight_false_bypasses_gate(self):
        executor = FoldedExecutor(
            corrupt(make_schedule()), make_tile(1), preflight=False
        )
        assert executor.schedule is not None

    def test_clean_schedule_executes(self):
        executor = FoldedExecutor(make_schedule(), make_tile(1))
        executor.load_configuration()
        result = executor.run(streams={"a": [3], "b": [5]})
        assert result.stores["out"] == [15]
