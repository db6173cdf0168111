"""Execution tracing (gem5-style activity log)."""

import pytest

from repro.circuits.library import mapped_pe
from repro.folding import TileResources, list_schedule
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile


@pytest.fixture
def executor():
    schedule = list_schedule(mapped_pe("VADD"), TileResources())
    tile = make_tile(1)
    instance = FoldedExecutor(schedule, tile)
    instance.load_configuration()
    return instance


class TestTrace:
    def test_one_event_per_op(self, executor):
        result = executor.run(streams={"a": [1], "b": [2]},
                              collect_trace=True)
        assert len(result.trace) == len(executor.schedule.ops)

    def test_trace_cycles_monotone(self, executor):
        result = executor.run(streams={"a": [1], "b": [2]},
                              collect_trace=True)
        cycles = [event.cycle for event in result.trace]
        assert cycles == sorted(cycles)

    def test_trace_kinds_match_schedule(self, executor):
        result = executor.run(streams={"a": [1], "b": [2]},
                              collect_trace=True)
        kinds = {event.kind for event in result.trace}
        assert kinds == {"lut", "load", "store"}

    def test_store_event_carries_result(self, executor):
        result = executor.run(streams={"a": [40], "b": [2]},
                              collect_trace=True)
        stores = [event for event in result.trace if event.kind == "store"]
        assert stores[-1].value == 42

    def test_trace_off_by_default(self, executor):
        result = executor.run(streams={"a": [1], "b": [2]})
        assert result.trace == []

    def test_memory_trace_extraction(self, executor):
        """The paper extracted memory traces from RTL simulation; the
        trace's load/store events are exactly that."""
        result = executor.run(streams={"a": [1], "b": [2]},
                              collect_trace=True)
        memory_ops = [e for e in result.trace if e.kind in ("load", "store")]
        assert len(memory_ops) == 3  # 2 loads + 1 store per item
