"""Property tests: optimized programs are indistinguishable downstream.

Whatever the optimizer did to the cover or the cycle grid, the served
schedule must be bit-exact with the heuristic one on the folded
executor — both the compiled plan and the reference loop — and must
never fold in more cycles.  One
optimization pass per benchmark is cached at module scope so hypothesis
examples only pay for execution, not re-optimization.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits.library import build_pe, mapped_pe, pe_names
from repro.folding import TileResources, list_schedule
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile
from repro.optimizer import OptimizerConfig, optimize_schedule

FAST_PES = [name for name in pe_names() if name != "AES"]
RESOURCES = TileResources(mccs=2)

_OUTCOMES = {}


def outcome_for(name):
    if name not in _OUTCOMES:
        netlist = mapped_pe(name)
        heuristic = list_schedule(netlist, RESOURCES)
        outcome = optimize_schedule(
            netlist, RESOURCES,
            config=OptimizerConfig(budget_s=4.0),
            heuristic=heuristic,
        )
        _OUTCOMES[name] = (heuristic, outcome)
    return _OUTCOMES[name]


def executor_for(schedule):
    executor = FoldedExecutor(schedule, make_tile(RESOURCES.mccs))
    executor.load_configuration()
    return executor


def random_streams(pe, batch, rng):
    return {
        stream: [
            [rng.getrandbits(31) for _ in range(words)]
            for _ in range(batch)
        ]
        for stream, words in pe.loads.items()
    }


class TestBitExactParity:
    @given(
        name=st.sampled_from(FAST_PES),
        seed=st.integers(min_value=0, max_value=10_000),
        batch=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_optimized_matches_heuristic_both_engines(
        self, name, seed, batch
    ):
        heuristic, outcome = outcome_for(name)
        rng = random.Random(seed)
        if name == "KMP":
            streams = {
                "state": [[rng.randrange(4)] for _ in range(batch)],
                "text": [[0x41 + i] for i in range(batch)],
            }
        else:
            streams = random_streams(build_pe(name), batch, rng)
        baseline = executor_for(heuristic).run_batch_reference(
            batch, streams=streams
        )
        optimized = executor_for(outcome.schedule)
        for result in (
            optimized.run_batch_reference(batch, streams=streams),
            optimized.run_batch(batch, streams=streams),
        ):
            assert result.stores.keys() == baseline.stores.keys()
            for stream in baseline.stores:
                np.testing.assert_array_equal(
                    result.stores[stream], baseline.stores[stream]
                )
            assert result.outputs.keys() == baseline.outputs.keys()
            for out in baseline.outputs:
                np.testing.assert_array_equal(
                    result.outputs[out], baseline.outputs[out]
                )


class TestFoldCountContract:
    def test_never_worse_on_any_benchmark(self):
        for name in FAST_PES:
            heuristic, outcome = outcome_for(name)
            assert (
                outcome.schedule.fold_cycles <= heuristic.fold_cycles
            ), name
            assert (
                outcome.optimized_fold_cycles
                == outcome.schedule.fold_cycles
            )

    def test_lower_bound_is_honest(self):
        for name in FAST_PES:
            _, outcome = outcome_for(name)
            assert outcome.lower_bound >= 1
            if outcome.proven_optimal:
                assert outcome.bound_gap == 0


class TestBudgetRespected:
    @given(budget=st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=10, deadline=None)
    def test_elapsed_never_exceeds_budget_by_a_poll(self, budget):
        """With a 0.01s-per-poll fake clock the pass stops on time."""
        clock_value = [0.0]

        def clock():
            clock_value[0] += 0.01
            return clock_value[0]

        netlist = mapped_pe("SRT")
        outcome = optimize_schedule(
            netlist, RESOURCES,
            config=OptimizerConfig(budget_s=budget),
            heuristic=list_schedule(netlist, RESOURCES),
            clock=clock,
        )
        # Each phase bails on its first poll past the deadline, so
        # overshoot is bounded by a handful of poll intervals (one per
        # phase boundary), never by real work.
        assert outcome.elapsed_s <= budget + 0.1
