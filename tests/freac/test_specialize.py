"""The compiled-plan layer: build, cache, content address, artifact.

Bit-exactness of the plan against the reference loop lives in
``test_engine.py``; this file covers the plan object itself — the
build/cache lifecycle on the schedule, digest determinism, and the
program-cache artifact shape.
"""

import pytest

from repro.circuits import CircuitBuilder, technology_map
from repro.circuits.library import mapped_pe
from repro.folding import TileResources, list_schedule
from repro.freac.specialize import (
    SpecializationUnsupported,
    SpecializedPlan,
    build_plan,
    plan_artifact,
    plan_for,
)


def vadd_schedule(mccs=1):
    return list_schedule(mapped_pe("VADD"), TileResources(mccs=mccs))


def sequential_schedule():
    builder = CircuitBuilder()
    word = builder.bus_load("in")
    state = builder.flipflop(init=0)
    updated = builder.xor_(state, word.bits[0])
    builder.bind_flipflop(state, updated)
    builder.bus_store("out", builder.word_from_bits([updated]))
    netlist = technology_map(builder.netlist, k=5).netlist
    return list_schedule(netlist, TileResources())


class TestBuild:
    def test_build_plan_shape(self):
        plan = build_plan(vadd_schedule())
        assert isinstance(plan, SpecializedPlan)
        assert plan.slots > 1          # slot 0 is the constant zero
        assert plan.passes
        # Every scheduled op lowers to at least one fused instruction
        # (packing sources may add synthetic ones).
        assert plan.instructions >= len(vadd_schedule().ops)
        assert plan.depth >= 1
        assert "out" in {name for name, *_ in plan.outputs} or \
            plan.result_stores

    def test_sequential_netlist_unsupported(self):
        with pytest.raises(SpecializationUnsupported):
            build_plan(sequential_schedule())


class TestPlanCache:
    def test_plan_cached_on_the_schedule(self):
        schedule = vadd_schedule()
        first = plan_for(schedule)
        assert plan_for(schedule) is first
        # A fresh schedule object builds a fresh (but equal) plan.
        other = plan_for(vadd_schedule())
        assert other is not first
        assert other.digest == first.digest

    def test_unsupported_failure_is_cached(self):
        schedule = sequential_schedule()
        with pytest.raises(SpecializationUnsupported) as first:
            plan_for(schedule)
        # The cached failure replays with the same reason, no rebuild.
        assert isinstance(schedule._specialized_plan, str)
        with pytest.raises(SpecializationUnsupported) as again:
            plan_for(schedule)
        assert str(again.value) == str(first.value)


class TestDigest:
    def test_digest_is_deterministic(self):
        one = build_plan(vadd_schedule())
        two = build_plan(vadd_schedule())
        assert one.digest == two.digest
        assert len(one.digest) == 64   # sha256 hex

    def test_digest_distinguishes_programs(self):
        vadd = build_plan(vadd_schedule())
        dot = build_plan(
            list_schedule(mapped_pe("DOT"), TileResources(mccs=1))
        )
        assert vadd.digest != dot.digest

    def test_digest_distinguishes_tile_shapes(self):
        one = build_plan(vadd_schedule(mccs=1))
        two = build_plan(
            list_schedule(mapped_pe("DOT"), TileResources(mccs=2))
        )
        assert one.digest != two.digest


class TestArtifact:
    def test_supported_artifact_matches_summary(self):
        schedule = vadd_schedule()
        artifact = plan_artifact(schedule)
        plan = plan_for(schedule)
        assert artifact == plan.summary()
        assert artifact["supported"] is True
        assert artifact["digest"] == plan.digest
        assert artifact["passes"] == len(plan.passes)
        assert artifact["instructions"] == plan.instructions

    def test_unsupported_artifact_records_reason(self):
        artifact = plan_artifact(sequential_schedule())
        assert artifact["supported"] is False
        assert artifact["reason"]
        assert "digest" not in artifact

    def test_compile_program_builds_the_plan(self):
        """The serving compile builds the plan once, up front: the
        artifact is filled in and the first wave finds the plan cached
        on the schedule instead of building it."""
        from repro.service.programs import compile_program

        program = compile_program("VADD")
        assert program.specialized == plan_artifact(program.schedule)
        assert program.specialized["supported"] is True
        assert isinstance(program.schedule._specialized_plan, SpecializedPlan)

    def test_artifact_is_json_clean(self):
        import json

        for schedule in (vadd_schedule(), sequential_schedule()):
            text = json.dumps(plan_artifact(schedule))
            assert json.loads(text) == plan_artifact(schedule)
