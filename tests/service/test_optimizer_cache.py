"""Optimized programs in the cache: keyed apart, audited, durable."""

import pytest

from repro.folding.schedule import TileResources
from repro.folding.scheduler import list_schedule
from repro.optimizer import OptimizerConfig
from repro.optimizer.core import OptimizationOutcome
from repro.service.programs import (
    DISK_FORMAT_VERSION,
    ProgramCache,
    compile_program,
    program_key,
)

BNB = OptimizerConfig(budget_s=2.0)


class TestKeySeparation:
    def test_token_lands_in_key_and_filename(self):
        plain = program_key("VADD")
        optimized = program_key("VADD", optimizer=BNB.token())
        assert plain != optimized
        assert plain.optimizer == ""
        assert optimized.optimizer == BNB.token()
        assert plain.filename != optimized.filename
        assert BNB.token() in optimized.filename

    def test_different_configs_never_alias(self):
        assert (
            program_key("VADD", optimizer=BNB.token())
            != program_key(
                "VADD", optimizer=BNB.replace(budget_s=1.0).token()
            )
        )

    def test_heuristic_and_optimized_coexist(self):
        cache = ProgramCache(capacity=8)
        heuristic = cache.get_or_compile("VADD")
        optimized = cache.get_or_compile("VADD", optimizer=BNB)
        assert len(cache) == 2
        assert heuristic.optimizer == "" and heuristic.opt_stats is None
        assert optimized.optimizer == BNB.token()
        assert optimized.opt_stats is not None
        assert (
            optimized.schedule.fold_cycles
            <= heuristic.schedule.fold_cycles
        )
        # Regression: before the key carried the token, the second
        # lookup warm-hit the heuristic entry and served it as
        # "optimized".
        assert cache.lookup("VADD", optimizer=BNB)[1] is True
        assert cache.lookup("VADD")[0] is heuristic

    def test_disabled_config_is_the_heuristic_slot(self):
        cache = ProgramCache(capacity=4)
        cache.get_or_compile("DOT")
        entry, hit = cache.lookup(
            "DOT", optimizer=OptimizerConfig(enabled=False)
        )
        assert hit and entry.optimizer == ""


class TestOptimizedCompile:
    def test_compile_program_records_the_audit_trail(self):
        program = compile_program("VADD", optimizer=BNB)
        assert program.ok
        assert program.optimizer == BNB.token()
        stats = program.opt_stats
        assert stats["improved"] is True
        assert stats["rejected"] is False
        assert (
            stats["optimized_fold_cycles"]
            == program.schedule.fold_cycles
        )
        # The served netlist is the (possibly re-covered) one the
        # schedule was built on — they must agree.
        assert program.netlist is program.schedule.netlist

    def test_accelerator_program_serves_the_optimized_schedule(self):
        program = compile_program("VADD", optimizer=BNB)
        accelerator = program.to_accelerator()
        assert (
            accelerator.schedules[1].fold_cycles
            == program.schedule.fold_cycles
        )


class TestDiskRoundTrip:
    def test_optimized_entry_survives_a_process_restart(self, tmp_path):
        first = ProgramCache(capacity=4, directory=tmp_path)
        original = first.get_or_compile("VADD", optimizer=BNB)

        fresh = ProgramCache(capacity=4, directory=tmp_path)
        entry, hit = fresh.lookup("VADD", optimizer=BNB)
        assert hit and fresh.disk_hits == 1
        assert entry.optimizer == original.optimizer
        assert entry.opt_stats == original.opt_stats
        assert (
            entry.schedule.fold_cycles == original.schedule.fold_cycles
        )

    def test_disk_format_is_v5_with_optimizer_fields(self, tmp_path):
        import json

        cache = ProgramCache(capacity=4, directory=tmp_path)
        program = cache.get_or_compile("VADD", optimizer=BNB)
        data = json.loads(
            (tmp_path / program.key.filename).read_text()
        )
        assert data["version"] == DISK_FORMAT_VERSION == 6
        assert data["optimizer"] == BNB.token()
        assert data["opt_stats"] == program.opt_stats
        assert data["specialized"]["supported"] is True
        assert data["specialized"]["digest"]

    def test_heuristic_entry_omits_opt_stats(self, tmp_path):
        import json

        cache = ProgramCache(capacity=4, directory=tmp_path)
        program = cache.get_or_compile("VADD")
        data = json.loads(
            (tmp_path / program.key.filename).read_text()
        )
        assert data["optimizer"] == ""
        assert "opt_stats" not in data


class TestRejectionCounter:
    def test_rejected_pass_counts_and_serves_the_heuristic(
        self, monkeypatch
    ):
        def always_reject(netlist, resources, *, config, heuristic,
                          **kwargs):
            return OptimizationOutcome(
                schedule=heuristic,
                heuristic_fold_cycles=heuristic.fold_cycles,
                optimized_fold_cycles=heuristic.fold_cycles,
                lower_bound=1,
                rejected=True,
                rejection_reasons=["DF999: synthetic"],
            )

        monkeypatch.setattr(
            "repro.service.programs.optimize_schedule", always_reject
        )
        cache = ProgramCache(capacity=4)
        program = cache.get_or_compile("VADD", optimizer=BNB)
        assert cache.opt_rejected == 1
        assert cache.stats()["opt_rejected"] == 1
        heuristic = list_schedule(
            program.netlist, TileResources(mccs=1)
        )
        assert program.schedule.fold_cycles == heuristic.fold_cycles
        # The rejection is recorded on the entry itself too.
        assert program.opt_stats["rejected"] is True

    def test_clean_pass_does_not_count(self):
        cache = ProgramCache(capacity=4)
        cache.get_or_compile("VADD", optimizer=BNB)
        assert cache.opt_rejected == 0


class TestBackCompatCompilers:
    def test_old_signature_compiler_still_works_without_optimizer(self):
        calls = []

        def legacy(benchmark, *, lut_inputs=5, mccs_per_tile=1):
            calls.append(benchmark)
            return compile_program(
                benchmark, lut_inputs=lut_inputs,
                mccs_per_tile=mccs_per_tile,
            )

        cache = ProgramCache(capacity=4, compiler=legacy)
        cache.get_or_compile("DOT")
        assert calls == ["DOT"]
        with pytest.raises(TypeError):
            cache.get_or_compile("DOT", optimizer=BNB)
