"""The compiled-program cache: keys, counters, LRU, disk layer."""

import json
import threading

import pytest

from repro.circuits.library import clear_cache, library_version
from repro.service.programs import (
    DISK_FORMAT_VERSION,
    ProgramCache,
    compile_program,
    program_key,
)


def counting(calls):
    def compiler(name, *, lut_inputs=5, mccs_per_tile=1):
        calls.append(name)
        return compile_program(
            name, lut_inputs=lut_inputs, mccs_per_tile=mccs_per_tile
        )

    return compiler


class TestKeys:
    def test_key_is_content_addressed(self):
        key = program_key("vadd", lut_inputs=5, mccs_per_tile=2)
        assert key.benchmark == "VADD"
        assert key.mccs_per_tile == 2
        assert key.library_hash == library_version()

    def test_library_version_is_stable_and_cleared(self):
        first = library_version()
        assert first == library_version()
        clear_cache()
        assert first == library_version()  # same source, same hash

    def test_filename_distinguishes_tile_sizes(self):
        one = program_key("DOT", mccs_per_tile=1)
        two = program_key("DOT", mccs_per_tile=2)
        assert one.filename != two.filename


class TestCompile:
    def test_compile_carries_clean_reports(self):
        compiled = compile_program("VADD")
        assert compiled.ok
        assert compiled.netlist_report.ok
        assert compiled.schedule_report.ok
        assert compiled.schedule.resources.mccs == 1

    def test_to_accelerator_injects_schedule(self):
        compiled = compile_program("VADD", mccs_per_tile=2)
        program = compiled.to_accelerator()
        # The schedule is pre-set: no re-fold on lookup.
        assert program.schedules[2] is compiled.schedule

    def test_admission_report_merges_both_reports(self):
        compiled = compile_program("DOT")
        merged = compiled.admission_report()
        assert merged.ok
        assert set(compiled.netlist_report.rules_run) <= set(merged.rules_run)
        assert set(compiled.schedule_report.rules_run) <= set(merged.rules_run)


class TestCacheCounters:
    def test_warm_lookup_compiles_nothing(self):
        calls = []
        cache = ProgramCache(compiler=counting(calls))
        cache.get_or_compile("VADD")
        assert cache.misses == 1 and cache.hits == 0
        cache.get_or_compile("VADD")
        cache.get_or_compile("VADD")
        assert calls == ["VADD"]          # compiled exactly once
        assert cache.hits == 2 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_distinct_tile_sizes_are_distinct_entries(self):
        calls = []
        cache = ProgramCache(compiler=counting(calls))
        cache.get_or_compile("VADD", mccs_per_tile=1)
        cache.get_or_compile("VADD", mccs_per_tile=2)
        assert len(calls) == 2
        assert len(cache) == 2

    def test_unknown_benchmark_is_an_error_not_a_miss(self):
        cache = ProgramCache()
        with pytest.raises(KeyError):
            cache.get_or_compile("NOPE")
        assert cache.misses == 0 and cache.hits == 0

    def test_lru_eviction_counts_and_drops_oldest(self):
        calls = []
        cache = ProgramCache(capacity=2, compiler=counting(calls))
        cache.get_or_compile("VADD")
        cache.get_or_compile("DOT")
        cache.get_or_compile("VADD")   # refresh VADD: DOT is now LRU
        cache.get_or_compile("SRT")    # evicts DOT
        assert cache.evictions == 1
        assert program_key("VADD") in cache
        assert program_key("DOT") not in cache
        cache.get_or_compile("DOT")    # recompiles
        assert calls == ["VADD", "DOT", "SRT", "DOT"]


class TestDiskLayer:
    def test_round_trip_through_disk(self, tmp_path):
        calls = []
        first = ProgramCache(directory=tmp_path, compiler=counting(calls))
        compiled = first.get_or_compile("VADD")
        assert (tmp_path / compiled.key.filename).exists()

        def explode(name, **kwargs):
            raise AssertionError("disk hit should not recompile")

        second = ProgramCache(directory=tmp_path, compiler=explode)
        reloaded = second.get_or_compile("VADD")
        assert second.disk_hits == 1 and second.hits == 1
        assert second.misses == 0
        assert reloaded.key == compiled.key
        assert reloaded.ok
        assert len(reloaded.netlist.nodes) == len(compiled.netlist.nodes)
        assert [op.nid for op in reloaded.schedule.ops] == [
            op.nid for op in compiled.schedule.ops
        ]

    def test_reloaded_program_still_runs(self, tmp_path):
        from repro.freac.device import FreacDevice
        from repro.freac.runner import run_workload
        from repro.params import scaled_system

        ProgramCache(directory=tmp_path).get_or_compile("VADD")
        cache = ProgramCache(directory=tmp_path)
        program = cache.get_or_compile("VADD").to_accelerator()
        report = run_workload(
            FreacDevice(scaled_system(l3_slices=2)), "VADD", 4,
            program=program,
        )
        assert report.verified

    def test_corrupt_file_is_a_miss_not_a_crash(self, tmp_path):
        calls = []
        cache = ProgramCache(directory=tmp_path, compiler=counting(calls))
        key = program_key("VADD")
        (tmp_path / key.filename).write_text("{not json")
        cache.get_or_compile("VADD")
        assert calls == ["VADD"]
        assert cache.misses == 1

    def test_stale_library_hash_is_unreachable(self, tmp_path):
        cache = ProgramCache(directory=tmp_path)
        compiled = cache.get_or_compile("VADD")
        # Forge an entry written by an "older library".
        stale = json.loads((tmp_path / compiled.key.filename).read_text())
        stale["library_hash"] = "0" * 16
        stale_name = compiled.key.filename.replace(
            compiled.key.library_hash, "0" * 16
        )
        (tmp_path / stale_name).write_text(json.dumps(stale))
        fresh = ProgramCache(directory=tmp_path)
        fresh.get_or_compile("VADD")
        # Loaded the current-hash file, not the stale one.
        assert fresh.disk_hits == 1

    def test_clear_disk(self, tmp_path):
        cache = ProgramCache(directory=tmp_path)
        cache.get_or_compile("VADD")
        cache.clear(disk=True)
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.json"))


class TestCrashSafety:
    def test_publish_leaves_no_tmp_sibling(self, tmp_path):
        cache = ProgramCache(directory=tmp_path)
        compiled = cache.get_or_compile("VADD")
        assert (tmp_path / compiled.key.filename).exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_interrupted_publish_leaves_no_torn_file(
        self, tmp_path, monkeypatch
    ):
        import repro.service.programs as programs_module

        cache = ProgramCache(directory=tmp_path)
        program = compile_program("VADD")

        def crash(src, dst):
            raise OSError("crashed before publish")

        monkeypatch.setattr(programs_module.os, "replace", crash)
        with pytest.raises(OSError):
            cache.put(program)
        # The crash cost the entry, never a half-written one: a
        # fresh process sees either the complete file or nothing.
        assert not list(tmp_path.glob("*.json"))
        assert not list(tmp_path.glob("*.tmp"))

    def test_torn_file_is_quarantined_and_recompiled(self, tmp_path):
        calls = []
        ProgramCache(directory=tmp_path).get_or_compile("VADD")
        key = program_key("VADD")
        path = tmp_path / key.filename
        full = path.read_text()
        path.write_text(full[: len(full) // 2])   # simulate a torn write

        cache = ProgramCache(directory=tmp_path, compiler=counting(calls))
        compiled = cache.get_or_compile("VADD")
        assert compiled.ok
        assert calls == ["VADD"]                  # one recompile, no crash
        assert cache.quarantined == 1
        assert cache.misses == 1
        assert cache.stats()["quarantined"] == 1
        # The torn bytes were set aside, and the recompile re-published
        # a good entry in their place.
        corrupt = tmp_path / (key.filename + ".corrupt")
        assert corrupt.exists()
        assert json.loads(path.read_text())["benchmark"] == "VADD"

    def test_key_mismatched_entry_is_quarantined(self, tmp_path):
        seed = ProgramCache(directory=tmp_path)
        dot = seed.get_or_compile("DOT")
        data = json.loads((tmp_path / dot.key.filename).read_text())
        vadd_key = program_key("VADD")
        # A valid entry filed under the wrong content address must not
        # be served as VADD.
        (tmp_path / vadd_key.filename).write_text(json.dumps(data))

        cache = ProgramCache(directory=tmp_path)
        compiled = cache.get_or_compile("VADD")
        assert compiled.benchmark == "VADD"
        assert cache.quarantined == 1
        assert (tmp_path / (vadd_key.filename + ".corrupt")).exists()


class TestDiskFormatMigration:
    """Old format versions quarantine-and-recompile, never crash."""

    def _downgrade_to_v3(self, path):
        data = json.loads(path.read_text())
        data["version"] = 3
        del data["specialized"]
        path.write_text(json.dumps(data))

    def test_v3_entry_is_quarantined_and_recompiled(self, tmp_path):
        calls = []
        seeded = ProgramCache(directory=tmp_path).get_or_compile("VADD")
        path = tmp_path / seeded.key.filename
        self._downgrade_to_v3(path)

        cache = ProgramCache(directory=tmp_path, compiler=counting(calls))
        compiled = cache.get_or_compile("VADD")
        assert compiled.ok
        assert calls == ["VADD"]              # one recompile, no crash
        assert cache.quarantined == 1
        assert (tmp_path / (seeded.key.filename + ".corrupt")).exists()
        # The recompile re-published the entry at the current format.
        republished = json.loads(path.read_text())
        assert republished["version"] == DISK_FORMAT_VERSION == 6
        assert republished["specialized"]["supported"] is True

    def test_v4_entry_is_quarantined_and_recompiled(self, tmp_path):
        """v4 optimizer tokens still hashed the deleted solver-backend
        knob; such entries must cost one recompile, never a crash."""
        calls = []
        seeded = ProgramCache(directory=tmp_path).get_or_compile("VADD")
        path = tmp_path / seeded.key.filename
        data = json.loads(path.read_text())
        data["version"] = 4
        path.write_text(json.dumps(data))

        cache = ProgramCache(directory=tmp_path, compiler=counting(calls))
        compiled = cache.get_or_compile("VADD")
        assert compiled.ok
        assert calls == ["VADD"]
        assert cache.quarantined == 1
        assert (tmp_path / (seeded.key.filename + ".corrupt")).exists()
        assert json.loads(path.read_text())["version"] == 6

    def test_v4_round_trip_preserves_specialized_artifact(self, tmp_path):
        from repro.freac.specialize import plan_artifact

        seeded = ProgramCache(directory=tmp_path)
        original = seeded.get_or_compile("VADD")

        fresh = ProgramCache(directory=tmp_path)
        reloaded = fresh.get_or_compile("VADD")
        assert fresh.disk_hits == 1
        artifact = reloaded.specialized
        assert artifact == original.specialized
        assert artifact["supported"] is True
        # Content-addressed: the digest matches a deterministic rebuild
        # from the reloaded schedule.
        assert artifact == plan_artifact(reloaded.schedule)

    def test_stale_specialized_digest_is_quarantined(self, tmp_path):
        calls = []
        seeded = ProgramCache(directory=tmp_path).get_or_compile("VADD")
        path = tmp_path / seeded.key.filename
        data = json.loads(path.read_text())
        data["specialized"]["digest"] = "f" * 64   # torn/stale artifact
        path.write_text(json.dumps(data))

        cache = ProgramCache(directory=tmp_path, compiler=counting(calls))
        compiled = cache.get_or_compile("VADD")
        assert compiled.ok
        assert calls == ["VADD"]
        assert cache.quarantined == 1


class TestThreadSafety:
    def test_concurrent_cold_lookups_compile_once(self, tmp_path):
        calls = []
        cache = ProgramCache(directory=tmp_path, compiler=counting(calls))
        results = []
        results_lock = threading.Lock()

        def worker():
            entry, _ = cache.lookup("VADD")
            with results_lock:
                results.append(entry)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert calls == ["VADD"]          # the cold key compiled once
        assert len(results) == 8
        assert all(entry is results[0] for entry in results)
        assert cache.misses == 1 and cache.hits == 7

    def test_lookup_reports_per_call_hit(self, tmp_path):
        cache = ProgramCache(directory=tmp_path)
        _, hit = cache.lookup("VADD")
        assert not hit
        _, hit = cache.lookup("VADD")
        assert hit


class TestNamespaces:
    """Per-shard cache namespaces: concurrent shard processes sharing
    one cache root must never race on one on-disk entry."""

    def test_namespace_is_a_subdirectory(self, tmp_path):
        cache = ProgramCache(directory=tmp_path, namespace="shard0")
        cache.get_or_compile("VADD")
        key = program_key("VADD")
        assert (tmp_path / "shard0" / key.filename).exists()
        assert not (tmp_path / key.filename).exists()

    def test_namespaces_do_not_share_entries(self, tmp_path):
        first = ProgramCache(directory=tmp_path, namespace="shard0")
        first.get_or_compile("VADD")
        second = ProgramCache(directory=tmp_path, namespace="shard1")
        second.get_or_compile("VADD")
        # shard1 saw nothing of shard0's entry: a cold miss, no disk hit.
        assert second.disk_hits == 0
        assert second.misses == 1
        key = program_key("VADD")
        assert (tmp_path / "shard0" / key.filename).exists()
        assert (tmp_path / "shard1" / key.filename).exists()

    def test_same_namespace_shares_disk(self, tmp_path):
        ProgramCache(directory=tmp_path, namespace="shard0") \
            .get_or_compile("VADD")
        warm = ProgramCache(directory=tmp_path, namespace="shard0")
        warm.get_or_compile("VADD")
        assert warm.disk_hits == 1

    def test_namespace_must_be_a_bare_name(self, tmp_path):
        import pytest as pytest_module
        for bad in ("a/b", "../up", ".", ""):
            with pytest_module.raises(ValueError):
                ProgramCache(directory=tmp_path, namespace=bad)

    def test_tmp_files_are_pid_suffixed(self, tmp_path, monkeypatch):
        import os

        import repro.service.programs as programs_module

        seen = []
        real_replace = programs_module.os.replace

        def spy(src, dst):
            seen.append(str(src))
            return real_replace(src, dst)

        monkeypatch.setattr(programs_module.os, "replace", spy)
        ProgramCache(directory=tmp_path).get_or_compile("VADD")
        # Two processes publishing the same entry into a shared dir
        # must stage through distinct tmp names: <name>.<pid>.tmp.
        assert seen
        assert all(s.endswith(f".{os.getpid()}.tmp") for s in seen)

    def test_namespaced_publish_leaves_no_tmp_sibling(self, tmp_path):
        cache = ProgramCache(directory=tmp_path, namespace="shard3")
        cache.get_or_compile("VADD")
        assert not list((tmp_path / "shard3").glob("*.tmp"))
