"""Netlist and schedule (de)serialisation round-trips."""

import json
import random

import pytest

from repro.circuits import CircuitBuilder, simulate
from repro.circuits.io import (
    load_netlist,
    netlist_from_dict,
    netlist_to_dict,
    save_netlist,
)
from repro.circuits.library import build_pe, mapped_pe
from repro.errors import CircuitError, SchedulingError
from repro.folding import TileResources, list_schedule, validate_schedule
from repro.folding.io import (
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)


def sequential_circuit():
    builder = CircuitBuilder("counter")
    state, bind = builder.state_word(4)
    incremented, _ = builder.add_vec(state, builder.const_bits(1, 4))
    bind(incremented)
    for index, bit in enumerate(state):
        builder.output_bit(f"q{index}", bit)
    return builder.netlist


class TestNetlistRoundtrip:
    @pytest.mark.parametrize("name", ["VADD", "NW", "KMP", "GEMM"])
    def test_pe_roundtrip_preserves_function(self, name):
        original = mapped_pe(name)
        restored = netlist_from_dict(netlist_to_dict(original))
        pe = build_pe(name)
        rng = random.Random(4)
        if name == "KMP":
            streams = {"state": [1], "text": [0x41]}
        else:
            streams = {
                s: [rng.getrandbits(31) for _ in range(n)]
                for s, n in pe.loads.items()
            }
        assert simulate(restored, streams=streams).stores == \
            simulate(original, streams=streams).stores

    def test_structure_identical(self):
        original = mapped_pe("VADD")
        restored = netlist_from_dict(netlist_to_dict(original))
        assert restored.counts() == original.counts()
        assert restored.outputs == original.outputs

    def test_sequential_circuit_roundtrip(self):
        original = sequential_circuit()
        restored = netlist_from_dict(netlist_to_dict(original))
        restored.validate()
        from repro.circuits.simulate import simulate_sequential

        got = simulate_sequential(restored, cycles=5)
        values = [
            sum(r.outputs[f"q{i}"] << i for i in range(4)) for r in got
        ]
        assert values == [0, 1, 2, 3, 4]

    def test_file_roundtrip(self, tmp_path):
        original = mapped_pe("VADD")
        path = tmp_path / "vadd.json"
        save_netlist(original, path)
        restored = load_netlist(path)
        assert restored.counts() == original.counts()

    def test_version_checked(self):
        data = netlist_to_dict(mapped_pe("VADD"))
        data["version"] = 99
        with pytest.raises(CircuitError):
            netlist_from_dict(data)


class TestScheduleRoundtrip:
    def test_roundtrip_is_valid_and_equal(self):
        schedule = list_schedule(mapped_pe("NW"), TileResources(mccs=2))
        restored = schedule_from_dict(schedule_to_dict(schedule))
        validate_schedule(restored, strict=True)
        assert restored.ops == schedule.ops
        assert restored.fold_cycles == schedule.fold_cycles
        assert restored.spills == schedule.spills

    def test_restored_schedule_executes(self):
        from repro.freac.executor import FoldedExecutor
        from repro.freac.mcc import make_tile

        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        restored = schedule_from_dict(schedule_to_dict(schedule))
        tile = make_tile(1)
        executor = FoldedExecutor(restored, tile)
        executor.load_configuration()
        result = executor.run(streams={"a": [40], "b": [2]})
        assert result.stores["c"] == [42]

    def test_file_roundtrip(self, tmp_path):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        path = tmp_path / "sched.json"
        save_schedule(schedule, path)
        assert load_schedule(path).fold_cycles == schedule.fold_cycles

    def test_version_checked(self):
        data = schedule_to_dict(list_schedule(mapped_pe("VADD"),
                                              TileResources()))
        data["version"] = 99
        with pytest.raises(SchedulingError):
            schedule_from_dict(data)

    def test_json_serialisable(self):
        data = schedule_to_dict(list_schedule(mapped_pe("VADD"),
                                              TileResources()))
        json.dumps(data)  # must not raise


class TestDiskCache:
    def test_schedule_for_uses_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FREAC_CACHE_DIR", str(tmp_path))
        from repro.experiments import common

        common.schedule_for.cache_clear()
        first = common.schedule_for("VADD", 1)
        cached_files = list(tmp_path.glob("VADD-*.json"))
        assert len(cached_files) == 1
        common.schedule_for.cache_clear()
        second = common.schedule_for("VADD", 1)
        assert second.fold_cycles == first.fold_cycles
        common.schedule_for.cache_clear()

    def test_cache_disabled_by_empty_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FREAC_CACHE_DIR", "")
        from repro.experiments import common

        common.schedule_for.cache_clear()
        common.schedule_for("VADD", 1)
        assert not list(tmp_path.glob("*.json"))
        common.schedule_for.cache_clear()
