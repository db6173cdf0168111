"""Extra circuits: CRC-32 (sequential) and popcount."""

import binascii
import random

import pytest

from repro.circuits import simulate, technology_map
from repro.circuits.extras import build_crc32_pe, build_popcount_pe
from repro.circuits.simulate import simulate_sequential
from repro.folding import TileResources, list_schedule, validate_schedule
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile


class TestCrc32Functional:
    def test_matches_binascii_per_byte(self):
        netlist = build_crc32_pe()
        netlist.validate()
        data = b"hello, freac cache!"
        results = simulate_sequential(
            netlist, cycles=len(data),
            streams_per_cycle=[{"bytes": [b]} for b in data],
        )
        for index, result in enumerate(results):
            expected = binascii.crc32(data[: index + 1]) & 0xFFFFFFFF
            assert result.stores["crc"][0] == expected, index

    @pytest.mark.parametrize("seed", range(3))
    def test_random_streams(self, seed):
        rng = random.Random(seed)
        data = bytes(rng.getrandbits(8) for _ in range(32))
        netlist = build_crc32_pe()
        results = simulate_sequential(
            netlist, cycles=len(data),
            streams_per_cycle=[{"bytes": [b]} for b in data],
        )
        assert results[-1].stores["crc"][0] == binascii.crc32(data)


class TestCrc32Folded:
    def test_folded_crc_matches_binascii(self):
        """The CRC register lives in MCC flip-flops across invocations."""
        netlist = technology_map(build_crc32_pe(), k=5).netlist
        schedule = list_schedule(netlist, TileResources(mccs=4))
        validate_schedule(schedule, strict=True)
        tile = make_tile(4)
        executor = FoldedExecutor(schedule, tile)
        executor.load_configuration()
        data = b"MICRO 2020"
        crc = 0
        for byte in data:
            crc = executor.run(streams={"bytes": [byte]}).stores["crc"][0]
        assert crc == binascii.crc32(data)

    def test_reset_restarts_the_stream(self):
        netlist = technology_map(build_crc32_pe(), k=5).netlist
        schedule = list_schedule(netlist, TileResources(mccs=4))
        tile = make_tile(4)
        executor = FoldedExecutor(schedule, tile)
        executor.load_configuration()
        executor.run(streams={"bytes": [0x55]})
        executor.reset_state()
        crc = executor.run(streams={"bytes": [ord("x")]}).stores["crc"][0]
        assert crc == binascii.crc32(b"x")


class TestPopcount:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_python_bitcount(self, seed):
        rng = random.Random(seed)
        netlist = build_popcount_pe(words=4)
        values = [rng.getrandbits(32) for _ in range(4)]
        result = simulate(netlist, streams={"data": values})
        assert result.stores["count"][0] == sum(
            bin(v).count("1") for v in values
        )

    def test_mapped_and_folded(self):
        netlist = technology_map(build_popcount_pe(words=2), k=5).netlist
        schedule = list_schedule(netlist, TileResources(mccs=2))
        validate_schedule(schedule)
        tile = make_tile(2)
        executor = FoldedExecutor(schedule, tile)
        executor.load_configuration()
        result = executor.run(streams={"data": [0xF0F0F0F0, 0x1]})
        assert result.stores["count"] == [17]
