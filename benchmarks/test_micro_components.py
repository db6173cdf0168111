"""Micro-benchmarks of the library's hot components.

These are conventional pytest-benchmark measurements (multiple rounds)
of the code paths everything else is built on: the technology mapper,
the folding scheduler, the folded executor, and the cache substrate.
"""

import random

from repro.cache.cache import SetAssociativeCache
from repro.cache.subarray import Subarray
from repro.circuits import CircuitBuilder, technology_map
from repro.circuits.library import build_pe, mapped_pe
from repro.folding import TileResources, list_schedule
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile
from repro.params import CacheLevelParams


def test_bench_technology_map_nw(benchmark):
    netlist = build_pe("NW").netlist
    result = benchmark(technology_map, netlist, 5)
    assert result.lut_count > 0


def test_bench_list_schedule_nw(benchmark):
    netlist = mapped_pe("NW")
    resources = TileResources(mccs=4)
    schedule = benchmark(list_schedule, netlist, resources)
    assert schedule.fold_cycles > 0


def test_bench_folded_executor_vadd(benchmark):
    netlist = mapped_pe("VADD")
    schedule = list_schedule(netlist, TileResources())
    tile = make_tile(1)
    executor = FoldedExecutor(schedule, tile)
    executor.load_configuration()

    def run_item():
        return executor.run(streams={"a": [11], "b": [31]})

    result = benchmark(run_item)
    assert result.stores["c"] == [42]


def test_bench_cache_simulation_throughput(benchmark):
    cache = SetAssociativeCache(CacheLevelParams("L2", 256 * 1024, 8, 10))
    rng = random.Random(0)
    trace = [rng.randrange(1 << 16) for _ in range(5_000)]

    def replay():
        for line in trace:
            cache.access(line, is_write=False)

    benchmark(replay)
    assert cache.stats.accesses > 0


def test_bench_subarray_row_access(benchmark):
    subarray = Subarray()

    def touch():
        for row in range(0, 2048, 64):
            subarray.write_row(row, row)
            subarray.read_row(row)

    benchmark(touch)


def test_bench_coherence_traffic(benchmark):
    from repro.cache.coherence import CoherentSystem

    def traffic():
        system = CoherentSystem(cores=4, private_capacity_lines=64)
        for i in range(2_000):
            core = i % 4
            line = (i * 7) % 128
            if i % 3:
                system.read(core, line)
            else:
                system.write(core, line)
        return system

    system = benchmark(traffic)
    system.check_invariants()


def test_bench_ring_routing(benchmark):
    from repro.cache.address import AddressCodec
    from repro.cache.ring import NucaLlc

    codec = AddressCodec(line_bytes=64, sets_per_slice=1024, slices=8)

    def route():
        nuca = NucaLlc(codec)
        for address in range(0, 64 * 4_000, 64):
            nuca.access(address % 8, address)
        return nuca

    nuca = benchmark(route)
    assert nuca.accesses == 4_000


def test_bench_register_allocation_nw(benchmark):
    from repro.folding.regalloc import allocate_registers

    schedule = list_schedule(mapped_pe("NW"), TileResources(mccs=2))
    allocation = benchmark(allocate_registers, schedule)
    assert allocation.complete
