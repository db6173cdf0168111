"""The five workloads, and the metrics one run of one of them reports.

Every workload drives the default serving path through public APIs
only.  It never passes ``engine=``, ``optimize=`` or an emulated
device-latency knob, so it keeps measuring whatever the default
becomes.  Inputs come from the seed and are built before any timer
starts.  In-process workloads pass them as ``dataset=``; gateway shards
generate their own operands from ``seed=``.

A workload's inputs are *blocks*: each holds every request *kind* of
its mix (one benchmark, item count and tile size) equally often,
shuffled by the seed.  A run serves whole blocks until ``seconds`` of
timed work have passed, cycling through a fixed pool of blocks so
memory does not grow with speed.  Because every block carries the same
mix:

* one block, replayed in a fixed order, gives the modeled per-item
  numbers, which then depend neither on the seed nor on how many blocks
  fitted;
* each block is a repeat of the same experiment, so throughput is the
  median over blocks, and a burst of host noise that slows one block
  does not move it.

Host time is read on a :class:`~bench.clock.HostClock`, in reference
seconds; see :mod:`bench.clock`.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.circuits.library import clear_cache
from repro.gateway import GatewayClient, GatewayConfig, ShardConfig
from repro.service import AcceleratorService, JobResult, JobState, ProgramCache
from repro.workloads.datagen import Dataset, dataset_for

from .clock import HostClock, Instant
from .hooks import LAYERS, Tracer
from .stats import percentile

#: PEs cheap enough for interactive requests: the non-AES PEs except
#: the three heavy ones below.
LIGHT = ("VADD", "DOT", "SRT", "STN2", "STN3", "FC", "KMP")
HEAVY = ("NW", "GEMM", "CONV")
COLD = ("CONV", "DOT", "FC", "GEMM", "KMP", "NW", "SRT", "STN2", "STN3", "VADD")
COLD_TILES = (1, 2, 4)
#: The ``freac gateway --burst`` benchmark set, fixed here so the
#: workload does not change when the CLI's set does.
GATEWAY_SET = ("VADD", "DOT", "GEMM", "CONV", "STN2", "STN3")
GATEWAY_TILES = (1, 2)
#: Gateway clients, each waiting for its reply before it sends again:
#: four per shard keep every shard's queue from running dry.
GATEWAY_CLIENTS = 8
#: Jobs per route key in the gateway warm-up.  With the other shard
#: idle, the gateway spills a key to the next shard on its ring once the
#: primary holds 11 jobs (more than 1.25x the fleet average plus 4), so
#: a burst of 12 compiles every key on both shards and a spill in the
#: timed phase still hits the program cache.
GATEWAY_WARM_BURST = 12
#: How often the gateway run ticks its host clock while it waits.
GATEWAY_TICK_S = 0.01
BATCH_JOBS_PER_PE = 4
BATCH_ITEMS = 64
#: Distinct seeded blocks per run; runs longer than the pool cycle it.
POOL_BLOCKS = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
DRAIN_TIMEOUT_S = 60.0
#: Workloads whose modeled energy repeats bit for bit: a static,
#: synchronous service bills the same energy for the same waves in the
#: same order.  Elastic way transitions and gateway batch merges depend
#: on timing.
EXACT_MODELED = ("interactive", "batch_heavy", "cold_compile")


@dataclass(frozen=True)
class Op:
    """One request: benchmark, items, tile size and its operands."""

    benchmark: str
    items: int
    tile: int = 1
    dataset: Optional[Dataset] = None
    seed: int = 0

    @property
    def kind(self) -> Tuple[str, int, int]:
        return self.benchmark, self.items, self.tile


@dataclass
class Sample:
    """One served request and how long it took.

    ``took`` is in reference seconds (``ref``) and in raw seconds
    (``net``), which in process leave out the clock's probes.
    """

    op: Op
    result: JobResult
    took: Instant


@dataclass
class Phase:
    """The blocks of one timed phase: (wall, samples) each."""

    blocks: List[Tuple[Instant, List[Sample]]] = field(default_factory=list)
    waves: int = 0

    def add(self, wall: Instant, samples: List[Sample], waves: int) -> None:
        self.blocks.append((wall, samples))
        self.waves += waves

    @property
    def samples(self) -> List[Sample]:
        return [sample for _, samples in self.blocks for sample in samples]

    @property
    def wall(self) -> Instant:
        return Instant(sum(wall.ref for wall, _ in self.blocks),
                       sum(wall.net for wall, _ in self.blocks))


Block = List[List[Op]]           # rounds of ops submitted together


def ok(result: JobResult) -> bool:
    """DONE and verified against the reference outputs."""
    return (result.state is JobState.DONE and result.verified is True
            and result.mismatches == 0)


def _require(result: JobResult, what: str) -> None:
    if not ok(result):
        raise RuntimeError(
            f"{what}: {result.benchmark} job ended {result.state.value} "
            f"(verified={result.verified}, error={result.error})"
        )


def _data_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 32)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def interactive_blocks(seed: int) -> List[Block]:
    """7 light PEs x 1..8 items, one request per round."""
    rng = random.Random(seed)
    blocks = []
    for _ in range(POOL_BLOCKS):
        combos = [(pe, n) for pe in LIGHT for n in range(1, 9)]
        rng.shuffle(combos)
        blocks.append([
            [Op(pe, n, dataset=dataset_for(pe, n, seed=_data_seed(rng)))]
            for pe, n in combos
        ])
    return blocks


def batch_blocks(seed: int) -> List[Block]:
    """One round of 4 x 64-item jobs per heavy PE, submitted together."""
    rng = random.Random(seed)
    blocks = []
    for _ in range(POOL_BLOCKS):
        ops = [
            Op(pe, BATCH_ITEMS,
               dataset=dataset_for(pe, BATCH_ITEMS, seed=_data_seed(rng)))
            for pe in HEAVY for _ in range(BATCH_JOBS_PER_PE)
        ]
        rng.shuffle(ops)
        blocks.append([ops])
    return blocks


def cold_blocks(seed: int) -> List[Block]:
    """The first 1-item job of every (PE, tile) program, one per round.

    Tile sizes go in ascending order, PEs shuffled within each: the
    mapped netlist is memoized per PE across tile sizes, so the tile-1
    job always pays technology mapping and the others never do, whatever
    the seed.
    """
    rng = random.Random(seed)
    blocks = []
    for _ in range(POOL_BLOCKS):
        block = []
        for tile in COLD_TILES:
            pes = list(COLD)
            rng.shuffle(pes)
            block.extend(
                [Op(pe, 1, tile,
                    dataset=dataset_for(pe, 1, seed=_data_seed(rng)))]
                for pe in pes
            )
        blocks.append(block)
    return blocks


def gateway_blocks(seed: int) -> List[List[Op]]:
    """Every (PE, tile, 1..4 items) kind of the burst mix once, shuffled.

    Shards generate the operands from each op's ``seed``.
    """
    rng = random.Random(seed)
    blocks = []
    for _ in range(POOL_BLOCKS):
        block = [
            Op(pe, n, tile, seed=_data_seed(rng))
            for pe in GATEWAY_SET for tile in GATEWAY_TILES
            for n in range(1, 5)
        ]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _warm_ops(keys: Iterable[Tuple[str, int]], seed: int) -> List[Op]:
    rng = random.Random(seed ^ 0x5EED)
    return [
        Op(pe, 1, tile, dataset=dataset_for(pe, 1, seed=_data_seed(rng)))
        for pe, tile in keys
    ]


# ----------------------------------------------------------------------
# Closed loop, in process
# ----------------------------------------------------------------------

def _serve(service: AcceleratorService, block: Block, clock: HostClock
           ) -> Tuple[Instant, List[Sample]]:
    """Submit each round's ops together, then wait for each in order.

    The clock ticks before the first round and after every result, so a
    job's latency and the block's wall both run between ticks.
    """
    samples = []
    first = now = clock.tick()
    for ops in block:
        start = now
        submitted = [
            (op, service.submit(op.benchmark, op.items,
                                mccs_per_tile=op.tile, dataset=op.dataset))
            for op in ops
        ]
        for op, job in submitted:
            result = service.result(job)
            now = clock.tick()
            samples.append(Sample(op, result, now - start))
    return now - first, samples


def _timed_block(service: AcceleratorService, block: Block,
                 clock: HostClock) -> Tuple[Instant, List[Sample], int]:
    before = service.stats().batches
    wall, samples = _serve(service, block, clock)
    return wall, samples, service.stats().batches - before


def _cold_block(block: Block, clock: HostClock
                ) -> Tuple[Instant, List[Sample], int]:
    """A cycle on a fresh service after clearing the PE library memo."""
    clear_cache()
    service = AcceleratorService()
    try:
        wall, samples = _serve(service, block, clock)
        return wall, samples, service.stats().batches
    finally:
        service.shutdown()


def _warm_service(warm: Sequence[Op], clock: HostClock, **kwargs
                  ) -> Tuple[AcceleratorService, float]:
    """A fresh service with every program compiled: (service, seconds).

    The PE library memo is cleared first, so every set-up pays the same
    cold compile a fresh process pays.
    """
    start = clock.tick()
    clear_cache()
    service = AcceleratorService(**kwargs)
    _, samples = _serve(service, [[op] for op in warm], clock)
    for sample in samples:
        _require(sample.result, "warm-up")
    return service, (clock.tick() - start).ref


def _construct(clock: HostClock) -> Tuple[AcceleratorService, float]:
    start = clock.tick()
    clear_cache()
    service = AcceleratorService()
    return service, (clock.tick() - start).ref


def _setups(make: Callable[[], Tuple[AcceleratorService, float]]
            ) -> Tuple[AcceleratorService, List[float]]:
    """Set up :data:`SETUPS` times; keep the last service."""
    times = []
    for index in range(SETUPS):
        service, seconds = make()
        times.append(seconds)
        if index < SETUPS - 1:
            service.shutdown()
    return service, times


def _closed_loop(blocks: List[Block], seconds: float,
                 run_block: Callable[[Block], Tuple],
                 tracer: Optional[Tracer]) -> Tuple[Phase, Phase]:
    """Serve whole blocks until ``seconds`` of raw timed work.

    With a tracer every block runs twice, untraced then traced, so the
    two phases cover the same inputs and their ratio is the tracing
    overhead.
    """
    plain, traced = Phase(), Phase()
    for block in itertools.cycle(blocks):
        plain.add(*run_block(block))
        if tracer is not None:
            with tracer.installed():
                traced.add(*run_block(block))
        if plain.wall.net + traced.wall.net >= seconds:
            return plain, traced
    raise AssertionError("unreachable")


def _cycles_per_item(cache: ProgramCache, samples: Sequence[Sample]
                     ) -> float:
    """Item-weighted ``schedule.fold_cycles`` of the programs served."""
    cycles = {
        key: cache.lookup(key[0], mccs_per_tile=key[1])[0]
        .schedule.fold_cycles
        for key in sorted({(s.op.benchmark, s.op.tile) for s in samples})
    }
    return sum(
        s.op.items * cycles[(s.op.benchmark, s.op.tile)] for s in samples
    ) / _items(samples)


def _modeled(block: Block, samples: Sequence[Sample],
             **service_kwargs) -> Tuple[float, float]:
    """(uJ per item, fold cycles per item) from a replay of one block.

    A fresh service serves the block's rounds sorted by request kind.
    ``energy_j`` is a float sum over waves, so the timed phase's own
    total depends on the shuffle and on how many blocks fitted; the
    replay adds the same waves in the same order on every run.
    """
    canonical = sorted(
        (sorted(ops, key=lambda op: op.kind) for ops in block),
        key=lambda ops: [op.kind for op in ops],
    )
    service = AcceleratorService(**service_kwargs)
    try:
        _, replayed = _serve(service, canonical, HostClock())
        for sample in replayed:
            _require(sample.result, "modeled-energy replay")
        return (service.stats().energy_j * 1e6 / _items(replayed),
                _cycles_per_item(service.cache, samples))
    finally:
        service.shutdown()


def _closed_loop_report(blocks: List[Block], seconds: float, trace: bool,
                        run_block: Callable[[Block], Tuple],
                        setup_s: List[float], clock: HostClock, *,
                        warm: bool, **service_kwargs) -> Dict:
    """Run the timed phase and report end-to-end or per-layer metrics.

    ``service_kwargs`` build the service that replays a block for the
    modeled numbers.
    """
    tracer = Tracer() if trace else None
    plain, traced = _closed_loop(blocks, seconds, run_block, tracer)
    if tracer is not None:
        metrics = _closed_loop_layers(plain, traced, tracer)
    else:
        metrics = _end_to_end(
            plain, setup_s, _peak_rss_mb(),
            *_modeled(blocks[0], plain.samples, **service_kwargs),
        )
    return _report(plain.samples + traced.samples, len(plain.samples),
                   metrics, clock, plain.wall, warm=warm)


def _in_process(blocks: List[Block], warm: Sequence[Op], seconds: float,
                trace: bool, **service_kwargs) -> Dict:
    clock = HostClock()
    service, setup_s = _setups(
        lambda: _warm_service(warm, clock, **service_kwargs)
    )
    try:
        return _closed_loop_report(
            blocks, seconds, trace,
            lambda block: _timed_block(service, block, clock),
            setup_s, clock, warm=True, **service_kwargs,
        )
    finally:
        service.shutdown()


def run_interactive(seed: int, seconds: float, trace: bool,
                    elastic: bool = False) -> Dict:
    return _in_process(interactive_blocks(seed),
                       _warm_ops(((pe, 1) for pe in LIGHT), seed),
                       seconds, trace, elastic=elastic)


def run_batch_heavy(seed: int, seconds: float, trace: bool) -> Dict:
    return _in_process(batch_blocks(seed),
                       _warm_ops(((pe, 1) for pe in HEAVY), seed),
                       seconds, trace)


def run_cold_compile(seed: int, seconds: float, trace: bool) -> Dict:
    blocks = cold_blocks(seed)
    clock = HostClock()
    service, setup_s = _setups(lambda: _construct(clock))
    service.shutdown()
    return _closed_loop_report(
        blocks, seconds, trace, lambda block: _cold_block(block, clock),
        setup_s, clock, warm=False,
    )


# ----------------------------------------------------------------------
# Closed loop through the gateway
# ----------------------------------------------------------------------

async def _ticking(clock: HostClock) -> None:
    """Tick the clock while the gateway run waits on its shards."""
    while True:
        clock.tick()
        await asyncio.sleep(GATEWAY_TICK_S)


async def _warm_gateway(client: GatewayClient) -> None:
    for pe in GATEWAY_SET:
        for tile in GATEWAY_TILES:
            job_ids = [
                await client.submit(pe, 1, mccs_per_tile=tile, seed=index)
                for index in range(GATEWAY_WARM_BURST)
            ]
            for job_id in job_ids:
                _require(await client.result(job_id), "gateway warm-up")


async def _launch(config: GatewayConfig, clock: HostClock
                  ) -> Tuple[GatewayClient, float]:
    start = clock.tick()
    client = await GatewayClient.launch(config)
    try:
        await _warm_gateway(client)
    except BaseException:
        await client.shutdown(drain=False)
        raise
    return client, (clock.tick() - start).ref


async def _gateway_loop(client: GatewayClient, clock: HostClock,
                        blocks: List[List[Op]], seconds: float) -> Phase:
    """:data:`GATEWAY_CLIENTS` clients on this event loop, closed loop.

    The clients take ops from one feed, block after block, and the feed
    starts no new block once ``seconds`` have passed.  Completions are
    grouped, in the order they happened, into runs as long as a block;
    a run's wall starts at the completion before it, so the runs tile
    the phase and each is one repeat of the throughput measurement.
    Raw times become reference times once every job is done and the
    clock has ticked past them.
    """
    begin = time.perf_counter()

    def feed() -> Iterator[Op]:
        for block in itertools.cycle(blocks):
            if time.perf_counter() - begin >= seconds:
                return
            yield from block

    ops = feed()
    done: List[Tuple[Op, JobResult, float, float]] = []

    async def user() -> None:
        for op in ops:
            sent = time.perf_counter()
            job_id = await client.submit(op.benchmark, op.items,
                                         mccs_per_tile=op.tile, seed=op.seed)
            result = await client.result(job_id)
            done.append((op, result, sent, time.perf_counter()))

    await asyncio.wait_for(
        asyncio.gather(*(user() for _ in range(GATEWAY_CLIENTS))),
        seconds + DRAIN_TIMEOUT_S,
    )
    clock.tick()

    def span(start: float, end: float) -> Instant:
        return Instant(clock.at(end) - clock.at(start), end - start)

    phase = Phase()
    size = len(blocks[0])
    previous = begin
    for first in range(0, len(done), size):
        group = done[first:first + size]
        end = group[-1][3]
        phase.add(span(previous, end), [
            Sample(op, result, span(sent, finished))
            for op, result, sent, finished in group
        ], 0)
        previous = end
    return phase


async def _gateway(seed: int, seconds: float, trace: bool) -> Dict:
    blocks = gateway_blocks(seed)
    config = GatewayConfig(
        shards=2, shard=ShardConfig(workers=1, telemetry=False)
    )
    clock = HostClock()
    ticker = asyncio.get_running_loop().create_task(_ticking(clock))
    try:
        setup_s = []
        for index in range(SETUPS):
            client, elapsed = await _launch(config, clock)
            setup_s.append(elapsed)
            if index < SETUPS - 1:
                await client.shutdown()
        try:
            before = await client.stats(with_telemetry=False)
            phase = await _gateway_loop(client, clock, blocks, seconds)
            after = await client.stats(with_telemetry=False)
        finally:
            await client.shutdown()
    finally:
        ticker.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await ticker
    phase.waves = after.aggregate["batches"] - before.aggregate["batches"]
    samples = phase.samples
    if trace:
        metrics = _gateway_layers(phase)
    else:
        # Shard batch merges depend on timing, so the timed phase's own
        # energy is reported; it moves a little from run to run.
        metrics = _end_to_end(
            phase, setup_s,
            # The shards are reaped children by now: the largest peak.
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            (after.energy_j - before.energy_j) * 1e6 / _items(samples),
            _cycles_per_item(ProgramCache(), samples),
        )
    return _report(samples, len(samples), metrics, clock, phase.wall,
                   warm=True)


def run_gateway(seed: int, seconds: float, trace: bool) -> Dict:
    try:
        return asyncio.run(_gateway(seed, seconds, trace))
    finally:
        # Spawning the shards started multiprocessing's resource tracker
        # process; stop it and wait for it, so nothing outlives the run.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _items(samples: Iterable[Sample]) -> int:
    return sum(s.op.items for s in samples)


def _end_to_end(phase: Phase, setup_s: List[float], peak_rss_mb: float,
                uj_per_item: float, cycles_per_item: float
                ) -> Dict[str, float]:
    latencies_ms = [s.took.ref * 1e3 for s in phase.samples]
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "jobs_per_s": statistics.median(
            len(block) / wall.ref for wall, block in phase.blocks
        ),
        "items_per_s": statistics.median(
            _items(block) / wall.ref for wall, block in phase.blocks
        ),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "modeled_uj_per_item": uj_per_item,
        "modeled_cycles_per_item": cycles_per_item,
    }


def _shared_layers(phase: Phase, scale: float) -> Dict[str, float]:
    samples = phase.samples
    count = max(len(samples), 1)
    return {
        "service.queue_ms": sum(s.result.queue_s or 0.0 for s in samples)
        * scale * 1e3 / count,
        "service.cache_hit_rate": sum(
            1 for s in samples if s.result.cache_hit
        ) / count,
        "service.items_per_wave": _items(samples) / max(phase.waves, 1),
        "service.waves": phase.waves / count,
    }


def _closed_loop_layers(plain: Phase, traced: Phase,
                        tracer: Tracer) -> Dict[str, Optional[float]]:
    """Self time per op of every hooked layer, plus the residual.

    Hooks read raw time; ``scale`` turns it into reference time, so the
    layers and the residual sum to the traced wall per op.
    """
    ops = len(traced.samples)
    wall = traced.wall
    scale = wall.ref / wall.net
    layers: Dict[str, Optional[float]] = {}
    for name in LAYERS:
        raw_ms = tracer.layer_ms(name, ops)
        layers[name] = None if raw_ms is None else raw_ms * scale
    wall_ms = wall.ref * 1e3 / ops
    layers["service.other_ms"] = wall_ms - sum(
        value for value in layers.values() if value is not None
    )
    layers["wall_ms"] = wall_ms
    layers.update(_shared_layers(traced, scale))
    layers.update({
        "gateway.ipc_ms": 0.0,
        "gateway.shard_run_ms": 0.0,
        "trace_overhead_frac": wall.ref / plain.wall.ref - 1.0,
    })
    return layers


def _gateway_layers(phase: Phase) -> Dict[str, Optional[float]]:
    """A job's latency split by the shard's job record.

    The hooked layers run inside the shard processes, where this
    process installs nothing, so they read 0 here and their time is in
    ``gateway.shard_run_ms``.  Queue, shard run and IPC (client latency
    minus the shard's) sum to the mean latency, ``wall_ms``, so nothing
    is left for ``service.other_ms``.  They are raw times, scaled to
    reference time by the phase's own ratio.
    """
    samples = phase.samples
    count = len(samples)
    scale = (sum(s.took.ref for s in samples)
             / sum(s.took.net for s in samples))

    def mean_ms(values: Iterable[float]) -> float:
        return sum(values) * scale * 1e3 / count

    layers: Dict[str, Optional[float]] = {name: 0.0 for name in LAYERS}
    layers.update(_shared_layers(phase, scale))
    layers.update({
        "gateway.ipc_ms": mean_ms(
            s.took.net - (s.result.latency_s or 0.0) for s in samples
        ),
        "gateway.shard_run_ms": mean_ms(
            (s.result.latency_s or 0.0) - (s.result.queue_s or 0.0)
            for s in samples
        ),
        "service.other_ms": 0.0,
        "wall_ms": mean_ms(s.took.net for s in samples),
        "trace_overhead_frac": 0.0,
    })
    return layers


def _report(samples: List[Sample], measured: int,
            metrics: Dict[str, Optional[float]], clock: HostClock,
            wall: Instant, *, warm: bool) -> Dict:
    """Counts, host speed and validity problems over every timed op.

    ``measured`` is how many samples the latency metrics rest on: the
    first ``measured`` of ``samples`` (a traced run serves each block a
    second time, traced, after them).  Every op must end DONE and
    verified; a warm workload must hit the program cache on every op
    and a cold one must miss on every op.  ``slowdown`` is the timed
    phase's raw wall over its reference wall: how much host noise the
    clock divided out.

    p99 latency is reported beside the metrics, not as one: a run of
    ``cold_compile`` or ``interactive`` serves fewer than 1000 jobs, so
    fewer than ten lie beyond it, too few to gate on.
    """
    failed = sum(1 for s in samples if not ok(s.result))
    problems = []
    if failed:
        problems.append(f"{failed} of {len(samples)} ops not DONE and verified")
    wrong = sum(1 for s in samples if s.result.cache_hit is not warm)
    if wrong:
        problems.append(f"{wrong} ops were not a program-cache "
                        f"{'hit' if warm else 'miss'}")
    return {
        "attempted": len(samples),
        "failed": failed,
        "problems": problems,
        "samples": measured,
        "latency_p99_ms": percentile(
            [s.took.ref * 1e3 for s in samples[:measured]], 99
        ),
        "host": {
            "probe_median_us": clock.probe_median_s() * 1e6,
            "slowdown": wall.net / wall.ref,
        },
        "metrics": metrics,
    }


WORKLOADS: Dict[str, Callable[[int, float, bool], Dict]] = {
    "interactive": run_interactive,
    "interactive_elastic": functools.partial(run_interactive, elastic=True),
    "batch_heavy": run_batch_heavy,
    "cold_compile": run_cold_compile,
    "gateway": run_gateway,
}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """One run of one workload: metrics, counts, and validity problems.

    ``exact`` names the metrics that must repeat bit for bit across
    runs; ``bench compare`` enforces it.  Cycles per item are exact on
    every workload, since they depend only on the request mix.
    """
    report = WORKLOADS[workload](seed, seconds, trace)
    report["exact"] = [] if trace else ["modeled_cycles_per_item"] + (
        ["modeled_uj_per_item"] if workload in EXACT_MODELED else []
    )
    return report
