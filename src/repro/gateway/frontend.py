"""``freac gateway``: the sharded serving front end.

Two feeding modes, mirroring ``freac serve``:

* ``--requests FILE`` (or stdin) replays a request stream — the same
  line grammar as ``freac serve`` — through the gateway.
* ``--burst N`` generates a synthetic mixed burst of N jobs over the
  cheap benchmark set (the smoke/bench mode CI runs).

Either way the run drains, prints per-state totals, and can leave two
artifacts behind: ``--stats-json`` (the aggregated
:class:`~repro.gateway.gateway.FleetStats`) and ``--trace-out`` (the
merged cross-shard Chrome trace, one process lane per shard).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Dict, List, Tuple

from ..errors import ReproError, RequestError
from ..service.elastic import ElasticConfig
from ..service.frontend import read_requests
from ..service.jobs import JobState
from .client import GatewayClient
from .gateway import GatewayConfig
from .shard import ShardConfig

#: The synthetic burst rotates through these (cheap, batchable).
BURST_BENCHMARKS = ("VADD", "DOT", "GEMM", "CONV", "STN2", "STN3")


def build_config(args: argparse.Namespace) -> GatewayConfig:
    return GatewayConfig(
        shards=args.shards,
        shard=ShardConfig(
            devices=args.devices,
            l3_slices=args.device_slices,
            workers=args.workers,
            cache_dir=args.cache_dir,
            max_queue_depth=args.max_queue_depth,
            batching=not getattr(args, "no_batching", False),
            wave_latency_s=args.wave_latency_s,
            item_latency_s=args.item_latency_s,
            elastic=ElasticConfig() if getattr(args, "elastic", False)
            else None,
        ),
        max_inflight=args.max_inflight,
        seed=args.seed,
    )


def burst_requests(count: int, items: int, seed: int,
                   *, optimize: bool = False
                   ) -> List[Tuple[str, int, Dict]]:
    """A deterministic mixed burst: benchmarks and tile sizes rotate,
    giving ~12 distinct route keys for the ring to spread."""
    requests: List[Tuple[str, int, Dict]] = []
    for index in range(count):
        benchmark = BURST_BENCHMARKS[index % len(BURST_BENCHMARKS)]
        tile = 1 + (index // len(BURST_BENCHMARKS)) % 2
        kwargs: Dict = {"mccs_per_tile": tile, "seed": seed + index}
        if optimize:
            kwargs["optimize"] = True
        requests.append((benchmark, items, kwargs))
    return requests


async def run_gateway(args: argparse.Namespace) -> int:
    config = build_config(args)
    if args.burst is not None:
        requests = burst_requests(
            args.burst, args.items, args.seed,
            optimize=getattr(args, "optimize", False),
        )
    else:
        if args.requests in (None, "-"):
            requests = list(read_requests(sys.stdin))
        else:
            try:
                with open(args.requests) as stream:
                    requests = list(read_requests(stream))
            except OSError as exc:
                print(f"cannot read {args.requests}: {exc}",
                      file=sys.stderr)
                return 2

    client = await GatewayClient.launch(config)
    exit_code = 0
    totals: Dict[str, int] = {}
    try:
        job_ids: List[int] = []
        for index, (benchmark, items, kwargs) in enumerate(
            requests, start=1
        ):
            try:
                job_ids.append(
                    await client.submit(benchmark, items, **kwargs)
                )
            except RequestError as exc:
                print(f"request {index} refused: {exc}", file=sys.stderr)
                exit_code = 1
        await client.drain(timeout_s=args.drain_timeout)
        unverified = 0
        for job_id in job_ids:
            result = await client.result(job_id)
            totals[result.state.value] = (
                totals.get(result.state.value, 0) + 1
            )
            if result.state is JobState.DONE and result.verified is False:
                unverified += 1
        fleet = await client.stats()
        done = totals.get(JobState.DONE.value, 0)
        print(
            f"-- {len(job_ids)} jobs over {args.shards} shard(s): "
            + ", ".join(f"{count} {state}"
                        for state, count in sorted(totals.items()))
            + (f", {unverified} UNVERIFIED" if unverified else "")
        )
        aggregate = fleet.aggregate
        print(
            f"-- fleet: {fleet.live_shards} live shards, "
            f"{fleet.reroutes} reroutes, "
            f"{fleet.shard_restarts} restarts | "
            f"cache hit rate "
            f"{aggregate.get('cache', {}).get('hit_rate', 0.0):.0%}"
        )
        if fleet.ways_resized:
            print(
                f"-- ways: {fleet.ways_resized} transitions, "
                f"{aggregate.get('warm_attaches', 0)} warm attaches, "
                f"{fleet.items_per_joule:.3g} items/J"
            )
        if done < len(job_ids) or unverified:
            exit_code = max(exit_code, 1)
        if args.stats_json:
            with open(args.stats_json, "w") as handle:
                json.dump(fleet.to_dict(), handle, indent=2)
            print(f"fleet stats written to {args.stats_json}")
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump(client.gateway.merged_trace(), handle)
            print(f"merged trace written to {args.trace_out}")
    finally:
        await client.shutdown()
    return exit_code


def cmd_gateway(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    try:
        return asyncio.run(run_gateway(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def add_parsers(sub: "argparse._SubParsersAction") -> None:
    """Register ``gateway`` on the ``freac`` CLI."""
    gateway = sub.add_parser(
        "gateway",
        help="serve across multiple shard processes (scale past the GIL)",
    )
    gateway.add_argument("--shards", type=int, default=2,
                         help="shard processes to spawn")
    gateway.add_argument("--workers", type=int, default=2,
                         help="dispatch threads per shard")
    gateway.add_argument("--devices", type=int, default=1,
                         help="FReaC devices per shard")
    gateway.add_argument("--device-slices", type=int, default=2,
                         help="LLC slices per device")
    gateway.add_argument("--cache-dir", default=None,
                         help="program cache root (per-shard namespaces "
                              "are created beneath it)")
    gateway.add_argument("--max-queue-depth", type=int, default=None,
                         help="per-shard queue bound")
    gateway.add_argument("--max-inflight", type=int, default=None,
                         help="fleet-wide in-flight bound (aggregate "
                              "admission control)")
    gateway.add_argument("--no-batching", action="store_true",
                         help="disable same-benchmark batch merging")
    gateway.add_argument("--wave-latency-s", type=float, default=None,
                         help="emulated device busy time per wave")
    gateway.add_argument("--item-latency-s", type=float, default=None,
                         help="emulated device busy time per item")
    gateway.add_argument("--elastic", action="store_true",
                         help="elastic way partitioning on every shard "
                              "(docs/elastic.md)")
    gateway.add_argument("--requests", default="-",
                         help="request file, '-' for stdin (default)")
    gateway.add_argument("--burst", type=int, default=None,
                         help="generate a synthetic mixed burst of N "
                              "jobs instead of reading requests")
    gateway.add_argument("--items", type=int, default=2,
                         help="items per synthetic burst job")
    gateway.add_argument("--optimize", action="store_true",
                         help="request fold-count-minimized programs "
                              "for the synthetic burst")
    gateway.add_argument("--seed", type=int, default=0)
    gateway.add_argument("--drain-timeout", type=float, default=600.0,
                         help="drain deadline in seconds")
    gateway.add_argument("--stats-json", default=None,
                         help="write aggregated fleet stats here")
    gateway.add_argument("--trace-out", default=None,
                         help="write the merged Chrome trace here")
