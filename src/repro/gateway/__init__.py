"""Multi-process sharded serving: the gateway over shard services.

The serving layer of :mod:`repro.service` is thread-concurrent but
single-process, so its throughput plateaus at the GIL.  This package
scales *out*: ``freac gateway --shards N --workers M`` spawns N shard
processes — each a full :class:`~repro.service.AcceleratorService`
with its own device pool, worker threads, and namespaced program
cache — behind one asyncio :class:`Gateway` that routes by
program-cache key (consistent hashing keeps hot programs
shard-local), applies fleet-wide admission control, restarts or
evicts dead shards with job reroute, and aggregates per-shard stats
and traces into one fleet view.  Each shard talks to the gateway
over one ``multiprocessing`` pipe, one ``Connection.send`` pickle
per :mod:`~repro.gateway.protocol` message, and sends each result
from the worker thread that finished the job.  See docs/serving.md
("Sharded gateway").
"""

from .client import GatewayClient
from .gateway import (
    FleetStats,
    Gateway,
    GatewayConfig,
    ShardHandle,
    aggregate_stats,
)
from .hashring import HashRing
from .protocol import JobSpec
from .shard import ShardConfig, ShardRuntime, shard_main

__all__ = [
    "Gateway",
    "GatewayClient",
    "GatewayConfig",
    "FleetStats",
    "ShardHandle",
    "aggregate_stats",
    "HashRing",
    "JobSpec",
    "ShardConfig",
    "ShardRuntime",
    "shard_main",
]
