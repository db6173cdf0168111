"""``GatewayClient``: the caller-facing async API over a Gateway.

The :class:`~repro.gateway.gateway.Gateway` exposes loop-internal
machinery (GatewayJob handles, futures); this wrapper narrows it to
the four verbs callers need — ``submit``, ``result``, ``drain``,
``shutdown`` — plus async-context-manager lifecycle::

    async with GatewayClient.launch(GatewayConfig(shards=2)) as client:
        job_id = await client.submit("VADD", 64)
        result = await client.result(job_id)

Every method must run on the event loop that ``start``/``launch``
used — the gateway's routing state is loop-thread-only by design.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from ..errors import ServiceError
from ..service.jobs import JobResult
from .gateway import FleetStats, Gateway, GatewayConfig
from .protocol import JobSpec


class GatewayClient:
    """Async facade over a (started) :class:`Gateway`."""

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway
        self._jobs: Dict[int, "object"] = {}

    @classmethod
    async def launch(cls, config: Optional[GatewayConfig] = None
                     ) -> "GatewayClient":
        """Build, start, and wrap a gateway in one call."""
        gateway = Gateway(config)
        await gateway.start()
        return cls(gateway)

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.shutdown()

    async def submit(
        self,
        benchmark: str,
        items: int,
        *,
        priority: int = 0,
        mccs_per_tile: int = 1,
        lut_inputs: int = 5,
        slices: int = 1,
        timeout_s: Optional[float] = None,
        seed: int = 0,
        optimize: bool = False,
        opt_budget_s: Optional[float] = None,
    ) -> int:
        """Admit one job; returns its fleet-wide id immediately.

        Backpressure (gateway or shard ``SATURATED``) surfaces in the
        :meth:`result`, never as an exception here.
        """
        job = self.gateway.submit(JobSpec(
            benchmark=benchmark,
            items=items,
            priority=priority,
            mccs_per_tile=mccs_per_tile,
            lut_inputs=lut_inputs,
            slices=slices,
            timeout_s=timeout_s,
            seed=seed,
            optimize=optimize,
            opt_budget_s=opt_budget_s,
        ))
        self._jobs[job.id] = job
        return job.id

    async def result(self, job_id: int,
                     timeout_s: Optional[float] = None) -> JobResult:
        """Await the job's terminal :class:`JobResult`."""
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown gateway job id {job_id!r}")
        if timeout_s is None:
            return await asyncio.shield(job.future)
        try:
            return await asyncio.wait_for(
                asyncio.shield(job.future), timeout_s
            )
        except asyncio.TimeoutError:
            raise ServiceError(
                f"job {job_id} not finished within {timeout_s}s"
            ) from None

    async def drain(self, timeout_s: Optional[float] = None) -> None:
        await self.gateway.drain(timeout_s=timeout_s)

    async def stats(self, *, with_telemetry: bool = True) -> FleetStats:
        return await self.gateway.fleet_stats(
            with_telemetry=with_telemetry
        )

    async def shutdown(self, *, drain: bool = True,
                       timeout_s: float = 60.0) -> None:
        await self.gateway.shutdown(drain=drain, timeout_s=timeout_s)
