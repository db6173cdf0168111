"""End-to-end gateway behaviour: parity, admission, aggregation.

These tests spawn real shard processes (multiprocessing *spawn*), so
each gateway launch costs a couple of seconds of interpreter start-up;
the suite keeps the number of launches small and every wait bounded.
"""

import asyncio
import multiprocessing

import pytest

from repro.errors import ServiceError
from repro.gateway import (
    GatewayClient,
    GatewayConfig,
    ShardConfig,
    aggregate_stats,
)
from repro.gateway.frontend import burst_requests
from repro.service import AcceleratorService
from repro.service.jobs import JobState

LAUNCH_TIMEOUT_S = 120.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=LAUNCH_TIMEOUT_S))


def config(shards, **overrides):
    shard_kwargs = {"workers": 2, "heartbeat_s": 0.1}
    shard_kwargs.update(overrides.pop("shard", {}))
    return GatewayConfig(
        shards=shards,
        shard=ShardConfig(**shard_kwargs),
        seed=0,
        **overrides,
    )


class TestBurstParity:
    """A 500-job burst across 2 shards loses nothing and matches a
    single-service run job for job."""

    REQUESTS = burst_requests(500, 1, seed=0)

    @staticmethod
    def _fingerprint(result):
        return (
            result.state,
            result.benchmark,
            result.items,
            result.verified,
            result.mismatches,
        )

    def _single_service_fingerprints(self):
        service = AcceleratorService(workers=2)
        try:
            jobs = [
                service.submit(benchmark, items, **kwargs)
                for benchmark, items, kwargs in self.REQUESTS
            ]
            service.drain(timeout_s=LAUNCH_TIMEOUT_S)
            return [self._fingerprint(job.result) for job in jobs]
        finally:
            service.shutdown(drain=False)

    async def _gateway_fingerprints(self):
        async with await GatewayClient.launch(config(2)) as client:
            job_ids = [
                await client.submit(benchmark, items, **kwargs)
                for benchmark, items, kwargs in self.REQUESTS
            ]
            await client.drain(timeout_s=LAUNCH_TIMEOUT_S)
            results = [await client.result(jid) for jid in job_ids]
            fleet = await client.stats()
        return [self._fingerprint(r) for r in results], fleet

    def test_500_job_burst_matches_single_service(self):
        expected = self._single_service_fingerprints()
        actual, fleet = run(self._gateway_fingerprints())

        assert len(actual) == len(expected) == 500
        # Job for job: same request -> same terminal state, same
        # verification verdict, on either topology.
        assert actual == expected
        assert all(fp[0] is JobState.DONE and fp[3] for fp in actual)

        # Nothing lost along the way, and both shards really served.
        assert fleet.submitted == 500
        assert fleet.completed == 500
        assert fleet.pending == 0
        assert fleet.aggregate["completed"] == 500
        assert len(fleet.shards) == 2
        for stats in fleet.shards.values():
            assert stats["completed"] > 0


class TestAdmissionControl:
    async def _saturating_run(self):
        cfg = config(
            1,
            max_inflight=3,
            shard={"workers": 1, "item_latency_s": 0.3},
        )
        async with await GatewayClient.launch(cfg) as client:
            job_ids = [
                await client.submit("VADD", 1, seed=index)
                for index in range(8)
            ]
            await client.drain(timeout_s=LAUNCH_TIMEOUT_S)
            return [await client.result(jid) for jid in job_ids]

    def test_aggregate_bound_saturates_not_raises(self):
        results = run(self._saturating_run())
        by_state = {}
        for result in results:
            by_state.setdefault(result.state, []).append(result)
        # The first max_inflight jobs are admitted; the overflow
        # resolves SATURATED immediately (backpressure, no exception).
        assert len(by_state.get(JobState.DONE, [])) == 3
        assert len(by_state.get(JobState.SATURATED, [])) == 5
        for result in by_state[JobState.SATURATED]:
            assert "max_inflight" in (result.error or "")

    async def _rejecting_run(self):
        async with await GatewayClient.launch(config(1)) as client:
            bad = await client.submit("VADD", 1, slices=999)
            good = await client.submit("VADD", 1)
            results = (
                await client.result(bad),
                await client.result(good),
            )
            return results

    def test_bad_request_rejects_only_that_job(self):
        bad, good = run(self._rejecting_run())
        assert bad.state is JobState.REJECTED
        assert good.state is JobState.DONE


class TestFleetAggregation:
    async def _observed_run(self):
        async with await GatewayClient.launch(config(2)) as client:
            job_ids = [
                await client.submit(benchmark, items, **kwargs)
                for benchmark, items, kwargs in burst_requests(48, 2, 0)
            ]
            await client.drain(timeout_s=LAUNCH_TIMEOUT_S)
            for jid in job_ids:
                await client.result(jid)
            fleet = await client.stats(with_telemetry=True)
            trace = client.gateway.merged_trace()
            metrics = client.gateway.merged_metrics()
        return fleet, trace, metrics

    def test_stats_trace_and_metrics_merge(self):
        fleet, trace, metrics = run(self._observed_run())

        # Fleet counters line up with the per-shard snapshots.
        assert fleet.completed == 48
        assert fleet.aggregate["submitted"] == sum(
            s["submitted"] for s in fleet.shards.values()
        )
        assert 0.0 < fleet.aggregate["cache"]["hit_rate"] <= 1.0

        # The merged trace holds one process lane per shard, with
        # metadata naming them, and all spans rebased to one clock.
        events = trace["traceEvents"]
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {"shard0", "shard1"}
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        assert {e["pid"] for e in spans} == {10, 11}
        assert all(e["ts"] >= 0 for e in spans)

        # Merged counters carry the shard label; histograms aggregate
        # count/sum and keep per-shard percentiles.
        submissions = metrics["service.submissions"]
        assert {s["labels"]["shard"] for s in submissions["series"]} \
            == {"0", "1"}
        latency = metrics["service.latency_s"]
        fleet_count = 0
        for series in latency["series"]:
            assert series["count"] == sum(
                s["count"] for s in series["shards"]
            )
            fleet_count += series["count"]
        assert fleet_count == 48


    def test_aggregate_stats_folds_shard_dicts(self):
        """The fleet row from two hand-written shard snapshots."""
        shards = {
            0: {
                "submitted": 3, "completed": 2, "failed": 1,
                "ways_resized": 8, "energy_j": 2.0,
                "resize_cost_s": 1e-7, "device_s": 3e-6,
                "cache": {"hits": 3, "misses": 1, "hit_rate": 0.75},
                "latency_p50_s": 0.01, "latency_p95_s": 0.05,
                "latency_samples": 2, "items_per_joule": 10.0,
            },
            1: {   # no "failed" and no "ways_resized": both count 0
                "submitted": 5, "completed": 5, "energy_j": 6.0,
                "resize_cost_s": 2e-7, "device_s": 1e-6,
                "cache": {"hits": 1, "misses": 7, "hit_rate": 0.125},
                "latency_p50_s": 0.02, "latency_p95_s": 0.03,
                "latency_samples": 5, "items_per_joule": 20.0,
            },
        }
        fleet = aggregate_stats(shards)
        assert fleet["submitted"] == 8
        assert fleet["completed"] == 7
        assert fleet["failed"] == 1
        assert fleet["ways_resized"] == 8
        assert fleet["energy_j"] == 8.0
        assert fleet["resize_cost_s"] == pytest.approx(3e-7)
        assert fleet["device_s"] == pytest.approx(4e-6)
        # Weighted by lookups (4 of 12 hit), not the mean of the rates.
        assert fleet["cache"]["hit_rate"] == pytest.approx(4 / 12)
        # Weighted by energy: (10 * 2 + 20 * 6) / 8 items per joule.
        assert fleet["items_per_joule"] == pytest.approx(17.5)
        # Percentiles do not merge: the fleet keeps the worst shard's.
        assert fleet["latency_p50_s"] == 0.02
        assert fleet["latency_p95_s"] == 0.05
        assert fleet["latency_samples"] == 7


class TestStartFailure:
    """A shard that dies before it is ready fails the start, and no
    shard process outlives it."""

    @staticmethod
    def blocked_cache_dir(tmp_path, blocked):
        """A cache root where ``blocked`` shard namespaces cannot be made:
        all of them (the root is a regular file) or just ``shard1``."""
        if blocked == "all":
            root = tmp_path / "cache-file"
            root.write_text("")
        else:
            root = tmp_path / "cache"
            root.mkdir()
            (root / blocked).write_text("")
        return str(root)

    @pytest.mark.parametrize("blocked", ("all", "shard1"))
    def test_launch_raises_and_stops_every_shard(self, tmp_path, blocked):
        cfg = config(2, shard={
            "cache_dir": self.blocked_cache_dir(tmp_path, blocked),
        })
        with pytest.raises(ServiceError, match=r"shard \d exited"):
            run(GatewayClient.launch(cfg))
        assert multiprocessing.active_children() == []


class TestGatewayCli:
    def test_gateway_burst_smoke(self, tmp_path, capsys):
        from repro.cli import main

        stats_json = tmp_path / "fleet.json"
        trace_out = tmp_path / "trace.json"
        code = main([
            "gateway", "--shards", "2", "--burst", "12", "--items", "1",
            "--workers", "1",
            "--stats-json", str(stats_json),
            "--trace-out", str(trace_out),
        ])
        assert code == 0
        assert stats_json.exists() and trace_out.exists()
        out = capsys.readouterr().out
        assert "12 done" in out
        assert "2 live shards" in out

    def test_shard_that_dies_before_ready_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        cache_file = tmp_path / "cache-file"
        cache_file.write_text("")
        code = main([
            "gateway", "--shards", "2", "--burst", "2",
            "--cache-dir", str(cache_file),
        ])
        assert code == 2
        assert "error: shard" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_zero_workers_is_refused_before_any_spawn(self, capsys):
        from repro.cli import main

        code = main(["gateway", "--workers", "0", "--burst", "2"])
        assert code == 2
        assert "error: a shard needs at least one worker" \
            in capsys.readouterr().err
        assert multiprocessing.active_children() == []
