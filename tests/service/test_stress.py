"""Concurrency stress tests for the worker-pool serving mode.

Hammers ``submit`` from many threads against a multi-worker service
and checks the invariants that matter under concurrency: no job is
ever lost or double-counted, the ``ServiceStats`` ledger adds up,
results are identical to the synchronous path, backpressure rejects
cleanly, and shutdown leaves every controller idle.

These tests bound every wait (``drain``/``result`` time out and raise
rather than hang), so a deadlock shows up as a failure, not a stuck
CI job.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceError
from repro.freac.ccctrl import ControllerState
from repro.params import scaled_system
from repro.service import AcceleratorService, JobState
from repro.telemetry import Telemetry

BENCHES = ["VADD", "DOT", "SRT"]


def make_service(**kwargs):
    kwargs.setdefault("system", scaled_system(l3_slices=2))
    kwargs.setdefault("devices", 2)
    kwargs.setdefault("workers", 4)
    kwargs.setdefault("batching", False)
    return AcceleratorService(**kwargs)


def warm(service):
    """Pre-compile the three benchmarks so the hammer measures serving,
    not synthesis."""
    for name in BENCHES:
        service.result(service.submit(name, 1), timeout_s=60)


def assert_devices_idle(service):
    for device in service.devices:
        for controller in device.controllers:
            assert controller.state is ControllerState.IDLE


def terminal_total(stats):
    return (
        stats.completed + stats.rejected + stats.failed + stats.cancelled
        + stats.timed_out + stats.saturated
    )


class TestHammer:
    def test_200_concurrent_submits_lose_nothing(self):
        service = make_service()
        warm(service)
        jobs = []
        jobs_lock = threading.Lock()
        errors = []

        def submitter(thread_index):
            try:
                for i in range(25):
                    job = service.submit(
                        BENCHES[(thread_index + i) % 3], 4,
                        seed=thread_index * 1000 + i,
                        priority=i % 4,
                    )
                    with jobs_lock:
                        jobs.append(job)
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(jobs) == 200

        service.drain(timeout_s=120)
        # No job lost (all terminal), none duplicated (distinct ids).
        assert all(job.done for job in jobs)
        assert len({job.id for job in jobs}) == 200

        stats = service.stats()
        assert stats.submitted == 203            # 200 + 3 warm-up
        assert terminal_total(stats) == stats.submitted
        assert stats.completed == 203
        assert stats.running == 0 and stats.queue_depth == 0
        # Every run verified bit-exact against the golden model.
        assert all(job.result.verified for job in jobs)

        service.shutdown(timeout_s=60)
        assert_devices_idle(service)

    def test_results_match_the_synchronous_path(self):
        spec = [
            (BENCHES[i % 3], 2 + (i % 3), {"seed": i, "priority": i % 3})
            for i in range(12)
        ] + [
            ("NW", 3, {"seed": 12, "lut_inputs": 4}),
            ("VADD", 4, {"seed": 13, "slices": 2, "priority": 1}),
        ]

        def run(workers, elastic):
            service = make_service(workers=workers, elastic=elastic)
            try:
                handles = [
                    service.submit(name, items, **kwargs)
                    for name, items, kwargs in spec
                ]
                service.drain(timeout_s=120)
                return [
                    (
                        job.result.benchmark, job.result.items,
                        job.result.state.value, job.result.verified,
                        job.result.mismatches, job.result.invocations,
                    )
                    for job in handles
                ]
            finally:
                service.shutdown(timeout_s=60)

        sync = {elastic: run(0, elastic) for elastic in (False, True)}
        for elastic in (False, True):
            assert run(2, elastic) == sync[elastic] == sync[False], elastic


class TestBackpressure:
    def test_bounded_queue_saturates_cleanly(self):
        service = make_service(
            workers=1, max_queue_depth=2, wave_latency_s=0.05
        )
        warm(service)
        jobs = [service.submit("VADD", 2, seed=i) for i in range(30)]
        saturated = [
            job for job in jobs if job.state is JobState.SATURATED
        ]
        # One slow worker against 30 instant submits and a 2-deep
        # queue: most of the burst must bounce.
        assert saturated
        for job in saturated:
            assert job.done
            assert "full" in job.result.error

        service.drain(timeout_s=120)
        stats = service.stats()
        assert stats.saturated == len(saturated)
        assert terminal_total(stats) == stats.submitted
        assert stats.completed == stats.submitted - stats.saturated
        service.shutdown(timeout_s=60)


class TestDeadlinesAndCancels:
    def test_deadlines_and_cancels_under_load(self):
        service = make_service(workers=2, wave_latency_s=0.02)
        warm(service)
        doomed = [
            service.submit("DOT", 2, timeout_s=0.0, seed=i)
            for i in range(5)
        ]
        normal = [service.submit("VADD", 2, seed=i) for i in range(10)]
        cancelled = sum(1 for job in normal[5:] if service.cancel(job))

        service.drain(timeout_s=120)
        assert all(job.done for job in doomed + normal)
        # A zero deadline can never be met; the re-check before
        # execution must catch every one of them.
        assert all(job.state is JobState.TIMED_OUT for job in doomed)

        stats = service.stats()
        assert stats.timed_out == 5
        assert stats.cancelled == cancelled
        assert terminal_total(stats) == stats.submitted
        service.shutdown(timeout_s=60)


class TestShutdown:
    def test_graceful_shutdown_drains_then_idles_devices(self):
        service = make_service(wave_latency_s=0.01)
        warm(service)
        jobs = [
            service.submit(BENCHES[i % 3], 4, seed=i) for i in range(20)
        ]
        service.shutdown(drain=True, timeout_s=120)
        assert all(job.done for job in jobs)
        assert service.stats().completed == 23   # 20 + 3 warm-up
        assert_devices_idle(service)
        # Idempotent, and the closed service refuses new work.
        service.shutdown()
        with pytest.raises(ServiceError):
            service.submit("VADD", 1)

    def test_shutdown_without_drain_cancels_queued_jobs(self):
        service = make_service(workers=1, wave_latency_s=0.05)
        warm(service)
        jobs = [service.submit("VADD", 2, seed=i) for i in range(20)]
        service.shutdown(drain=False, timeout_s=120)
        assert all(job.done for job in jobs)
        # One slow worker cannot have run the whole burst before the
        # stop landed; the rest must be cancelled, not lost.
        assert any(job.state is JobState.CANCELLED for job in jobs)
        assert terminal_total(service.stats()) == service.stats().submitted
        assert_devices_idle(service)

    def test_context_manager_drains_on_clean_exit(self):
        with make_service(workers=2) as service:
            jobs = [service.submit(BENCHES[i % 3], 2) for i in range(6)]
        assert all(job.state is JobState.DONE for job in jobs)
        assert_devices_idle(service)


class TestWorkerModeApi:
    def test_pump_is_refused_in_worker_mode(self):
        service = make_service()
        try:
            with pytest.raises(ServiceError):
                service.pump()
        finally:
            service.shutdown(timeout_s=60)

    def test_result_timeout_raises_instead_of_hanging(self):
        service = make_service(workers=1, wave_latency_s=0.2)
        warm(service)
        job = service.submit("VADD", 2)
        tail = service.submit("DOT", 2)
        with pytest.raises(ServiceError):
            # Far too short for two 0.2s waves on one worker.
            service.result(tail, timeout_s=0.01)
        service.drain(timeout_s=120)
        assert job.done and tail.done
        service.shutdown(timeout_s=60)

    def test_worker_telemetry_is_recorded(self):
        telemetry = Telemetry()
        service = make_service(telemetry=telemetry, wave_latency_s=0.005)
        warm(service)
        for i in range(8):
            service.submit(BENCHES[i % 3], 2, seed=i)
        service.drain(timeout_s=120)
        service.shutdown(timeout_s=60)

        waves = telemetry.metrics.get("service.worker_waves")
        assert waves is not None and waves.total >= 8
        assert "service.worker_wave" in {
            span.name for span in telemetry.tracer.spans
        }
        depth = telemetry.metrics.get("service.queue_depth")
        assert depth is not None and depth.value() == 0
