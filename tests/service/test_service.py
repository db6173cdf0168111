"""AcceleratorService end to end: admission, placement, execution."""

import copy
import gc
import time
import weakref

import pytest

from repro.analysis import analyze_netlist
from repro.circuits.library import library_version
from repro.circuits.netlist import Node, NodeKind
from repro.errors import CapacityError, RequestError, ServiceError
from repro.params import scaled_system
from repro.service import AcceleratorService, JobState, ProgramCache
from repro.service.programs import CompiledProgram, compile_program
from repro.telemetry import Telemetry
from repro.workloads.datagen import dataset_for


def make_service(**kwargs):
    kwargs.setdefault("system", scaled_system(l3_slices=2))
    return AcceleratorService(**kwargs)


def broken_program(name="BROKEN"):
    """A cached program whose netlist lints with an error (NL002)."""
    clean = compile_program("VADD")
    netlist = copy.deepcopy(clean.netlist)
    netlist.nodes.append(
        Node(len(netlist.nodes), NodeKind.LUT, (9999,), (1, 0b10))
    )
    return CompiledProgram(
        benchmark=name,
        lut_inputs=clean.lut_inputs,
        mccs_per_tile=clean.mccs_per_tile,
        netlist=netlist,
        schedule=clean.schedule,
        netlist_report=analyze_netlist(netlist, lut_inputs=5),
        schedule_report=clean.schedule_report,
        library_hash=library_version(),
    )


class TestSubmitResult:
    def test_submit_runs_and_verifies(self):
        service = make_service()
        job = service.submit("GEMM", 4)
        result = service.result(job)
        assert result.state is JobState.DONE
        assert result.verified
        assert result.invocations == 4
        assert result.latency_s > 0
        assert result.placement is not None

    def test_result_accepts_job_id(self):
        service = make_service()
        job = service.submit("VADD", 2)
        assert service.result(job.id).state is JobState.DONE

    def test_finished_job_leaves_only_its_result(self):
        """A long-lived service keeps no record per served job beyond
        its result, which stays reachable by id."""
        service = make_service()
        job = service.submit("VADD", 2)
        result = service.result(job)
        assert job.id not in service.jobs
        assert service.result(job.id) is result
        assert not service.cancel(job.id)

    def test_unknown_job_id(self):
        with pytest.raises(ServiceError):
            make_service().result(999)

    def test_caller_dataset_is_used(self):
        service = make_service()
        dataset = dataset_for("DOT", 4, seed=7)
        job = service.submit("DOT", 4, dataset=dataset)
        assert service.result(job).verified


class TestAdmission:
    def test_bad_requests_raise_request_error(self):
        service = make_service()
        with pytest.raises(RequestError):
            service.submit("VADD", 0)
        with pytest.raises(RequestError):
            service.submit("NOPE", 2)
        with pytest.raises(RequestError):
            service.submit("VADD", 2, slices=99)
        with pytest.raises(RequestError):
            service.submit("VADD", 5, dataset=dataset_for("VADD", 3))
        with pytest.raises(RequestError):
            service.submit("VADD", 3, dataset=dataset_for("DOT", 3))

    def test_lint_errors_reject_with_full_report(self):
        """Acceptance: rejection returns the AnalysisReport, no raise."""
        service = make_service()
        service.cache.put(broken_program())
        job = service.submit("BROKEN", 2)
        assert job.state is JobState.REJECTED
        result = service.result(job)
        assert result.state is JobState.REJECTED
        assert result.admission is not None
        assert not result.admission.ok
        assert "NL002" in result.admission.rule_ids()
        # The rejection never touched a device.
        assert all(util == 0.0 for util in service.stats().slice_utilization)
        assert service.stats().rejected == 1


class TestWarmCache:
    def test_warm_submit_compiles_nothing(self):
        """Acceptance: zero synthesis/tech-map/fold work when warm."""
        calls = []

        def compiler(name, **kwargs):
            calls.append(name)
            return compile_program(name, **kwargs)

        service = make_service(cache=ProgramCache(compiler=compiler))
        cold = service.submit("DOT", 2)
        service.result(cold)
        warm = service.submit("DOT", 2)
        result = service.result(warm)
        assert calls == ["DOT"]               # compiled exactly once
        assert service.cache.hits == 1 and service.cache.misses == 1
        assert not cold.cache_hit and warm.cache_hit
        assert result.verified


class TestScheduling:
    def test_disjoint_jobs_share_one_device(self):
        """Acceptance: co-resident jobs on disjoint slices, no
        interference."""
        service = make_service(batching=False)
        a = service.submit("VADD", 4)
        b = service.submit("DOT", 4)
        finished = service.pump()             # a single wave
        assert finished == 2
        ra, rb = a.result, b.result
        assert ra.state is rb.state is JobState.DONE
        assert ra.verified and rb.verified
        assert ra.placement[0] == rb.placement[0]          # same device
        assert not set(ra.placement[1]) & set(rb.placement[1])  # disjoint
        # Every slice is back to cache mode afterwards.
        device = service.devices[0]
        assert all(c.state.value == "idle" for c in device.controllers)

    def test_same_benchmark_jobs_batch_into_one_run(self):
        service = make_service()
        a = service.submit("VADD", 3)
        b = service.submit("VADD", 5)
        service.result(a)
        result_b = service.result(b)
        assert a.result.batch_size == 2
        assert result_b.batch_size == 2
        assert a.result.verified and result_b.verified
        assert a.result.mismatches == 0
        assert service.stats().batched_jobs == 2
        assert service.stats().batches == 1

    def test_batching_can_be_disabled(self):
        service = make_service(batching=False)
        a = service.submit("VADD", 2)
        b = service.submit("VADD", 2)
        service.result(a)
        service.result(b)
        assert a.result.batch_size == b.result.batch_size == 1

    def test_wide_job_uses_both_slices(self):
        service = make_service()
        job = service.submit("SRT", 4, slices=2)
        result = service.result(job)
        assert result.verified
        assert len(result.placement[1]) == 2

    def test_priority_head_runs_in_first_wave(self):
        # 1 slice free per wave: the high-priority job must win it.
        service = make_service(
            system=scaled_system(l3_slices=1), batching=False
        )
        low = service.submit("VADD", 2, priority=0)
        high = service.submit("DOT", 2, priority=5)
        service.pump()
        assert high.done and not low.done
        service.result(low)
        assert low.result.verified


class TestLifecycle:
    def test_cancel_pending_job(self):
        service = make_service()
        job = service.submit("VADD", 2)
        assert service.cancel(job)
        assert job.state is JobState.CANCELLED
        assert not service.cancel(job)        # already terminal
        assert service.result(job).state is JobState.CANCELLED
        assert service.stats().cancelled == 1

    def test_queue_deadline_times_out(self):
        service = make_service()
        job = service.submit("VADD", 2, timeout_s=0.0)
        result = service.result(job)
        assert result.state is JobState.TIMED_OUT
        assert "deadline" in result.error
        assert service.stats().timed_out == 1

    @pytest.mark.parametrize("workers", (0, 1))
    def test_submit_racing_shutdown_is_refused(self, workers, monkeypatch):
        # A shutdown that lands while submit compiles must not leave the
        # new job PENDING on a closed service (never run, or run on
        # torn-down devices): the submit is refused instead.
        service = make_service(workers=workers)
        queued = service.submit("VADD", 2)
        lookup = service.cache.lookup

        def racing_lookup(*args, **kwargs):
            service.shutdown(drain=False, timeout_s=60)
            return lookup(*args, **kwargs)

        monkeypatch.setattr(service.cache, "lookup", racing_lookup)
        with pytest.raises(ServiceError):
            service.submit("VADD", 2)
        assert queued.done
        assert all(job.done for job in service.jobs.values())

    @pytest.mark.parametrize("elastic", (False, True))
    @pytest.mark.parametrize("workers", (0, 2))
    def test_shut_down_service_is_freed_by_refcount(self, workers, elastic):
        # No reference cycle through the dispatch loop: a shut-down
        # service must not wait for a full GC to give its memory back.
        gc.collect()
        gc.disable()
        try:
            service = make_service(workers=workers, elastic=elastic)
            job = service.submit("VADD", 2)
            assert service.result(job, timeout_s=60).state is JobState.DONE
            service.shutdown(timeout_s=60)
            ref = weakref.ref(service)
            del service
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("workers", (0, 1))
    def test_done_callback_runs_after_the_job_is_recorded(self, workers):
        # A gateway shard sends each result from this callback, so a
        # stats snapshot taken when the result arrives must count it.
        telemetry = Telemetry()
        seen = []

        def done(job):
            latency = telemetry.metrics.get("service.latency_s")
            finished = telemetry.metrics.get("service.jobs_finished")
            seen.append((
                latency.count() if latency else 0,
                finished.total if finished else 0,
                job.id in [
                    span.attrs["job_id"] for span in telemetry.tracer.spans
                    if span.name == "job"
                ],
            ))

        service = make_service(
            workers=workers, telemetry=telemetry, done_callback=done,
        )
        job = service.submit("VADD", 2)
        assert service.result(job, timeout_s=60).state is JobState.DONE
        service.shutdown(timeout_s=60)
        assert seen == [(1, 1, True)]

    def test_stats_snapshot_counts(self):
        service = make_service()
        service.result(service.submit("VADD", 2))
        stats = service.stats()
        assert stats.submitted == stats.completed == 1
        assert stats.queue_depth == 0
        assert stats.latency_p50_s is not None
        assert stats.to_dict()["completed"] == 1


class TestCapacityRetry:
    def _flaky(self, monkeypatch, failures):
        import repro.service.service as service_module

        real = service_module.plan_layout
        state = {"left": failures}

        def flaky(dataset, words, *, pe=None):
            if state["left"] > 0:
                state["left"] -= 1
                raise CapacityError("transient: batch too large")
            return real(dataset, words, pe=pe)

        monkeypatch.setattr(service_module, "plan_layout", flaky)

    def test_transient_capacity_error_retries_smaller(self, monkeypatch):
        self._flaky(monkeypatch, failures=1)
        service = make_service()
        job = service.submit("VADD", 4)
        result = service.result(job)
        assert result.state is JobState.DONE
        assert result.verified
        assert result.retries == 1
        assert service.stats().retries == 1

    def test_retry_budget_exhausts_to_failed(self, monkeypatch):
        self._flaky(monkeypatch, failures=100)
        service = make_service(max_retries=2)
        job = service.submit("VADD", 8)
        result = service.result(job)
        assert result.state is JobState.FAILED
        assert "CapacityError" in result.error
        assert service.stats().failed == 1
        # The failure released its slices.
        assert service.pool.busy_total() == 0

    def test_deadline_abort_requeues_jobs_with_slack(self, monkeypatch):
        # Two VADD jobs merge into one wave whose first chunk overruns
        # the tight job's deadline.  The wave aborts: the tight job
        # times out, the loose one still has slack, so it is requeued
        # (never dropped) and completes on the next wave.
        import repro.service.service as service_module

        real = service_module.plan_layout
        state = {"left": 1}

        def slow_then_overflow(dataset, words, *, pe=None):
            if state["left"] > 0:
                state["left"] -= 1
                time.sleep(0.3)
                raise CapacityError("transient: batch too large")
            return real(dataset, words, pe=pe)

        monkeypatch.setattr(
            service_module, "plan_layout", slow_then_overflow
        )
        service = make_service(max_retries=3)
        tight = service.submit("VADD", 2, timeout_s=0.25)
        loose = service.submit("VADD", 2, seed=1, timeout_s=60.0)
        service.drain(timeout_s=60)
        assert tight.state is JobState.TIMED_OUT
        assert "during execution" in tight.result.error
        assert loose.state is JobState.DONE
        assert loose.result.verified
        assert service.stats().requeued == 1


class TestExecutionDeadline:
    def test_expired_between_dequeue_and_execution(self, monkeypatch):
        # Regression: a wave placed early in a pump used to run (and be
        # billed DONE) even when an earlier wave's execution outlasted
        # its deadline.  The re-check at execution start must time it
        # out before its data touches the device.
        import repro.service.service as service_module

        real = service_module.plan_layout

        def slow_for_vadd(dataset, words, *, pe=None):
            if dataset.benchmark == "VADD":
                time.sleep(0.05)
            return real(dataset, words, pe=pe)

        monkeypatch.setattr(service_module, "plan_layout", slow_for_vadd)
        service = make_service(batching=False)
        slow = service.submit("VADD", 2, priority=5)
        doomed = service.submit("DOT", 2, timeout_s=0.04)
        service.pump()
        assert slow.state is JobState.DONE
        assert doomed.state is JobState.TIMED_OUT
        assert "deadline" in doomed.result.error
        assert service.pool.busy_total() == 0

    def test_deadline_overrun_mid_wave_times_out(self, monkeypatch):
        import repro.service.service as service_module

        real = service_module.plan_layout
        state = {"left": 1}

        def slow_then_overflow(dataset, words, *, pe=None):
            if state["left"] > 0:
                state["left"] -= 1
                time.sleep(0.03)
                raise CapacityError("transient: batch too large")
            return real(dataset, words, pe=pe)

        monkeypatch.setattr(
            service_module, "plan_layout", slow_then_overflow
        )
        service = make_service(max_retries=3)
        result = service.result(service.submit("VADD", 4, timeout_s=0.02))
        assert result.state is JobState.TIMED_OUT
        assert "deadline" in result.error
        assert service.pool.busy_total() == 0


class TestBackpressure:
    def test_unbounded_queue_never_saturates(self):
        service = make_service()
        jobs = [service.submit("VADD", 2, seed=i) for i in range(10)]
        assert all(job.state is JobState.PENDING for job in jobs)

    def test_bounded_queue_rejects_overflow_as_saturated(self):
        service = make_service(max_queue_depth=3)
        jobs = [service.submit("VADD", 2, seed=i) for i in range(5)]
        states = [job.state for job in jobs]
        assert states[:3] == [JobState.PENDING] * 3
        assert states[3:] == [JobState.SATURATED] * 2
        for job in jobs[3:]:
            assert job.done
            assert "full" in job.result.error
        stats = service.stats()
        assert stats.saturated == 2
        # The queued jobs still run to completion.
        for job in jobs[:3]:
            assert service.result(job).verified
        assert service.stats().completed == 3

    def test_requeue_bypasses_the_bound(self):
        # A job already admitted must never be dropped: deadline-abort
        # requeues go back even when the queue is nominally full.
        from repro.service.jobs import Job, JobQueue, JobRequest

        queue = JobQueue(max_depth=1)
        jobs = [
            Job(id=n, request=JobRequest(benchmark="VADD", items=1),
                submitted_at=0.0)
            for n in (1, 2)
        ]
        assert queue.offer(jobs[0])
        assert not queue.offer(jobs[1])     # bounded: backpressure
        queue.requeue([jobs[1]])            # admitted work: always fits
        assert len(queue) == 2

    def test_real_scratchpad_overflow_splits_and_completes(self):
        # A batch that genuinely overflows a (shrunken) scratchpad way
        # still completes after splitting — no monkeypatching involved.
        from dataclasses import replace

        from repro.freac.compute_slice import SlicePartition
        from repro.params import SliceParams, SubarrayParams

        tiny = replace(
            scaled_system(l3_slices=2),
            slice_params=SliceParams(subarray=SubarrayParams(size_bytes=1024)),
        )
        # One 8-subarray way of 256-row subarrays = 2048 words.
        service = make_service(
            system=tiny,
            partition=SlicePartition(compute_ways=2, scratchpad_ways=1),
            max_retries=4,
        )
        items = 760   # VADD: 3 words/item -> 2280 words > 2048
        job = service.submit("VADD", items)
        result = service.result(job)
        assert result.state is JobState.DONE, result.error
        assert result.verified
        assert result.retries >= 1
