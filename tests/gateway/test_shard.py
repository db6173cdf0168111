"""The shard's result path, over a real pipe without spawning.

Each test builds a ``ShardRuntime`` on one end of
``multiprocessing.Pipe()``, admits jobs through ``_handle_submit`` and
reads every message at the gateway's end.  Whichever thread finishes a
job — a service worker, or the admitting thread when the job ended
before it was mapped — each gateway id gets exactly one ``ResultMsg``.
"""

import multiprocessing
import sys
import threading

import pytest

from repro.errors import ServiceError
from repro.gateway import ShardConfig, ShardRuntime
from repro.gateway.protocol import JobSpec, ResultMsg, SubmitMsg
from repro.service.jobs import JobState

WAIT_S = 60.0
GATEWAY_IDS = (101, 102, 103)


@pytest.fixture
def make_shard():
    built = []

    def make(**overrides):
        gateway_end, shard_end = multiprocessing.Pipe()
        runtime = ShardRuntime(0, shard_end, ShardConfig(
            **{"workers": 1, "telemetry": False, **overrides},
        ))
        built.append((runtime, gateway_end, shard_end))
        return runtime, gateway_end

    yield make
    for runtime, gateway_end, shard_end in built:
        runtime.service.shutdown(drain=False, timeout_s=WAIT_S)
        gateway_end.close()
        shard_end.close()


def submit(runtime, gateway_id):
    runtime._handle_submit(SubmitMsg(
        job_id=gateway_id,
        spec=JobSpec(benchmark="VADD", items=2, seed=gateway_id),
    ))


def results_by_id(runtime, gateway_end, gateway_ids=GATEWAY_IDS):
    """Every message the shard sends for ``gateway_ids``, by gateway id.

    Stops the service once each id has an answer; after its workers
    are joined the pipe must hold nothing more.
    """
    messages = []
    while len(messages) < len(gateway_ids):
        assert gateway_end.poll(WAIT_S), f"only {messages} arrived"
        messages.append(gateway_end.recv())
    runtime.service.shutdown(drain=True, timeout_s=WAIT_S)
    assert not gateway_end.poll(0)
    assert all(isinstance(message, ResultMsg) for message in messages)
    results = {message.job_id: message.result for message in messages}
    assert sorted(results) == list(gateway_ids)
    assert runtime._gateway_ids == {}
    return results


class TestResultPath:
    def test_worker_sends_a_job_it_finishes_after_mapping(self, make_shard):
        runtime, gateway_end = make_shard()
        # Holding the service lock keeps the worker from claiming a
        # wave, so every job is mapped before it can finish.
        with runtime.service._lock:
            for gateway_id in GATEWAY_IDS:
                submit(runtime, gateway_id)
            assert sorted(runtime._gateway_ids.values()) \
                == list(GATEWAY_IDS)
        results = results_by_id(runtime, gateway_end)
        assert all(r.state is JobState.DONE for r in results.values())

    def test_submit_sends_a_job_finished_before_mapping(
        self, make_shard, monkeypatch
    ):
        runtime, gateway_end = make_shard()
        service = runtime.service
        service_submit = service.submit

        def finished_submit(*args, **kwargs):
            job = service_submit(*args, **kwargs)
            service.result(job, timeout_s=WAIT_S)
            return job

        monkeypatch.setattr(service, "submit", finished_submit)
        for gateway_id in GATEWAY_IDS:
            submit(runtime, gateway_id)
        results = results_by_id(runtime, gateway_end)
        assert all(r.state is JobState.DONE for r in results.values())

    def test_submit_sends_a_job_saturated_inside_submit(self, make_shard):
        runtime, gateway_end = make_shard(
            max_queue_depth=1, wave_latency_s=0.5,
        )
        for gateway_id in GATEWAY_IDS:
            submit(runtime, gateway_id)
        results = results_by_id(runtime, gateway_end)
        # The worker spends 0.5 s on the first job and the queue holds
        # one more, so the second or the third finds it full.
        first, second, third = (results[i].state for i in GATEWAY_IDS)
        assert first is JobState.DONE
        assert JobState.SATURATED in (second, third)

    def test_one_result_per_job_under_contention(self, make_shard):
        # With a short queue the receive loop sends the SATURATED jobs
        # while four workers (more than the cores) send the rest, all
        # through one id map and one pipe; a short switch interval
        # interleaves them finely.  The submits run on their own
        # thread, as the receive loop does, so this one reads the pipe.
        runtime, gateway_end = make_shard(workers=4, max_queue_depth=2)
        gateway_ids = range(1, 151)
        submitter = threading.Thread(target=lambda: [
            submit(runtime, gateway_id) for gateway_id in gateway_ids
        ])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            submitter.start()
            results = results_by_id(runtime, gateway_end, gateway_ids)
        finally:
            sys.setswitchinterval(interval)
            submitter.join(WAIT_S)
        assert not submitter.is_alive()
        assert {r.state for r in results.values()} \
            <= {JobState.DONE, JobState.SATURATED}


def test_a_shard_needs_a_worker_thread():
    with pytest.raises(ServiceError, match="worker"):
        ShardConfig(workers=0)
