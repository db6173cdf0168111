"""Serving on the one production engine: the compiled plan.

Every wave runs ``ComputeClusterController.run_batch`` (one compiled
plan run per slice); the scalar loop is reachable only as a test
oracle, by swapping it for the controller's per-tile
``run_batch_reference``.  These tests hold the serving layer to that:
every PE runs on the plan with no fallback, the 4-input-LUT programs
serve on sync, worker and elastic services with the reference loop's
counters, and a wave that dies with an unexpected exception fails its
jobs instead of stranding them.
"""

import pytest

from repro.circuits.library import pe_names
from repro.freac.ccctrl import ComputeClusterController
from repro.freac.executor import FoldedExecutor
from repro.freac.session import ExecutionSession
from repro.params import scaled_system
from repro.service import AcceleratorService, JobState

FAST_PES = [name for name in pe_names() if name != "AES"]
MODES = {
    "sync": {},
    "workers": {"workers": 2},
    "elastic": {"elastic": True},
}


def serve_totals(monkeypatch, lut_inputs=5, **service_kwargs):
    """Serve one 3-item job per PE; per-PE totals of its wave."""
    totals = {}
    execute = ExecutionSession.execute

    def recording(self, dataset, layout, *, pe=None):
        wave_totals, mismatched = execute(self, dataset, layout, pe=pe)
        totals[dataset.benchmark] = wave_totals
        return wave_totals, mismatched

    monkeypatch.setattr(ExecutionSession, "execute", recording)
    service = AcceleratorService(
        system=scaled_system(l3_slices=2), **service_kwargs
    )
    try:
        jobs = [
            service.submit(name, 3, lut_inputs=lut_inputs, seed=5)
            for name in FAST_PES
        ]
        results = [service.result(job, timeout_s=120) for job in jobs]
    finally:
        service.shutdown(timeout_s=60)
    for result in results:
        assert result.state is JobState.DONE, (result.benchmark, result.error)
        assert result.verified, result.benchmark
    assert sorted(totals) == sorted(FAST_PES)
    return totals


class TestEveryPeOnThePlan:
    def test_every_pe_serves_without_fallback(self, monkeypatch):
        totals = serve_totals(monkeypatch)
        for name, wave in totals.items():
            assert wave["engine_fallbacks"] == 0, name
            assert wave["invocations"] == 3, name


class TestLut4Serving:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_pe_serves_at_lut4(self, mode, monkeypatch):
        """k=4 programs address eight LUT units per MCC; the controller
        must switch the slice's MCCs to 4-LUT mode for each of them."""
        plan = serve_totals(monkeypatch, lut_inputs=4, **MODES[mode])
        with monkeypatch.context() as oracle:
            oracle.setattr(
                ComputeClusterController, "run_batch",
                ComputeClusterController.run_batch_reference,
            )
            scalar = []
            run = FoldedExecutor.run

            def counting(self, *args, **kwargs):
                scalar.append(1)
                return run(self, *args, **kwargs)

            oracle.setattr(FoldedExecutor, "run", counting)
            reference = serve_totals(oracle, lut_inputs=4)
        assert plan == reference
        # The oracle side really ran the scalar loop, item by item.
        assert len(scalar) == sum(
            wave["invocations"] for wave in reference.values()
        )


class TestWaveCrash:
    """A non-``ReproError`` inside a wave must not strand its jobs."""

    @pytest.mark.parametrize("mode", ("sync", "workers"))
    def test_unexpected_error_fails_the_wave(self, mode, monkeypatch):
        def crash(self, dataset, layout, *, pe=None):
            raise RuntimeError("injected wave crash")

        monkeypatch.setattr(ExecutionSession, "execute", crash)
        service = AcceleratorService(
            system=scaled_system(l3_slices=2), **MODES[mode]
        )
        try:
            jobs = [service.submit(name, 2) for name in ("VADD", "DOT")]
            results = [service.result(job, timeout_s=60) for job in jobs]
            for result in results:
                assert result.state is JobState.FAILED
                assert "RuntimeError" in result.error
                assert "injected wave crash" in result.error
            stats = service.stats()
            assert stats.failed == 2 and stats.running == 0
            assert all(u == 0.0 for u in service.pool.utilization())
            for device in service.devices:
                for compute_slice in device.slices:
                    assert not compute_slice.cache.locked_ways
        finally:
            service.shutdown(timeout_s=60)
