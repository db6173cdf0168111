"""``RunRequest``: the one frozen bundle of CLI run/submit knobs."""

import argparse
import dataclasses

import pytest

from repro.errors import RequestError
from repro.request import RunRequest


def namespace(**attrs):
    return argparse.Namespace(**attrs)


class TestValidation:
    def test_defaults(self):
        request = RunRequest("vadd")
        assert request.benchmark == "VADD"  # canonicalised to upper
        assert request.items == 8
        assert request.preflight and not request.telemetry

    def test_frozen(self):
        request = RunRequest("DOT")
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.items = 99

    def test_bad_items(self):
        with pytest.raises(RequestError):
            RunRequest("DOT", items=0)

    def test_bad_tile(self):
        with pytest.raises(RequestError):
            RunRequest("DOT", mccs_per_tile=0)


class TestFromArgs:
    def test_submit_style_namespace(self):
        args = namespace(
            benchmark="gemm", items=16, tile=2, job_slices=2,
            priority=3, seed=5, lut_inputs=4, timeout_s=1.5,
        )
        request = RunRequest.from_args(args)
        assert request == RunRequest(
            "GEMM", items=16, mccs_per_tile=2, slices=2, priority=3,
            seed=5, lut_inputs=4, timeout_s=1.5,
        )

    def test_missing_attributes_keep_defaults(self):
        request = RunRequest.from_args(namespace(benchmark="DOT"))
        assert request.items == 8 and request.slices == 1
        assert request.lut_inputs == 5

    def test_none_attributes_keep_defaults(self):
        # argparse emits None for unset optionals (e.g. --opt-budget-s).
        args = namespace(benchmark="DOT", opt_budget_s=None, items=None)
        request = RunRequest.from_args(args)
        assert request.opt_budget_s is None and request.items == 8

    def test_tile_beats_mccs_per_tile(self):
        # `freac submit --tile` and programmatic callers both feed the
        # same field; the CLI spelling wins when both are present.
        args = namespace(benchmark="DOT", tile=4, mccs_per_tile=2)
        assert RunRequest.from_args(args).mccs_per_tile == 4

    def test_run_style_slices_flag_is_not_job_slices(self):
        # `freac run --slices` partitions the device; only
        # --job-slices feeds the request's slice span.
        args = namespace(benchmark="DOT", slices=4)
        assert RunRequest.from_args(args).slices == 1

    def test_overrides_win(self):
        args = namespace(benchmark="DOT", seed=1)
        request = RunRequest.from_args(args, telemetry=True, seed=9)
        assert request.telemetry and request.seed == 9


class TestPlumbing:
    def test_submit_kwargs_round_trip(self):
        request = RunRequest("FC", items=4, priority=2, slices=2,
                             timeout_s=0.5)
        assert request.submit_kwargs() == {
            "priority": 2,
            "mccs_per_tile": 1,
            "lut_inputs": 5,
            "slices": 2,
            "timeout_s": 0.5,
            "seed": 0,
            "optimize": False,
            "opt_budget_s": None,
        }

    def test_replace_revalidates(self):
        request = RunRequest("DOT")
        changed = request.replace(benchmark="conv", items=3)
        assert changed.benchmark == "CONV" and changed.items == 3
        assert request.items == 8  # original untouched
        with pytest.raises(RequestError):
            request.replace(items=0)

    def test_service_accepts_submit_kwargs(self):
        from repro.freac.compute_slice import SlicePartition
        from repro.params import scaled_system
        from repro.service.service import AcceleratorService

        service = AcceleratorService(
            devices=1,
            system=scaled_system(l3_slices=2),
            partition=SlicePartition(compute_ways=4, scratchpad_ways=4),
        )
        try:
            request = RunRequest("VADD", items=3, seed=4)
            job = service.submit_request(request)
            result = service.result(job)
            assert result.verified
            assert job.request.seed == 4
        finally:
            service.close()
