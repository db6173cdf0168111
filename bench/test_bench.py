"""Tests for the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

from bench import clock, hooks
from bench.__main__ import ROOT, load_spec
from bench.compare import compare, verdict
from bench.stats import iqr_frac, percentile, quartiles


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------

def test_percentile_interpolates_between_closest_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile(list(range(1, 101)), 99) == pytest.approx(99.01)
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("samples, q", [([], 50), ([1.0], -1), ([1.0], 101)])
def test_percentile_rejects_bad_input(samples, q):
    with pytest.raises(ValueError):
        percentile(samples, q)


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert list(quartiles(values)) == statistics.quantiles(values, n=4)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_iqr_frac_is_quartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 11.0, 12.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert iqr_frac(values) == pytest.approx((q3 - q1) / median)
    assert iqr_frac([5.0, 5.0, 5.0]) == 0.0
    assert iqr_frac([0.0, 0.0]) == 0.0
    assert iqr_frac([-1.0, 0.0, 1.0]) == float("inf")


# ----------------------------------------------------------------------
# The comparator
# ----------------------------------------------------------------------

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_verdict_ok_within_bound():
    after = [v * 1.03 for v in STEADY]
    assert verdict(STEADY, after, better="lower", bound=0.1) == "ok"


def test_verdict_worse_beyond_bound_in_either_direction():
    slower = [v * 1.2 for v in STEADY]
    assert verdict(STEADY, slower, better="lower", bound=0.1) == "worse"
    assert verdict(slower, STEADY, better="higher", bound=0.1) == "worse"


def test_verdict_better_needs_nine_of_ten_pair_wins():
    faster = [v * 0.8 for v in STEADY]
    assert verdict(STEADY, faster, better="lower", bound=0.1) == "better"
    # Same medians' gap, but only 8 of 10 pairs won: not a claimable gain.
    mixed = faster[:8] + [v * 1.05 for v in STEADY[8:]]
    assert verdict(STEADY, mixed, better="lower", bound=0.1) == "ok"


def test_verdict_gain_must_exceed_parent_spread():
    # Every pair won, but by less than the parent's quartile distance.
    nudged = [v * 0.999 for v in STEADY]
    assert verdict(STEADY, nudged, better="lower", bound=0.1) == "ok"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, noisy, better="lower", bound=0.1) == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    assert verdict(noisy, [v / 4 for v in noisy], better="lower",
                   bound=0.1) == "better"


def test_verdict_exact_metrics_must_repeat():
    assert verdict([1.0, 1.0], [1.0, 1.0], better="lower", bound=0.0,
                   exact=True) == "ok"
    assert verdict([1.0, 1.0 + 1e-12], [1.0, 1.0], better="lower",
                   bound=0.001, exact=True) == "inexact"


def _run(workload: str, metrics: dict, failed: int = 0) -> dict:
    return {"stamp": {}, "seed": 0, "seconds": 1, "trace": 0,
            "workloads": {workload: {"metrics": metrics, "failed": failed,
                                     "exact": ["cycles"]}}}


SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "cycles", "unit": "count", "better": "lower", "bound": 0.001},
    ],
    "per_layer": [{"name": "layer_ms", "unit": "ms", "better": "lower"}],
}


def test_compare_reports_each_pair_and_fails_on_regression(tmp_path, capsys):
    before = [_run("w", {"lat_ms": v, "cycles": 7.0}) for v in STEADY]
    same = [_run("w", {"lat_ms": v, "cycles": 7.0}) for v in STEADY]
    out = tmp_path / "summary.json"
    assert compare(SPEC, before, same, json_out=str(out)) == 0
    rows = {(r["workload"], r["metric"]): r
            for r in json.loads(out.read_text())["rows"]}
    assert rows[("w", "lat_ms")]["verdict"] == "ok"
    assert rows[("w", "cycles")]["verdict"] == "ok"
    assert rows[("w", "lat_ms")]["a"]["median"] == statistics.median(STEADY)

    slower = [_run("w", {"lat_ms": v * 1.5, "cycles": 7.0}) for v in STEADY]
    assert compare(SPEC, before, slower) == 1
    more_failures = [_run("w", {"lat_ms": v, "cycles": 7.0}, failed=1)
                     for v in STEADY]
    assert compare(SPEC, before, more_failures) == 1
    assert "failed ops" in capsys.readouterr().out


def test_compare_summarises_a_single_set(capsys):
    runs = [_run("w", {"lat_ms": 1.0, "cycles": 7.0, "layer_ms": 0.5})]
    assert compare(SPEC, runs, []) == 0
    assert "info" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The host clock
# ----------------------------------------------------------------------

class FakeTime:
    """Scripted ``perf_counter`` and ``thread_time`` for the clock."""

    def __init__(self) -> None:
        self.now = 100.0
        self.cpu = 5.0

    def perf_counter(self) -> float:
        return self.now

    def thread_time(self) -> float:
        return self.cpu


def test_host_clock_reads_intervals_at_the_reference_speed(monkeypatch):
    fake = FakeTime()
    slowdown = [2.0]

    def probe():
        took = slowdown[0] * clock.PROBE_REF_S
        fake.now += took
        fake.cpu += took

    monkeypatch.setattr(clock, "time", fake)
    monkeypatch.setattr(clock, "probe", probe)
    host = clock.HostClock()
    first = host.tick()
    gap_start = fake.now
    fake.now += 1.0                    # a raw second at half speed
    second = host.tick()
    half = 0.5 ** clock.SENSITIVITY
    assert (second - first).net == pytest.approx(1.0)
    assert (second - first).ref == pytest.approx(half)
    assert host.at(gap_start + 0.5) == pytest.approx(0.5 * half)
    assert host.at(fake.now) == pytest.approx(second.ref)   # inside a probe

    slowdown[0] = 1.0                  # the host recovers mid-interval
    fake.now += 1.0
    third = host.tick()
    assert (third - second).ref == pytest.approx(
        (1.0 / 1.5) ** clock.SENSITIVITY
    )
    assert host.probe_median_s() == pytest.approx(2 * clock.PROBE_REF_S)
    with pytest.raises(ValueError):
        host.at(fake.now + 1.0)


def test_host_clock_leaves_out_time_the_probe_spent_descheduled(monkeypatch):
    fake = FakeTime()

    def probe():                       # full speed, but waited 1 ms
        fake.now += clock.PROBE_REF_S + 1e-3
        fake.cpu += clock.PROBE_REF_S

    monkeypatch.setattr(clock, "time", fake)
    monkeypatch.setattr(clock, "probe", probe)
    host = clock.HostClock()
    first = host.tick()
    fake.now += 0.2
    assert (host.tick() - first).ref == pytest.approx(0.2)


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------

def inner(x):
    return x + 1


def outer(x):
    return inner(x) * 2


def test_tracer_records_self_time_and_restores_targets():
    tracer = hooks.Tracer((
        ("outer_ms", __name__, "outer"),
        ("inner_ms", __name__, "inner"),
    ))
    original = outer
    with tracer.installed():
        assert outer(1) == 4
        assert outer is not original
    assert outer is original
    assert tracer.calls == {"outer_ms": 1, "inner_ms": 1}
    assert tracer.layer_ms("outer_ms", 1) >= 0.0
    assert tracer.layer_ms("inner_ms", 1) >= 0.0


def test_tracer_reports_a_vanished_hook_as_none(capsys):
    tracer = hooks.Tracer((
        ("gone_ms", __name__, "no_such_function"),
        ("inner_ms", __name__, "inner"),
    ))
    assert "gone_ms not measured" in capsys.readouterr().err
    with tracer.installed():
        inner(1)
    assert tracer.layer_ms("gone_ms", 1) is None
    assert tracer.layer_ms("inner_ms", 1) is not None


def test_every_hooked_layer_is_a_per_layer_metric():
    names = {metric["name"] for metric in load_spec()["per_layer"]}
    assert set(hooks.LAYERS) <= names


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------

def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


def test_smoke_every_workload(tmp_path):
    """All five workloads at about 2% of a full run's timed work."""
    out = tmp_path / "run.json"
    proc = _bench("run", "--seed", "3", "--seconds", "0.2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    spec = load_spec()
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
    for workload in report["workloads"].values():
        assert set(workload["metrics"]) == {
            m["name"] for m in spec["end_to_end"]
        }
        assert all(value > 0 for value in workload["metrics"].values())


def test_trace_reports_every_layer():
    proc = _bench("run", "--workload", "interactive", "--seed", "4",
                  "--seconds", "0.3", "--trace")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in load_spec()["per_layer"]}
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["freac.kernel_ms"]["value"] > 0
    assert metrics["service.cache_hit_rate"]["value"] == 1.0
    layers = sum(metrics[name]["value"]
                 for name in hooks.LAYERS + ("service.other_ms",))
    assert layers == pytest.approx(metrics["wall_ms"]["value"])


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark exits non-zero, silently."""
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _bench("run", "--workload", "interactive", "--seed", "1",
                  "--seconds", "1", cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
