"""``freac trace`` / ``freac metrics``: telemetry-enabled CLI runs.

Both commands push one (or more) jobs of a benchmark through a fresh
:class:`~repro.service.service.AcceleratorService` wired to a live
:class:`~repro.telemetry.Telemetry` instance, then export what the
instrumented stack recorded:

* ``freac trace BENCH`` writes a Chrome ``trace_event`` JSON — load it
  at https://ui.perfetto.dev or ``chrome://tracing`` to see the job /
  wave / device-phase spans over wall time and the per-tile folding
  steps over simulated device cycles (docs/observability.md);
* ``freac metrics BENCH`` prints the metric registry as a
  human-readable summary, Prometheus text exposition, or JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Tuple

from ..errors import ReproError
from .core import Telemetry
from .export import to_chrome_trace, to_prometheus, to_summary

# The suite uses short canonical names (CONV, GEMM, ...); accept the
# long forms people type at a prompt.
_ALIASES = {"CONV2D": "CONV", "MATMUL": "GEMM"}

# Span/event names the instrumented stack must produce for any
# successful service run; an export missing one is a telemetry bug.
REQUIRED_SPANS = ("job", "service.wave", "device.program")
REQUIRED_EVENTS = ("fold_step",)


def canonical_benchmark(name: str) -> str:
    upper = name.upper()
    return _ALIASES.get(upper, upper)


def traced_run(args: argparse.Namespace) -> Tuple[Telemetry, bool]:
    """Run the requested jobs against a telemetry-enabled service.

    Returns the populated telemetry and whether every job completed
    verified.  Raises :class:`~repro.errors.ReproError` subclasses for
    unknown benchmarks and device failures, like ``freac submit``.
    """
    from ..freac.compute_slice import SlicePartition
    from ..params import scaled_system
    from ..request import RunRequest
    from ..service.service import AcceleratorService

    request = RunRequest.from_args(args, telemetry=True)
    telemetry = Telemetry(seed=request.seed, max_trace_events=args.max_events)
    service = AcceleratorService(
        devices=args.devices,
        system=scaled_system(l3_slices=args.device_slices),
        partition=SlicePartition(compute_ways=4, scratchpad_ways=4),
        telemetry=telemetry,
    )
    benchmark = canonical_benchmark(request.benchmark)
    ok = True
    try:
        jobs = [
            service.submit_request(
                request.replace(benchmark=benchmark,
                                seed=request.seed + index)
            )
            for index in range(args.jobs)
        ]
        for job in jobs:
            result = service.result(job)
            ok = ok and bool(result.verified)
    finally:
        service.close()
    return telemetry, ok


def validate_chrome_trace(document: object) -> List[str]:
    """Problems that would make a trace useless in Perfetto ([] = ok)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"top level is {type(document).__name__}, expected object"]
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents is empty or missing"]
    names = {
        event.get("name") for event in events
        if isinstance(event, dict) and event.get("ph") in ("X", "i")
    }
    for span in REQUIRED_SPANS:
        if span not in names:
            problems.append(f"no {span!r} span in traceEvents")
    for event in REQUIRED_EVENTS:
        if event not in names:
            problems.append(f"no {event!r} cycle event in traceEvents")
    return problems


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a benchmark and write a Perfetto-loadable Chrome trace."""
    try:
        telemetry, verified = traced_run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = args.out or f"trace-{canonical_benchmark(args.benchmark).lower()}.json"
    document = to_chrome_trace(telemetry)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=None, separators=(",", ":"))

    # Validate what actually landed on disk, not the in-memory dict.
    try:
        with open(out) as handle:
            problems = validate_chrome_trace(json.load(handle))
    except ValueError as exc:
        problems = [f"not parsable as JSON: {exc}"]
    tracer = telemetry.tracer
    print(f"trace written : {out}")
    print(f"wall spans    : {len(tracer.spans)}")
    print(f"cycle events  : {len(tracer.cycle_events)}"
          + (f" ({tracer.dropped} dropped)" if tracer.dropped else ""))
    print("load it at    : https://ui.perfetto.dev (or chrome://tracing)")
    for problem in problems:
        print(f"invalid trace : {problem}", file=sys.stderr)
    if not verified:
        print("warning: some jobs did not verify", file=sys.stderr)
    return 1 if (problems or not verified) else 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run a benchmark and print the metric registry."""
    try:
        telemetry, verified = traced_run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "prom":
        text = to_prometheus(telemetry)
    elif args.format == "json":
        text = json.dumps(telemetry.metrics.snapshot(), indent=2,
                          sort_keys=True)
    else:
        text = to_summary(telemetry)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"metrics written to {args.out}")
    else:
        print(text)
    return 0 if verified else 1


def add_parsers(sub: "argparse._SubParsersAction") -> None:
    """Register ``trace`` and ``metrics`` on the ``freac`` CLI."""

    def common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("benchmark")
        parser.add_argument("--items", type=int, default=4,
                            help="items per job")
        parser.add_argument("--jobs", type=int, default=1,
                            help="jobs to submit (same benchmark)")
        parser.add_argument("--tile", type=int, default=1,
                            help="MCCs per accelerator tile")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--devices", type=int, default=1,
                            help="FReaC devices in the pool")
        parser.add_argument("--device-slices", type=int, default=2,
                            help="LLC slices per device")
        parser.add_argument("--max-events", type=int, default=200_000,
                            help="tracer event budget before dropping")

    trace = sub.add_parser(
        "trace", help="run a benchmark and write a Chrome/Perfetto trace"
    )
    common(trace)
    trace.add_argument("--out", default=None,
                       help="trace path (default trace-<bench>.json)")

    metrics = sub.add_parser(
        "metrics", help="run a benchmark and print its telemetry metrics"
    )
    common(metrics)
    metrics.add_argument("--format", choices=("summary", "prom", "json"),
                         default="summary")
    metrics.add_argument("--out", default=None,
                         help="write instead of printing to stdout")
