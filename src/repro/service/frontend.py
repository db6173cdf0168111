"""``freac serve`` / ``freac submit``: file- or stdin-fed front ends.

``freac submit BENCH --items N`` is the one-shot path: spin up a
service, admit one job, wait for its result, print it.

``freac serve --requests FILE`` reads a request stream (one request
per line, ``-`` or no flag = stdin), submits everything up front so
priorities/batching/placement actually interact, drains the queue
(inline, or on ``--workers N`` threads), and prints per-job lines plus
a stats summary.

Request line grammar (``#`` starts a comment)::

    BENCH ITEMS [key=value ...]
    # keys: priority, tile, lut, slices, seed, timeout, optimize,
    #       opt_budget
    GEMM 8 priority=2 slices=2
    AES 4 timeout=30
    NW 16 lut=4
    SORT 8 optimize=1 opt_budget=4

Any other key fails the line with a ``RequestError`` that lists the
known keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError, RequestError
from ..freac.compute_slice import SlicePartition
from ..params import scaled_system
from ..request import RunRequest
from .jobs import Job, JobState
from .service import AcceleratorService

def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


_KEYS = {
    "priority": ("priority", int),
    "tile": ("mccs_per_tile", int),
    "lut": ("lut_inputs", int),
    "slices": ("slices", int),
    "seed": ("seed", int),
    "timeout": ("timeout_s", float),
    "optimize": ("optimize", _parse_bool),
    "opt_budget": ("opt_budget_s", float),
}


def parse_request(line: str) -> Optional[Tuple[str, int, Dict]]:
    """One request line -> (benchmark, items, submit kwargs) or None."""
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    fields = text.split()
    if len(fields) < 2:
        raise RequestError(
            f"bad request line {line.strip()!r}: want 'BENCH ITEMS [k=v ...]'"
        )
    benchmark = fields[0]
    try:
        items = int(fields[1])
    except ValueError:
        raise RequestError(
            f"bad item count {fields[1]!r} in {line.strip()!r}"
        ) from None
    kwargs: Dict = {}
    for token in fields[2:]:
        key, _, value = token.partition("=")
        if key not in _KEYS or not value:
            raise RequestError(
                f"bad option {token!r}; known keys: {', '.join(sorted(_KEYS))}"
            )
        name, cast = _KEYS[key]
        try:
            kwargs[name] = cast(value)
        except (ValueError, ReproError):
            raise RequestError(f"bad value in {token!r}") from None
    return benchmark, items, kwargs


def read_requests(stream: IO[str]) -> Iterable[Tuple[str, int, Dict]]:
    for line in stream:
        parsed = parse_request(line)
        if parsed is not None:
            yield parsed


def build_service(args: argparse.Namespace) -> AcceleratorService:
    return AcceleratorService(
        devices=args.devices,
        system=scaled_system(l3_slices=args.device_slices),
        partition=SlicePartition(
            compute_ways=args.compute_ways,
            scratchpad_ways=args.scratchpad_ways,
        ),
        cache_dir=args.cache_dir,
        batching=not getattr(args, "no_batching", False),
        max_retries=args.max_retries,
        workers=getattr(args, "workers", 0),
        max_queue_depth=getattr(args, "max_queue_depth", None),
        elastic=getattr(args, "elastic", False),
    )


def _print_job(job: Job) -> None:
    result = job.result
    assert result is not None
    line = (
        f"job {result.job_id:>3} {result.benchmark:<5} "
        f"x{result.items:<5} {result.state.value:<9}"
    )
    if result.state is JobState.DONE:
        line += (
            f" verified={'yes' if result.verified else 'NO'}"
            f" latency={result.latency_s * 1e3:.2f}ms"
            f" cache={'hit' if result.cache_hit else 'miss'}"
        )
        if job.request.optimize:
            line += " optimized"
        if result.placement:
            device, slices = result.placement
            line += f" device={device} slices={list(slices)}"
        if result.batch_size > 1:
            line += f" batched_with={result.batch_size - 1}"
        if result.retries:
            line += f" retries={result.retries}"
    elif result.state is JobState.REJECTED and result.admission is not None:
        line += f" ({len(result.admission.errors)} lint error(s))"
        for diagnostic in result.admission.errors:
            line += f"\n      {diagnostic.rule}: {diagnostic.message}"
    elif result.error:
        line += f" ({result.error})"
    print(line)


def cmd_submit(args: argparse.Namespace) -> int:
    """One-shot: submit a single request and wait for its result."""
    service = build_service(args)
    try:
        job = service.submit_request(RunRequest.from_args(args))
        service.result(job)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        service.close()
    _print_job(job)
    assert job.result is not None
    return 0 if (job.state is JobState.DONE and job.result.verified) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Batch mode: admit a whole request stream, then drain it."""
    if args.requests in (None, "-"):
        stream = sys.stdin
        close = False
    else:
        try:
            stream = open(args.requests)
        except OSError as exc:
            print(f"cannot read {args.requests}: {exc}", file=sys.stderr)
            return 2
        close = True

    service = build_service(args)
    jobs: List[Job] = []
    exit_code = 0
    try:
        for index, (benchmark, items, kwargs) in enumerate(
            read_requests(stream), start=1
        ):
            try:
                jobs.append(service.submit(benchmark, items, **kwargs))
            except RequestError as exc:
                print(f"request {index} refused: {exc}", file=sys.stderr)
                exit_code = 1
        service.drain()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if close:
            stream.close()
        service.close()

    for job in jobs:
        _print_job(job)
        if job.state is not JobState.DONE or not job.result.verified:
            exit_code = max(exit_code, 1)

    stats = service.stats()
    print(
        f"-- {stats.completed} done, {stats.rejected} rejected, "
        f"{stats.failed} failed, {stats.timed_out} timed out | "
        f"cache hit rate {stats.cache_hit_rate:.0%} | "
        f"p50 {_ms(stats.latency_p50_s)} p95 {_ms(stats.latency_p95_s)} "
        f"(n={stats.latency_samples})"
    )
    if stats.ways_resized:
        print(
            f"-- ways: {stats.ways_resized} transitions "
            f"({stats.resize_cost_s * 1e6:.2f}us), "
            f"{stats.warm_attaches} warm attaches, "
            f"{stats.items_per_joule:.3g} items/J"
        )
    if args.stats_json:
        with open(args.stats_json, "w") as handle:
            json.dump(stats.to_dict(), handle, indent=2)
        print(f"stats written to {args.stats_json}")
    return exit_code


def _ms(seconds: Optional[float]) -> str:
    return "n/a" if seconds is None else f"{seconds * 1e3:.2f}ms"


def add_parsers(sub: "argparse._SubParsersAction") -> None:
    """Register ``serve`` and ``submit`` on the ``freac`` CLI."""

    def common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--devices", type=int, default=1,
                            help="FReaC devices in the pool")
        parser.add_argument("--device-slices", type=int, default=2,
                            help="LLC slices per device")
        parser.add_argument("--compute-ways", type=int, default=4)
        parser.add_argument("--scratchpad-ways", type=int, default=4)
        parser.add_argument("--cache-dir", default=None,
                            help="persist compiled programs here")
        parser.add_argument("--max-retries", type=int, default=2,
                            help="capacity-retry budget per batch")
        parser.add_argument("--workers", type=int, default=0,
                            help="dispatch threads (0 = synchronous)")
        parser.add_argument("--max-queue-depth", type=int, default=None,
                            help="bound the job queue; a full queue "
                                 "rejects new jobs as SATURATED")
        parser.add_argument("--elastic", action="store_true",
                            help="elastic way partitioning: grow/shrink "
                                 "the compute/cache split per slice with "
                                 "load and keep warm slices locked "
                                 "between waves (docs/elastic.md)")

    submit = sub.add_parser(
        "submit", help="submit one job to a fresh serving instance"
    )
    submit.add_argument("benchmark")
    submit.add_argument("--items", type=int, default=8)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--tile", type=int, default=1,
                        help="MCCs per accelerator tile")
    submit.add_argument("--job-slices", type=int, default=1,
                        help="device slices this job runs across")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--lut-inputs", type=int, default=5,
                        help="LUT width the program is mapped to")
    submit.add_argument("--optimize", action="store_true",
                        help="serve the fold-count-minimized program "
                        "(compiled once, then cached)")
    submit.add_argument("--opt-budget-s", type=float, default=None,
                        dest="opt_budget_s",
                        help="optimizer time box override, seconds")
    common(submit)

    serve = sub.add_parser(
        "serve", help="serve a request stream from a file or stdin"
    )
    serve.add_argument("--requests", default="-",
                       help="request file, '-' for stdin (default)")
    serve.add_argument("--no-batching", action="store_true",
                       help="disable same-benchmark batch merging")
    serve.add_argument("--stats-json", default=None,
                       help="write the final ServiceStats snapshot here")
    common(serve)
