"""Executor benchmarks: the compiled plan against the reference loop.

For each benchmark and batch size, runs the same batch through the
production path (``FoldedExecutor.run_batch``, the program's compiled
execution plan) and through the scalar reference loop
(``run_batch_reference``) on fresh, identical tiles, and reports
items/s (docs/execution.md).  The plan removes the per-item walk, so
it wins already at batch 1 and its lead grows with the batch.

Writes ``BENCH_executor.json``: a list of ``{benchmark, batch,
reference_s, specialized_s, items_per_s_reference,
items_per_s_specialized, speedup}`` rows (speedup = reference /
plan), followed by schedule-sweep rows (heuristic vs optimized
schedule on the plan).

Run directly::

    PYTHONPATH=src python benchmarks/bench_executor.py
    PYTHONPATH=src python benchmarks/bench_executor.py --quick --check

``--check`` exits non-zero (the CI smoke gate) if the plan is slower
than the reference loop at any batch size.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.circuits.library import build_pe, mapped_pe, pe_names
from repro.folding import TileResources, list_schedule
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile

OUT = Path(__file__).resolve().parent.parent / "BENCH_executor.json"

#: Every PE but AES, whose reference loop alone takes seconds per item.
BENCHMARKS = tuple(name for name in pe_names() if name != "AES")
BATCHES = (1, 2, 4, 8, 16, 32, 64)
PATHS = ("reference", "specialized")

# Benchmarks whose fold count the optimal-mapping tier reduces within
# a small budget (docs/optimizer.md); the schedule sweep times the
# heuristic cycle grid against the optimized one on the plan.
OPT_BENCHMARKS = ("VADD", "SRT")
OPT_BATCHES = (16, 64)

#: Each timed path runs until it has this much timed work (and at
#: least ``reps`` runs): a batch-1 run lasts about 0.1 ms, too short
#: for a best-of-2 to outlast a host hiccup.
MIN_TIMED_S = 0.05


def random_streams(name: str, batch: int,
                   rng: random.Random) -> Dict[str, List[List[int]]]:
    pe = build_pe(name)
    return {
        stream: [
            [rng.getrandbits(31) for _ in range(words)]
            for _ in range(batch)
        ]
        for stream, words in pe.loads.items()
    }


def batch_run(schedule, streams, batch: int,
              path: str) -> Callable[[], object]:
    """One batch through ``path`` on a fresh tile of its own."""
    executor = FoldedExecutor(schedule, make_tile(schedule.resources.mccs))
    executor.load_configuration()
    run = (executor.run_batch_reference if path == "reference"
           else executor.run_batch)
    return partial(run, batch, streams=streams)


def time_paths(runs: Dict[str, Callable[[], object]],
               reps: int) -> Dict[str, float]:
    """Best wall seconds of each run, the runs taken rep by rep in
    alternation, so host drift hits them alike.

    Each run is repeated until it has :data:`MIN_TIMED_S` of timed work
    and at least ``reps`` repetitions; a run that has both drops out
    while the others go on.
    """
    for run in runs.values():
        run()  # warm-up
    best = dict.fromkeys(runs, float("inf"))
    timed = dict.fromkeys(runs, 0.0)
    done = dict.fromkeys(runs, 0)
    pending = list(runs)
    while pending:
        for label in pending:
            start = time.perf_counter()
            runs[label]()
            elapsed = time.perf_counter() - start
            best[label] = min(best[label], elapsed)
            timed[label] += elapsed
            done[label] += 1
        pending = [label for label in pending
                   if done[label] < reps or timed[label] < MIN_TIMED_S]
    return best


def sweep(benchmarks: Sequence[str], batches: Sequence[int],
          reps: int) -> List[Dict[str, object]]:
    rng = random.Random(0)
    rows: List[Dict[str, object]] = []
    for name in benchmarks:
        schedule = list_schedule(mapped_pe(name), TileResources(mccs=2))
        for batch in batches:
            streams = random_streams(name, batch, rng)
            seconds = time_paths({
                path: batch_run(schedule, streams, batch, path)
                for path in PATHS
            }, reps)
            speedup = seconds["reference"] / seconds["specialized"]
            rows.append({
                "benchmark": name,
                "batch": batch,
                "reference_s": seconds["reference"],
                "specialized_s": seconds["specialized"],
                "items_per_s_reference": batch / seconds["reference"],
                "items_per_s_specialized": batch / seconds["specialized"],
                "speedup": speedup,
            })
            print(f"{name:5s} batch={batch:3d} "
                  f"ref={seconds['reference'] * 1e3:8.2f}ms "
                  f"plan={seconds['specialized'] * 1e3:8.2f}ms "
                  f"speedup={speedup:6.2f}x")
    return rows


def sweep_optimized(benchmarks: Sequence[str], batches: Sequence[int],
                    reps: int) -> List[Dict[str, object]]:
    """Heuristic vs. optimized schedule on the plan, same items.

    One optimization pass per benchmark (its cost is paid at compile
    time, once per program-cache entry); each row carries the fold
    count so the items/s delta can be read against the cycle-grid
    shrink it came from.
    """
    from repro.optimizer import OptimizerConfig, optimize_schedule

    rng = random.Random(1)
    rows: List[Dict[str, object]] = []
    config = OptimizerConfig(budget_s=4.0)
    for name in benchmarks:
        netlist = mapped_pe(name)
        # One MCC: the single-tile coordinate the serving layer compiles
        # by default, and where the search has the most slack to close.
        resources = TileResources(mccs=1)
        heuristic = list_schedule(netlist, resources)
        outcome = optimize_schedule(
            netlist, resources, config=config, heuristic=heuristic
        )
        schedules = {"heuristic": heuristic, "optimized": outcome.schedule}
        for batch in batches:
            streams = random_streams(name, batch, rng)
            seconds = time_paths({
                label: batch_run(schedule, streams, batch, "specialized")
                for label, schedule in schedules.items()
            }, reps)
            gain = seconds["heuristic"] / seconds["optimized"]
            for label, schedule in schedules.items():
                rows.append({
                    "benchmark": name,
                    "batch": batch,
                    "schedule": label,
                    "fold_cycles": schedule.fold_cycles,
                    "specialized_s": seconds[label],
                    "items_per_s": batch / seconds[label],
                    "speedup_vs_heuristic": (
                        gain if label == "optimized" else 1.0
                    ),
                })
            print(f"{name:5s} batch={batch:3d} "
                  f"heur={seconds['heuristic'] * 1e3:8.2f}ms "
                  f"({heuristic.fold_cycles} folds) "
                  f"opt={seconds['optimized'] * 1e3:8.2f}ms "
                  f"({outcome.schedule.fold_cycles} folds) "
                  f"gain={gain:5.2f}x")
    return rows


def check(rows: Sequence[Dict[str, object]]) -> List[str]:
    """CI gate ([] = ok): the plan must not lose to the reference loop
    at any batch size."""
    problems = []
    for row in rows:
        if "speedup" not in row:
            continue   # schedule-sweep rows gate in the optimizer CI job
        if row["speedup"] < 1.0:
            problems.append(
                f"{row['benchmark']} batch={row['batch']}: the plan is "
                f"{1.0 / row['speedup']:.2f}x SLOWER than reference"
            )
    return problems


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced-scale sweep for CI smoke runs")
    parser.add_argument("--check", action="store_true",
                        help="fail if the plan loses to the reference "
                             "loop at any batch size")
    parser.add_argument("--out", default=str(OUT),
                        help="result path (default BENCH_executor.json)")
    args = parser.parse_args(list(argv) or None)

    if args.quick:
        rows = sweep(("DOT", "GEMM"), (1, 8, 16), reps=2)
        rows += sweep_optimized(("VADD",), (16,), reps=2)
    else:
        rows = sweep(BENCHMARKS, BATCHES, reps=5)
        rows += sweep_optimized(OPT_BENCHMARKS, OPT_BATCHES, reps=5)
    Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        problems = check(rows)
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
