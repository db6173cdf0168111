"""``freac optimize`` — fold-count minimization report and CI gate.

Per benchmark it compiles the heuristic schedule, runs
:func:`~repro.optimizer.core.optimize_schedule` under the time box,
and prints fold count before/after, the lower bound and its gap, and
time-to-best.  ``--all --json report.json --check --min-improved 5``
is the CI invocation: exit 1 if any benchmark got *worse* (must never
happen) or fewer than N improved.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

from .config import OPTIMIZER_VERSION, OptimizerConfig


def optimize_benchmark(
    name: str,
    *,
    mccs: int,
    lut_inputs: int,
    config: OptimizerConfig,
) -> Dict[str, object]:
    """One benchmark through heuristic compile + optimization pass."""
    from ..circuits.library import mapped_pe
    from ..folding.schedule import TileResources
    from ..folding.scheduler import list_schedule
    from .core import optimize_schedule

    compile_start = time.monotonic()
    netlist = mapped_pe(name, k=lut_inputs)
    resources = TileResources(mccs=mccs, lut_inputs=lut_inputs)
    heuristic = list_schedule(netlist, resources)
    compile_s = time.monotonic() - compile_start

    outcome = optimize_schedule(
        netlist, resources, config=config, heuristic=heuristic
    )
    row: Dict[str, object] = {
        "benchmark": name,
        "mccs": mccs,
        "lut_inputs": lut_inputs,
        "heuristic_compile_s": round(compile_s, 6),
    }
    row.update(outcome.stats_dict())
    return row


def _format_rows(rows: List[Dict[str, object]]) -> str:
    from ..experiments.common import format_table

    headers = ("benchmark", "heur", "opt", "delta", "bound", "gap",
               "LUTs", "best@s", "total s")
    table = []
    for row in rows:
        heur = row["heuristic_fold_cycles"]
        opt = row["optimized_fold_cycles"]
        gap = f"{row['bound_gap']}"
        if row["proven_optimal"]:
            gap += " (proven)"
        luts = f"{row['lut_count_before']}"
        if row["lut_count_after"] != row["lut_count_before"]:
            luts += f"->{row['lut_count_after']}"
        delta = opt - heur
        table.append((
            row["benchmark"], heur, opt,
            f"{delta:+d}" if delta else "0",
            row["lower_bound"], gap, luts,
            f"{row['time_to_best_s']:.2f}", f"{row['elapsed_s']:.2f}",
        ))
    return format_table(headers, table)


def cmd_optimize(args: argparse.Namespace) -> int:
    """Exit codes: 0 gates pass, 1 a gate fails, 2 bad invocation."""
    from ..workloads.suite import benchmark_names

    names = benchmark_names()
    if args.all:
        targets = list(names)
    else:
        if not args.benchmark:
            print("give a benchmark name or --all", file=sys.stderr)
            return 2
        target = args.benchmark.upper()
        if target not in names:
            print(f"unknown benchmark {target!r}; pick one of "
                  f"{', '.join(names)}", file=sys.stderr)
            return 2
        targets = [target]

    config = OptimizerConfig(budget_s=args.budget_s, seed=args.seed)

    rows: List[Dict[str, object]] = []
    for name in targets:
        row = optimize_benchmark(
            name, mccs=args.mccs, lut_inputs=args.lut_inputs,
            config=config,
        )
        rows.append(row)
        if args.all:
            marker = "improved" if row["improved"] else "no change"
            if row["rejected"]:
                marker = "REJECTED (heuristic served)"
            print(f"[{len(rows)}/{len(targets)}] {name}: "
                  f"{row['heuristic_fold_cycles']} -> "
                  f"{row['optimized_fold_cycles']} folds ({marker})",
                  file=sys.stderr)

    improved = sum(1 for row in rows if row["improved"])
    worse = [row["benchmark"] for row in rows
             if row["optimized_fold_cycles"] > row["heuristic_fold_cycles"]]
    summary = {
        "optimizer_version": OPTIMIZER_VERSION,
        "budget_s": args.budget_s,
        "mccs": args.mccs,
        "benchmarks": len(rows),
        "improved": improved,
        "proven_optimal": sum(1 for r in rows if r["proven_optimal"]),
        "rejected": sum(1 for r in rows if r["rejected"]),
        "never_worse": not worse,
    }

    if args.json:
        report = {"summary": summary, "results": rows}
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)

    print(_format_rows(rows))
    print(f"\n{improved}/{len(rows)} improved, "
          f"{summary['proven_optimal']} proven optimal, "
          f"{summary['rejected']} rejected "
          f"(budget {args.budget_s:g}s)")

    if args.check:
        if worse:
            print(f"GATE FAILED: fold count increased on "
                  f"{', '.join(worse)}", file=sys.stderr)
            return 1
        if improved < args.min_improved:
            print(f"GATE FAILED: only {improved} benchmark(s) improved "
                  f"(need >= {args.min_improved})", file=sys.stderr)
            return 1
        print("gate passed: never worse"
              + (f", >= {args.min_improved} improved"
                 if args.min_improved else ""),
              file=sys.stderr)
    return 0


def add_parsers(sub: "argparse._SubParsersAction") -> None:
    opt = sub.add_parser(
        "optimize",
        help="minimize fold counts and report before/after per benchmark",
    )
    opt.add_argument("benchmark", nargs="?", default=None,
                     help="benchmark name (or use --all)")
    opt.add_argument("--all", action="store_true",
                     help="optimize every benchmark in the suite")
    opt.add_argument("--mccs", type=int, default=1,
                     help="MCCs per accelerator tile (default 1)")
    opt.add_argument("--lut-inputs", type=int, default=5,
                     choices=(4, 5), help="LUT width (default 5)")
    opt.add_argument("--budget-s", type=float,
                     default=OptimizerConfig().budget_s,
                     help="optimization time box per benchmark, seconds")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--json", default=None, metavar="FILE",
                     help="also write the fold report as JSON")
    opt.add_argument("--check", action="store_true",
                     help="exit 1 if any fold count got worse or fewer "
                     "than --min-improved improved")
    opt.add_argument("--min-improved", type=int, default=0,
                     help="with --check: require at least N improved")
