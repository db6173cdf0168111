"""Command-line interface.

Regenerate the paper's tables and figures, or use the utility
commands::

    freac list                     # available targets
    freac tables | area | fig8..fig15
    freac all                      # everything, in paper order
    freac plan GEMM --cache-ways 2 # partition planning for a kernel
    freac schedule NW --mccs 4     # folding-schedule summary
    freac lint sched.json          # static analysis of an artifact
    freac selfcheck src/repro      # lock-discipline lint of the repo
    freac optimize SORT            # minimize fold count, report the gap
    freac submit GEMM --items 8    # one job through the serving layer
    freac serve --requests reqs.txt  # drain a request stream
    freac gateway --shards 2 --burst 100  # multi-process sharded serving
    freac trace CONV --items 4     # Chrome/Perfetto trace of a run
    freac metrics GEMM --format prom # telemetry metrics of a run
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from .experiments import (
    area,
    capacity_sweep,
    discussion,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    tables,
    validation,
)

_TARGETS: Dict[str, Callable[[], object]] = {
    "tables": tables.main,
    "area": area.main,
    "discussion": discussion.main,
    "validation": validation.main,
    "capacity": capacity_sweep.main,
    "fig8": fig08.main,
    "fig9": fig09.main,
    "fig10": fig10.main,
    "fig11": fig11.main,
    "fig12": fig12.main,
    "fig13": fig13.main,
    "fig14": fig14.main,
    "fig15": fig15.main,
}

_ORDER: List[str] = [
    "tables", "area", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "discussion", "capacity", "validation",
]


def _cmd_plan(args: argparse.Namespace) -> int:
    from .freac.planner import plan_partition
    from .workloads.suite import benchmark, benchmark_names

    name = args.benchmark.upper()
    if name not in benchmark_names():
        print(f"unknown benchmark {name!r}; pick one of "
              f"{', '.join(benchmark_names())}", file=sys.stderr)
        return 2
    plan = plan_partition(
        benchmark(name),
        slices=args.slices,
        min_cache_ways=args.cache_ways,
    )
    if plan is None:
        print("no feasible configuration under these constraints")
        return 1
    print(f"benchmark     : {name}")
    print(f"configuration : {plan.label}")
    print(f"cache kept    : {plan.partition.cache_ways} ways "
          f"({plan.partition.cache_ways * 64} KB/slice)")
    print(f"end-to-end    : {plan.end_to_end_s * 1e3:.3f} ms")
    print(f"kernel        : {plan.kernel_s * 1e3:.3f} ms")
    print(f"power         : {plan.power_w:.2f} W")
    print(f"speedup       : {plan.speedup_vs_single_thread:.2f}x "
          "vs one host thread")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from .experiments.common import schedule_for
    from .workloads.suite import benchmark_names

    name = args.benchmark.upper()
    if name not in benchmark_names():
        print(f"unknown benchmark {name!r}; pick one of "
              f"{', '.join(benchmark_names())}", file=sys.stderr)
        return 2
    schedule = schedule_for(name, args.mccs, args.algorithm)
    for key, value in schedule.summary().items():
        print(f"{key:>15}: {value}")
    return 0


def _emit_report(report, fmt: str, artifact_uri: str = "") -> None:
    from .analysis.emit import to_json, to_sarif, to_text

    if fmt == "json":
        print(to_json(report))
    elif fmt == "sarif":
        print(to_sarif(report, artifact_uri=artifact_uri))
    else:
        print(to_text(report))


def _gate_report(report, args: argparse.Namespace,
                 artifact_uri: str = "") -> int:
    """Baseline subtraction + ``--fail-on`` gating, shared by lint
    commands.  Exit codes: 0 passes the gate, 1 fails it, 2 bad
    baseline file."""
    from .analysis import Baseline, Severity
    from .errors import AnalysisError

    baseline_path = getattr(args, "baseline", None)
    if baseline_path:
        try:
            baseline = Baseline.load(baseline_path)
        except AnalysisError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        suppressed = baseline.suppressed(report)
        report = baseline.apply(report)
        if suppressed:
            print(f"(baseline suppressed {suppressed} finding(s))",
                  file=sys.stderr)

    write_path = getattr(args, "write_baseline", None)
    if write_path:
        Baseline.from_report(report).save(write_path)
        print(f"wrote baseline of {len(report.diagnostics)} finding(s) "
              f"to {write_path}", file=sys.stderr)
        return 0

    _emit_report(report, args.format, artifact_uri)
    threshold = (Severity.WARNING.rank if args.fail_on == "warning"
                 else Severity.ERROR.rank)
    failing = sum(
        1 for d in report.diagnostics if d.severity.rank <= threshold
    )
    return 1 if failing else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Statically analyze a netlist/schedule JSON artifact.

    Exit codes: 0 passes the ``--fail-on`` gate, 1 fails it,
    2 unreadable/unrecognised artifact or bad baseline.
    """
    import json as json_module
    from pathlib import Path

    from .analysis import analyze_dataflow, analyze_netlist, analyze_schedule
    from .errors import ReproError

    path = Path(args.artifact)
    try:
        data = json_module.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 2

    kind = args.kind
    if kind == "auto":
        if isinstance(data, dict) and "ops" in data:
            kind = "schedule"
        elif isinstance(data, dict) and "nodes" in data:
            kind = "netlist"
        else:
            print(f"{path}: neither a netlist nor a schedule artifact",
                  file=sys.stderr)
            return 2

    try:
        if kind in ("schedule", "dataflow"):
            from .folding.io import schedule_from_dict

            schedule = schedule_from_dict(data)
            if kind == "dataflow":
                report = analyze_dataflow(schedule, strict=args.strict)
            else:
                report = analyze_schedule(schedule, strict=args.strict)
                if args.dataflow:
                    from .analysis import Diagnostic

                    df = analyze_dataflow(schedule, strict=args.strict)
                    report.extend(df.diagnostics)
                    report.rules_run = list(
                        dict.fromkeys(report.rules_run + df.rules_run)
                    )
                    report.diagnostics.sort(key=Diagnostic.sort_key)
        else:
            from .circuits.io import netlist_from_dict

            report = analyze_netlist(
                netlist_from_dict(data), lut_inputs=args.lut_inputs
            )
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        # The artifact is too malformed to even deserialise (forcing
        # --kind on the wrong artifact lands here as a KeyError).
        print(f"{path}: cannot deserialise as a {kind}: {exc!r}",
              file=sys.stderr)
        return 2

    return _gate_report(report, args, artifact_uri=path.as_posix())


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    """Lock-discipline self-lint over Python sources (docs/analysis.md).

    Exit codes: 0 passes the ``--fail-on`` gate, 1 fails it, 2 a path
    does not exist or is not Python.
    """
    from pathlib import Path

    from .analysis import check_lock_discipline

    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(f"{path}: no such file or directory", file=sys.stderr)
            return 2
    root = Path(args.root) if args.root else Path.cwd()
    report = check_lock_discipline(paths, root=root)
    return _gate_report(report, args, artifact_uri="")


def _cmd_run(args: argparse.Namespace) -> int:
    from .freac.device import FreacDevice
    from .freac.runner import run_workload
    from .params import scaled_system
    from .request import RunRequest
    from .workloads.suite import benchmark_names

    request = RunRequest.from_args(args)
    if request.benchmark not in benchmark_names():
        print(f"unknown benchmark {request.benchmark!r}; pick one of "
              f"{', '.join(benchmark_names())}", file=sys.stderr)
        return 2
    device = FreacDevice(scaled_system(l3_slices=args.slices))
    report = run_workload(
        device, request.benchmark, request.items,
        mccs_per_tile=request.mccs_per_tile, seed=request.seed,
        optimize=request.optimize, opt_budget_s=request.opt_budget_s,
    )
    print(f"benchmark   : {report.benchmark}")
    print(f"items       : {report.items} across {report.slices_used} slices")
    print(f"tiles/slice : {report.tiles_per_slice} "
          f"({request.mccs_per_tile} MCCs each)")
    print(f"LUT evals   : {report.lut_evaluations}")
    print(f"MAC ops     : {report.mac_operations}")
    print(f"bus words   : {report.bus_words}")
    print(f"verified    : {'yes' if report.verified else 'NO'} "
          f"({report.mismatches} mismatches)")
    return 0 if report.verified else 1


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="freac",
        description="FReaC Cache (MICRO 2020) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for target in sorted(_TARGETS) + ["all", "list"]:
        sub.add_parser(target, help=f"regenerate {target}"
                       if target in _TARGETS else target)

    plan = sub.add_parser("plan", help="plan a compute:memory partition")
    plan.add_argument("benchmark")
    plan.add_argument("--slices", type=int, default=8)
    plan.add_argument("--cache-ways", type=int, default=0,
                      help="ways per slice to keep as cache")

    sched = sub.add_parser("schedule", help="print a folding schedule summary")
    sched.add_argument("benchmark")
    sched.add_argument("--mccs", type=int, default=1)
    sched.add_argument("--algorithm", choices=("list", "level"),
                       default="list")

    export = sub.add_parser("export", help="write experiment data as CSVs")
    export.add_argument("--out", default="results")
    export.add_argument("--targets", nargs="*", default=None,
                        help="subset of targets (default: everything)")

    lint = sub.add_parser(
        "lint", help="statically analyze a netlist or schedule artifact"
    )
    lint.add_argument("artifact", help="path to a netlist/schedule JSON file")
    lint.add_argument("--kind",
                      choices=("auto", "netlist", "schedule", "dataflow"),
                      default="auto",
                      help="artifact kind (default: detect from contents; "
                      "'dataflow' runs the DF pack alone on a schedule)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text")
    lint.add_argument("--strict", action="store_true",
                      help="escalate register-pressure warnings to errors")
    lint.add_argument("--lut-inputs", type=int, default=None,
                      help="target LUT width for netlist arity checks")
    lint.add_argument("--dataflow", action="store_true",
                      help="also run the dataflow (DF) pack on a schedule")
    lint.add_argument("--fail-on", choices=("error", "warning"),
                      default="error",
                      help="lowest severity that fails the exit code "
                      "(default: error)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="subtract the accepted findings in FILE")
    lint.add_argument("--write-baseline", default=None, metavar="FILE",
                      help="record current findings as the baseline "
                      "and exit 0")

    selfcheck = sub.add_parser(
        "selfcheck",
        help="lock-discipline lint over the repo's own Python sources",
    )
    selfcheck.add_argument(
        "paths", nargs="+", help="Python files or directories to check"
    )
    selfcheck.add_argument("--root", default=None,
                           help="make artifact names relative to this "
                           "directory (default: cwd)")
    selfcheck.add_argument("--format", choices=("text", "json", "sarif"),
                           default="text")
    selfcheck.add_argument("--fail-on", choices=("error", "warning"),
                           default="error")
    selfcheck.add_argument("--baseline", default=None, metavar="FILE")
    selfcheck.add_argument("--write-baseline", default=None, metavar="FILE")

    from .gateway import frontend as gateway_frontend
    from .optimizer import frontend as optimizer_frontend
    from .service import frontend as service_frontend
    from .telemetry import frontend as telemetry_frontend

    optimizer_frontend.add_parsers(sub)
    service_frontend.add_parsers(sub)
    gateway_frontend.add_parsers(sub)
    telemetry_frontend.add_parsers(sub)

    runp = sub.add_parser(
        "run", help="functionally run a benchmark batch in the LLC model"
    )
    runp.add_argument("benchmark")
    runp.add_argument("--items", type=int, default=8)
    runp.add_argument("--slices", type=int, default=2)
    runp.add_argument("--tile", type=int, default=1,
                      help="MCCs per accelerator tile")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--optimize", action="store_true",
                      help="run the fold-count-minimized program")
    runp.add_argument("--opt-budget-s", type=float, default=None,
                      dest="opt_budget_s",
                      help="optimizer time box override, seconds")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in _ORDER:
            print(name)
        for utility in ("run", "plan", "schedule", "optimize", "export",
                        "lint", "selfcheck", "submit", "serve", "gateway",
                        "trace", "metrics"):
            print(utility)
        return 0
    if args.command == "all":
        for name in _ORDER:
            _TARGETS[name]()
            print()
        return 0
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "selfcheck":
        return _cmd_selfcheck(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "optimize":
        return optimizer_frontend.cmd_optimize(args)
    if args.command == "submit":
        return service_frontend.cmd_submit(args)
    if args.command == "serve":
        return service_frontend.cmd_serve(args)
    if args.command == "gateway":
        return gateway_frontend.cmd_gateway(args)
    if args.command == "trace":
        return telemetry_frontend.cmd_trace(args)
    if args.command == "metrics":
        return telemetry_frontend.cmd_metrics(args)
    if args.command == "export":
        from .experiments.export import export as export_csv

        written = export_csv(args.out, args.targets)
        for path in written:
            print(path)
        return 0
    _TARGETS[args.command]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
