"""``python -m bench``: run the benchmark, or compare two sets of runs.

::

    python -m bench run --seed S [--workload W] [--seconds T]
                        [--trace [0|1]] [--out F]
    python -m bench compare A.json ... [-- B.json ...] [--json OUT]

``run`` runs each workload in its own fresh interpreter, one after the
other, and prints every metric as ``workload metric value unit``, then
one JSON summary as its last line.  ``--trace`` swaps the end-to-end
metrics for the per-layer breakdown.  Metric names and units come from
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
#: One workload process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0


def load_spec() -> Dict:
    return json.loads(SPEC.read_text())


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_stamp() -> Dict[str, object]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg": " ".join(f"{load:.2f}" for load in os.getloadavg()),
    }


def _run_workload(workload: str, args: argparse.Namespace) -> Dict:
    """Run one workload in a fresh interpreter; its report, or exit."""
    command = [
        sys.executable, "-m", "bench", "_workload", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: {workload} did not finish in {CHILD_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench: {workload} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(names)}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    stamp = environment_stamp()
    for key, value in stamp.items():
        print(f"# {key} {value}")
    reports: Dict[str, Dict] = {}
    for workload in [args.workload] if args.workload else names:
        report = _run_workload(workload, args)
        if set(report["metrics"]) != set(units):
            sys.exit(f"bench: {workload} reported "
                     f"{sorted(set(report['metrics']) ^ set(units))} "
                     "against BENCHMARK.json")
        for problem in report["problems"]:
            print(f"bench: {workload} INVALID: {problem}", file=sys.stderr)
        print(f"# {workload} samples {report['samples']} attempted "
              f"{report['attempted']} failed {report['failed']}")
        print(f"# {workload} latency_p99_ms {report['latency_p99_ms']} "
              f"over {report['samples']} samples, not gated")
        print(f"# {workload} probe_median_us "
              f"{report['host']['probe_median_us']:.1f} slowdown "
              f"{report['host']['slowdown']:.3f}")
        for metric in units:
            print(f"{workload} {metric} {report['metrics'][metric]} "
                  f"{units[metric]}")
        reports[workload] = report
    if args.out:
        Path(args.out).write_text(json.dumps({
            "stamp": stamp, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workloads": reports,
        }, indent=1))
    single = len(reports) == 1
    print(json.dumps({
        "correct": all(not r["problems"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {
            (metric if single else f"{workload}/{metric}"):
                {"value": value, "unit": units[metric]}
            for workload, report in reports.items()
            for metric, value in report["metrics"].items()
        },
    }))
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    """The fresh interpreter ``run`` starts for one workload."""
    sys.path.insert(0, str(ROOT / "src"))
    from .workloads import measure

    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))))
    return 0


def cmd_compare(argv: List[str]) -> int:
    """``compare A.json ... [-- B.json ...] [--json OUT]``.

    Parsed by hand: argparse swallows the ``--`` that splits the sets.
    """
    from .compare import compare, load_runs

    json_out = None
    if "--json" in argv:
        index = argv.index("--json")
        if index + 1 >= len(argv):
            sys.exit("bench: --json needs a file name")
        json_out = argv[index + 1]
        argv = argv[:index] + argv[index + 2:]
    before, after = argv, []
    if "--" in argv:
        split = argv.index("--")
        before, after = argv[:split], argv[split + 1:]
    if not before:
        sys.exit("usage: python -m bench compare A.json ... "
                 "[-- B.json ...] [--json OUT]")
    return compare(load_spec(), load_runs(before), load_runs(after),
                   json_out=json_out)


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        epilog="compare: python -m bench compare A.json ... "
               "[-- B.json ...] [--json OUT]",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", cmd_run), ("_workload", cmd_workload)):
        run = sub.add_parser(name)
        run.set_defaults(handler=handler)
        run.add_argument("--seed", type=int, required=True)
        run.add_argument("--workload", default=None,
                         required=name == "_workload")
        run.add_argument("--seconds", type=float, default=None,
                         required=name == "_workload",
                         help="timed work per workload "
                              "(default: run_seconds in BENCHMARK.json)")
        run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                         choices=(0, 1),
                         help="report the per-layer breakdown instead")
        run.add_argument("--out", default=None,
                         help="write the full report as JSON here")
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
