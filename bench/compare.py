"""``bench compare``: medians, quartiles and a verdict per metric.

Reads ``bench run --out`` files: set A (the parent, or the only set)
and optionally set B (the change).  For every (workload, metric) it
prints each side's median and quartiles and, for end-to-end metrics,
applies the bound from ``BENCHMARK.json``:

* ``inexact``: a metric the run declares exact differs between runs of
  one side (host work moved a modeled number);
* ``unresolved``: the run-to-run spread of either side is wider than
  the bound, and B does not read better on every run;
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B wins at least 9 of every 10 pairs (runs paired in the
  order given, ties count for neither) and the medians differ by more
  than A's interquartile distance — or, when the spread is wider than
  the bound, every B run reads better than every A run;
* ``ok`` otherwise.

Per-layer metrics have no bound and are summarised only.  The exit
status is 1 when any verdict is ``worse`` or ``inexact``, or when B
fails more operations than A.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .stats import iqr_frac, quartiles

#: Share of pairs B must win before a gain is claimed.
WIN_SHARE = 0.9


def load_runs(paths: Sequence[str]) -> List[Dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def _values(runs: Sequence[Dict], workload: str, metric: str) -> List[float]:
    values = []
    for run in runs:
        value = run["workloads"].get(workload, {}).get("metrics", {}).get(
            metric
        )
        if value is not None:
            values.append(value)
    return values


def _summary(values: Sequence[float]) -> Optional[Dict[str, float]]:
    if not values:
        return None
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr_frac": iqr_frac(values)}


def verdict(before: Sequence[float], after: Sequence[float], *,
            better: str, bound: float, exact: bool = False) -> str:
    """The label for one (workload, metric) pair; see the module doc."""
    if exact and (len(set(before)) > 1 or len(set(after)) > 1):
        return "inexact"
    if not before or not after:
        return "-"
    sign = 1.0 if better == "higher" else -1.0
    q1, base, q3 = quartiles(before)
    median = quartiles(after)[1]
    if base == 0:
        worse_by = 0.0 if median == base else math.inf
    else:
        worse_by = sign * (base - median) / abs(base)
    if max(iqr_frac(before), iqr_frac(after)) > bound:
        every = min(sign * value for value in after) > max(
            sign * value for value in before
        )
        return "better" if every else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(before, after))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if wins >= WIN_SHARE * len(pairs) and sign * (median - base) > q3 - q1:
        return "better"
    return "ok"


def _fmt(summary: Optional[Dict[str, float]]) -> str:
    if summary is None:
        return f"{'-':>30}"
    return (f"{summary['median']:>12.6g} [{summary['q1']:.4g}.."
            f"{summary['q3']:.4g}]").rjust(30)


def compare(spec: Dict, before: List[Dict], after: List[Dict], *,
            json_out: Optional[str] = None) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    status = 0
    print(f"{'workload':<20} {'metric':<26} {'A median [q1..q3]':>30} "
          f"{'B median [q1..q3]':>30} {'change':>8} {'bound':>6}  verdict")
    for workload in workloads:
        runs = [r for r in before + after if workload in r["workloads"]]
        if not runs:
            continue
        exact = {
            metric for run in runs
            for metric in run["workloads"][workload].get("exact", [])
        }
        for name, metric in {**bounds, **layers}.items():
            a = _values(before, workload, name)
            b = _values(after, workload, name)
            if not a and not b:
                continue
            if name in bounds:
                label = verdict(a, b, better=metric["better"],
                                bound=metric["bound"], exact=name in exact)
                bound = f"{metric['bound']:.1%}"
            else:
                label, bound = "info", ""
            sa, sb = _summary(a), _summary(b)
            change = (
                f"{(sb['median'] - sa['median']) / abs(sa['median']):+.1%}"
                if sa and sb and sa["median"] else ""
            )
            if label in ("worse", "inexact"):
                status = 1
            print(f"{workload:<20} {name:<26} {_fmt(sa)} {_fmt(sb)} "
                  f"{change:>8} {bound:>6}  {label}")
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "a": sa, "b": sb,
                         "verdict": label})
        failed_a = sum(r["workloads"][workload]["failed"]
                       for r in before if workload in r["workloads"])
        failed_b = sum(r["workloads"][workload]["failed"]
                       for r in after if workload in r["workloads"])
        if after and failed_b > failed_a:
            status = 1
            print(f"{workload:<20} failed ops: A {failed_a}, B {failed_b}  "
                  "worse")
    if json_out:
        Path(json_out).write_text(json.dumps({
            "a_runs": [{"stamp": r["stamp"], "seed": r["seed"],
                        "seconds": r["seconds"], "trace": r["trace"]}
                       for r in before],
            "b_runs": [{"stamp": r["stamp"], "seed": r["seed"],
                        "seconds": r["seconds"], "trace": r["trace"]}
                       for r in after],
            "rows": rows,
        }, indent=1))
    return status
