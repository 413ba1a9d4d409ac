"""Compare two sets of benchmark results (standard library only).

    python3 benchmarks/e2e/compare.py --a A.json [A2.json ...] --b B.json [...]

Each file is what ``run.py --out`` wrote: one workload's record, or the
gathered file of a whole run.  Side ``a`` is the parent (or the first set of
a self-agreement check), side ``b`` the change.  For every workload and
end-to-end metric the single-run values of each side are pooled and the
medians compared against the metric's own bound and direction:

``ok``          b's median is not worse than a's by more than the bound
``regressed``   it is, and the measurement can resolve that
``unresolved``  it is, but the noise sentinel says the two sides ran on a
                machine whose speed differed by more than 10 %, or a side's
                own quartile spread is wider than the bound

The counters that must repeat exactly for one seed (token digests, call
counts, step-domain counters) are diffed as well.  Exit status 1 when
anything regressed or an exact counter differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import catalog

CALIBRATION_TOLERANCE = 0.10


def load(paths: "list[Path]") -> "dict[str, list[dict]]":
    """``workload -> records`` pooled over ``paths``."""
    pooled: "dict[str, list[dict]]" = {}
    for path in paths:
        data = json.loads(path.read_text())
        records = data["workloads"].values() if "workloads" in data else [data]
        for record in records:
            pooled.setdefault(record["workload"], []).append(record)
    return pooled


def _quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _calibration(records: "list[dict]") -> float:
    """Median noise-sentinel reading (--quick runs record none: nan)."""
    readings = [record["env"][key] for record in records
                for key in ("calibration_before", "calibration_after")
                if record["env"][key] is not None]
    return statistics.median(readings) if readings else float("nan")


def compare_metric(a_runs: "list[float]", b_runs: "list[float]", better: str,
                   bound: float, machines_differ: bool) -> "tuple[str, float]":
    """``(verdict, signed relative change of the median)``."""
    a_q1, a_med, a_q3 = _quartiles(a_runs)
    b_q1, b_med, b_q3 = _quartiles(b_runs)
    delta = (b_med - a_med) / a_med if a_med else 0.0
    worse_by = -delta if better == "higher" else delta
    if worse_by <= bound:
        return "ok", delta
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / abs(a_med) if a_med else 0.0
    if machines_differ or spread > bound:
        return "unresolved", delta
    return "regressed", delta


def exact_differences(a: dict, b: dict) -> "list[str]":
    """Names of exact-repeat counters that differ between two records of one
    workload and seed."""
    differing = [f"exact.{key}" for key in a.get("exact", {})
                 if a["exact"][key] != b.get("exact", {}).get(key)]
    exact_names = {m.name for m in catalog.PER_LAYER if m.exact}
    a_layers, b_layers = a.get("per_layer", {}), b.get("per_layer", {})
    differing += [name for name in sorted(exact_names & a_layers.keys()
                                          & b_layers.keys())
                  if a_layers[name]["value"] != b_layers[name]["value"]]
    return differing


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--a", type=Path, nargs="+", required=True)
    parser.add_argument("--b", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    side_a, side_b = load(args.a), load(args.b)
    bad = 0
    for workload in side_a:
        if workload not in side_b:
            print(f"== {workload}: only in --a")
            continue
        records_a, records_b = side_a[workload], side_b[workload]
        cal_a, cal_b = _calibration(records_a), _calibration(records_b)
        machines_differ = abs(cal_b - cal_a) / cal_a > CALIBRATION_TOLERANCE
        print(f"== {workload}   calibration a {cal_a:.1f}  b {cal_b:.1f} GFLOP/s"
              + ("   (differ by > 10 %)" if machines_differ else ""))
        for name, meta in records_a[0]["end_to_end"].items():
            a_runs = [v for r in records_a for v in r["end_to_end"][name]["runs"]]
            b_runs = [v for r in records_b for v in r["end_to_end"][name]["runs"]]
            verdict, delta = compare_metric(a_runs, b_runs, meta["better"],
                                            meta["bound"], machines_differ)
            a_q, b_q = _quartiles(a_runs), _quartiles(b_runs)
            print(f"  {name:16s} {meta['unit']:6s} "
                  f"a {a_q[1]:11.4f} [{a_q[0]:.4f}, {a_q[2]:.4f}]  "
                  f"b {b_q[1]:11.4f} [{b_q[0]:.4f}, {b_q[2]:.4f}]  "
                  f"{delta:+8.2%} (bound {meta['bound']:.1%}, "
                  f"{meta['better']} is better)  {verdict}")
            bad += verdict == "regressed"
        same_seed = [(a, b) for a in records_a for b in records_b
                     if a["seed"] == b["seed"] and a["quick"] == b["quick"]]
        for a, b in same_seed:
            differing = exact_differences(a, b)
            print(f"  exact counters, seed {a['seed']}: "
                  + (f"DIFFER: {', '.join(differing)}" if differing
                     else "identical"))
            bad += bool(differing)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
