"""Layered end-to-end serving benchmark — the one command.

Driver contract (one workload, in this process, last stdout line is JSON)::

    python3 benchmarks/e2e/run.py --workload decode-heavy --seed 0 \
        --seconds 15 --trace 0     # end-to-end metrics
    python3 benchmarks/e2e/run.py --workload decode-heavy --seed 0 \
        --seconds 15 --trace 1     # per-layer metrics from a traced run

By hand (every workload, each **sequentially in its own child process**,
traced as well, results gathered in one file for ``compare.py``)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--repeats 5] [--quick] [--out PATH] [--trace-out PATH]

BLAS is pinned to one thread before NumPy is imported: the machine has two
cores and is shared, and one driver thread generates the load.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_REPEATS = 5


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", default=None,
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one workload in this process for about "
                             "this long (the driver contract)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"untraced timed runs (default {DEFAULT_REPEATS} "
                             "by hand, by --seconds under the contract)")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 of the requests, no warm-up (smoke runs)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full result JSON here")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write the traced run's spans here as JSONL "
                             "(NAME is appended when several workloads run)")
    return parser.parse_args(argv)


def _finite(value: "float | None") -> float:
    """The contract wants plain numbers: a span whose target is gone reads 0
    (``trace_missing`` in --out says why), +inf reads as the largest float."""
    if value is None:
        return 0
    return sys.float_info.max if value == float("inf") else value


def _print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['samples']['timed_runs']} timed runs of "
          f"{record['samples']['requests']} requests  "
          f"({record['env']['load_model']})")
    for name, m in record["end_to_end"].items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']:6s} "
              f"[q1 {m['q1']:.4f}  q3 {m['q3']:.4f}]")
    print(f"  sent {record['attempted']}  failed {record['failed']}  "
          f"failed_share {record['failed_share']:.4f}")
    for name, m in record.get("per_layer", {}).items():
        value = "null" if m["value"] is None else f"{m['value']:14.4f}"
        print(f"  {name:34s} {value:>14s} {m['unit']}")
    for line in record.get("trace_missing") or ():
        print(f"  trace.missing: {line}")
    env = record["env"]
    print(f"  calibration {env['calibration_before']} -> "
          f"{env['calibration_after']} GFLOP/s, BLAS threads "
          f"{env['blas_threads']}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def _measure_here(args: argparse.Namespace, name: str) -> int:
    """One workload in this process; the last line printed is the contract's
    JSON object."""
    import harness

    if name not in harness.WORKLOADS:
        print(f"unknown workload '{name}'; known: "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    record = harness.measure(
        name, args.seed, seconds=args.seconds or 0.0, repeats=args.repeats,
        trace=bool(args.trace), quick=args.quick,
        trace_out=str(args.trace_out) if args.trace_out else None,
        import_s=time.perf_counter() - _PROCESS_START)
    _print_record(record)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1))
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: {"value": _finite(m["value"]), "unit": m["unit"]}
                    for key, m in record[section].items()}}))
    return 0 if record["correct"] else 1


def _measure_all(args: argparse.Namespace, names: "list[str]") -> int:
    """Each workload in its own child process, one at a time; every child
    does the timed runs and then one traced run."""
    out = args.out or Path("e2e_results.json")
    records, status = {}, 0
    for name in names:
        part = out.with_name(f"{out.stem}.{name}.part.json")
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--trace", "1", "--repeats",
                   str(args.repeats or DEFAULT_REPEATS), "--out", str(part)]
        if args.quick:
            command.append("--quick")
        if args.trace_out:
            command += ["--trace-out", str(args.trace_out.with_name(
                f"{args.trace_out.stem}.{name}{args.trace_out.suffix}"))]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=False)
        # The child's last line is the contract JSON; the rest is its table.
        print(child.stdout.rsplit("\n", 2)[0])
        status = status or child.returncode
        if part.exists():
            records[name] = json.loads(part.read_text())
            part.unlink()
    out.write_text(json.dumps({"seed": args.seed, "quick": args.quick,
                               "workloads": records}, indent=1))
    print(f"wrote {out}")
    return status


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    # Before NumPy is imported, here and (inherited) in every child.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
              "the repository it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.seconds is not None or args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            print("--seconds/--trace measure exactly one --workload",
                  file=sys.stderr)
            return 2
        return _measure_here(args, args.workload[0])
    from workloads import WORKLOADS
    return _measure_all(args, args.workload or list(WORKLOADS))


if __name__ == "__main__":
    sys.exit(main())
