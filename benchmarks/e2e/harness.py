"""In-process measurement of one workload: drive, time, trace, check.

The end-to-end path uses only names exported by ``repro``, ``repro.serve``,
``repro.workloads``, ``repro.llm`` and the registry, and touches none of the
names the tracer wraps; tracing is a separate run (:mod:`tracer`).

Load model — **step-clock open loop, one driver thread**: the generator
gives every request a due *engine step*; the driver submits the requests due
at step ``k``, runs one engine step, and moves to ``k + 1`` (jumping to the
next due step when the engine is idle).  The offered load per step is the
same on every commit and host; only the duration of a step varies.  A
request's latency counts from the wall instant its due step began, so
queueing behind a slow step is charged to the request.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import ClusterEngine, ServingEngine, resolve
from repro.llm import generate

import catalog
import tracer as tracing
from workloads import (WORKLOADS, Arrival, Workload, build_model,
                       zipf_template)

LOAD_MODEL = "step-clock open loop, one driver thread"
MIN_TIMED_RUNS = 3
UNTRACED_RUNS_BEFORE_TRACE = 2
SETUP_REPEATS = 3
#: Requests regenerated in isolation for the token-identity check.
IDENTITY_SAMPLE = 8
QUICK_IDENTITY_SAMPLE = 2
#: ``--quick`` keeps this share of the requests; the warm-up pass this share.
QUICK_SHARE = 1 / 20
WARMUP_SHARE = 1 / 8


# -- noise sentinel and environment ----------------------------------------
def calibrate(seconds: float = 0.3) -> float:
    """GFLOP/s of a fixed 256x256 fp32 matmul loop: a yardstick for how fast
    this machine is *right now*, recorded before and after each workload."""
    a = np.ones((256, 256), dtype=np.float32)
    b = np.ones((256, 256), dtype=np.float32)
    done = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for _ in range(20):
            a @ b
        done += 20
    return done * 2 * 256 ** 3 / (time.perf_counter() - start) / 1e9


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    root = Path(__file__).resolve().parents[2]
    try:
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=False).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        head = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {key: os.environ.get(key) for key in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_head": head,
        "load_model": LOAD_MODEL,
    }


# -- one run ----------------------------------------------------------------
@dataclass
class Run:
    """What one pass over a workload produced."""
    wall_s: float
    n_sent: int
    #: ``FunctionalRequestResult`` of every request, pooled over replicas.
    results: list
    #: ``FunctionalServingReport``s (one per replica under a cluster).
    reports: list
    #: Seconds to the first token, one per request (+inf if it never came).
    ttft_s: "list[float]"
    #: Seconds between consecutive tokens of one request, pooled.
    gaps_s: "list[float]"
    #: The ``ClusterReport`` (``None`` on a single node).
    cluster_report: Any = None
    #: Wall instant of the first submit (origin of the JSONL trace).
    start_s: float = 0.0

    @property
    def finished(self) -> list:
        return [r for r in self.results if r.status == "finished"]

    @property
    def generated_tokens(self) -> int:
        return sum(len(r.generated_tokens) for r in self.finished)


def run_once(workload: Workload, lm, arrivals: "list[Arrival]",
             tracer: "tracing.Tracer | None" = None) -> Run:
    if workload.replicas is not None:
        return _run_cluster(workload, lm, arrivals, tracer)
    return _run_session(workload, lm, arrivals, tracer)


def _run_session(workload: Workload, lm, arrivals: "list[Arrival]",
                 tracer: "tracing.Tracer | None") -> Run:
    token_times: "dict[str, list[float]]" = {}
    perf = time.perf_counter

    def on_token(event) -> None:
        token_times.setdefault(event.request_id, []).append(perf())

    engine = ServingEngine(max_concurrency=workload.max_concurrency)
    session = engine.start_functional(lm, cache=workload.cache, seed=0,
                                      on_token=on_token,
                                      **workload.engine_kwargs)
    if tracer is not None:
        tracing.instrument_session(tracer, session)
    due_wall: "dict[str, float]" = {}
    n, sent, step = len(arrivals), 0, 0
    start = perf()
    while sent < n or session.has_work():
        if not session.has_work():
            step = max(step, arrivals[sent].due_step)  # idle: jump ahead
        now = perf()
        batch = []
        while sent < n and arrivals[sent].due_step <= step:
            request = arrivals[sent].request
            due_wall[request.request_id] = now
            batch.append(request)
            sent += 1
        if tracer is not None:
            tracer.step = step
        if batch:
            session.submit(batch)
        session.step()
        step += 1
    report = session.finish()
    wall = perf() - start
    ttft, gaps = [], []
    for result in report.results:
        times = token_times.get(result.request.request_id, [])
        done = result.status == "finished" and times
        ttft.append(times[0] - due_wall[result.request.request_id]
                    if done else math.inf)
        gaps.extend(b - a for a, b in zip(times, times[1:]))
    return Run(wall_s=wall, n_sent=n, results=report.results, reports=[report],
               ttft_s=ttft, gaps_s=gaps, start_s=start)


def _run_cluster(workload: Workload, lm, arrivals: "list[Arrival]",
                 tracer: "tracing.Tracer | None") -> Run:
    cluster = ClusterEngine(workload.replicas, cache=workload.cache,
                            max_concurrency=workload.max_concurrency,
                            **workload.engine_kwargs)
    if tracer is not None:
        tracing.instrument_cluster(tracer, cluster)
    start = time.perf_counter()
    report = cluster.run(lm, [arrival.request for arrival in arrivals])
    wall = time.perf_counter() - start
    results = report.results
    # ClusterEngine exposes no token stream, so latency is what its report
    # gives a caller: admission -> first token per request, and the replica
    # step durations (the gap between a running request's tokens).
    ttft = [r.ttft_s if r.status == "finished" and r.first_token_step >= 0
            else math.inf for r in results]
    gaps = [s for replica in report.replica_reports
            for s in replica.step_latencies_s]
    return Run(wall_s=wall, n_sent=len(arrivals), results=results,
               reports=report.replica_reports, ttft_s=ttft, gaps_s=gaps,
               cluster_report=report, start_s=start)


# -- metrics ----------------------------------------------------------------
def percentile(values: "list[float]", p: float) -> float:
    """Nearest-rank percentile (defined even when the tail holds +inf)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def timed_metrics(run: Run) -> "dict[str, float]":
    return {
        "tokens_per_s": run.generated_tokens / run.wall_s,
        "ttft_p50_ms": percentile(run.ttft_s, 50) * 1e3,
        "ttft_p95_ms": percentile(run.ttft_s, 95) * 1e3,
        "itl_p50_ms": percentile(run.gaps_s, 50) * 1e3,
        "itl_p95_ms": percentile(run.gaps_s, 95) * 1e3,
    }


def digest(run: Run) -> str:
    """BLAKE2b over every ``(request_id, generated_tokens)``, id-ordered."""
    h = hashlib.blake2b(digest_size=16)
    for result in sorted(run.results, key=lambda r: r.request.request_id):
        h.update(result.request.request_id.encode())
        h.update(np.asarray(result.generated_tokens, dtype=np.int64).tobytes())
    return h.hexdigest()


def exact_counters(run: Run) -> "dict[str, Any]":
    """Step-domain facts of a run that must repeat exactly for one seed."""
    return {
        "digest": digest(run),
        "sent": run.n_sent,
        "finished": len(run.finished),
        "generated_tokens": run.generated_tokens,
        "engine_steps": sum(r.n_steps for r in run.reports),
        "preemptions": sum(r.n_preemptions for r in run.reports),
        "reused_prefix_tokens": sum(r.reused_prefix_tokens
                                    for r in run.results),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: "tracing.Tracer", run: Run,
                      arrivals: "list[Arrival]",
                      untraced_wall_s: float) -> "dict[str, float | None]":
    """Every ``catalog.PER_LAYER`` metric of the traced ``run``; ``None``
    for a span whose wrap target no longer exists."""
    spans = tracer.calls_and_self_ms()
    out: "dict[str, float | None]" = {}
    for span, _layer, _prediction in catalog.SPANS:
        calls, self_ms = spans.get(span, (0, 0.0))
        gone = span in tracer.missing_spans
        out[f"{span}.calls"] = None if gone else calls
        out[f"{span}.self_ms"] = None if gone else self_ms

    def calls(span: str) -> int:
        return spans.get(span, (0, 0.0))[0]

    sums, peaks = tracer.sums, tracer.peaks
    step_s = tracer.durations_s("engine.step")
    due = {a.request.request_id: a.due_step for a in arrivals}
    waits = [step - due[rid] for rid, step in tracer.admitted_at.items()]
    prompt_tokens = sum(len(r.prompt_tokens) for r in run.results)
    out.update({
        "engine.steps": sum(r.n_steps for r in run.reports),
        "engine.tokens_per_step": _ratio(run.generated_tokens,
                                         calls("engine.step")),
        "engine.step.p50_ms": percentile(step_s, 50) * 1e3,
        "engine.step.p99_ms": percentile(step_s, 99) * 1e3,
        "scheduler.queue_wait_steps_p50": percentile(waits, 50),
        "scheduler.queue_wait_steps_p95": percentile(waits, 95),
        "scheduler.preemptions": sum(r.n_preemptions for r in run.reports),
        "kv_manager.reserve_failed": sums.get("reserve_failed", 0),
        "kv_manager.used_tokens_peak": peaks.get("used_tokens", 0),
        "kv_manager.reserved_unused_share": _ratio(
            sums.get("reserved_unused", 0.0), sums.get("reserved_samples", 0)),
        "radix.hit_token_share": _ratio(
            sum(r.reused_prefix_tokens for r in run.results), prompt_tokens),
        "radix.entries_peak": peaks.get("radix_entries", 0),
        "radix.stored_tokens_peak": peaks.get("radix_stored_tokens", 0),
        "executor.prefill_tokens": sums.get("prefill_tokens", 0),
        "executor.decode_tokens": sums.get("decode_tokens", 0),
        "model.decode_batch_mean": _ratio(
            sums.get("decode_tokens", 0), calls("model.decode_step_batch")),
        "model.prefill_chunk_tokens_mean": _ratio(
            sums.get("prefill_tokens", 0),
            calls("model.prefill_chunk") + calls("model.prefill_batch")),
        "model.decode_kv_bytes_computed": sums.get("decode_kv_bytes", 0),
        "kv_pool.pages_peak": sum(v for k, v in peaks.items()
                                  if k.startswith("pages@")),
        "kv_pool.bytes_peak": sum(v for k, v in peaks.items()
                                  if k.startswith("bytes@")),
        "kv_cache.recompute_fraction_mean": _ratio(
            sums.get("aerp_recompute_fraction", 0.0),
            sums.get("aerp_samples", 0)),
        "kv_cache.tokens_kept_mean": _ratio(
            sums.get("aerp_tokens_kept", 0.0), sums.get("aerp_samples", 0)),
        "trace.overhead_share": run.wall_s / untraced_wall_s - 1.0,
        "trace.unattributed_share": 1.0 - tracer.covered_s() / run.wall_s,
    })
    out.update(_cluster_counters(tracer, run, arrivals))
    return {m.name: out[m.name] for m in catalog.PER_LAYER}


def _cluster_counters(tracer: "tracing.Tracer", run: Run,
                      arrivals: "list[Arrival]") -> "dict[str, float]":
    names = [m.name for m in catalog.PER_LAYER if m.name.startswith("cluster.")
             and not m.name.endswith((".calls", ".self_ms"))]
    report = run.cluster_report
    if report is None:
        return dict.fromkeys(names, 0)
    run_s = sum(tracer.durations_s("cluster.run"))
    inside_s = (sum(tracer.durations_s("cluster.replica_step"))
                + sum(tracer.durations_s("cluster.route")))
    served: "dict[str, set[int]]" = {}
    hits = 0
    for arrival in arrivals:
        rid = arrival.request.request_id
        template, replica = zipf_template(rid), report.assignments.get(rid)
        hits += replica in served.setdefault(template, set())
        served[template].add(replica)
    return {
        "cluster.rounds": report.cluster_steps,
        "cluster.overhead_share": _ratio(run_s - inside_s, run_s),
        "cluster.load_imbalance": report.load_imbalance,
        "cluster.affinity_hit_share": hits / len(arrivals),
        "cluster.ttft_reported_p50_ms": report.ttft_percentile_s(50) * 1e3,
        "cluster.ttft_reported_p95_ms": report.ttft_percentile_s(95) * 1e3,
    }


# -- output checks ----------------------------------------------------------
def token_identity(workload: Workload, lm, run: Run, seed: int,
                   sample: int) -> float:
    """Share of ``sample`` seed-chosen requests whose tokens equal an isolated
    ``generate()`` of the same prompt through the same cache spec."""
    results = sorted(run.results, key=lambda r: r.request.request_id)
    rng = np.random.default_rng((seed, 99))
    picks = rng.choice(len(results), size=min(sample, len(results)),
                       replace=False)
    same = 0
    for index in picks:
        result = results[int(index)]
        reference = generate(lm, result.prompt_tokens,
                             result.request.decode_len,
                             cache_factory=resolve("cache", workload.cache))
        same += reference.generated_tokens == list(result.generated_tokens)
    return same / len(picks)


def terminal_status_problems(run: Run) -> "list[str]":
    """Every sent request must have exactly one terminal status."""
    seen: "dict[str, int]" = {}
    for result in run.results:
        rid = result.request.request_id
        seen[rid] = seen.get(rid, 0) + 1
    problems = [f"{rid}: {n} terminal results" for rid, n in seen.items()
                if n != 1]
    if len(seen) != run.n_sent:
        problems.append(f"{run.n_sent} sent but {len(seen)} terminated")
    return problems


# -- one workload, start to finish -----------------------------------------
def _summary(values: "list[float]") -> dict:
    q1, _median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else (values[0],) * 3)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def _set_up(workload: Workload, seed: int, quick: bool):
    """Model, arrivals, and how long each of the set-ups took."""
    took = []
    for _ in range(1 if quick else SETUP_REPEATS):
        start = time.perf_counter()
        lm = build_model()
        arrivals = workload.generate(seed)
        if quick:
            arrivals = arrivals[:max(2, int(len(arrivals) * QUICK_SHARE))]
        else:  # warm-up pass: a truncated copy of the workload
            run_once(workload, lm,
                     arrivals[:max(2, int(len(arrivals) * WARMUP_SHARE))])
        took.append(time.perf_counter() - start)
    return lm, arrivals, took


def _timed_runs(workload: Workload, lm, arrivals: "list[Arrival]",
                seconds: float, repeats: "int | None") -> "list[Run]":
    """``repeats`` untraced runs, or as many as ``seconds`` hold (rounded to
    whole runs, never fewer than :data:`MIN_TIMED_RUNS`)."""
    runs: "list[Run]" = []
    started = time.perf_counter()
    while True:
        gc.collect()  # every run starts from a collected heap (steadier RSS)
        runs.append(run_once(workload, lm, arrivals))
        elapsed = time.perf_counter() - started
        if repeats is not None:
            if len(runs) >= repeats:
                return runs
        elif (len(runs) >= MIN_TIMED_RUNS
              and elapsed + 0.5 * elapsed / len(runs) >= seconds):
            return runs


def _traced_run(workload: Workload, lm, arrivals: "list[Arrival]",
                trace_out: "str | None") -> "tuple[Run, tracing.Tracer]":
    tracer = tracing.Tracer()
    tracing.instrument_model(tracer, lm)
    tracing.instrument_cache_classes(tracer)
    try:
        run = run_once(workload, lm, arrivals, tracer)
    finally:
        tracer.restore()
    if trace_out:
        tracer.write_jsonl(trace_out, run.start_s)
    return run, tracer


def measure(name: str, seed: int, *, seconds: float = 0.0,
            repeats: "int | None" = None, trace: bool = False,
            quick: bool = False, trace_out: "str | None" = None,
            import_s: float = 0.0) -> dict:
    """Set up, warm up, time, optionally trace, and check one workload.

    Timed runs repeat until ``seconds`` of measuring have passed unless
    ``repeats`` fixes their number; every end-to-end timing is the median of
    the runs.  With ``trace`` the timed runs are two untraced ones — the
    baseline of the tracing overhead — followed by one traced run.
    """
    workload = WORKLOADS[name]
    env = environment()
    # Smoke runs time nothing, and an unpinned BLAS makes the loop crawl.
    env["calibration_before"] = None if quick else calibrate()
    lm, arrivals, setups = _set_up(workload, seed, quick)
    if repeats is None and trace:
        repeats = UNTRACED_RUNS_BEFORE_TRACE
    runs = _timed_runs(workload, lm, arrivals, seconds, repeats)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Checks, outside the timed region.
    exact, *repeats_exact = [exact_counters(run) for run in runs]
    problems = [f"run {i}: exact counters differ from run 0"
                for i, other in enumerate(repeats_exact, 1) if other != exact]
    per_layer = tracer = None
    if trace:
        traced, tracer = _traced_run(workload, lm, arrivals, trace_out)
        if exact_counters(traced) != exact:
            problems.append("traced run: exact counters differ from run 0")
        per_layer = per_layer_metrics(
            tracer, traced, arrivals,
            statistics.median(run.wall_s for run in runs))
    last = runs[-1]
    problems += terminal_status_problems(last)
    identity = token_identity(workload, lm, last, seed,
                              QUICK_IDENTITY_SAMPLE if quick
                              else IDENTITY_SAMPLE)
    if identity != 1.0:
        problems.append(f"token_identity {identity} != 1.0")
    attempted = sum(run.n_sent for run in runs)
    failed = attempted - sum(len(run.finished) for run in runs)
    if failed:
        problems.append(f"{failed} of {attempted} requests did not finish")
    env["calibration_after"] = None if quick else calibrate()

    per_run = [timed_metrics(run) for run in runs]
    values = {key: _summary([m[key] for m in per_run]) for key in per_run[0]}
    values["peak_rss_mb"] = _summary([peak_rss_mb])
    values["setup_s"] = _summary([import_s + s for s in setups])
    values["finished_share"] = _summary([1.0 - failed / attempted])
    values["token_identity"] = _summary([identity])
    record = {
        "workload": name, "seed": seed, "quick": quick,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "end_to_end": {m.name: {**values[m.name], "unit": m.unit,
                                "better": m.better, "bound": m.bound}
                       for m in catalog.END_TO_END},
        "exact": exact,
        "samples": {"timed_runs": len(runs), "requests": last.n_sent,
                    "tokens": last.generated_tokens, "gaps": len(last.gaps_s),
                    "run_wall_s": [run.wall_s for run in runs]},
        "env": env,
    }
    if per_layer is not None:
        units = {m.name: m.unit for m in catalog.PER_LAYER}
        record["per_layer"] = {key: {"value": value, "unit": units[key]}
                               for key, value in per_layer.items()}
        record["trace_missing"] = tracer.missing
        record["samples"]["traced_wall_s"] = traced.wall_s
    return record
