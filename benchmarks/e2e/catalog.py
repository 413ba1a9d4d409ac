"""The metric catalogue: every name the benchmark reports, with its unit,
direction, definition and — for layer metrics — the end-to-end metric and
workload it is predicted to move.  ``BENCHMARK.json`` at the repository root
is rendered from here (``python benchmarks/e2e/catalog.py > BENCHMARK.json``);
the smoke test fails when the two drift apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

RUN_SECONDS = 15


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    definition: str


#: The build machine is a shared two-core VM whose speed drops by up to a
#: quarter for seconds at a time (README, "Noise"): across ten seeds the
#: quartile spread of a timing is 3-9 % in a calm hour and reached 33 % in
#: the worst measured, so a timing may worsen by this much before it counts.
TIMING_BOUND = 0.25

END_TO_END = (
    EndToEnd("tokens_per_s", "tok/s", "higher", TIMING_BOUND,
             "generated tokens of finished requests / wall from the first "
             "submit to finish()"),
    EndToEnd("ttft_p50_ms", "ms", "lower", TIMING_BOUND,
             "wall instant the request's due step began -> its first "
             "on_token; an unfinished request counts as +inf"),
    EndToEnd("ttft_p95_ms", "ms", "lower", TIMING_BOUND,
             "as ttft_p50_ms, 95th percentile"),
    EndToEnd("itl_p50_ms", "ms", "lower", TIMING_BOUND,
             "gap between consecutive on_token events of one request (TPOT)"),
    EndToEnd("itl_p95_ms", "ms", "lower", TIMING_BOUND,
             "as itl_p50_ms, 95th percentile"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.25,
             "ru_maxrss of the workload's process after the timed runs"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "imports + median of three set-ups (model build, request "
             "generation, warm-up pass)"),
    EndToEnd("finished_share", "ratio", "higher", 0.001,
             "requests whose terminal status is `finished` / requests sent "
             "(1 - failed_share; must be 1.0)"),
    EndToEnd("token_identity", "ratio", "higher", 0.001,
             "share of checked requests token-identical to an isolated "
             "generate() of the same prompt; must be 1.0"),
)


@dataclass(frozen=True)
class Prediction:
    """Which end-to-end metrics a group of layer metrics should move."""
    moves: str
    on: str
    flat_on: str


NONE = Prediction("-", "-", "-")

DECODE = Prediction(
    "tokens_per_s, itl_p50_ms", "decode-heavy (~70% share), cluster-zipf (~56%)",
    "prefill-heavy, small-requests")
PREFILL = Prediction(
    "ttft_p50_ms, ttft_p95_ms, itl_p95_ms, tokens_per_s",
    "prefill-heavy (~78%), small-requests (~57%, one call per sequence)",
    "decode-heavy, kelle-decode")
AERP = Prediction("tokens_per_s, itl_p50_ms", "kelle-decode only",
                  "all others (layer not executed)")
CONTROL = Prediction(
    "tokens_per_s, ttft_p95_ms", "small-requests",
    "decode-heavy (radix: 0 calls), cluster-zipf (<2%)")
REUSE = Prediction(
    "tokens_per_s via fewer executor.prefill_tokens", "cluster-zipf",
    "prefill-heavy (stays ~0), decode-heavy")
BATCH = Prediction(
    "tokens_per_s up, itl_p50_ms up (bigger batches lengthen gaps)",
    "decode-heavy, cluster-zipf", "-")
MEMORY = Prediction(
    "peak_rss_mb; caps batch size, so tokens_per_s",
    "small-requests, decode-heavy", "kelle-decode (no pool)")
SCHEDULER = Prediction(
    "nothing measurable through its own time (<1% everywhere); its decisions "
    "move ttft_p95_ms via scheduler.queue_wait_steps_p95",
    "prefill-heavy, small-requests",
    "a change that only speeds scheduler code predicts no end-to-end change")
CLUSTER = Prediction(
    "tokens_per_s", "cluster-zipf (a few % at seed: item 4 is a simplicity "
    "change, not a speed-up)", "single-node workloads")
GLUE = Prediction(
    "tokens_per_s", "decode-heavy: executor.decode_step.self_ms + "
    "engine.step.self_ms is the measured engine-over-kernel gap", "-")


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: Repeats exactly for one seed (call counts and step-domain counters).
    exact: bool
    definition: str
    prediction: Prediction


#: ``(span, layer module, prediction)``; each yields `.calls` and `.self_ms`.
SPANS = (
    ("engine.submit", "serve.engine", CONTROL),
    ("engine.step", "serve.engine", GLUE),
    ("engine.finish", "serve.engine", NONE),
    ("scheduler.admit", "serve.scheduler", SCHEDULER),
    ("scheduler.plan", "serve.scheduler", SCHEDULER),
    ("scheduler.decode_ready", "serve.scheduler", SCHEDULER),
    ("scheduler.retire_finished", "serve.scheduler", SCHEDULER),
    ("scheduler.preempt", "serve.scheduler", SCHEDULER),
    ("kv_manager.resolve_caches", "serve.kv_manager", CONTROL),
    ("kv_manager.reserve", "serve.kv_manager", CONTROL),
    ("kv_manager.sync", "serve.kv_manager", CONTROL),
    ("kv_manager.release", "serve.kv_manager", CONTROL),
    ("kv_manager.reclaim", "serve.kv_manager", CONTROL),
    ("kv_manager.snapshot", "serve.kv_manager", CONTROL),
    ("kv_manager.check_accounting", "serve.kv_manager", CONTROL),
    ("radix.match", "serve.radix", CONTROL),
    ("radix.insert", "serve.radix", CONTROL),
    ("radix.evict_lru", "serve.radix", CONTROL),
    ("executor.prefill_whole", "serve.executor", PREFILL),
    ("executor.prefill_chunks", "serve.executor", PREFILL),
    ("executor.decode_step", "serve.executor", GLUE),
    ("model.prefill_batch", "llm.model", PREFILL),
    ("model.prefill_chunk", "llm.model", PREFILL),
    ("model.decode_step_batch", "llm.model", DECODE),
    ("model.verify_chunk_batch", "llm.model", NONE),
    ("kv_pool.scatter_tokens", "core.kv_pool", DECODE),
    ("kv_pool.gather_pages", "core.kv_pool", DECODE),
    ("kv_pool.alloc", "core.kv_pool", CONTROL),
    ("kv_pool.fork", "core.kv_pool", CONTROL),
    ("kv_pool.append", "core.kv_pool", PREFILL),
    ("kv_pool.fetch", "core.kv_pool", PREFILL),
    ("kv_cache.prefill", "core.kv_cache", AERP),
    ("kv_cache.append", "core.kv_cache", AERP),
    ("kv_cache.fetch", "core.kv_cache", AERP),
    ("kv_cache.observe_attention", "core.kv_cache", AERP),
    ("kv_cache.end_step", "core.kv_cache", AERP),
    ("cluster.run", "serve.cluster", CLUSTER),
    ("cluster.route", "serve.cluster", CLUSTER),
    ("cluster.replica_step", "serve.cluster", CLUSTER),
)

#: ``(name, unit, better, layer, exact, definition, prediction)``.
COUNTERS = (
    ("engine.steps", "count", "lower", "serve.engine", True,
     "decode steps the engine took (report.n_steps, summed over replicas)",
     BATCH),
    ("engine.tokens_per_step", "tok", "higher", "serve.engine", True,
     "generated tokens / engine.step calls", BATCH),
    ("engine.step.p50_ms", "ms", "lower", "serve.engine", False,
     "median engine.step span duration", GLUE),
    ("engine.step.p99_ms", "ms", "lower", "serve.engine", False,
     "99th percentile engine.step span duration", PREFILL),
    ("scheduler.queue_wait_steps_p50", "steps", "lower", "serve.scheduler",
     True, "median of (step first admitted - due step)", SCHEDULER),
    ("scheduler.queue_wait_steps_p95", "steps", "lower", "serve.scheduler",
     True, "95th percentile of (step first admitted - due step)", SCHEDULER),
    ("scheduler.preemptions", "count", "lower", "serve.scheduler", True,
     "eviction-and-recompute preemptions (report.n_preemptions)", SCHEDULER),
    ("kv_manager.reserve_failed", "count", "lower", "serve.kv_manager", True,
     "reserve() calls that returned False", MEMORY),
    ("kv_manager.used_tokens_peak", "tok", "lower", "serve.kv_manager", True,
     "peak of kv.used_tokens sampled once per step (max over replicas)",
     MEMORY),
    ("kv_manager.reserved_unused_share", "ratio", "lower", "serve.kv_manager",
     True, "mean over steps of 1 - sum(running cached_tokens) / used_tokens",
     MEMORY),
    ("radix.hit_token_share", "ratio", "higher", "serve.radix", True,
     "reused prefix tokens / prompt tokens", REUSE),
    ("radix.entries_peak", "count", "lower", "serve.radix", True,
     "peak index.n_entries sampled once per step", MEMORY),
    ("radix.stored_tokens_peak", "tok", "lower", "serve.radix", True,
     "peak index.stored_tokens sampled once per step", MEMORY),
    ("executor.prefill_tokens", "tok", "lower", "serve.executor", True,
     "tokens passed to model.prefill_batch + model.prefill_chunk", REUSE),
    ("executor.decode_tokens", "tok", "lower", "serve.executor", True,
     "rows passed to model.decode_step_batch", NONE),
    ("model.decode_batch_mean", "seq", "higher", "llm.model", True,
     "executor.decode_tokens / model.decode_step_batch.calls", BATCH),
    ("model.prefill_chunk_tokens_mean", "tok", "higher", "llm.model", True,
     "executor.prefill_tokens / prefill calls (chunk + batch)", PREFILL),
    ("model.decode_kv_bytes_computed", "B", "lower", "llm.model", True,
     "sum over decode calls of cached length x 2*H*d*4B*L - computed from "
     "shapes, not measured", DECODE),
    ("kv_pool.pages_peak", "count", "lower", "core.kv_pool", True,
     "peak referenced pages over all layer pools (summed over replicas)",
     MEMORY),
    ("kv_pool.bytes_peak", "B", "lower", "core.kv_pool", True,
     "kv_pool.pages_peak x bytes per page", MEMORY),
    ("kv_cache.recompute_fraction_mean", "ratio", "higher", "core.kv_cache",
     True, "mean AERPCache.recompute_fraction of layer 0 over running "
     "sequences, sampled every 16th step", AERP),
    ("kv_cache.tokens_kept_mean", "tok", "lower", "core.kv_cache", True,
     "mean AERPCache.num_tokens of layer 0, sampled every 16th step", AERP),
    ("cluster.rounds", "count", "lower", "serve.cluster", True,
     "lockstep rounds (report.cluster_steps)", CLUSTER),
    ("cluster.overhead_share", "ratio", "lower", "serve.cluster", False,
     "(cluster.run - sum replica_step - sum route) / cluster.run", CLUSTER),
    ("cluster.load_imbalance", "ratio", "lower", "serve.cluster", True,
     "max / mean of per-replica decode tokens (report.load_imbalance)",
     CLUSTER),
    ("cluster.affinity_hit_share", "ratio", "higher", "serve.cluster", True,
     "requests routed to a replica that already served their template / "
     "requests", REUSE),
    ("cluster.ttft_reported_p50_ms", "ms", "lower", "serve.cluster", False,
     "ClusterReport TTFT median (admission -> first token, program-measured)",
     PREFILL),
    ("cluster.ttft_reported_p95_ms", "ms", "lower", "serve.cluster", False,
     "as above, 95th percentile", PREFILL),
    ("trace.overhead_share", "ratio", "lower", "tracer", False,
     "traced wall / median untraced wall - 1", NONE),
    ("trace.unattributed_share", "ratio", "lower", "tracer", False,
     "traced wall not covered by any top-level span", NONE),
)


def _span_metrics(span: str, layer: str, prediction: Prediction):
    yield PerLayer(f"{span}.calls", "count", "lower", layer, True,
                   f"calls of the {span} span", prediction)
    yield PerLayer(f"{span}.self_ms", "ms", "lower", layer, False,
                   f"duration of {span} spans minus their child spans",
                   prediction)


PER_LAYER = tuple(
    [metric for span in SPANS for metric in _span_metrics(*span)]
    + [PerLayer(*counter) for counter in COUNTERS])


def benchmark_json(workloads: "dict[str, object]") -> dict:
    """The contract file: exactly the keys the driver reads."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from workloads import WORKLOADS

    print(json.dumps(benchmark_json(WORKLOADS), indent=2))
