"""Chaos benchmark: cluster serving under deterministic fault injection.

Runs the multi-replica :class:`~repro.serve.cluster.ClusterEngine` through
the composed seeded fault plan the ``"fault"`` registry exists for, and
writes ``BENCH_chaos.json``:

* ``chaos`` — 4 replicas under the full composed plan (one replica crashes
  and later rejoins, one straggles at 3x step latency, every executor
  forward can raise a retryable transient error, and KV reservations
  spuriously fail under injected allocation pressure), with the paranoid
  invariant checker asserting page accounting / scheduler legality /
  request conservation every step.  A fault-free run over the *same*
  requests is the reference.  Guarded: every request reaches an explicit
  terminal status (``terminal_fraction`` 1.0), the completion rate, the
  token-identity fraction of completed requests vs the healthy run (1.0 —
  retries and recovery never corrupt decoded tokens), and the goodput
  retained under chaos.
* ``overload`` — alloc-pressure plus deadlines and ``kv-pressure``
  load-shedding admission over a trace that oversubscribes the pools: requests resolve
  into a deterministic mix of ``finished`` / ``timeout`` / ``shed``, and
  nothing is ever lost.  Guarded: ``terminal_fraction`` (1.0) and the
  completion rate.

All fault decisions derive from seeded hashes and lockstep round counters
(never wall clock), so statuses, retry counts and decoded tokens are
bit-reproducible; only the timing-derived goodput numbers vary per host.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py            # full run
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick    # CI smoke

The committed ``benchmarks/BENCH_chaos_baseline.json`` pins the guarded
metrics (its ``guarded`` key); CI runs ``check_bench_regression.py`` against
it and fails on a >20% drop.
"""

from __future__ import annotations

from _common import bench_main, identity_fraction, report_tokens

from repro.llm.config import tiny_config
from repro.llm.model import DecoderLM
from repro.serve import ClusterEngine
from repro.workloads import zipf_shared_prefix_requests

#: The overload regime's load shedding: shed a fresh arrival once the
#: cluster-wide projected KV footprint would pass 85 % of pool capacity.
OVERLOAD_ADMISSION = "kv-pressure:threshold=0.85"


def _bench_model(max_seq_len: int) -> DecoderLM:
    config = tiny_config("bench-chaos", n_layers=4, d_model=64, n_heads=4,
                         d_ff=128, vocab_size=128, max_seq_len=max_seq_len)
    return DecoderLM(config, seed=0)


def _chaos_metrics(report, n_submitted: int) -> dict:
    results = report.results
    n = max(n_submitted, 1)
    return {
        "n_requests": n_submitted,
        "terminal_fraction": len(results) / n,
        "completion_rate": sum(1 for r in results if r.status == "finished") / n,
        "timeout_rate": report.n_timeouts / n,
        "shed_rate": report.n_shed / n,
        "failed_rate": report.n_failed / n,
        "cancelled_rate": report.n_cancelled / n,
        "n_retries": report.n_retries,
        "n_requeued": report.n_requeued,
        "n_health_transitions": report.n_health_transitions,
        "recovered_replicas": report.recovered_replicas,
        "cluster_steps": report.cluster_steps,
        "decode_tokens_per_s": report.decode_tokens_per_s,
        "parallel_wall_s": report.parallel_wall_s,
    }


def run_benchmark(quick: bool, repeats: int, seed: int = 0) -> dict:
    if quick:
        n_requests, n_templates = 24, 4
        prefix_len, suffix_len, decode_len = 64, 8, 8
        deadline, crash_at, recover_after = 160, 6, 10
        over_requests, over_deadline, over_arrivals = 24, 24, 4
    else:
        n_requests, n_templates = 48, 6
        prefix_len, suffix_len, decode_len = 128, 8, 12
        deadline, crash_at, recover_after = 320, 10, 16
        over_requests, over_deadline, over_arrivals = 48, 36, 1

    lm = _bench_model(max_seq_len=2 * (prefix_len + suffix_len + decode_len + 64))
    vocab = lm.config.vocab_size
    pool = "paged:page_tokens=16,initial_pages=24,grow=false"
    kwargs = dict(router="radix-affinity", cache=pool, prefix_cache=True,
                  max_concurrency=2, seed=seed)
    plan = [f"replica-crash:replica=1,at={crash_at},recover_after={recover_after}",
            "straggler:replica=2,slowdown=3",
            "transient-exec:rate=0.04",
            "alloc-pressure:rate=0.05"]

    def best(requests, **extra):
        merged = dict(kwargs)
        merged.update(extra)
        top = None
        for _ in range(repeats):
            report = ClusterEngine(4, **merged).run(lm, requests)
            if top is None or report.parallel_wall_s < top.parallel_wall_s:
                top = report
        return top

    # -- regime 1: composed chaos vs fault-free reference ----------------
    requests = zipf_shared_prefix_requests(
        n_requests=n_requests, n_templates=n_templates, prefix_len=prefix_len,
        suffix_len=suffix_len, decode_len=decode_len, vocab_size=vocab,
        alpha=1.1, deadline_steps=deadline, max_retries=8, seed=seed)
    healthy = best(requests)
    chaotic = best(requests, faults=plan, paranoid=True)

    healthy_tokens = report_tokens(healthy)
    chaos = {
        "healthy": _chaos_metrics(healthy, len(requests)),
        "chaotic": _chaos_metrics(chaotic, len(requests)),
        "faults": chaotic.faults,
        "terminal_fraction": len(chaotic.results) / len(requests),
        "completion_rate": _chaos_metrics(chaotic, len(requests))["completion_rate"],
        "token_identity_fraction": identity_fraction(chaotic, healthy_tokens),
        "goodput_retained": (chaotic.decode_tokens_per_s
                             / max(healthy.decode_tokens_per_s, 1e-9)),
    }

    # -- regime 2: overload — deadlines + shedding under pressure --------
    overload_requests = zipf_shared_prefix_requests(
        n_requests=over_requests, n_templates=n_templates,
        prefix_len=prefix_len, suffix_len=suffix_len, decode_len=decode_len,
        vocab_size=vocab, alpha=1.1, deadline_steps=over_deadline,
        max_retries=4, seed=seed + 1)
    overloaded = best(overload_requests, faults=["alloc-pressure:rate=0.1"],
                      admission=OVERLOAD_ADMISSION, paranoid=True,
                      arrivals_per_step=over_arrivals)
    overload = _chaos_metrics(overloaded, len(overload_requests))
    overload["terminal_fraction"] = (len(overloaded.results)
                                     / len(overload_requests))

    results = {
        "config": {
            "model": lm.config.name, "n_layers": lm.config.n_layers,
            "n_replicas": 4, "max_concurrency": 2,
            "repeats": repeats, "quick": quick, "seed": seed,
            "chaos": {"n_requests": n_requests, "n_templates": n_templates,
                      "prefix_len": prefix_len, "suffix_len": suffix_len,
                      "decode_len": decode_len, "deadline_steps": deadline,
                      "faults": plan},
            "overload": {"n_requests": over_requests,
                         "deadline_steps": over_deadline,
                         "arrivals_per_step": over_arrivals,
                         "admission": OVERLOAD_ADMISSION},
        },
        "chaos": chaos,
        "overload": overload,
        # terminal_fraction / completion / identity are deterministic; the
        # goodput ratio is the only timing-derived guarded metric.
        "guarded": [["chaos", "terminal_fraction"],
                    ["chaos", "completion_rate"],
                    ["chaos", "token_identity_fraction"],
                    ["chaos", "goodput_retained"],
                    ["overload", "terminal_fraction"],
                    ["overload", "completion_rate"]],
    }

    cm = chaos["chaotic"]
    print(f"chaos   : terminal {chaos['terminal_fraction']:.0%} | completed "
          f"{chaos['completion_rate']:.0%} | token-identical "
          f"{chaos['token_identity_fraction']:.0%} | {cm['n_retries']} retries, "
          f"{cm['n_requeued']} requeues, {cm['n_health_transitions']} health "
          f"transitions, rejoined {cm['recovered_replicas']} | goodput "
          f"{chaos['goodput_retained']:.2f}x of healthy")
    print(f"overload: terminal {overload['terminal_fraction']:.0%} | completed "
          f"{overload['completion_rate']:.0%} | timeout "
          f"{overload['timeout_rate']:.0%} | shed {overload['shed_rate']:.0%} | "
          f"{overload['n_retries']} retries")
    return results


def main() -> None:
    bench_main(run_benchmark, "BENCH_chaos.json", __doc__)


if __name__ == "__main__":
    main()
