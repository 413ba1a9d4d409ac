"""Round-domain golden fingerprints of six cluster compositions.

Each test runs one :class:`~repro.serve.ClusterEngine` composition on a tiny
model and hashes what the run decided, in the round domain only (no wall
clock): every request's status, generated tokens and ``finished_clock``,
plus the admission / shed counters, replica health transitions, breaker
events, brownout transitions and rounds, hedge events, assignments and
requeues.  The digests were recorded before the functional session moved
out of ``serve/engine.py``; a refactor of the serving layers that changes
any of them has changed behaviour, not just structure.

The compositions: radix-affinity routing with a cancellation, a crash with
checkpoint migration and rejoin, hedging with circuit breakers, token-bucket
plus weighted-fair admission with deadlines, ``kv-pressure:threshold=``
shedding, and a pressure-and-retry storm that moves the brownout ladder and
trips a breaker in the same run.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.serve import ClusterEngine, Request
from repro.workloads import multi_tenant_requests, zipf_shared_prefix_requests

VOCAB = 48
BOUNDED = "paged:page_tokens=8"


@pytest.fixture(scope="module")
def lm():
    from repro.llm.config import tiny_config
    from repro.llm.model import DecoderLM

    return DecoderLM(tiny_config("golden-tiny", n_layers=2, d_model=32,
                                 n_heads=4, d_ff=64, vocab_size=VOCAB,
                                 max_seq_len=256), seed=7)


def fingerprint(report) -> str:
    """SHA-256 (16 hex digits) over the round-domain outcome of a run."""
    payload = (
        [(r.request.request_id, r.status, tuple(r.generated_tokens),
          r.finished_clock) for r in report.results],
        report.admission,
        sorted((t, sorted(c.items())) for t, c in report.tenant_admission.items()),
        report.n_shed,
        sorted((i, sorted(c.items())) for i, c in report.health_transitions.items()),
        report.breaker_events,
        report.brownout_events,
        sorted(report.brownout_rounds.items()),
        report.hedge_events,
        sorted(report.assignments.items()),
        sorted(report.requeues.items()),
        report.cluster_steps,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _storm_requests() -> list[Request]:
    return [Request(request_id=f"s{i}", arrival_time_s=i * 0.01, prompt_len=16,
                    decode_len=10, priority=i % 2, max_retries=12,
                    prompt_tokens=tuple((5 * i + j) % 40 + 1 for j in range(16)))
            for i in range(16)]


def test_radix_affinity_with_cancellation(lm):
    requests = zipf_shared_prefix_requests(18, 3, prefix_len=16, suffix_len=4,
                                           decode_len=5, vocab_size=VOCAB, seed=2)
    cluster = ClusterEngine(3, router="radix-affinity", cache=BOUNDED,
                            prefix_cache=True, max_concurrency=2,
                            arrivals_per_step=3, seed=0, paranoid=True)
    cluster.cancel(requests[4].request_id, at_step=3)
    report = cluster.run(lm, requests)
    assert report.n_cancelled == 1 and report.reused_prefix_tokens > 0
    assert fingerprint(report) == "0811d5be82fc5e82"


def test_crash_with_checkpoint_migration(lm):
    requests = multi_tenant_requests(2, 5, prompt_len=12, decode_len=12,
                                     vocab_size=VOCAB, seed=5)
    report = ClusterEngine(
        3, router="least-loaded", cache=BOUNDED, max_concurrency=2,
        capacity_tokens=1024, seed=0, paranoid=True,
        faults="replica-crash:replica=1,at=6,recover_after=4",
        migration="checkpoint:interval=2").run(lm, requests)
    assert report.migrated_requests > 0 and report.recovered_replicas == [1]
    assert fingerprint(report) == "4c85ec07e57c04bd"


def test_hedge_with_breakers(lm):
    requests = [Request(request_id=f"h{i}", arrival_time_s=i * 0.01,
                        prompt_len=12, decode_len=16, max_retries=12,
                        prompt_tokens=tuple((3 * i + j) % 30 + 1 for j in range(12)))
                for i in range(6)]
    report = ClusterEngine(
        3, router="least-loaded", cache=BOUNDED, max_concurrency=2, seed=0,
        paranoid=True,
        faults=["stall:replica=0,period=3", "transient-exec:rate=0.2"],
        hedge="hedge:slowdown=1.5,patience=2",
        breaker="breaker:threshold=2,window=4,cooldown=3").run(lm, requests)
    assert report.n_hedges > 0 and report.breaker_events
    assert fingerprint(report) == "77f5a07d01eddd0d"


def test_token_bucket_and_weighted_fair_with_deadlines(lm):
    requests = multi_tenant_requests(3, 5, prompt_len=16, decode_len=6,
                                     vocab_size=VOCAB, rate_skew=1.5,
                                     deadline_steps=20, seed=0)
    report = ClusterEngine(
        2, router="least-loaded", cache=BOUNDED, max_concurrency=2,
        capacity_tokens=512, arrivals_per_step=4, seed=0, paranoid=True,
        faults="tenant-burst:tenant=t2,copies=1,until=4",
        admission=["token-bucket:rate=24,burst=96,max_wait=12",
                   "weighted-fair:quantum=2,weights=t0=8;t1=2;t2=1"],
    ).run(lm, requests)
    assert sum(c.get("deferred", 0) for c in report.tenant_admission.values()) > 0
    assert fingerprint(report) == "80bd23bd59173ba2"


def test_kv_pressure_threshold_shedding(lm):
    requests = multi_tenant_requests(2, 8, prompt_len=24, decode_len=6,
                                     vocab_size=VOCAB, seed=3)
    report = ClusterEngine(
        2, router="least-loaded", cache=BOUNDED, max_concurrency=4,
        capacity_tokens=512, seed=0, paranoid=True,
        admission="kv-pressure:threshold=0.25").run(lm, requests)
    assert report.n_shed > 0 and report.admission == "kv-pressure:threshold=0.25"
    assert fingerprint(report) == "00d84f3f28dea589"


def test_pressure_and_retry_storm_moves_brownout_and_trips_breaker(lm):
    report = ClusterEngine(
        2, router="least-loaded", cache=BOUNDED, max_concurrency=4,
        capacity_tokens=256, arrivals_per_step=6, seed=0, paranoid=True,
        faults="transient-exec:rate=0.3",
        brownout="brownout:high=0.5,low=0.3,hold=1,decode_cap=4",
        breaker="breaker:threshold=2,window=4,cooldown=3",
    ).run(lm, _storm_requests())
    levels = [new for _, _, new, _ in report.brownout_events]
    assert max(levels) == 3 and levels[-1] == 0 and report.n_truncated > 0
    assert report.n_breaker_trips >= 1
    assert fingerprint(report) == "9cc7598d54d68365"


def test_run_leaves_no_state_on_the_engine(lm):
    """The engine holds configuration only: a run keeps its sessions, health
    and breakers aside and drops them when it returns."""
    requests = multi_tenant_requests(2, 5, prompt_len=12, decode_len=12,
                                     vocab_size=VOCAB, seed=5)
    cluster = ClusterEngine(
        3, router="least-loaded", cache=BOUNDED, max_concurrency=2,
        capacity_tokens=1024, seed=0, paranoid=True,
        faults="replica-crash:replica=1,at=6,recover_after=4",
        migration="checkpoint:interval=2",
        breaker="breaker:threshold=2,window=4,cooldown=3")
    before = {key: id(value) for key, value in vars(cluster).items()}
    cluster.run(lm, requests)
    assert {key: id(value) for key, value in vars(cluster).items()} == before
