"""Cluster serving tests: routers, prefix digests, failure handling.

Covers the ``"router"`` registry kind, router unit behaviour over
:class:`ReplicaView` lists, the read-only
:meth:`RadixPrefixIndex.longest_match_len` probe, engine
:meth:`~ServingEngine.load_snapshot`, the Zipf shared-prefix workload, and
the :class:`ClusterEngine` end-to-end invariants: token identity against
single-replica serving of the same partition, and 100% completion with clean
accounting when a replica is killed mid-run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.registry import RegistryError, known, resolve
from repro.serve import (
    ClusterEngine,
    LeastLoadedRouter,
    LoadSnapshot,
    PrefixDigest,
    RadixAffinityRouter,
    RadixPrefixIndex,
    ReplicaView,
    Request,
    RoundRobinRouter,
    ServingEngine,
    resolve_router,
)
from repro.workloads import zipf_shared_prefix_requests


def _request(request_id: str, prompt, decode_len: int = 4,
             arrival: float = 0.0) -> Request:
    return Request(request_id=request_id, arrival_time_s=arrival,
                   prompt_len=len(prompt), decode_len=decode_len,
                   prompt_tokens=tuple(prompt))


def _view(replica_id: int, queued: int = 0, running: int = 0,
          inflight: int = 0) -> ReplicaView:
    return ReplicaView(replica_id, LoadSnapshot(
        n_queued=queued, n_running=running, inflight_tokens=inflight))


@pytest.fixture
def lm():
    from repro.llm.config import tiny_config
    from repro.llm.model import DecoderLM

    return DecoderLM(tiny_config("cluster-tiny", n_layers=2, d_model=32,
                                 n_heads=4, d_ff=64, vocab_size=48,
                                 max_seq_len=512), seed=7)


@pytest.fixture
def trace():
    rng = np.random.default_rng(11)
    return [_request(f"r{i}", rng.integers(0, 48, size=12).tolist(),
                     decode_len=5, arrival=i * 0.01) for i in range(10)]


class TestRouterRegistry:
    def test_router_kind_registered(self):
        assert set(known("router")) == {"round-robin", "least-loaded",
                                        "radix-affinity"}

    def test_resolve_round_trips(self):
        router = resolve("router", "radix-affinity:threshold=16")
        assert isinstance(router, RadixAffinityRouter)
        assert router.threshold == 16
        assert router.describe() == "radix-affinity:threshold=16"
        assert isinstance(resolve("router", "rr"), RoundRobinRouter)
        assert isinstance(resolve("router", "least-loaded"), LeastLoadedRouter)

    def test_resolve_router_helper(self):
        assert isinstance(resolve_router(None), RoundRobinRouter)
        built = LeastLoadedRouter()
        assert resolve_router(built) is built

    def test_unknown_router_and_params_raise(self):
        with pytest.raises(RegistryError):
            resolve("router", "consistent-hash")
        with pytest.raises(RegistryError):
            resolve("router", "round-robin:spread=2")

    def test_bad_threshold_raises(self):
        with pytest.raises(ValueError):
            RadixAffinityRouter(threshold=0)


class TestRouterPolicies:
    def test_round_robin_cycles_alive_views(self):
        router = RoundRobinRouter()
        views = [_view(0), _view(2), _view(5)]  # replica 1 already dead
        picks = [router.route(_request(f"q{i}", [1, 2]), views)
                 for i in range(6)]
        assert picks == [0, 2, 5, 0, 2, 5]

    def test_least_loaded_prefers_low_inflight_tokens(self):
        router = LeastLoadedRouter()
        views = [_view(0, inflight=100), _view(1, inflight=10),
                 _view(2, inflight=50)]
        assert router.route(_request("q", [1]), views) == 1

    def test_least_loaded_tiebreaks_on_queue_then_id(self):
        router = LeastLoadedRouter()
        views = [_view(0, queued=3, inflight=10), _view(1, queued=1, inflight=10)]
        assert router.route(_request("q", [1]), views) == 1
        assert router.route(_request("q2", [1]),
                            [_view(1, inflight=5), _view(0, inflight=5)]) == 0

    def test_affinity_falls_back_below_threshold(self):
        router = RadixAffinityRouter(threshold=8)
        views = [_view(0, inflight=100), _view(1, inflight=0)]
        # Nothing observed yet -> no match -> least-loaded fallback.
        assert router.route(_request("q", list(range(20))), views) == 1

    def test_affinity_routes_to_best_digest_match(self):
        router = RadixAffinityRouter(threshold=4)
        views = [_view(0, inflight=0), _view(1, inflight=100)]
        shared = list(range(30, 40))
        # First request lands on the least-loaded replica 0... but force the
        # digest onto the *loaded* replica to show affinity beats load.
        router.digest(1).observe(shared + [1, 2])
        target = router.route(_request("q", shared + [7, 8]), views)
        assert target == 1  # 10-token match >= threshold beats lower load

    def test_affinity_observes_routed_prompts(self):
        router = RadixAffinityRouter(threshold=4)
        views = [_view(0, inflight=0), _view(1, inflight=5)]
        prompt = list(range(10, 22))
        first = router.route(_request("a", prompt), views)
        assert first == 0  # fallback: least loaded
        assert router.digest(0).n_prompts == 1
        # The same prefix now has affinity for replica 0 even when loaded.
        busy = [_view(0, inflight=500), _view(1, inflight=0)]
        assert router.route(_request("b", prompt[:8] + [99, 98]), busy) == 0

    def test_affinity_forget_drops_digest(self):
        router = RadixAffinityRouter(threshold=4)
        prompt = list(range(8))
        router.route(_request("a", prompt), [_view(0), _view(1, inflight=5)])
        router.forget(0)
        assert router.digest(0).n_prompts == 0

    def test_affinity_digest_budget_is_bounded(self):
        router = RadixAffinityRouter(threshold=4, digest_tokens=16)
        digest = router.digest(0)
        digest.observe(list(range(10)))
        digest.observe(list(range(100, 112)))
        assert digest.stored_tokens <= 16  # LRU evicted the older prompt


class TestPrefixDigest:
    def test_observe_and_match(self):
        digest = PrefixDigest()
        digest.observe([1, 2, 3, 4, 5])
        assert digest.longest_match_len([1, 2, 3, 9]) == 3
        assert digest.longest_match_len([7, 8]) == 0
        assert digest.n_prompts == 1 and digest.stored_tokens == 5

    def test_duplicate_observe_refreshes_not_duplicates(self):
        digest = PrefixDigest()
        digest.observe([1, 2, 3])
        digest.observe([1, 2, 3])
        assert digest.n_prompts == 1 and digest.stored_tokens == 3

    def test_empty_prompt_ignored(self):
        digest = PrefixDigest()
        digest.observe([])
        assert digest.n_prompts == 0


class TestLongestMatchLen:
    def test_matches_match_result_without_touching_stats(self):
        index = RadixPrefixIndex()
        index.insert([1, 2, 3, 4, 5, 6], [])
        index.insert([1, 2, 9, 9], [])
        hits, misses = index.hits, index.misses
        for query in ([1, 2, 3, 4], [1, 2, 9], [1, 2], [5, 5], [1, 2, 3, 4, 5, 6, 7]):
            probe = index.longest_match_len(query)
            assert index.hits == hits and index.misses == misses  # read-only
            matched, _ = index.match(query)
            assert probe == matched
            hits, misses = index.hits, index.misses  # match() did count

    def test_probe_does_not_refresh_lru(self):
        index = RadixPrefixIndex(max_tokens=8)
        index.insert([1, 2, 3, 4], [])
        index.insert([5, 6, 7, 8], [])
        # Probing the older entry must NOT protect it from LRU eviction.
        assert index.longest_match_len([1, 2, 3, 4]) == 4
        index.insert([9, 10, 11, 12], [])  # over budget -> evicts LRU = first
        assert index.longest_match_len([1, 2, 3, 4]) == 0
        assert index.longest_match_len([5, 6, 7, 8]) == 4


class TestLoadSnapshot:
    def test_idle_engine_reports_zero_load(self):
        engine = ServingEngine(max_concurrency=2)
        snap = engine.load_snapshot()
        assert snap == LoadSnapshot(0, 0, 0)
        assert snap.n_live == 0

    def test_snapshot_during_session(self, lm, trace):
        engine = ServingEngine(max_concurrency=2)
        session = engine.start_functional(lm)
        session.submit(trace[:4])
        snap = engine.load_snapshot()
        assert snap.n_queued == 4 and snap.n_running == 0
        # Outstanding work: whole prompt + whole decode for each request.
        assert snap.inflight_tokens == sum(len(r.prompt_tokens) + r.decode_len
                                           for r in trace[:4])
        session.step()
        snap = engine.load_snapshot()
        assert snap.n_running == 2 and snap.n_queued == 2
        while session.step():
            pass
        session.finish()
        assert engine.load_snapshot().n_live == 0

    def test_snapshot_reports_free_pool_tokens(self, lm, trace):
        engine = ServingEngine(max_concurrency=2)
        factory = resolve("cache", "paged:page_tokens=8,initial_pages=32,grow=false")
        session = engine.start_functional(lm, cache=factory)
        session.submit(trace[:2])
        snap = engine.load_snapshot()
        assert snap.free_pool_tokens is not None
        session.step()
        assert engine.load_snapshot().free_pool_tokens < snap.free_pool_tokens
        while session.step():
            pass
        session.finish()


class TestZipfWorkload:
    def test_deterministic_in_seed(self):
        kwargs = dict(n_requests=40, n_templates=6, prefix_len=16, suffix_len=4,
                      decode_len=8, vocab_size=64, alpha=1.2, decode_sigma=0.4,
                      seed=5)
        a = zipf_shared_prefix_requests(**kwargs)
        b = zipf_shared_prefix_requests(**kwargs)
        assert [(r.request_id, r.prompt_tokens, r.decode_len, r.arrival_time_s)
                for r in a] == [(r.request_id, r.prompt_tokens, r.decode_len,
                                 r.arrival_time_s) for r in b]
        assert zipf_shared_prefix_requests(**{**kwargs, "seed": 6}) != a

    def test_popularity_is_zipf_skewed(self):
        requests = zipf_shared_prefix_requests(
            n_requests=300, n_templates=8, prefix_len=16, suffix_len=0,
            decode_len=4, vocab_size=64, alpha=1.3, seed=0)
        counts = np.zeros(8, dtype=int)
        for request in requests:
            counts[int(request.request_id[1:].split("r")[0])] += 1
        assert counts[0] == counts.max()       # template 0 dominates
        assert counts[0] >= 3 * counts[-1]     # heavy head vs tail

    def test_shared_prefixes_are_real(self):
        requests = zipf_shared_prefix_requests(
            n_requests=30, n_templates=2, prefix_len=12, suffix_len=4,
            decode_len=4, vocab_size=64, seed=1)
        by_template: dict[str, list] = {}
        for request in requests:
            by_template.setdefault(request.request_id.split("r")[0],
                                   []).append(request.prompt_tokens)
        for prompts in by_template.values():
            first = prompts[0][:12]
            assert all(p[:12] == first for p in prompts)

    def test_decode_spread_clamped(self):
        requests = zipf_shared_prefix_requests(
            n_requests=200, n_templates=2, prefix_len=8, suffix_len=0,
            decode_len=10, vocab_size=32, decode_sigma=2.0,
            max_decode_len=25, seed=2)
        lens = {r.decode_len for r in requests}
        assert min(lens) >= 1 and max(lens) <= 25
        assert len(lens) > 1  # actually spread

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_shared_prefix_requests(0, 2, 8, 0, 4, 32)
        with pytest.raises(ValueError):
            zipf_shared_prefix_requests(4, 2, 8, 0, 4, 32, alpha=0.0)
        with pytest.raises(ValueError):
            zipf_shared_prefix_requests(4, 2, 8, 0, 4, 32, decode_sigma=-1.0)
        with pytest.raises(ValueError):
            zipf_shared_prefix_requests(4, 2, 8, 0, 4, 32, max_decode_len=0)


class TestClusterEngine:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterEngine(0)
        with pytest.raises(ValueError):
            ClusterEngine(2, arrivals_per_step=0)
        with pytest.raises(TypeError):
            # One pre-built factory would share a KV pool across replicas.
            ClusterEngine(2, cache=resolve("cache", "paged"))
        with pytest.raises(ValueError):
            ClusterEngine(2, cache=[resolve("cache", "paged")])
        with pytest.raises(ValueError):
            ClusterEngine(2).fail_replica(5)
        with pytest.raises(ValueError):
            ClusterEngine(2).fail_replica(0, at_step=-1)

    def test_empty_and_duplicate_requests_raise(self, lm, trace):
        cluster = ClusterEngine(2)
        with pytest.raises(ValueError):
            cluster.run(lm, [])
        with pytest.raises(ValueError):
            cluster.run(lm, [trace[0], trace[0]])

    def test_token_identity_vs_per_replica_partition(self, lm, trace):
        cluster = ClusterEngine(3, router="round-robin", max_concurrency=2,
                                seed=0)
        report = cluster.run(lm, trace)
        assert report.completed_fraction == 1.0
        assert report.n_requests == len(trace)
        assert set(report.assignments) == {r.request_id for r in trace}
        cluster_tokens = {r.request.request_id: r.generated_tokens
                          for r in report.results}
        # Serve each replica's partition on a standalone single engine: the
        # outputs must be token-identical (routing never changes tokens).
        for replica in range(3):
            partition = [r for r in trace
                         if report.assignments[r.request_id] == replica]
            assert partition  # round-robin touched every replica
            single = ServingEngine(max_concurrency=2).run_functional(
                lm, partition, seed=0)
            for result in single.results:
                assert (result.generated_tokens
                        == cluster_tokens[result.request.request_id])

    def test_routers_agree_on_tokens(self, lm, trace):
        baseline = None
        for router in ("round-robin", "least-loaded",
                       "radix-affinity:threshold=4"):
            report = ClusterEngine(2, router=router, max_concurrency=2,
                                   seed=0).run(lm, trace)
            tokens = {r.request.request_id: r.generated_tokens
                      for r in report.results}
            if baseline is None:
                baseline = tokens
            assert tokens == baseline, router

    def test_affinity_reuses_prefixes_across_replicas(self, lm):
        requests = zipf_shared_prefix_requests(
            n_requests=16, n_templates=4, prefix_len=32, suffix_len=4,
            decode_len=4, vocab_size=48, alpha=1.2, seed=3)
        affinity = ClusterEngine(
            2, router="radix-affinity:threshold=16", max_concurrency=2,
            cache="paged:page_tokens=16", prefix_cache=True, seed=0,
        ).run(lm, requests)
        robin = ClusterEngine(
            2, router="round-robin", max_concurrency=2,
            cache="paged:page_tokens=16", prefix_cache=True, seed=0,
        ).run(lm, requests)
        assert affinity.reused_prefix_tokens > robin.reused_prefix_tokens
        # Same template -> same replica under affinity routing.
        by_template: dict[str, set[int]] = {}
        for request in requests:
            template = request.request_id.split("r")[0]
            by_template.setdefault(template, set()).add(
                affinity.assignments[request.request_id])
        assert all(len(replicas) == 1 for replicas in by_template.values())

    def test_failure_completes_all_requests_token_identically(self, lm, trace):
        factories = [resolve("cache", "paged:page_tokens=16")
                     for _ in range(3)]
        cluster = ClusterEngine(3, router="round-robin", max_concurrency=2,
                                cache=factories, seed=0)
        cluster.fail_replica(1, at_step=2)
        report = cluster.run(lm, trace)
        assert report.completed_fraction == 1.0
        assert report.failed_replicas == [1]
        assert report.n_requeued > 0
        # Every request routed to replica 1 was drained and now reports a
        # surviving replica as its final assignment.
        assert all(replica != 1 for replica in report.assignments.values())
        healthy = ClusterEngine(3, router="round-robin", max_concurrency=2,
                                seed=0).run(lm, trace)
        assert ({r.request.request_id: r.generated_tokens
                 for r in report.results}
                == {r.request.request_id: r.generated_tokens
                    for r in healthy.results})
        # Accounting is clean on every replica, dead one included.
        for factory in factories:
            factory.check_accounting()
            assert factory.referenced_pages == 0

    def test_failure_before_any_step_reroutes_everything(self, lm, trace):
        cluster = ClusterEngine(2, router="round-robin", max_concurrency=2,
                                seed=0)
        cluster.fail_replica(0, at_step=0)
        report = cluster.run(lm, trace)
        assert report.completed_fraction == 1.0
        assert set(report.assignments.values()) == {1}

    def test_all_replicas_failed_raises(self, lm, trace):
        cluster = ClusterEngine(2)
        cluster.fail_replica(0, at_step=0)
        cluster.fail_replica(1, at_step=0)
        with pytest.raises(RuntimeError, match="every replica has failed"):
            cluster.run(lm, trace)

    def test_rejoined_replica_counts_once_in_balance(self, lm):
        # A crashed-then-rejoined replica has two reports (pre-crash and its
        # fresh session's); balance is per replica, not per report.
        rng = np.random.default_rng(11)
        requests = [_request(f"r{i}", rng.integers(0, 48, size=12).tolist(),
                             decode_len=12, arrival=i * 0.01) for i in range(12)]
        report = ClusterEngine(
            2, max_concurrency=2, seed=0, arrivals_per_step=1,
            faults="replica-crash:replica=0,at=6,recover_after=3").run(lm, requests)
        assert report.recovered_replicas == [0]
        assert [r.total_decode_tokens for r in report.replica_reports] == [0, 24, 120]
        assert report.per_replica_decode_tokens == [24, 120]
        assert report.load_imbalance == pytest.approx(120 / 72)

    def test_report_aggregates(self, lm, trace):
        report = ClusterEngine(2, max_concurrency=2, seed=0).run(lm, trace)
        assert report.cluster_steps > 0
        assert report.parallel_wall_s > 0
        assert report.parallel_wall_s <= report.wall_s
        assert report.total_decode_tokens == sum(r.decode_len for r in trace)
        assert report.decode_tokens_per_s > 0
        assert report.load_imbalance >= 1.0
        assert len(report.per_replica_decode_tokens) == 2
        assert report.mean_ttft_s > 0
        assert (report.ttft_percentile_s(50) <= report.ttft_percentile_s(99))
        summary = report.summary()
        assert "2 replicas" in summary and "round-robin" in summary

    def test_arrivals_per_step_throttles_routing(self, lm, trace):
        open_loop = ClusterEngine(2, max_concurrency=2, seed=0,
                                  arrivals_per_step=1).run(lm, trace)
        closed_loop = ClusterEngine(2, max_concurrency=2, seed=0).run(lm, trace)
        assert ({r.request.request_id: r.generated_tokens
                 for r in open_loop.results}
                == {r.request.request_id: r.generated_tokens
                    for r in closed_loop.results})

    def test_least_loaded_balances_skewed_decode_lengths(self, lm):
        # One giant request plus many small ones: round-robin parks half the
        # small requests behind the giant; least-loaded spreads them out.
        rng = np.random.default_rng(4)
        requests = [_request("big", rng.integers(0, 48, size=8).tolist(),
                             decode_len=64, arrival=0.0)]
        requests += [_request(f"s{i}", rng.integers(0, 48, size=8).tolist(),
                              decode_len=2, arrival=0.001 * (i + 1))
                     for i in range(9)]
        robin = ClusterEngine(2, router="round-robin", max_concurrency=1,
                              seed=0).run(lm, requests)
        loaded = ClusterEngine(2, router="least-loaded", max_concurrency=1,
                               seed=0, arrivals_per_step=1).run(lm, requests)
        assert loaded.cluster_steps < robin.cluster_steps
        assert loaded.load_imbalance < robin.load_imbalance
