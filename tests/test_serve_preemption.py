"""Preemption, cancellation and streaming tests for the layered serving core.

The headline acceptance: with a bounded KV pool at 2x oversubscription the
engine completes every ``bursty_requests()`` request via
eviction-and-recompute, token-identical to the unconstrained run, with
``KVPagePool.check_accounting`` passing after every step.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.kv_pool import KVPagePool
from repro.registry import resolve
from repro.serve import Request, ServingEngine
from repro.workloads import bursty_requests, tiered_requests


@pytest.fixture(scope="module")
def lm():
    from repro.llm.config import tiny_config
    from repro.llm.model import DecoderLM

    return DecoderLM(tiny_config("preempt-tiny", n_layers=2, d_model=32, n_heads=4,
                                 d_ff=64, vocab_size=48, max_seq_len=512), seed=7)


@pytest.fixture(scope="module")
def bursty():
    # 2 bursts of 6 requests, ~24+12=36 peak tokens each.  With concurrency 6
    # the steady-state demand is ~6*36=216 tokens per layer; the bounded
    # fixtures below provide about half that (2x oversubscription).
    return bursty_requests(n_bursts=2, burst_size=6, prompt_len=24, decode_len=12,
                           vocab_size=48, length_jitter=0.25, seed=1)


def _bounded_factory(page_tokens: int = 8, initial_pages: int = 16):
    """~page_tokens*initial_pages tokens per layer, hard bounded."""
    return resolve("cache", f"paged:page_tokens={page_tokens},"
                            f"initial_pages={initial_pages},grow=false")


class TestPreemptionRoundTrip:
    def test_bursty_completes_under_2x_oversubscription(self, lm, bursty):
        engine = ServingEngine(max_concurrency=6)
        baseline = engine.run_functional(lm, bursty, cache="paged:page_tokens=8")
        factory = _bounded_factory()
        checked = []
        session = engine.start_functional(lm, cache=factory)
        session.submit(bursty)
        while session.step():
            factory.check_accounting()
            checked.append(session.report.n_steps)
        report = session.finish()
        assert report.n_requests == len(bursty)
        assert all(r.status == "finished" for r in report.results)
        assert report.n_preemptions > 0  # the pool really was oversubscribed
        assert checked  # accounting held after every step
        # Preempt -> recompute -> token-identical final output.
        assert [r.generated_tokens for r in report.results] == [
            r.generated_tokens for r in baseline.results]
        # Per-request preemption counts surface in the results.
        assert sum(r.n_preemptions for r in report.results) == report.n_preemptions
        factory.check_accounting()
        assert factory.referenced_pages == 0

    def test_preemption_with_prefix_cache_pages_flow(self, lm, bursty):
        """With prefix_cache=True pages are physically allocated (radix
        snapshots force flushes), so the bounded pool is exercised for real."""
        engine = ServingEngine(max_concurrency=6)
        baseline = engine.run_functional(lm, bursty, cache="full")
        factory = _bounded_factory()
        session = engine.start_functional(lm, cache=factory, prefix_cache=True)
        session.submit(bursty)
        while session.step():
            factory.check_accounting()
        report = session.finish()
        assert [r.generated_tokens for r in report.results] == [
            r.generated_tokens for r in baseline.results]
        assert all(pool.n_pages == 16 for pool in factory.pools)  # never grew
        factory.check_accounting()
        assert factory.referenced_pages == 0

    def test_preemption_composes_with_chunked_prefill_and_speculation(self, lm, bursty):
        engine = ServingEngine(max_concurrency=6)
        baseline = engine.run_functional(lm, bursty, cache="full")
        factory = _bounded_factory()
        report = engine.run_functional(lm, bursty, cache=factory, prefix_cache=True,
                                       token_budget=16, drafter="ngram:k=4")
        assert [r.generated_tokens for r in report.results] == [
            r.generated_tokens for r in baseline.results]
        factory.check_accounting()
        assert factory.referenced_pages == 0

    def test_pool_sizes_all_complete_token_identically(self, lm, bursty):
        """Any bounded pool that fits one request must finish the whole trace
        (preemption counts vary non-monotonically: a tighter pool admits
        fewer sequences up front, trading admission delay for evictions)."""
        engine = ServingEngine(max_concurrency=6)
        roomy = engine.run_functional(lm, bursty, cache=_bounded_factory(8, 24))
        tight = engine.run_functional(lm, bursty, cache=_bounded_factory(8, 12))
        assert tight.n_preemptions > 0 and roomy.n_preemptions > 0
        assert [r.generated_tokens for r in tight.results] == [
            r.generated_tokens for r in roomy.results]

    def test_preemption_policy_determinism(self, lm, bursty):
        engine = ServingEngine(max_concurrency=6)
        first = engine.run_functional(lm, bursty, cache=_bounded_factory())
        second = engine.run_functional(lm, bursty, cache=_bounded_factory())
        assert first.n_preemptions == second.n_preemptions
        assert [r.generated_tokens for r in first.results] == [
            r.generated_tokens for r in second.results]
        assert [r.first_token_step for r in first.results] == [
            r.first_token_step for r in second.results]

    def test_capacity_tokens_override_without_paged_cache(self, lm):
        """Logical capacity gating via capacity_tokens on a growable pool,
        whose own capacity is unbounded (one-token pages keep the
        reservations token-exact)."""
        requests = [Request(f"r{i}", i * 0.1, 16, 8,
                            prompt_tokens=tuple(range(1, 17)))
                    for i in range(4)]
        engine = ServingEngine(max_concurrency=4)
        baseline = engine.run_functional(lm, requests, cache="full")
        # 40 tokens fit two 17-token admissions but not both sequences'
        # growth to their 24-token peak: mid-decode preemption must kick in.
        report = engine.run_functional(lm, requests, cache="paged:page_tokens=1",
                                       capacity_tokens=40)
        assert report.n_preemptions > 0
        assert [r.generated_tokens for r in report.results] == [
            r.generated_tokens for r in baseline.results]

    def test_single_request_exceeding_capacity_raises(self, lm):
        engine = ServingEngine(max_concurrency=2)
        request = Request("big", 0.0, 16, 16, prompt_tokens=tuple(range(1, 17)))
        with pytest.raises(RuntimeError):
            engine.run_functional(lm, [request], cache="full", capacity_tokens=8)

    def test_oversized_request_raises_in_chunked_mode_too(self, lm):
        """Regression: with token_budget set the old fallback self-preempted
        the lone over-capacity sequence forever instead of raising."""
        engine = ServingEngine(max_concurrency=2)
        request = Request("big", 0.0, 16, 16, prompt_tokens=tuple(range(1, 17)))
        with pytest.raises(RuntimeError):
            engine.run_functional(lm, [request], cache="full", capacity_tokens=8,
                                  token_budget=4)

    def test_disjoint_unaligned_snapshots_never_exhaust_bounded_pool(self, lm):
        """Regression: snapshots of unaligned disjoint prompts hold their
        partial tail page in full; accounting them at raw depth let the
        physical pool fill and raise PoolExhausted mid-run."""
        requests = [Request(f"r{i}", i * 0.01, 17, 4,
                            prompt_tokens=tuple((i * 17 + j) % 48
                                                for j in range(17)))
                    for i in range(16)]
        engine = ServingEngine(max_concurrency=4)
        baseline = engine.run_functional(lm, requests, cache="full")
        factory = _bounded_factory(16, 20)
        report = engine.run_functional(lm, requests, cache=factory,
                                       prefix_cache=True)
        assert all(r.status == "finished" for r in report.results)
        assert [r.generated_tokens for r in report.results] == [
            r.generated_tokens for r in baseline.results]
        factory.check_accounting()
        assert factory.referenced_pages == 0

    def test_radix_entry_evicted_under_pressure_is_still_forkable(self, lm):
        """Regression: reserve() during cache resolution could LRU-evict the
        very radix entry just matched; forking must happen first."""
        prompt = tuple(range(1, 17))
        requests = [Request(f"r{i}", i * 0.01, 16, 6, prompt_tokens=prompt)
                    for i in range(6)]
        engine = ServingEngine(max_concurrency=3)
        baseline = engine.run_functional(lm, requests, cache="full")
        factory = _bounded_factory(4, 10)
        report = engine.run_functional(lm, requests, cache=factory,
                                       prefix_cache=True, token_budget=4)
        assert [r.generated_tokens for r in report.results] == [
            r.generated_tokens for r in baseline.results]
        factory.check_accounting()
        assert factory.referenced_pages == 0

    def test_priority_policy_shields_top_tier_under_pressure(self, lm):
        tiered = tiered_requests(n_requests=9, levels=3, prompt_len=16,
                                 decode_len=8, vocab_size=48, seed=5)
        engine = ServingEngine(max_concurrency=3)
        factory = _bounded_factory(8, 12)
        report = engine.run_functional(lm, tiered, cache=factory,
                                       policy="priority:levels=3")
        assert all(r.status == "finished" for r in report.results)
        steps = {level: [r.first_token_step for r in report.results
                         if r.request.priority == level]
                 for level in (0, 2)}
        assert max(steps[0]) <= min(steps[2])
        # Top-tier requests are never the preferred victims.
        tier0 = [r for r in report.results if r.request.priority == 0]
        tier2 = [r for r in report.results if r.request.priority == 2]
        assert (sum(r.n_preemptions for r in tier0)
                <= sum(r.n_preemptions for r in tier2))

    @pytest.mark.parametrize("token_budget", [None, 8], ids=["whole", "chunked"])
    @pytest.mark.parametrize("prompt_len", [31, 32, 33])
    def test_prefill_keeps_its_decode_slot_reserved(self, lm, prompt_len, token_budget):
        """A prefill that completes on a page boundary decodes its next token
        in the same step, into a page of its own: the reservation must cover
        it, so ``used_tokens`` never under-counts what the pool holds."""
        requests = [Request(f"r{i}", i * 1e-6, prompt_len, 4,
                            prompt_tokens=tuple((7 * i + t) % 48 for t in range(prompt_len)))
                    for i in range(2)]
        engine = ServingEngine(max_concurrency=2)
        session = engine.start_functional(lm, cache="paged:page_tokens=16",
                                          capacity_tokens=1024,
                                          token_budget=token_budget)
        session.submit(requests)
        while session.has_work():
            session.step()
            running = list(session.scheduler.running.values())
            for state in running:
                assert state.reserved_tokens >= state.cached_tokens, (
                    state.request_id, state.cached_tokens, state.reserved_tokens)
            assert session.kv.used_tokens == sum(s.reserved_tokens for s in running)
        assert all(r.status == "finished" for r in session.finish().results)


class TestCancellation:
    def test_cancel_mid_decode_releases_all_pages(self, lm):
        requests = [Request(f"r{i}", i * 0.01, 20, 10,
                            prompt_tokens=tuple(range(i + 1, i + 21)))
                    for i in range(4)]
        engine = ServingEngine(max_concurrency=4)
        factory = resolve("cache", "paged:page_tokens=8")

        def on_token(event):
            if event.request_id == "r2" and event.index >= 2:
                engine.cancel("r2")

        report = engine.run_functional(lm, requests, cache=factory,
                                       prefix_cache=True, on_token=on_token)
        cancelled = next(r for r in report.results if r.request.request_id == "r2")
        assert cancelled.cancelled and cancelled.status == "cancelled"
        assert 3 <= len(cancelled.generated_tokens) < 10
        others = [r for r in report.results if r.request.request_id != "r2"]
        assert all(r.status == "finished" and len(r.generated_tokens) == 10
                   for r in others)
        assert report.n_cancelled == 1
        # Every page went back to the pool (radix cleared, caches released).
        factory.check_accounting()
        assert factory.referenced_pages == 0

    def test_should_cancel_callback_cancels_waiting_request(self, lm):
        requests = [Request(f"r{i}", 0.0, 12, 6,
                            prompt_tokens=tuple(range(1, 13)))
                    for i in range(3)]
        session = ServingEngine(max_concurrency=1).start_functional(lm)
        session.submit(requests)
        session.cancel("r2")
        while session.step():
            pass
        report = session.finish()
        cancelled = next(r for r in report.results if r.request.request_id == "r2")
        assert cancelled.cancelled
        assert cancelled.generated_tokens == []
        assert cancelled.admitted_step == -1  # never admitted
        assert cancelled.first_token_step == -1

    def test_ttft_metrics_exclude_tokenless_cancellations(self, lm):
        """A request cancelled before its first token has no TTFT sample;
        it must not drag mean/percentile TTFT toward zero."""
        requests = [Request(f"r{i}", 0.0, 12, 6,
                            prompt_tokens=tuple(range(1, 13)))
                    for i in range(3)]
        engine = ServingEngine(max_concurrency=1)
        session = engine.start_functional(lm)
        session.submit(requests)
        engine.cancel("r2")
        while session.step():
            pass
        report = session.finish()
        served = [r.ttft_s for r in report.results if r.first_token_step >= 0]
        assert report.mean_ttft_s == pytest.approx(
            sum(served) / len(served))
        assert report.ttft_percentile_s(0) > 0.0  # min over served requests

    def test_engine_cancel_before_a_session_is_dropped(self, lm):
        requests = [Request("a", 0.0, 8, 4, prompt_tokens=tuple(range(1, 9)))]
        engine = ServingEngine(max_concurrency=1)
        engine.cancel("a")
        assert engine.load_snapshot().n_live == 0
        report = engine.run_functional(lm, requests)
        assert report.results[0].status == "finished"

    def test_cancel_everything_terminates(self, lm):
        requests = [Request("a", 0.0, 8, 4, prompt_tokens=tuple(range(1, 9)))]
        session = ServingEngine(max_concurrency=1).start_functional(lm)
        session.submit(requests)
        for request in requests:
            session.cancel(request.request_id)
        while session.step():
            pass
        report = session.finish()
        assert report.n_requests == 1
        assert report.results[0].cancelled

    def test_summary_reports_scheduling_line(self, lm, bursty):
        engine = ServingEngine(max_concurrency=6)
        report = engine.run_functional(lm, bursty, cache=_bounded_factory())
        text = report.summary()
        assert "preemptions" in text
        assert "policy fcfs" in text


class TestStreaming:
    def test_on_token_streams_every_token_in_order(self, lm):
        requests = [Request(f"r{i}", i * 0.01, 10, 5,
                            prompt_tokens=tuple(range(i + 1, i + 11)))
                    for i in range(3)]
        engine = ServingEngine(max_concurrency=2)
        events: list = []
        report = engine.run_functional(lm, requests, on_token=events.append)
        streamed: dict[str, list[int]] = {}
        for event in events:
            streamed.setdefault(event.request_id, []).append(event.token)
            assert event.index == len(streamed[event.request_id]) - 1
        for result in report.results:
            assert streamed[result.request.request_id] == result.generated_tokens
        finals = [e for e in events if e.finished]
        assert len(finals) == len(requests)

    def test_token_event_fields(self, lm):
        """Every field of every event, for a plain and a speculative run of
        two requests admitted together (a prefill's first token and the
        same-step decode both carry step 0)."""
        from repro.serve import TokenEvent

        assert TokenEvent._fields == ("request_id", "token", "index", "step", "finished")
        prompt = (1, 2, 3, 4) * 3
        requests = [Request(f"r{i}", i * 0.01, 12, 6, prompt_tokens=prompt[i:] + prompt[:i])
                    for i in range(2)]
        runs = {}
        for drafter in (None, "ngram:k=4"):
            events: list = []
            report = ServingEngine(max_concurrency=2).run_functional(
                lm, requests, drafter=drafter, on_token=events.append)
            runs[drafter] = events, {r.request.request_id: r.generated_tokens
                                     for r in report.results}
        events, tokens = runs[None]
        assert events == [
            (rid, tokens[rid][index], index, max(index - 1, 0), index == 5)
            for index in range(6) for rid in ("r0", "r1")]
        with pytest.raises(AttributeError):
            events[0].token = 0
        spec_events, spec_tokens = runs["ngram:k=4"]
        assert spec_tokens == tokens
        for rid in ("r0", "r1"):
            mine = [e for e in spec_events if e.request_id == rid]
            assert [(e.token, e.index, e.finished) for e in mine] == [
                (tokens[rid][i], i, i == 5) for i in range(6)]
            steps = [e.step for e in mine]
            assert steps[:2] == [0, 0] and steps == sorted(steps)
        assert spec_events[-1].step < events[-1].step  # drafts were accepted

    def test_generate_on_token_hook(self, lm):
        from repro.llm.generation import generate

        tokens: list[tuple[int, int]] = []
        result = generate(lm, list(range(1, 9)), 6,
                          on_token=lambda tok, idx: tokens.append((tok, idx)))
        assert [t for t, _ in tokens] == result.generated_tokens
        assert [i for _, i in tokens] == list(range(len(result.generated_tokens)))

    def test_generate_batch_on_token_hook(self, lm):
        from repro.llm.generation import generate_batch

        prompts = [list(range(1, 9)), list(range(3, 15))]
        seen: dict[int, list[int]] = {0: [], 1: []}
        results = generate_batch(lm, prompts, 5,
                                 on_token=lambda b, tok, idx: seen[b].append(tok))
        for b, result in enumerate(results):
            assert seen[b] == result.generated_tokens

    def test_speculative_generate_streams_identically(self, lm):
        from repro.llm.generation import generate

        prompt = [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]
        plain: list[int] = []
        spec: list[int] = []
        generate(lm, prompt, 8, on_token=lambda tok, idx: plain.append(tok))
        generate(lm, prompt, 8, drafter="ngram:k=4",
                 on_token=lambda tok, idx: spec.append(tok))
        assert plain == spec


class TestWorkloadGenerators:
    def test_bursty_requests_deterministic_and_bursty(self):
        first = bursty_requests(n_bursts=3, burst_size=4, prompt_len=16,
                                decode_len=8, vocab_size=32, seed=2)
        second = bursty_requests(n_bursts=3, burst_size=4, prompt_len=16,
                                 decode_len=8, vocab_size=32, seed=2)
        assert first == second
        assert len(first) == 12
        for request in first:
            assert request.prompt_tokens is not None
            assert len(request.prompt_tokens) == request.prompt_len
        # Bursts are separated by the gap: intra-burst spacing is tiny.
        burst0 = [r.arrival_time_s for r in first if r.request_id.startswith("b0")]
        burst1 = [r.arrival_time_s for r in first if r.request_id.startswith("b1")]
        assert max(burst0) - min(burst0) < 1.0
        assert min(burst1) - max(burst0) > 1.0

    def test_bursty_requests_validation(self):
        with pytest.raises(ValueError):
            bursty_requests(n_bursts=0, burst_size=4, prompt_len=16,
                            decode_len=8, vocab_size=32)
        with pytest.raises(ValueError):
            bursty_requests(n_bursts=1, burst_size=1, prompt_len=16,
                            decode_len=8, vocab_size=32, length_jitter=1.5)

    def test_tiered_requests_cycle_priorities(self):
        requests = tiered_requests(n_requests=9, levels=3, prompt_len=8,
                                   decode_len=4, vocab_size=32, seed=4)
        assert [r.priority for r in requests] == [0, 1, 2] * 3
        assert all(r.prompt_tokens is not None for r in requests)
        arrivals = [r.arrival_time_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert requests == tiered_requests(n_requests=9, levels=3, prompt_len=8,
                                           decode_len=4, vocab_size=32, seed=4)

    def test_tiered_requests_validation(self):
        with pytest.raises(ValueError):
            tiered_requests(n_requests=0)
        with pytest.raises(ValueError):
            tiered_requests(n_requests=4, levels=0)


class TestSessionLifetime:
    def test_dropped_engine_and_session_free_without_gc(self, lm, bursty):
        """No reference cycle joins an engine, its session and the session's
        KV manager: dropping the engine and the session frees both by
        reference counting alone."""
        gc.collect()
        gc.disable()
        try:
            engine = ServingEngine(max_concurrency=6)
            session = engine.start_functional(lm, cache=_bounded_factory())
            session.submit(bursty[:4])
            while session.step():
                pass
            report = session.finish()
            refs = weakref.ref(session), weakref.ref(session.kv)
            del engine, session
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
        assert all(r.status == "finished" for r in report.results)

    def test_finished_session_leaves_no_pool_behind(self, lm, bursty):
        """The model a session served keeps nothing of it: once the finished
        session is dropped, none of its KV pools — nor their decode slabs —
        is reachable, though the model lives on for the next run."""
        def live_pools():
            return {id(obj) for obj in gc.get_objects() if isinstance(obj, KVPagePool)}

        session = ServingEngine(max_concurrency=6).start_functional(lm, cache="paged")
        session.submit(bursty[:6])
        while session.step():
            pass
        report = session.finish()
        pools = session.kv.cache_factory.pools
        ids = {id(pool) for pool in pools}
        slabs = [weakref.ref(pool.slab_keys) for pool in pools]
        assert ids <= live_pools() and all(slab() is not None for slab in slabs)
        del session, pools
        gc.collect()
        assert not ids & live_pools(), "a finished session's pool is still reachable"
        assert all(slab() is None for slab in slabs)
        assert all(r.status == "finished" for r in report.results)
