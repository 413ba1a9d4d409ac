"""ServingEngine tests: continuous-batching admission and per-request accounting.

The headline acceptance criterion: a >=8-request mixed-arrival trace must
produce per-request latency/energy totals that match the sum of the
equivalent single-request :meth:`EdgeSystem.simulate` calls within 5%.
"""

from __future__ import annotations

import pytest

from repro import Request, ServingEngine, resolve, simulate
from repro.serve import poisson_requests

#: A mixed-arrival, mixed-length trace of 9 requests (arrival s, prompt, decode).
MIXED_TRACE = [
    Request("a", 0.0, 128, 512),
    Request("b", 0.5, 512, 2048),
    Request("c", 1.0, 1024, 512),
    Request("d", 5.0, 512, 1024),
    Request("e", 5.0, 128, 128),
    Request("f", 30.0, 2048, 256),
    Request("g", 31.0, 512, 512),
    Request("h", 200.0, 128, 2048),
    Request("i", 201.0, 256, 256),
]


@pytest.fixture(scope="module")
def engine() -> ServingEngine:
    return ServingEngine("kelle+edram:kv_budget=1024", "llama2-7b", max_concurrency=3)


@pytest.fixture(scope="module")
def report(engine):
    return engine.run(MIXED_TRACE)


class TestAccountingMatchesSingleRequestSims:
    def test_per_request_latency_within_5_percent(self, engine, report):
        assert report.n_requests >= 8
        for result in report.results:
            reference = engine.system.simulate(engine.model, result.request.trace())
            assert result.service_latency_s == pytest.approx(reference.total_latency_s, rel=0.05)
            assert result.prefill_latency_s == pytest.approx(reference.prefill.latency_s, rel=0.05)
            assert result.decode_latency_s == pytest.approx(reference.decode.latency_s, rel=0.05)

    def test_per_request_energy_within_5_percent(self, engine, report):
        for result in report.results:
            reference = engine.system.simulate(engine.model, result.request.trace())
            assert result.energy_j == pytest.approx(reference.total_energy_j, rel=0.05)

    def test_totals_within_5_percent(self, engine, report):
        ref_latency = ref_energy = 0.0
        for request in MIXED_TRACE:
            reference = engine.system.simulate(engine.model, request.trace())
            ref_latency += reference.total_latency_s
            ref_energy += reference.total_energy_j
        assert sum(r.service_latency_s for r in report.results) == pytest.approx(ref_latency,
                                                                                 rel=0.05)
        assert report.total_energy_j == pytest.approx(ref_energy, rel=0.05)


class TestAdmission:
    def test_respects_arrival_times_and_capacity(self, report):
        for result in report.results:
            assert result.admitted_at_s >= result.request.arrival_time_s
            assert result.finished_at_s > result.admitted_at_s
        assert report.peak_concurrency <= 3

    def test_single_slot_serialises(self):
        engine = ServingEngine("kelle+edram", "llama2-7b", max_concurrency=1)
        report = engine.run(MIXED_TRACE[:4])
        ordered = sorted(report.results, key=lambda r: r.admitted_at_s)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.admitted_at_s >= earlier.finished_at_s - 1e-9
        assert report.peak_concurrency == 1

    def test_unbounded_capacity_has_no_queueing(self):
        engine = ServingEngine("kelle+edram", "llama2-7b", max_concurrency=len(MIXED_TRACE))
        report = engine.run(MIXED_TRACE)
        for result in report.results:
            assert result.queue_delay_s == pytest.approx(0.0, abs=1e-12)

    def test_tighter_capacity_increases_queueing(self):
        tight = ServingEngine("kelle+edram", "llama2-7b", max_concurrency=1).run(MIXED_TRACE)
        loose = ServingEngine("kelle+edram", "llama2-7b", max_concurrency=8).run(MIXED_TRACE)
        assert tight.mean_queue_delay_s > loose.mean_queue_delay_s
        assert tight.makespan_s >= loose.makespan_s


class TestReport:
    def test_aggregates(self, report):
        assert report.total_tokens == sum(r.decode_len for r in MIXED_TRACE)
        assert report.throughput_tokens_per_s > 0
        assert report.makespan_s > 0
        assert report.latency_percentile_s(50) <= report.latency_percentile_s(95)
        assert report.energy.total == pytest.approx(report.total_energy_j)

    def test_summary_mentions_key_facts(self, report):
        text = report.summary()
        assert "9 requests" in text
        assert "kelle+edram" in text
        assert "llama2-7b" in text


class TestValidation:
    def test_empty_run_raises(self, engine):
        with pytest.raises(ValueError):
            engine.run([])

    def test_duplicate_request_ids_raise(self, engine):
        with pytest.raises(ValueError):
            engine.run([Request("x", 0.0, 128, 128), Request("x", 1.0, 128, 128)])

    def test_bad_request_fields_raise(self):
        with pytest.raises(ValueError):
            Request("x", -1.0, 128, 128)
        with pytest.raises(ValueError):
            Request("x", 0.0, 0, 128)
        with pytest.raises(ValueError):
            Request("x", 0.0, 128, 0)

    def test_bad_concurrency_raises(self):
        with pytest.raises(ValueError):
            ServingEngine(max_concurrency=0)


class TestHelpers:
    def test_poisson_requests_deterministic_and_bounded(self):
        first = poisson_requests(16, rate_rps=0.1, prompt_len=256, decode_len=512,
                                 length_jitter=0.5, seed=7)
        second = poisson_requests(16, rate_rps=0.1, prompt_len=256, decode_len=512,
                                  length_jitter=0.5, seed=7)
        assert first == second
        assert all(r.arrival_time_s >= 0 for r in first)
        arrivals = [r.arrival_time_s for r in first]
        assert arrivals == sorted(arrivals)
        for request in first:
            assert 128 <= request.prompt_len <= 384
            assert 256 <= request.decode_len <= 768

    def test_simulate_helper_matches_manual_composition(self):
        spec_result = simulate("original+sram", "llama2-7b", "lambada:batch=1")
        system = resolve("system", "original+sram")
        manual = system.simulate(resolve("model", "llama2-7b"),
                                 resolve("trace", "lambada:batch=1"))
        assert spec_result.total_latency_s == pytest.approx(manual.total_latency_s)
        assert spec_result.total_energy_j == pytest.approx(manual.total_energy_j)


class TestFunctionalServing:
    @pytest.fixture(scope="class")
    def lm(self):
        from repro.llm.config import tiny_config
        from repro.llm.model import DecoderLM

        return DecoderLM(tiny_config("serve-tiny", n_layers=2, d_model=32, n_heads=4,
                                     d_ff=64, vocab_size=32, max_seq_len=256), seed=7)

    def test_functional_run_decodes_every_request(self, lm):
        engine = ServingEngine(max_concurrency=3)
        requests = poisson_requests(7, rate_rps=2.0, prompt_len=20, decode_len=10,
                                    length_jitter=0.4, seed=2)
        report = engine.run_functional(lm, requests,
                                       cache="h2o:budget=16,sink_tokens=2,recent_window=4")
        assert report.n_requests == 7
        for result in report.results:
            assert len(result.prompt_tokens) == result.request.prompt_len
            assert result.tokens_generated == result.request.decode_len
            assert all(0 <= t < lm.config.vocab_size for t in result.generated_tokens)
            assert result.admitted_step <= result.finished_step
        assert report.peak_batch <= 3
        assert report.total_decode_tokens == sum(r.decode_len for r in requests)
        assert report.decode_tokens_per_s > 0
        assert "requests" in report.summary()

    def test_functional_run_is_deterministic(self, lm):
        engine = ServingEngine(max_concurrency=2)
        requests = poisson_requests(4, rate_rps=1.0, prompt_len=16, decode_len=6, seed=3)
        first = engine.run_functional(lm, requests, seed=5)
        second = engine.run_functional(lm, requests, seed=5)
        assert [r.generated_tokens for r in first.results] == [
            r.generated_tokens for r in second.results]

    def test_functional_run_matches_unbatched_generation(self, lm):
        """With concurrency 1 the engine reduces to plain greedy generation."""
        from repro.llm.generation import generate

        engine = ServingEngine(max_concurrency=1)
        requests = poisson_requests(3, rate_rps=1.0, prompt_len=18, decode_len=8, seed=4)
        report = engine.run_functional(lm, requests, seed=9)
        for result in report.results:
            reference = generate(lm, result.prompt_tokens, result.request.decode_len)
            assert result.generated_tokens == reference.generated_tokens

    def test_functional_run_validates_inputs(self, lm):
        engine = ServingEngine(max_concurrency=2)
        with pytest.raises(ValueError):
            engine.run_functional(lm, [])
        with pytest.raises(ValueError):
            engine.run_functional(lm, [Request("big", 0.0, 400, 100)])
        with pytest.raises(ValueError):
            engine.run_functional(lm, [Request("x", 0.0, 8, 4)], token_budget=0)

    @pytest.mark.parametrize("spec", [
        "kelle:budget=16,sink_tokens=2,recent_window=4,refresh=none",
        "h2o:budget=16,sink_tokens=2,recent_window=4",
    ])
    def test_eviction_caches_decode_through_stacked_attention(self, lm, spec, monkeypatch,
                                                              aerp_group_steps):
        """Prompts over and under the budget share decode steps: the rows at
        the budget are attended as one stacked group, the others per row, and
        every request still ends finished with its isolated-generate tokens."""
        from repro.llm.generation import generate

        group_sizes = []
        attend = lm._attend

        def spy(query, rows, keys, *args, **kwargs):
            group_sizes.append(len(keys))
            return attend(query, rows, keys, *args, **kwargs)

        monkeypatch.setattr(lm, "_attend", spy)
        if spec.startswith("kelle"):  # stacked by the arena: one append + fetch per group
            group_sizes = aerp_group_steps
        requests = [Request(f"r{i}", 0.0, prompt_len, decode_len)
                    for i, (prompt_len, decode_len) in enumerate(
                        [(24, 10), (30, 12), (20, 10), (6, 9), (6, 14), (11, 8), (26, 4)])]
        report = ServingEngine(max_concurrency=6).run_functional(lm, requests, cache=spec,
                                                                 seed=4)
        assert (sorted(r.request.request_id for r in report.results)
                == sorted(request.request_id for request in requests))
        for result in report.results:
            assert result.status == "finished"
            reference = generate(lm, result.prompt_tokens, result.request.decode_len,
                                 cache_factory=resolve("cache", spec))
            assert list(result.generated_tokens) == reference.generated_tokens, (
                result.request.request_id)
        assert max(group_sizes) >= 3  # the over-budget rows ran stacked


#: One spec per registered cache kind, sized for the tiny serving model.
#: Prefix sharing must be output-transparent for every one of them: caches
#: with chunked-prefill support (full, paged) actually reuse prefixes, the
#: rest silently run unshared — either way the tokens must be identical to
#: the isolated per-request-cache path.
SERVE_CACHE_SPECS = [
    "full",
    "paged:page_tokens=8",
    "streaming_llm:budget=16,sink_tokens=2",
    "h2o:budget=16,sink_tokens=2,recent_window=4",
    "random:budget=16,sink_tokens=2,recent_window=4",
    "kivi:bits=8",
    "quarot:bits=8",
    "kelle:budget=16,sink_tokens=2,recent_window=4,refresh=none",
]


class TestPrefixSharingServing:
    @pytest.fixture(scope="class")
    def lm(self):
        from repro.llm.config import tiny_config
        from repro.llm.model import DecoderLM

        return DecoderLM(tiny_config("serve-prefix-tiny", n_layers=2, d_model=32,
                                     n_heads=4, d_ff=64, vocab_size=48,
                                     max_seq_len=512), seed=7)

    @pytest.fixture(scope="class")
    def shared_requests(self):
        from repro.workloads import shared_prefix_requests

        return shared_prefix_requests(n_groups=2, requests_per_group=4,
                                      prefix_len=40, suffix_len=6, decode_len=8,
                                      vocab_size=48, seed=1)

    def test_specs_cover_every_registered_cache(self):
        from repro.registry import known

        covered = {spec.split(":", 1)[0] for spec in SERVE_CACHE_SPECS}
        assert covered == set(known("cache"))

    @pytest.mark.parametrize("spec", SERVE_CACHE_SPECS)
    def test_shared_serving_token_identical_to_isolated(self, lm, shared_requests, spec):
        engine = ServingEngine(max_concurrency=3)
        isolated = engine.run_functional(lm, shared_requests, cache=spec)
        shared = engine.run_functional(lm, shared_requests, cache=spec,
                                       prefix_cache=True)
        assert [r.generated_tokens for r in shared.results] == [
            r.generated_tokens for r in isolated.results]

    @pytest.mark.parametrize("spec", ["full", "paged:page_tokens=8"])
    def test_chunk_capable_caches_actually_reuse(self, lm, shared_requests, spec):
        engine = ServingEngine(max_concurrency=3)
        report = engine.run_functional(lm, shared_requests, cache=spec,
                                       prefix_cache=True)
        assert report.reused_prefix_tokens > 0
        reusers = [r for r in report.results if r.reused_prefix_tokens > 0]
        assert len(reusers) >= len(shared_requests) - 2  # one cold miss per group
        for result in reusers:
            assert result.reused_prefix_tokens < result.request.prompt_len

    def test_non_chunkable_caches_report_no_reuse(self, lm, shared_requests):
        engine = ServingEngine(max_concurrency=3)
        report = engine.run_functional(
            lm, shared_requests, cache="h2o:budget=16,sink_tokens=2,recent_window=4",
            prefix_cache=True)
        assert report.reused_prefix_tokens == 0

    def test_chunked_prefill_scheduler_token_identical(self, lm, shared_requests):
        engine = ServingEngine(max_concurrency=3)
        isolated = engine.run_functional(lm, shared_requests, cache="full")
        for budget in (4, 16, 64):
            chunked = engine.run_functional(lm, shared_requests,
                                            cache="paged:page_tokens=8",
                                            prefix_cache=True, token_budget=budget)
            assert [r.generated_tokens for r in chunked.results] == [
                r.generated_tokens for r in isolated.results], f"budget={budget}"

    def test_chunked_prefill_bounds_prefill_work_per_step(self, lm):
        # One long-prompt request arriving into a running batch: with a small
        # token budget its prefill must be spread over many steps.
        requests = [Request("a-short", 0.0, 8, 40),
                    Request("b-long", 0.0, 200, 8)]
        engine = ServingEngine(max_concurrency=2)
        budgeted = engine.run_functional(lm, requests, cache="paged:page_tokens=8",
                                         token_budget=16)
        whole = engine.run_functional(lm, requests, cache="paged:page_tokens=8")
        long_budgeted = next(r for r in budgeted.results
                             if r.request.request_id == "b-long")
        long_whole = next(r for r in whole.results if r.request.request_id == "b-long")
        # Whole-prompt mode prefills the 200-token prompt in its admission
        # step; the budgeted run spreads it over >= 200/16 steps while the
        # short request keeps decoding, so the long request finishes later
        # in *step* terms without stalling the batch.
        assert long_budgeted.finished_step > long_whole.finished_step
        assert [r.generated_tokens for r in budgeted.results] == [
            r.generated_tokens for r in whole.results]

    def test_multi_turn_requests_reuse_history(self, lm):
        from repro.workloads import multi_turn_requests

        requests = multi_turn_requests(n_conversations=2, n_turns=3, system_len=16,
                                       user_len=6, decode_len=6, vocab_size=48,
                                       seed=3)
        engine = ServingEngine(max_concurrency=4)
        isolated = engine.run_functional(lm, requests, cache="full")
        shared = engine.run_functional(lm, requests, cache="paged:page_tokens=8",
                                       prefix_cache=True)
        assert [r.generated_tokens for r in shared.results] == [
            r.generated_tokens for r in isolated.results]
        assert shared.reused_prefix_tokens > 0

    def test_pool_accounting_balances_through_a_run(self, lm, shared_requests):
        factory = resolve("cache", "paged:page_tokens=8")
        engine = ServingEngine(max_concurrency=3)
        engine.run_functional(lm, shared_requests, cache=factory,
                              prefix_cache=True, token_budget=24)
        factory.check_accounting()
        assert factory.total_pages == factory.referenced_pages + factory.free_pages
        # The run released every sequence and cleared the radix index, so
        # every page must be back on the free list.
        assert factory.referenced_pages == 0
        assert factory.free_pages == factory.total_pages

    def test_radix_budget_limits_index_growth(self, lm, shared_requests, monkeypatch):
        from repro.serve.radix import RadixPrefixIndex

        # Observe the index budget as the engine drives it: stored tokens
        # must never exceed the budget after any insert's eviction pass.
        observed: list[int] = []
        original_insert = RadixPrefixIndex.insert

        def spying_insert(self, tokens, caches):
            stored = original_insert(self, tokens, caches)
            assert self.max_tokens == 50
            observed.append(self.stored_tokens)
            return stored

        monkeypatch.setattr(RadixPrefixIndex, "insert", spying_insert)
        factory = resolve("cache", "paged:page_tokens=8")
        engine = ServingEngine(max_concurrency=3)
        isolated = engine.run_functional(lm, shared_requests, cache="full")
        report = engine.run_functional(lm, shared_requests, cache=factory,
                                       prefix_cache=True, radix_max_tokens=50)
        factory.check_accounting()
        assert report.n_requests == len(shared_requests)
        assert observed and all(stored <= 50 for stored in observed)
        # Eviction under a tight budget must never corrupt outputs.
        assert [r.generated_tokens for r in report.results] == [
            r.generated_tokens for r in isolated.results]

    def test_ttft_and_step_latency_metrics(self, lm, shared_requests):
        engine = ServingEngine(max_concurrency=3)
        report = engine.run_functional(lm, shared_requests,
                                       cache="paged:page_tokens=8",
                                       prefix_cache=True)
        assert len(report.step_latencies_s) > 0
        assert all(r.ttft_s > 0 for r in report.results)
        assert report.mean_ttft_s > 0
        assert report.ttft_percentile_s(50) <= report.ttft_percentile_s(99)
        assert (report.step_latency_percentile_s(50)
                <= report.step_latency_percentile_s(99))
        text = report.summary()
        assert "TTFT" in text
        assert "p99" in text
        assert "step latency" in text
        assert "prefix reuse" in text

    def test_summary_percentiles_match_public_methods(self, lm, shared_requests):
        engine = ServingEngine(max_concurrency=3)
        report = engine.run_functional(lm, shared_requests, cache="full")
        # summary() derives every percentile from one sorted array; the
        # public per-percentile methods must agree with what it prints.
        text = report.summary()
        assert f"p99 {report.step_latency_percentile_s(99) * 1e3:8.2f} ms" in text
        assert f"p50 {report.ttft_percentile_s(50) * 1e3:8.2f} ms" in text

    def test_request_prompt_tokens_validation(self):
        with pytest.raises(ValueError):
            Request("x", 0.0, 4, 2, prompt_tokens=(1, 2, 3))
        request = Request("x", 0.0, 3, 2, prompt_tokens=[1, 2, 3])
        assert request.prompt_tokens == (1, 2, 3)

    def test_pinned_prompts_are_served_verbatim(self, lm):
        prompt = tuple(range(1, 13))
        request = Request("pinned", 0.0, 12, 4, prompt_tokens=prompt)
        engine = ServingEngine(max_concurrency=1)
        report = engine.run_functional(lm, [request])
        assert tuple(report.results[0].prompt_tokens) == prompt


class TestSpeculativeServing:
    """Engine-level speculative decoding: token identity, budget integration,
    acceptance metrics and pool accounting after rollback."""

    @pytest.fixture(scope="class")
    def lm(self):
        from repro.llm.config import tiny_config
        from repro.llm.model import DecoderLM

        return DecoderLM(tiny_config("serve-spec-tiny", n_layers=2, d_model=32,
                                     n_heads=4, d_ff=64, vocab_size=48,
                                     max_seq_len=1024), seed=7)

    @pytest.fixture(scope="class")
    def repetitive(self):
        from repro.workloads import repetitive_requests

        return repetitive_requests(n_requests=6, template_len=12, n_repeats=4,
                                   decode_len=10, vocab_size=48, seed=2)

    @pytest.mark.parametrize("spec", ["full", "paged:page_tokens=8"])
    @pytest.mark.parametrize("drafter", ["ngram:k=4", "draft-model:model=tiny-llama2-7b,k=2"])
    def test_speculative_serving_token_identical(self, lm, repetitive, spec, drafter):
        if drafter.startswith("draft-model"):
            from repro.llm.speculate import DraftModelDrafter

            drafter = DraftModelDrafter(lm, k=2)  # matching vocab: the target itself
        engine = ServingEngine(max_concurrency=3)
        baseline = engine.run_functional(lm, repetitive, cache=spec)
        speculative = engine.run_functional(lm, repetitive, cache=spec, drafter=drafter)
        assert [r.generated_tokens for r in speculative.results] == [
            r.generated_tokens for r in baseline.results]
        assert speculative.spec_proposed_tokens > 0
        assert speculative.spec_accepted_tokens > 0

    def test_speculation_composes_with_prefix_cache_and_budget(self, lm, repetitive):
        engine = ServingEngine(max_concurrency=3)
        baseline = engine.run_functional(lm, repetitive, cache="full")
        for budget in (None, 8, 32):
            report = engine.run_functional(lm, repetitive, cache="paged:page_tokens=8",
                                           prefix_cache=True, token_budget=budget,
                                           drafter="ngram:k=4")
            assert [r.generated_tokens for r in report.results] == [
                r.generated_tokens for r in baseline.results], f"budget={budget}"

    def test_pool_accounting_after_speculative_rollback(self, lm, repetitive):
        from repro.llm.speculate import Drafter, DrafterSession

        class _WrongSession(DrafterSession):
            def propose(self, context, max_tokens=None):
                budget = 3 if max_tokens is None else min(3, max_tokens)
                # Propose the context cycled forward by one: mostly wrong,
                # guaranteeing rejections (and truncate rollbacks) every step.
                return [(int(t) + 1) % 48 for t in context[-budget:]] if budget > 0 else []

        class _WrongDrafter(Drafter):
            k = 3

            def session(self):
                return _WrongSession()

        factory = resolve("cache", "paged:page_tokens=8")
        engine = ServingEngine(max_concurrency=3)
        report = engine.run_functional(lm, repetitive, cache=factory,
                                       prefix_cache=True, token_budget=16,
                                       drafter=_WrongDrafter())
        # Speculation really rejected proposals (forcing truncate rollbacks)...
        assert report.spec_proposed_tokens > report.spec_accepted_tokens
        # ...the output stream survived token-identical...
        baseline = engine.run_functional(lm, repetitive, cache="full")
        assert [r.generated_tokens for r in report.results] == [
            r.generated_tokens for r in baseline.results]
        # ...and the page pool invariant survived every rollback.
        factory.check_accounting()
        assert factory.total_pages == factory.referenced_pages + factory.free_pages
        assert factory.referenced_pages == 0

    def test_acceptance_metrics_and_summary(self, lm, repetitive):
        engine = ServingEngine(max_concurrency=2)
        report = engine.run_functional(lm, repetitive, cache="full", drafter="ngram:k=4")
        assert report.drafter == "ngram:k=4"
        assert 0.0 < report.spec_acceptance_rate <= 1.0
        assert report.spec_accepted_tokens <= report.spec_proposed_tokens
        text = report.summary()
        assert "speculation" in text
        assert "accept rate" in text
        assert "speculative tok/s" in text

    def test_no_drafter_reports_no_speculation(self, lm, repetitive):
        engine = ServingEngine(max_concurrency=2)
        report = engine.run_functional(lm, repetitive, cache="full")
        assert report.drafter is None
        assert report.spec_proposed_tokens == 0
        assert "speculation" not in report.summary()

    def test_non_rollback_cache_falls_back(self, lm, repetitive):
        engine = ServingEngine(max_concurrency=2)
        spec = "h2o:budget=16,sink_tokens=2,recent_window=4"
        baseline = engine.run_functional(lm, repetitive, cache=spec)
        report = engine.run_functional(lm, repetitive, cache=spec, drafter="ngram:k=4")
        assert report.spec_proposed_tokens == 0
        # The fallback is silent in behaviour but observable in the report.
        assert report.drafter == "ngram:k=4 (disabled: cache lacks rollback)"
        assert "disabled" in report.summary()
        assert [r.generated_tokens for r in report.results] == [
            r.generated_tokens for r in baseline.results]

    def test_speculation_needs_fewer_steps(self, lm, repetitive):
        """The whole point: accepted proposals collapse decode steps."""
        engine = ServingEngine(max_concurrency=3)
        baseline = engine.run_functional(lm, repetitive, cache="full")
        speculative = engine.run_functional(lm, repetitive, cache="full",
                                            drafter="ngram:k=4")
        assert speculative.n_steps < baseline.n_steps

    def test_repetitive_requests_generator(self):
        from repro.workloads import repetitive_requests

        first = repetitive_requests(n_requests=5, template_len=8, n_repeats=3,
                                    decode_len=4, vocab_size=32, noise=0.1, seed=9)
        second = repetitive_requests(n_requests=5, template_len=8, n_repeats=3,
                                     decode_len=4, vocab_size=32, noise=0.1, seed=9)
        assert first == second
        for request in first:
            assert request.prompt_len == 24
            assert len(request.prompt_tokens) == 24
        arrivals = [r.arrival_time_s for r in first]
        assert arrivals == sorted(arrivals)
        # noise=0 repeats the template exactly
        clean = repetitive_requests(n_requests=2, template_len=6, n_repeats=4,
                                    decode_len=4, vocab_size=32, seed=1)
        tokens = clean[0].prompt_tokens
        assert tokens[:6] * 4 == tokens
        with pytest.raises(ValueError):
            repetitive_requests(n_requests=0, template_len=6, n_repeats=2,
                                decode_len=4, vocab_size=32)
        with pytest.raises(ValueError):
            repetitive_requests(n_requests=2, template_len=6, n_repeats=2,
                                decode_len=4, vocab_size=32, noise=1.5)


class TestSharedPrefillForward:
    """Every prefill chunk of a step runs in one ``forward_chunks`` call and
    the per-sequence bookkeeping (first token, radix insert, reservation
    sync) follows it.  Wherever that could differ from a per-sequence loop —
    prefix reuse, token budgets, speculation, preempt-and-resume, checkpoint
    restore, transient-fault retry — every request must still end with
    exactly one terminal status and the tokens of an isolated ``generate()``.
    """

    SPEC = "paged:page_tokens=8"
    BOUNDED = "paged:page_tokens=8,initial_pages=12,grow=false"

    @pytest.fixture(scope="class")
    def lm(self):
        from repro.llm.config import tiny_config
        from repro.llm.model import DecoderLM

        return DecoderLM(tiny_config("serve-chunks-tiny", n_layers=2, d_model=32,
                                     n_heads=4, d_ff=64, vocab_size=48,
                                     max_seq_len=512), seed=7)

    @pytest.fixture(scope="class")
    def requests(self):
        from repro.workloads import bursty_requests, shared_prefix_requests

        # Simultaneous arrivals, shared and unshared prompts, ragged lengths.
        return (shared_prefix_requests(n_groups=2, requests_per_group=3,
                                       prefix_len=18, suffix_len=5, decode_len=8,
                                       vocab_size=48, seed=2)
                + bursty_requests(n_bursts=1, burst_size=4, prompt_len=20,
                                  decode_len=10, vocab_size=48,
                                  length_jitter=0.3, seed=5))

    @pytest.fixture()
    def prefill_batches(self, lm, monkeypatch):
        """Sequences per prefill forward, one entry per model call."""
        sizes = []
        forward = lm.forward_chunks

        def spy(token_chunks, positions, caches_batch, *, logits="last"):
            if logits == "last":
                sizes.append(len(token_chunks))
            return forward(token_chunks, positions, caches_batch, logits=logits)

        monkeypatch.setattr(lm, "forward_chunks", spy)
        return sizes

    def _check(self, lm, requests, reports, prefill_batches):
        from repro.llm.generation import generate

        results = [result for report in reports for result in report.results]
        assert (sorted(r.request.request_id for r in results)
                == sorted(request.request_id for request in requests))
        for result in results:
            assert result.status == "finished"
            reference = generate(lm, result.prompt_tokens,
                                 result.request.decode_len,
                                 cache_factory=resolve("cache", self.SPEC))
            assert list(result.generated_tokens) == reference.generated_tokens, (
                result.request.request_id)
        assert max(prefill_batches) > 1  # some step prefilled several at once

    @pytest.mark.parametrize("drafter", [None, "ngram:k=3"])
    @pytest.mark.parametrize("token_budget", [16, 64])
    @pytest.mark.parametrize("prefix_cache", [False, True])
    def test_prefix_budget_drafter_matrix(self, lm, requests, prefill_batches,
                                          prefix_cache, token_budget, drafter):
        factory = resolve("cache", self.SPEC)
        report = ServingEngine(max_concurrency=6).run_functional(
            lm, requests, cache=factory, prefix_cache=prefix_cache,
            token_budget=token_budget, drafter=drafter, paranoid=True)
        self._check(lm, requests, [report], prefill_batches)
        assert (report.reused_prefix_tokens > 0) == prefix_cache
        factory.check_accounting()
        assert factory.referenced_pages == 0

    @pytest.mark.parametrize("drafter", [None, "ngram:k=3"])
    def test_preempt_and_resume(self, lm, requests, prefill_batches, drafter):
        factory = resolve("cache", self.BOUNDED)
        report = ServingEngine(max_concurrency=6).run_functional(
            lm, requests, cache=factory, prefix_cache=True, token_budget=32,
            drafter=drafter, paranoid=True)
        assert report.n_preemptions > 0  # resumed targets were re-prefilled
        self._check(lm, requests, [report], prefill_batches)
        assert factory.referenced_pages == 0

    def test_transient_fault_retry(self, lm, requests, prefill_batches):
        report = ServingEngine(max_concurrency=6).run_functional(
            lm, requests, cache=self.BOUNDED, prefix_cache=True, token_budget=32,
            faults="transient-exec:rate=0.15", paranoid=True)
        assert report.n_retries > 0
        self._check(lm, requests, [report], prefill_batches)

    def test_checkpoint_restore_into_a_prefilling_session(self, lm, requests,
                                                          prefill_batches):
        """Decode-phase requests restored from checkpoints join a session
        whose own arrivals are being chunk-prefilled in the same steps."""
        kwargs = dict(cache=self.SPEC, prefix_cache=True, token_budget=32)
        moved, stay = requests[:4], requests[4:]
        src = ServingEngine(max_concurrency=6).start_functional(lm, **kwargs)
        src.submit(moved)
        for _ in range(4):
            src.step()
        dst = ServingEngine(max_concurrency=10).start_functional(lm, **kwargs)
        dst.submit(stay)
        for request in moved:
            state, _ckpt = src.extract_request(request.request_id)
            dst.inject_request(state)
        while src.step() or dst.step():
            pass
        report_src, report_dst = src.finish(), dst.finish()
        assert report_dst.n_restored > 0
        self._check(lm, requests, [report_src, report_dst], prefill_batches)
