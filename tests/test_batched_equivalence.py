"""Equivalence of the batched inference path with the sequential path.

The batched prefill/decode methods must reproduce the single-sequence path
token-for-token for **every** registered cache policy, including ragged
batches (mixed prompt lengths), B=1 and early-EOS dropout — these tests pin
that contract so future perf work on the hot loop cannot silently change
model outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.accuracy import multiple_choice_accuracy, summarization_overlap
from repro.eval.perplexity import perplexity_over_documents
from repro.llm.cache import ContiguousKVStore
from repro.llm.generation import (
    forced_decode_logprobs,
    forced_decode_logprobs_batch,
    generate,
    generate_batch,
)
from repro.registry import known, resolve
from repro.workloads.synthetic import SyntheticLanguage
from repro.workloads.tasks import make_multiple_choice_task, make_summarization_items

from cache_specs import ALL_CACHE_SPECS

#: The cache specs whose rollback support lets the speculative path run;
#: every other spec silently falls back to plain decoding.
ROLLBACK_CACHE_SPECS = ["full", "paged:page_tokens=4"]


def _repetitive_prompt(vocab_size, length, period=7, seed=0):
    """A looping prompt, so the n-gram drafter actually gets proposals accepted."""
    rng = np.random.default_rng(seed)
    pattern = rng.integers(0, vocab_size, size=period).tolist()
    return (pattern * (length // period + 1))[:length]


def _prompts(vocab_size, lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, vocab_size, size=n).tolist() for n in lengths]


def test_specs_cover_every_registered_cache():
    covered = {spec.split(":", 1)[0] for spec in ALL_CACHE_SPECS}
    assert covered == set(known("cache"))


class TestBatchedGeneration:
    @pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
    def test_ragged_batch_matches_sequential(self, small_model, spec):
        factory = resolve("cache", spec)
        prompts = _prompts(small_model.config.vocab_size, (7, 12, 9, 1), seed=3)
        sequential = [generate(small_model, p, 6, cache_factory=factory, seed=0)
                      for p in prompts]
        batched = generate_batch(small_model, prompts, 6, cache_factory=factory, seed=0)
        for seq, bat in zip(sequential, batched):
            assert seq.generated_tokens == bat.generated_tokens
            np.testing.assert_allclose(seq.logprobs, bat.logprobs, atol=1e-5)

    @pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
    def test_batch_of_one_matches_sequential(self, small_model, spec):
        factory = resolve("cache", spec)
        (prompt,) = _prompts(small_model.config.vocab_size, (10,), seed=4)
        seq = generate(small_model, prompt, 5, cache_factory=factory, seed=0)
        (bat,) = generate_batch(small_model, [prompt], 5, cache_factory=factory, seed=0)
        assert seq.generated_tokens == bat.generated_tokens

    def test_early_eos_drops_sequence_from_batch(self, small_model):
        prompts = _prompts(small_model.config.vocab_size, (8, 11, 6), seed=5)
        reference = generate(small_model, prompts[0], 10)
        eos = reference.generated_tokens[1]
        sequential = [generate(small_model, p, 10, eos_id=eos, seed=0) for p in prompts]
        batched = generate_batch(small_model, prompts, 10, eos_id=eos, seed=0)
        for seq, bat in zip(sequential, batched):
            assert seq.generated_tokens == bat.generated_tokens
        # The batch really was ragged: some sequence stopped on EOS while
        # another ran to the full token budget.
        lengths = [len(bat.generated_tokens) for bat in batched]
        assert min(lengths) < 10 and max(lengths) == 10
        stopped = batched[int(np.argmin(lengths))]
        assert stopped.generated_tokens[-1] == eos

    def test_sampled_generation_matches_sequential_rng(self, small_model):
        prompts = _prompts(small_model.config.vocab_size, (9, 9), seed=6)
        sequential = [generate(small_model, p, 8, temperature=1.0, seed=11) for p in prompts]
        batched = generate_batch(small_model, prompts, 8, temperature=1.0, seed=11)
        for seq, bat in zip(sequential, batched):
            assert seq.generated_tokens == bat.generated_tokens

    def test_input_validation(self, small_model):
        with pytest.raises(ValueError):
            generate_batch(small_model, [], 4)
        with pytest.raises(ValueError):
            generate_batch(small_model, [[1, 2], []], 4)
        with pytest.raises(ValueError):
            generate_batch(small_model, [[1, 2]], -1)


class TestSpeculativeEquivalence:
    """Speculative decoding must be token-identical to plain greedy decoding
    for every rollback-capable cache spec, with real (accepted) speculation."""

    @pytest.mark.parametrize("spec", ROLLBACK_CACHE_SPECS)
    @pytest.mark.parametrize("drafter", ["ngram:k=4", "ngram:k=1", "none"])
    def test_generate_token_identical(self, small_model, spec, drafter):
        factory = resolve("cache", spec)
        prompt = _repetitive_prompt(small_model.config.vocab_size, 30)
        base = generate(small_model, prompt, 16, cache_factory=factory)
        spec_result = generate(small_model, prompt, 16, cache_factory=factory,
                               drafter=drafter)
        assert base.generated_tokens == spec_result.generated_tokens
        np.testing.assert_allclose(base.logprobs, spec_result.logprobs, atol=1e-4)
        # Cache-state parity: the final token is never fed on either path.
        assert spec_result.caches[0].num_tokens == base.caches[0].num_tokens

    @pytest.mark.parametrize("spec", ROLLBACK_CACHE_SPECS)
    def test_speculation_actually_engaged(self, small_model, spec):
        """On repetitive prompts the n-gram drafter must accept proposals —
        otherwise the equivalence above would only test the fallback path."""
        factory = resolve("cache", spec)
        prompt = _repetitive_prompt(small_model.config.vocab_size, 30)
        result = generate(small_model, prompt, 16, cache_factory=factory,
                          drafter="ngram:k=4")
        assert result.spec_proposed > 0
        assert result.spec_accepted > 0

    @pytest.mark.parametrize("spec", ROLLBACK_CACHE_SPECS)
    def test_generate_batch_token_identical(self, small_model, spec):
        factory = resolve("cache", spec)
        vocab = small_model.config.vocab_size
        prompts = [_repetitive_prompt(vocab, 24, period=5, seed=1),
                   _prompts(vocab, (13,), seed=3)[0],
                   _repetitive_prompt(vocab, 18, period=3, seed=2)]
        base = generate_batch(small_model, prompts, 10, cache_factory=factory)
        spec_results = generate_batch(small_model, prompts, 10, cache_factory=factory,
                                      drafter="ngram:k=4")
        sequential = [generate(small_model, p, 10, cache_factory=factory,
                               drafter="ngram:k=4") for p in prompts]
        for bas, bat, seq in zip(base, spec_results, sequential):
            assert bas.generated_tokens == bat.generated_tokens
            assert seq.generated_tokens == bat.generated_tokens
            np.testing.assert_allclose(bas.logprobs, bat.logprobs, atol=1e-4)
            assert (seq.spec_proposed, seq.spec_accepted) == \
                (bat.spec_proposed, bat.spec_accepted)

    @pytest.mark.parametrize("spec", ROLLBACK_CACHE_SPECS)
    def test_early_eos_with_drafter(self, small_model, spec):
        factory = resolve("cache", spec)
        prompt = _repetitive_prompt(small_model.config.vocab_size, 21)
        reference = generate(small_model, prompt, 12, cache_factory=factory)
        eos = reference.generated_tokens[3]
        base = generate(small_model, prompt, 12, cache_factory=factory, eos_id=eos)
        spec_result = generate(small_model, prompt, 12, cache_factory=factory,
                               eos_id=eos, drafter="ngram:k=4")
        assert base.generated_tokens == spec_result.generated_tokens
        assert spec_result.generated_tokens[-1] == eos

    def test_non_rollback_caches_fall_back_silently(self, small_model):
        factory = resolve("cache", "h2o:budget=8,sink_tokens=2,recent_window=3")
        prompt = _repetitive_prompt(small_model.config.vocab_size, 24)
        base = generate(small_model, prompt, 10, cache_factory=factory)
        spec_result = generate(small_model, prompt, 10, cache_factory=factory,
                               drafter="ngram:k=4")
        assert base.generated_tokens == spec_result.generated_tokens
        assert spec_result.spec_proposed == 0

    def test_sampling_with_drafter_raises(self, small_model):
        with pytest.raises(ValueError):
            generate(small_model, [1, 2, 3], 4, temperature=1.0, drafter="ngram:k=4")
        with pytest.raises(ValueError):
            generate_batch(small_model, [[1, 2, 3]], 4, temperature=0.7,
                           drafter="ngram:k=4")


class TestBatchedForcedDecode:
    @pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
    def test_ragged_scoring_matches_sequential(self, small_model, spec):
        factory = resolve("cache", spec)
        vocab = small_model.config.vocab_size
        prompts = _prompts(vocab, (6, 13, 9), seed=7)
        continuations = _prompts(vocab, (5, 2, 7), seed=8)
        sequential = [forced_decode_logprobs(small_model, p, c, cache_factory=factory)
                      for p, c in zip(prompts, continuations)]
        batched = forced_decode_logprobs_batch(small_model, prompts, continuations,
                                               cache_factory=factory)
        for seq, bat in zip(sequential, batched):
            np.testing.assert_allclose(seq, bat, atol=1e-5)

    def test_input_validation(self, small_model):
        with pytest.raises(ValueError):
            forced_decode_logprobs_batch(small_model, [[1]], [[1], [2]])
        with pytest.raises(ValueError):
            forced_decode_logprobs_batch(small_model, [[1], [2]], [[1], []])


class TestBatchedPrefill:
    @pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
    def test_logits_and_cache_state_match(self, small_model, spec):
        factory = resolve("cache", spec)
        prompts = _prompts(small_model.config.vocab_size, (5, 12, 8), seed=9)
        caches_batch = [small_model.make_caches(factory) for _ in prompts]
        batched_logits = small_model.prefill_batch(prompts, caches_batch)
        for b, prompt in enumerate(prompts):
            caches = small_model.make_caches(factory)
            logits = small_model.prefill(prompt, caches)
            np.testing.assert_allclose(batched_logits[b], logits, atol=1e-4)
            for layer, (seq_cache, bat_cache) in enumerate(zip(caches, caches_batch[b])):
                seq_k, seq_v, seq_valid = seq_cache.fetch()
                bat_k, bat_v, bat_valid = bat_cache.fetch()
                np.testing.assert_array_equal(seq_valid, bat_valid, err_msg=f"layer {layer}")
                np.testing.assert_allclose(seq_k, bat_k, atol=1e-5, err_msg=f"layer {layer}")
                np.testing.assert_allclose(seq_v, bat_v, atol=1e-5, err_msg=f"layer {layer}")

    def test_input_validation(self, small_model):
        with pytest.raises(ValueError):
            small_model.prefill_batch([], [])
        with pytest.raises(ValueError):
            small_model.prefill_batch([[1, 2]], [])


class TestBatchedEval:
    def test_perplexity_batched_matches_sequential(self, small_model, rng):
        docs = [rng.integers(0, small_model.config.vocab_size, size=24) for _ in range(5)]
        sequential = perplexity_over_documents(small_model, docs, None, prefill_len=8,
                                               batch_size=1)
        batched = perplexity_over_documents(small_model, docs, None, prefill_len=8,
                                            batch_size=3)
        assert sequential == pytest.approx(batched, rel=1e-4)

    def test_multiple_choice_batched_matches_sequential(self, small_model):
        language = SyntheticLanguage(n_keys=4, n_values=4, n_content=19, n_topics=4,
                                     topic_vocab_size=5, seed=0)
        items = make_multiple_choice_task(language, 4, 24, seed=0)
        sequential = multiple_choice_accuracy(small_model, items, None, batch_size=1)
        batched = multiple_choice_accuracy(small_model, items, None, batch_size=8)
        assert sequential == batched

    def test_summarization_batched_matches_sequential(self, small_model):
        language = SyntheticLanguage(n_keys=4, n_values=4, n_content=19, n_topics=4,
                                     topic_vocab_size=5, seed=0)
        items = make_summarization_items(language, 3, 24, seed=0)
        sequential = summarization_overlap(small_model, items, None, summary_len=8,
                                           batch_size=1)
        batched = summarization_overlap(small_model, items, None, summary_len=8,
                                        batch_size=2)
        assert sequential == pytest.approx(batched, abs=1e-9)


class TestContiguousKVStore:
    def test_amortised_growth_preserves_contents(self, rng):
        store = ContiguousKVStore(2, 4, initial_capacity=2)
        written = []
        for _ in range(37):
            key = rng.standard_normal((2, 4)).astype(np.float32)
            value = rng.standard_normal((2, 4)).astype(np.float32)
            store.append(key, value)
            written.append((key, value))
        assert len(store) == 37
        assert store.capacity >= 37
        keys, values = store.view()
        for slot, (key, value) in enumerate(written):
            np.testing.assert_array_equal(keys[:, slot], key)
            np.testing.assert_array_equal(values[:, slot], value)

    def test_bulk_extend_matches_appends(self, rng):
        block_k = rng.standard_normal((2, 9, 4)).astype(np.float32)
        block_v = rng.standard_normal((2, 9, 4)).astype(np.float32)
        bulk = ContiguousKVStore(2, 4, initial_capacity=2)
        bulk.extend(block_k, block_v)
        single = ContiguousKVStore(2, 4, initial_capacity=2)
        for n in range(9):
            single.append(block_k[:, n], block_v[:, n])
        np.testing.assert_array_equal(bulk.view()[0], single.view()[0])
        np.testing.assert_array_equal(bulk.view()[1], single.view()[1])

    def test_delete_slot_shifts_tail(self, rng):
        store = ContiguousKVStore(1, 2, initial_capacity=4)
        for n in range(4):
            store.append(np.full((1, 2), n, dtype=np.float32),
                         np.full((1, 2), 10 + n, dtype=np.float32))
        store.delete_slot(1)
        keys, values = store.view()
        np.testing.assert_array_equal(keys[0, :, 0], [0.0, 2.0, 3.0])
        np.testing.assert_array_equal(values[0, :, 0], [10.0, 12.0, 13.0])
        with pytest.raises(IndexError):
            store.delete_slot(3)

    def test_fetch_views_are_zero_copy(self):
        store = ContiguousKVStore(2, 4)
        store.append(np.zeros((2, 4), np.float32), np.zeros((2, 4), np.float32))
        keys, values = store.view()
        assert keys.base is not None and values.base is not None


class TestStackedLooseAttention:
    """``decode_step_batch`` stacks the attention of equal-shape rows that no
    fused layout covers (eviction caches).  One step here holds groups of
    several, groups of one and a partial-``valid`` row; logits must equal the
    per-row path (``fused=False``) bit for bit and single-sequence
    ``decode_step`` (whose dense ops run at batch 1) within float tolerance,
    with identical greedy tokens.
    """

    KELLE = "kelle:budget=8,sink_tokens=2,recent_window=3,refresh=none"
    H2O = "h2o:budget=8,sink_tokens=2,recent_window=3"
    #: Three prompts over the budget (all sit at 8 slots), two equal short
    #: ones, one on a length of its own.
    LENGTHS = (12, 12, 14, 3, 3, 5)

    @pytest.fixture()
    def stacked_groups(self, small_model, monkeypatch):
        """Group sizes seen by the stacked helper, one entry per call."""
        sizes = []
        stacked = small_model._attend_stacked_group

        def spy(members, *args, **kwargs):
            sizes.append(len(members))
            return stacked(members, *args, **kwargs)

        monkeypatch.setattr(small_model, "_attend_stacked_group", spy)
        return sizes

    @staticmethod
    def _prefilled(lm, specs, prompts, masked=()):
        """Per-sequence caches after a single-sequence prefill; sequences in
        ``masked`` (full caches) get slot 1 invalidated in every head."""
        caches_batch = []
        for b, (spec, prompt) in enumerate(zip(specs, prompts)):
            caches = lm.make_caches(spec)
            lm.prefill(prompt, caches)
            if b in masked:
                for cache in caches:
                    cache._store._valid[:, 1] = False
            caches_batch.append(caches)
        return caches_batch

    def _check(self, lm, specs, prompts, masked=(), steps=6):
        stacked, per_row, single = (self._prefilled(lm, specs, prompts, masked)
                                    for _ in range(3))
        tokens = [prompt[-1] for prompt in prompts]
        positions = [len(prompt) for prompt in prompts]
        for _ in range(steps):
            got = lm.decode_step_batch(tokens, positions, stacked)
            want = lm.decode_step_batch(tokens, positions, per_row, fused=False)
            np.testing.assert_array_equal(got, want)
            for b, caches in enumerate(single):
                alone = lm.decode_step(tokens[b], positions[b], caches)
                np.testing.assert_allclose(got[b], alone, atol=1e-5)
                assert int(np.argmax(got[b])) == int(np.argmax(alone))
            tokens = np.argmax(got, axis=-1).tolist()
            positions = [p + 1 for p in positions]

    @pytest.mark.parametrize("spec", [KELLE, H2O])
    def test_ragged_groups_and_partial_valid_row(self, small_model, stacked_groups,
                                                 aerp_group_steps, spec):
        factory = resolve("cache", spec)
        prompts = _prompts(small_model.config.vocab_size, self.LENGTHS + (9,), seed=21)
        # The lone full cache lands on the loose path too; its mask is partial.
        specs = [factory] * len(self.LENGTHS) + [resolve("cache", "full")]
        self._check(small_model, specs, prompts, masked={len(self.LENGTHS)})
        # kelle rows of one slot count step as one arena group (already
        # stacked); h2o rows are stacked after their per-cache fetches.
        assert {2, 3} <= set(aerp_group_steps if spec == self.KELLE else stacked_groups)

    def test_kelle_rows_beside_a_paged_group(self, small_model, aerp_group_steps):
        kelle = resolve("cache", self.KELLE)
        paged = resolve("cache", "paged:page_tokens=4")
        prompts = _prompts(small_model.config.vocab_size, (12, 7, 13, 7, 12, 9), seed=22)
        self._check(small_model, [kelle, paged, kelle, paged, kelle, paged], prompts)
        assert 3 in aerp_group_steps

    def test_eviction_state_matches_isolated_generation(self, small_model, aerp_group_steps):
        """Stacking must not change what AERP evicts: compare the caches."""
        factory = resolve("cache", self.KELLE)
        prompts = _prompts(small_model.config.vocab_size, (12, 13, 14), seed=23)
        batched = self._prefilled(small_model, [factory] * 3, prompts)
        alone = self._prefilled(small_model, [factory] * 3, prompts)
        tokens = [prompt[-1] for prompt in prompts]
        positions = [len(prompt) for prompt in prompts]
        for _ in range(8):
            logits = small_model.decode_step_batch(tokens, positions, batched)
            for b, caches in enumerate(alone):
                small_model.decode_step(tokens[b], positions[b], caches)
            tokens = np.argmax(logits, axis=-1).tolist()
            positions = [p + 1 for p in positions]
        assert aerp_group_steps and set(aerp_group_steps) == {3}
        for bat, seq in zip(batched, alone):
            for bat_cache, seq_cache in zip(bat, seq):
                assert bat_cache.eviction_count == seq_cache.eviction_count > 0
                for head in range(bat_cache.n_heads):
                    assert bat_cache.tokens_for_head(head) == seq_cache.tokens_for_head(head)
