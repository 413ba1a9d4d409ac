"""Speculative-decoding subsystem: drafters, verification and acceptance.

Covers the drafter registry kind, the prompt-lookup n-gram drafter's
proposals on repetitive context, the draft-model drafter's perfect acceptance
when draft == target, and the contract that `verify_chunk_batch` reproduces k
sequential `decode_step` calls to float precision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.generation import generate
from repro.llm.speculate import (
    DraftModelDrafter,
    Drafter,
    NgramDrafter,
    NoneDrafter,
    accept_greedy,
)
from repro.registry import RegistryError, known, resolve


class TestDrafterRegistry:
    def test_three_drafters_registered(self):
        assert set(known("drafter")) == {"ngram", "draft-model", "none"}

    def test_spec_round_trip(self):
        drafter = resolve("drafter", "ngram:k=6,max_ngram=4")
        assert isinstance(drafter, NgramDrafter)
        assert drafter.k == 6 and drafter.max_ngram == 4
        assert resolve("drafter", "none").k == 0
        draft = resolve("drafter", "draft-model:model=tiny-llama2-7b,k=2")
        assert isinstance(draft, DraftModelDrafter)
        assert draft.k == 2 and draft.model.config.name == "tiny-llama2-7b"

    def test_unknown_drafter_lists_known(self):
        with pytest.raises(RegistryError) as excinfo:
            resolve("drafter", "telepathy")
        assert "ngram" in str(excinfo.value)

    def test_describe_is_spec_like(self):
        assert resolve("drafter", "ngram:k=4").describe() == "ngram:k=4"
        assert resolve("drafter", "none").describe() == "none"

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            NgramDrafter(k=0)
        with pytest.raises(ValueError):
            NgramDrafter(k=4, max_ngram=1, min_ngram=2)
        with pytest.raises(ValueError):
            DraftModelDrafter("tiny-llama2-7b", k=0)


class TestNgramDrafter:
    def test_proposes_known_continuation_on_repetitive_context(self):
        pattern = [7, 3, 9, 1, 5]
        context = pattern * 4  # trailing [9, 1, 5] recurs; [7, 3, 9, 1] follows
        session = NgramDrafter(k=4).session()
        assert session.propose(context) == [7, 3, 9, 1]

    def test_respects_max_tokens_budget(self):
        context = [1, 2, 3] * 5
        session = NgramDrafter(k=4).session()
        assert session.propose(context, max_tokens=2) == [1, 2]
        assert session.propose(context, max_tokens=0) == []

    def test_no_match_proposes_nothing(self):
        session = NgramDrafter(k=4).session()
        assert session.propose([1, 2, 3, 4, 5, 6, 7, 8]) == []
        assert session.propose([1]) == []

    def test_longest_ngram_wins(self):
        # The 1-gram [5] recurs at index 2 (followed by 9) but the 2-gram
        # [4, 5] recurs at index 5 (followed by 8): longest match first.
        context = [1, 4, 5, 9, 0, 4, 5, 8, 2, 4, 5]
        session = NgramDrafter(k=1, max_ngram=3).session()
        assert session.propose(context) == [8]

    def test_most_recent_match_wins(self):
        context = [4, 5, 1, 0, 4, 5, 2, 0, 4, 5]
        session = NgramDrafter(k=1, max_ngram=2).session()
        assert session.propose(context) == [2]


class TestDraftModelDrafter:
    def test_acceptance_is_perfect_when_draft_equals_target(self, small_model, rng):
        prompt = rng.integers(0, small_model.config.vocab_size, size=12).tolist()
        drafter = DraftModelDrafter(small_model, k=4)
        result = generate(small_model, prompt, 16, drafter=drafter)
        reference = generate(small_model, prompt, 16)
        assert result.generated_tokens == reference.generated_tokens
        assert result.spec_proposed > 0
        assert result.spec_accepted == result.spec_proposed
        assert result.acceptance_rate == 1.0

    def test_incremental_session_matches_fresh_sessions(self, small_model, rng):
        """The rollback-synced session proposes what a stateless one would."""
        vocab = small_model.config.vocab_size
        drafter = DraftModelDrafter(small_model, k=3)
        incremental = drafter.session()
        context = rng.integers(0, vocab, size=10).tolist()
        for _ in range(4):
            fresh = drafter.session()
            proposals = incremental.propose(context)
            assert proposals == fresh.propose(context)
            assert len(proposals) == 3
            # Accept one proposal and append a "corrected" token, as a
            # partial-rejection verification round would.
            context = context + proposals[:1] + [int(rng.integers(0, vocab))]

    def test_vocab_mismatch_raises(self, small_model):
        from repro.llm.config import tiny_config
        from repro.llm.model import DecoderLM

        other = DecoderLM(tiny_config("other-vocab", vocab_size=48, max_seq_len=128),
                          seed=3)
        drafter = DraftModelDrafter(other, k=2)
        with pytest.raises(ValueError):
            generate(small_model, [1, 2, 3], 4, drafter=drafter)


class TestVerifyChunk:
    @pytest.mark.parametrize("spec", ["full", "paged:page_tokens=4"])
    def test_logits_match_sequential_decode_steps(self, small_model, rng, spec):
        vocab = small_model.config.vocab_size
        prompt = rng.integers(0, vocab, size=11).tolist()
        chunk = rng.integers(0, vocab, size=5).tolist()
        factory = resolve("cache", spec)

        seq_caches = small_model.make_caches(factory)
        small_model.prefill(prompt, seq_caches)
        seq_logits = []
        for offset, token in enumerate(chunk):
            seq_logits.append(small_model.decode_step(token, len(prompt) + offset,
                                                      seq_caches))

        ver_caches = small_model.make_caches(factory)
        small_model.prefill(prompt, ver_caches)
        ver_logits = small_model.verify_chunk_batch([chunk], [len(prompt)], [ver_caches])[0]

        assert ver_logits.shape == (len(chunk), vocab)
        np.testing.assert_allclose(ver_logits, np.stack(seq_logits), atol=1e-4)
        # The caches were extended with the whole chunk...
        assert ver_caches[0].num_tokens == len(prompt) + len(chunk)
        # ...and their contents match the sequential path's.
        for seq_cache, ver_cache in zip(seq_caches, ver_caches):
            np.testing.assert_allclose(seq_cache.fetch()[0], ver_cache.fetch()[0],
                                       atol=1e-5)

    def test_position_mismatch_raises(self, small_model):
        caches = small_model.make_caches()
        small_model.prefill([1, 2, 3], caches)
        with pytest.raises(ValueError):
            small_model.verify_chunk_batch([[4, 5]], [5], [caches])

    def test_non_chunkable_cache_raises(self, small_model):
        factory = resolve("cache", "h2o:budget=8,sink_tokens=2,recent_window=3")
        caches = small_model.make_caches(factory)
        small_model.prefill([1, 2, 3], caches)
        with pytest.raises(ValueError):
            small_model.verify_chunk_batch([[4]], [3], [caches])

    def test_batched_verify_matches_single(self, small_model, rng):
        vocab = small_model.config.vocab_size
        prompts = [rng.integers(0, vocab, size=n).tolist() for n in (6, 11, 8)]
        chunks = [rng.integers(0, vocab, size=n).tolist() for n in (4, 1, 3)]

        singles = []
        for prompt, chunk in zip(prompts, chunks):
            caches = small_model.make_caches()
            small_model.prefill(prompt, caches)
            singles.append(small_model.verify_chunk_batch([chunk], [len(prompt)], [caches])[0])

        caches_batch = [small_model.make_caches() for _ in prompts]
        for prompt, caches in zip(prompts, caches_batch):
            small_model.prefill(prompt, caches)
        batched = small_model.verify_chunk_batch(chunks, [len(p) for p in prompts],
                                                 caches_batch)
        for single, bat in zip(singles, batched):
            np.testing.assert_allclose(single, bat, atol=1e-4)


class TestAcceptGreedy:
    def _logits_for(self, choices, vocab=8):
        logits = np.zeros((len(choices), vocab), dtype=np.float32)
        for row, choice in enumerate(choices):
            logits[row, choice] = 1.0
        return logits

    def test_full_acceptance_emits_bonus_token(self):
        logits = self._logits_for([3, 5, 7])  # rows agree with both proposals
        accepted, emitted = accept_greedy(logits, [3, 5])
        assert accepted == 2
        assert emitted == [3, 5, 7]  # bonus token from the last row

    def test_first_mismatch_emits_correction(self):
        logits = self._logits_for([3, 6, 7])
        accepted, emitted = accept_greedy(logits, [3, 5])
        assert accepted == 1
        assert emitted == [3, 6]  # the target's own choice at the mismatch

    def test_empty_proposals_degenerate_to_decode(self):
        logits = self._logits_for([4])
        accepted, emitted = accept_greedy(logits, [])
        assert accepted == 0
        assert emitted == [4]


class TestNoneDrafter:
    def test_never_proposes(self):
        session = NoneDrafter().session()
        assert session.propose([1, 2, 3, 1, 2, 3]) == []

    def test_generate_with_none_drafter_is_plain_decode(self, small_model, rng):
        prompt = rng.integers(0, small_model.config.vocab_size, size=9).tolist()
        base = generate(small_model, prompt, 8)
        spec = generate(small_model, prompt, 8, drafter="none")
        assert base.generated_tokens == spec.generated_tokens
        assert spec.spec_proposed == 0

    def test_drafter_abc_requires_session(self):
        with pytest.raises(TypeError):
            Drafter()  # abstract
