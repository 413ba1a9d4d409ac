"""``full`` is the paged store: differential tests against the contiguous oracle.

``resolve("cache", "full")`` (alias ``fp16``) builds a growable fp32
:class:`~repro.core.kv_pool.PagedCacheFactory`, and so do the implicit
defaults (``make_caches(None)``, the drivers, the serving session).  The
contiguous cache it replaced lives on as ``reference_full_cache``; these
tests hold ``full`` to it, and check that the forced-decode drivers hand
their pages back to a shared pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kv_pool import PagedCacheFactory
from repro.llm.generation import (
    forced_decode_logprobs,
    forced_decode_logprobs_batch,
    generate,
    generate_batch,
)
from repro.registry import resolve
from repro.serve import ServingEngine

from reference_full_cache import full_cache_factory

RAGGED_LENGTHS = (7, 12, 9, 5, 16)


def _prompts(vocab_size, lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, vocab_size, size=n).tolist() for n in lengths]


class TestDefaults:
    @pytest.mark.parametrize("spec", ["full", "fp16"])
    def test_spec_resolves_to_a_growable_fp32_pool(self, spec):
        factory = resolve("cache", spec)
        assert isinstance(factory, PagedCacheFactory)
        assert factory.grow and factory.dtype == np.float32
        assert resolve("cache", spec) is not factory  # a fresh pool per resolve

    def test_make_caches_default_is_a_fresh_full_stack(self, small_model):
        first, second = small_model.make_caches(), small_model.make_caches()
        assert first[0].group_key(first) is first[0].pool  # a whole stack of its pool
        assert first[0].pool is not second[0].pool

    def test_session_default_is_full(self, small_model):
        session = ServingEngine(max_concurrency=2).start_functional(small_model)
        assert isinstance(session.kv.cache_factory, PagedCacheFactory)
        assert session.kv.chunkable and session.kv.rollbackable
        assert session.kv.checkpointable


class TestMatchesOracle:
    def test_sequential_logits_bitwise_equal(self, small_model):
        prompt = _prompts(small_model.config.vocab_size, (11,), seed=1)[0]
        full, oracle = small_model.make_caches(), small_model.make_caches(full_cache_factory)
        np.testing.assert_array_equal(small_model.prefill(prompt, full),
                                      small_model.prefill(prompt, oracle))
        token = prompt[-1]
        for position in range(len(prompt), len(prompt) + 12):
            got = small_model.decode_step(token, position, full)
            want = small_model.decode_step(token, position, oracle)
            np.testing.assert_array_equal(got, want)
            token = int(np.argmax(got))

    def test_generate_and_forced_decode_bitwise_equal(self, small_model):
        vocab = small_model.config.vocab_size
        prompt, continuation = _prompts(vocab, (13, 9), seed=2)
        got = generate(small_model, prompt, 10)
        want = generate(small_model, prompt, 10, cache_factory=full_cache_factory)
        assert got.generated_tokens == want.generated_tokens
        assert got.logprobs == want.logprobs
        assert (forced_decode_logprobs(small_model, prompt, continuation)
                == forced_decode_logprobs(small_model, prompt, continuation,
                                          cache_factory=full_cache_factory))

    def test_ragged_batch_token_identical(self, small_model):
        """A ragged ``full`` batch decodes as one length-masked paged group;
        the oracle's rows of unequal length decode one by one."""
        prompts = _prompts(small_model.config.vocab_size, RAGGED_LENGTHS, seed=3)
        got = generate_batch(small_model, prompts, 10)
        want = generate_batch(small_model, prompts, 10, cache_factory=full_cache_factory)
        for bat, ref in zip(got, want):
            assert bat.generated_tokens == ref.generated_tokens
            np.testing.assert_allclose(bat.logprobs, ref.logprobs, rtol=0, atol=1e-6)
        continuations = _prompts(small_model.config.vocab_size, (6, 3, 9, 1, 4), seed=4)
        scored = forced_decode_logprobs_batch(small_model, prompts, continuations)
        reference = forced_decode_logprobs_batch(small_model, prompts, continuations,
                                                 cache_factory=full_cache_factory)
        for row, ref in zip(scored, reference):
            np.testing.assert_allclose(row, ref, rtol=0, atol=1e-6)

    def test_fork_and_truncate_fetch_equal(self, small_model):
        prompt = _prompts(small_model.config.vocab_size, (21,), seed=5)[0]
        full, oracle = small_model.make_caches(), small_model.make_caches(full_cache_factory)
        small_model.prefill(prompt, full)
        small_model.prefill(prompt, oracle)

        def assert_fetch_equal(got_caches, want_caches):
            for got, want in zip(got_caches, want_caches):
                assert got.num_tokens == want.num_tokens
                for got_part, want_part in zip(got.fetch(), want.fetch()):
                    np.testing.assert_array_equal(got_part, want_part)

        forks = full[0].fork_stack(full, 13)
        oracle_forks = oracle[0].fork_stack(oracle, 13)
        assert_fetch_equal(forks, oracle_forks)
        full[0].truncate_stack(full, 6)
        oracle[0].truncate_stack(oracle, 6)
        assert_fetch_equal(full, oracle)
        # Both sides keep decoding after the fork / rollback, in step.
        for caches, reference in ((forks, oracle_forks), (full, oracle)):
            position = caches[0].num_tokens
            for step in range(3):
                got = small_model.decode_step(prompt[step], position + step, caches)
                want = small_model.decode_step(prompt[step], position + step, reference)
                np.testing.assert_array_equal(got, want)
            assert_fetch_equal(caches, reference)


class TestDriversReleasePages:
    def test_forced_decode_batch_returns_every_page(self, small_model):
        factory = resolve("cache", "paged")
        prompts = _prompts(small_model.config.vocab_size, (20, 33, 17, 40), seed=6)
        continuations = _prompts(small_model.config.vocab_size, (5, 9, 3, 7), seed=7)
        for _ in range(3):
            forced_decode_logprobs_batch(small_model, prompts, continuations, factory)
            assert factory.referenced_pages == 0
            factory.check_accounting()
