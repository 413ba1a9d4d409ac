"""Differential fuzz test for the one ragged-chunk forward.

:meth:`DecoderLM.forward_chunks` serves every prefill chunk and every
speculative-verify chunk of a step in one batched pass.  Generated ragged
batches must agree with (a) the cache-free oracle :meth:`forward_full`, row
for row, and (b) the same chunks run one sequence at a time through
:meth:`prefill_chunk` — for logits and for what ends up in the caches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.config import tiny_config
from repro.llm.model import DecoderLM
from repro.registry import resolve

MAX_CACHED, MAX_CHUNK, MAX_EXTRA = 96, 48, 8

#: cache spec -> logits tolerance against the fp32 oracle (the sequential
#: path rounds identically, so it is always held to the tight bound).
ORACLE_ATOL = {
    "full": 1e-4,
    "paged:page_tokens=4": 1e-4,
    "paged:page_tokens=4,dtype=fp16": 2e-3,
}


def _model(**overrides) -> DecoderLM:
    return DecoderLM(tiny_config("chunks-tiny", n_layers=2, d_model=32, n_heads=4,
                                 d_ff=64, vocab_size=32,
                                 max_seq_len=MAX_CACHED + MAX_CHUNK + MAX_EXTRA,
                                 **overrides), seed=7)


@pytest.fixture(scope="module")
def lm() -> DecoderLM:
    return _model()


@pytest.fixture(scope="module")
def opt_lm() -> DecoderLM:
    return _model(norm="layer", mlp="standard", positional="learned")


def _caches_at(lm, factory, tokens, cached, route):
    """Per-layer caches holding ``tokens[:cached]``, reached via ``route``."""
    caches = lm.make_caches(factory)
    if route == "direct":
        if cached:
            lm.prefill(tokens[:cached], caches)
        return caches
    # Overshoot by a few tokens, then come back to ``cached``.
    lm.prefill(tokens[:cached + MAX_EXTRA // 2], caches)
    if route == "truncate":
        for cache in caches:
            cache.truncate(cached)
        return caches
    forks = [cache.fork(cached) for cache in caches]
    for cache in caches:
        cache.release()
    return forks


#: A few distinct (cached_len, chunk_len) shapes, each picked by several
#: sequences: exact-shape groups of one and of many in the same batch.
batches = st.tuples(
    st.lists(st.tuples(st.integers(0, MAX_CACHED), st.integers(1, MAX_CHUNK)),
             min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3),
                       st.sampled_from(["direct", "fork", "truncate"])),
             min_size=1, max_size=12),
    st.integers(0, 2**31 - 1))


def _check_batch(lm, spec, batch):
    shapes, picks, seed = batch
    rng = np.random.default_rng(seed)
    factory = resolve("cache", spec)
    vocab = lm.config.vocab_size
    sequences = []
    for pick, route in picks:
        cached, chunk = shapes[pick % len(shapes)]
        tokens = rng.integers(0, vocab, size=cached + chunk + MAX_EXTRA).tolist()
        sequences.append((tokens, cached, chunk, route))

    def build():
        return [_caches_at(lm, factory, tokens, cached, route)
                for tokens, cached, _chunk, route in sequences]

    chunks = [tokens[cached:cached + chunk] for tokens, cached, chunk, _ in sequences]
    positions = [cached for _tokens, cached, _chunk, _route in sequences]
    batched_caches, all_caches, single_caches = build(), build(), build()
    last = lm.forward_chunks(chunks, positions, batched_caches)
    every = lm.forward_chunks(chunks, positions, all_caches, logits="all")

    assert last.dtype == np.float32 and last.shape == (len(sequences), vocab)
    for b, (tokens, cached, chunk, _route) in enumerate(sequences):
        assert every[b].dtype == np.float32 and every[b].shape == (chunk, vocab)
        np.testing.assert_allclose(every[b][-1], last[b], atol=1e-5)
        oracle = lm.forward_full(np.array(tokens[:cached + chunk]))[cached:]
        np.testing.assert_allclose(every[b], oracle, atol=ORACLE_ATOL[spec])
        single = lm.prefill_chunk(chunks[b], cached, single_caches[b])
        np.testing.assert_allclose(last[b], single, atol=1e-4)
        for got, want in zip(batched_caches[b], single_caches[b]):
            assert got.num_tokens == want.num_tokens == cached + chunk
            for got_part, want_part in zip(got.fetch(), want.fetch()):
                np.testing.assert_allclose(got_part, want_part, atol=1e-5)
    checker = getattr(factory, "check_accounting", None)
    if checker is not None:
        checker()
        for caches in batched_caches + all_caches + single_caches:
            for cache in caches:
                cache.release()
        checker()
        assert factory.referenced_pages == 0


class TestDifferential:
    @pytest.mark.parametrize("spec", sorted(ORACLE_ATOL))
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(batch=batches)
    def test_matches_oracle_and_sequential_chunks(self, lm, spec, batch):
        _check_batch(lm, spec, batch)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(batch=batches)
    def test_learned_positions_layer_norm_model(self, opt_lm, batch):
        _check_batch(opt_lm, "paged:page_tokens=4", batch)

    def test_one_group_of_many_and_groups_of_one(self, lm):
        """The shapes the serving trace shows: equal-shape suffix chunks,
        single-token re-derivations and a cold prompt, all in one step."""
        shapes = [(35, 1), (1, 35), (0, 36), (17, 48)]
        picks = [(0, "fork")] * 5 + [(1, "fork")] * 4 + [(2, "direct"),
                                                           (3, "truncate")]
        _check_batch(lm, "paged:page_tokens=4", (shapes, picks, 3))

    def test_invalid_cache_slots_are_masked(self, lm, rng):
        """A cache that reports invalid slots must not attend to them."""
        tokens = rng.integers(0, lm.config.vocab_size, size=20).tolist()
        caches = lm.make_caches()
        lm.prefill(tokens[:12], caches)
        for cache in caches:  # invalidate slot 3 of every head
            cache._store._valid[:, 3] = False
        got = lm.forward_chunks([tokens[12:]], [12], [caches])[0]
        # Reference: poison the masked slot instead; it must not matter.
        poisoned = lm.make_caches()
        lm.prefill(tokens[:12], poisoned)
        for cache in poisoned:
            cache._store._valid[:, 3] = False
            cache._store._keys[:, 3] = 1e3
            cache._store._values[:, 3] = -1e3
        want = lm.forward_chunks([tokens[12:]], [12], [poisoned])[0]
        np.testing.assert_allclose(got, want, atol=1e-5)
        unmasked = lm.make_caches()
        lm.prefill(tokens[:12], unmasked)
        plain = lm.forward_chunks([tokens[12:]], [12], [unmasked])[0]
        assert np.max(np.abs(plain - got)) > 1e-4


class TestValidation:
    def test_position_mismatch_raises(self, lm):
        caches = lm.make_caches()
        lm.prefill([1, 2, 3], caches)
        with pytest.raises(ValueError, match="starts at position 5"):
            lm.forward_chunks([[4, 5]], [5], [caches])
        with pytest.raises(ValueError):
            lm.prefill_chunk([4, 5], 5, caches)

    def test_non_chunkable_cache_raises(self, lm):
        factory = resolve("cache", "h2o:budget=8,sink_tokens=2,recent_window=3")
        caches = lm.make_caches(factory)
        lm.prefill([1, 2, 3], caches)
        with pytest.raises(ValueError, match="chunked-prefill"):
            lm.forward_chunks([[4]], [3], [caches])

    @pytest.mark.parametrize("chunk", [[], [[1, 2]]])
    def test_empty_or_nested_chunk_raises(self, lm, chunk):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            lm.forward_chunks([chunk], [0], [lm.make_caches()])
        with pytest.raises(ValueError):
            lm.prefill_chunk(chunk, 0, lm.make_caches())
        with pytest.raises(ValueError):
            lm.verify_chunk(chunk, 0, lm.make_caches())

    def test_empty_batch_and_length_mismatch_raise(self, lm):
        with pytest.raises(ValueError, match="at least one"):
            lm.forward_chunks([], [], [])
        with pytest.raises(ValueError, match="at least one"):
            lm.verify_chunk_batch([], [], [])
        with pytest.raises(ValueError, match="equal length"):
            lm.forward_chunks([[1]], [0, 0], [lm.make_caches()])

    def test_unknown_logits_mode_raises(self, lm):
        with pytest.raises(ValueError, match="'last' or 'all'"):
            lm.forward_chunks([[1]], [0], [lm.make_caches()], logits="first")

    def test_failed_validation_mutates_no_cache(self, lm):
        good, bad = lm.make_caches(), lm.make_caches()
        lm.prefill([1, 2, 3], bad)
        with pytest.raises(ValueError):
            lm.forward_chunks([[4, 5], [6]], [0, 7], [good, bad])
        assert good[0].num_tokens == 0 and bad[0].num_tokens == 3
