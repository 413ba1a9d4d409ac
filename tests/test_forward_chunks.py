"""Differential fuzz test for the one ragged-chunk forward.

:meth:`DecoderLM.forward_chunks` serves every whole prompt, prefill chunk
and speculative-verify chunk of a step in one batched pass.  Generated
ragged batches must agree with (a) the cache-free oracle
:meth:`forward_full`, row for row, and (b) the same chunks run one sequence
at a time through :meth:`prefill_chunk` — for logits and for what ends up
in the caches.  Mixed batches of whole prompts on caches without chunked
prefill, paged prompts and paged chunks past position 0 must give each row
what its batch of one gives.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import model
from repro.llm.config import tiny_config
from repro.llm.model import DecoderLM
from repro.registry import resolve

from cache_specs import ALL_CACHE_SPECS
from reference_full_cache import full_cache_factory

MAX_CACHED, MAX_CHUNK, MAX_EXTRA = 96, 48, 8

#: The contiguous full-cache oracle of ``full``, fuzzed beside the specs.
REFERENCE_FULL = "reference-full"

#: cache spec -> logits tolerance against the fp32 oracle (the sequential
#: path rounds identically, so it is always held to the tight bound).
ORACLE_ATOL = {
    "full": 1e-4,
    "paged:page_tokens=4": 1e-4,
    "paged:page_tokens=4,dtype=fp16": 2e-3,
    REFERENCE_FULL: 1e-4,
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
    factory = full_cache_factory if spec == REFERENCE_FULL else resolve("cache", spec)
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
        """The chunk's causal mask: a chunk query attends to nothing after
        it, so its row's logits do not change when later chunk tokens do."""
        tokens = rng.integers(0, lm.config.vocab_size, size=20).tolist()
        changed = tokens[:17] + [(t + 1) % lm.config.vocab_size for t in tokens[17:]]
        for factory in (resolve("cache", "paged:page_tokens=4"), full_cache_factory):
            rows = []
            for chunk_tokens in (tokens, changed):
                caches = lm.make_caches(factory)
                lm.prefill(chunk_tokens[:12], caches)
                rows.append(lm.forward_chunks([chunk_tokens[12:]], [12], [caches],
                                              logits="all")[0])
            np.testing.assert_array_equal(rows[0][:5], rows[1][:5])
            assert np.max(np.abs(rows[0][5] - rows[1][5])) > 1e-4  # the change shows


#: Specs whose caches take a prompt only whole, at position 0.
WHOLE_SPECS = [spec for spec in ALL_CACHE_SPECS
               if not spec.startswith(("full", "paged"))]
PAGED = "paged:page_tokens=4"

#: Rows of one mixed call: a whole-prompt stack of one of ``WHOLE_SPECS``
#: (``("whole", spec index, prompt length, 0)``), a paged prompt
#: (``("prompt", 0, length, 0)``) or a paged chunk past its cached tokens
#: (``("chunk", 0, length, cached)``).
mixed_rows = st.lists(
    st.one_of(
        st.tuples(st.just("whole"), st.integers(0, len(WHOLE_SPECS) - 1),
                  st.integers(1, 24), st.just(0)),
        st.tuples(st.just("prompt"), st.just(0), st.integers(1, 24), st.just(0)),
        st.tuples(st.just("chunk"), st.just(0), st.integers(1, 16),
                  st.integers(1, 24))),
    min_size=1, max_size=8)


def _mixed_run(lm, rows, seed):
    """``rows`` run in one ``forward_chunks`` call and each as its batch of
    one: ``(logits, stacks, [(logits, stack)] per row)``, each side's
    stacks made by factories of its own."""
    rng = np.random.default_rng(seed)
    tokens = [rng.integers(0, lm.config.vocab_size, size=cached + n).tolist()
              for _kind, _spec, n, cached in rows]
    chunks = [toks[cached:] for (_kind, _spec, _n, cached), toks in zip(rows, tokens)]
    positions = [cached for _kind, _spec, _n, cached in rows]

    def stack(b, factories):
        kind, spec, _n, cached = rows[b]
        name = WHOLE_SPECS[spec] if kind == "whole" else PAGED
        if name not in factories:
            factories[name] = resolve("cache", name)
        caches = lm.make_caches(factories[name])
        if cached:
            lm.prefill(tokens[b][:cached], caches)
        return caches

    shared: dict = {}
    batched = [stack(b, shared) for b in range(len(rows))]
    logits = lm.forward_chunks(chunks, positions, batched)
    singles = []
    for b in range(len(rows)):
        caches = stack(b, {})
        singles.append((lm.forward_chunks([chunks[b]], [positions[b]], [caches])[0], caches))
    return logits, batched, singles


class TestMixedBatch:
    """One call holding whole-prompt stacks that cannot take chunks, paged
    prompts and paged chunks past position 0: each row is what its batch of
    one gives, for logits and for what its caches hold."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(rows=mixed_rows, seed=st.integers(0, 2**31 - 1))
    def test_each_row_matches_its_batch_of_one(self, lm, rows, seed):
        logits, batched, singles = _mixed_run(lm, rows, seed)
        assert logits.shape == (len(rows), lm.config.vocab_size)
        for b, (single, single_caches) in enumerate(singles):
            np.testing.assert_allclose(logits[b], single, atol=1e-5, err_msg=f"row {b}")
            for mine, theirs in zip(batched[b], single_caches):
                assert mine.num_tokens == theirs.num_tokens
                for got, want in zip(mine.fetch(), theirs.fetch()):
                    np.testing.assert_allclose(got, want, atol=1e-5, err_msg=f"row {b}")

    def test_prompts_their_caches_score_attend_alone(self, lm, monkeypatch):
        """Equal-length ``kelle`` prompts never share a score block (each
        cache is scored by its own prompt's probabilities); equal-length
        paged prompts attend as one group."""
        groups = []
        attend = DecoderLM._attend

        def spy(self, query, rows, keys, *args):
            groups.append(keys.shape[0])
            return attend(self, query, rows, keys, *args)

        monkeypatch.setattr(DecoderLM, "_attend", spy)
        kelle = resolve("cache", "kelle:budget=8,sink_tokens=2,recent_window=3,refresh=none")
        paged = resolve("cache", PAGED)
        stacks = [lm.make_caches(kelle) for _ in range(3)] + \
            [lm.make_caches(paged) for _ in range(2)]
        lm.prefill_batch([[1, 2, 3, 4]] * 3 + [[5, 6, 7, 8]] * 2, stacks)
        assert sorted(groups) == sorted([1, 1, 1, 2] * lm.config.n_layers)

    def test_a_group_holds_at_most_group_scores(self, lm, monkeypatch):
        """Equal-length prompts past one score block of ``_GROUP_SCORES``
        attend in several groups, each within it."""
        blocks = []
        attend = DecoderLM._attend

        def spy(self, query, rows, keys, *args):
            probs = attend(self, query, rows, keys, *args)
            blocks.append(probs.shape)
            return probs

        monkeypatch.setattr(DecoderLM, "_attend", spy)
        length = 64
        per_group = model._GROUP_SCORES // (lm.config.n_heads * length * length)
        paged = resolve("cache", PAGED)
        stacks = [lm.make_caches(paged) for _ in range(per_group + 1)]
        rng = np.random.default_rng(3)
        lm.prefill_batch([rng.integers(0, lm.config.vocab_size, size=length).tolist()
                          for _ in stacks], stacks)
        assert sorted(shape[0] for shape in blocks) == sorted([1, per_group] * lm.config.n_layers)
        assert max(np.prod(shape) for shape in blocks) <= model._GROUP_SCORES

    @pytest.mark.parametrize("spec", WHOLE_SPECS)
    def test_whole_prompt_stack_past_position_zero_raises_before_any_store(self, lm, spec):
        paged = resolve("cache", PAGED)
        fresh, chunked = lm.make_caches(paged), lm.make_caches(paged)
        lm.prefill([1, 2], chunked)
        whole = lm.make_caches(resolve("cache", spec))
        lm.prefill([1, 2, 3], whole)
        referenced = paged.referenced_pages
        with pytest.raises(ValueError, match="chunked-prefill"):
            lm.forward_chunks([[4, 5], [6], [7]], [0, 2, 3], [fresh, chunked, whole])
        assert [c.num_tokens for c in fresh + chunked + whole] == \
            [0] * len(fresh) + [2] * len(chunked) + [3] * len(whole)
        assert paged.referenced_pages == referenced  # nothing claimed either
        paged.check_accounting()


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
            lm.verify_chunk_batch([chunk], [0], [lm.make_caches()])

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
