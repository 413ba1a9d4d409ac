"""Capability-matrix conformance of every registered cache spec.

One parametrised suite over ALL registered cache specs pins the optional-
capability contract the serving/speculation layers rely on:

* the capability matrix itself (``supports_chunked_prefill``,
  ``supports_rollback``) — only ``full`` and ``paged`` opt in;
* ``fork(upto)`` and ``truncate(n)`` agree: both roll the KV state back to
  the same token prefix with identical ``fetch()`` contents;
* pool accounting (``allocated = referenced + free``) holds after a
  speculative rejection/rollback cycle on the paged cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from cache_specs import ALL_CACHE_SPECS
from repro.core.kv_pool import PagedCacheFactory, PagedKVCache
from repro.registry import known, resolve

#: Expected (supports_chunked_prefill, supports_rollback) per cache name.
#: Eviction/quantization policies support neither: their slot state is not a
#: pure token prefix, so rollback falls back to plain (non-speculative)
#: decoding — see LayerKVCache.truncate's documented fork-based fallback.
CAPABILITIES = {
    "full": (True, True),
    "paged": (True, True),
    "streaming_llm": (False, False),
    "h2o": (False, False),
    "random": (False, False),
    "kivi": (False, False),
    "quarot": (False, False),
    "kelle": (False, False),
}

N_HEADS, HEAD_DIM, D_MODEL = 2, 4, 8


def _build_cache(spec):
    factory = resolve("cache", spec)
    recompute = lambda x, p: (np.zeros((N_HEADS, HEAD_DIM), np.float32),) * 2  # noqa: E731
    return factory(0, N_HEADS, HEAD_DIM, D_MODEL, recompute)


def _fill(cache, n_tokens, rng):
    """Prefill ``n_tokens`` random KV pairs (uniform causal attention)."""
    keys = rng.standard_normal((N_HEADS, n_tokens, HEAD_DIM)).astype(np.float32)
    values = rng.standard_normal((N_HEADS, n_tokens, HEAD_DIM)).astype(np.float32)
    inputs = rng.standard_normal((n_tokens, D_MODEL)).astype(np.float32)
    probs = np.tril(np.ones((n_tokens, n_tokens), np.float32))
    probs /= probs.sum(axis=-1, keepdims=True)
    cache.prefill(keys, values, inputs, np.broadcast_to(probs, (N_HEADS,) + probs.shape))
    return keys, values


def test_specs_cover_every_registered_cache():
    covered = {spec.split(":", 1)[0] for spec in ALL_CACHE_SPECS}
    assert covered == set(known("cache")) == set(CAPABILITIES)


class TestCapabilityMatrix:
    @pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
    def test_flags_match_expectation(self, spec):
        cache = _build_cache(spec)
        name = spec.split(":", 1)[0]
        assert (cache.supports_chunked_prefill, cache.supports_rollback) == \
            CAPABILITIES[name], name

    @pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
    def test_rollback_capability_is_honest(self, spec, rng):
        """truncate() works iff supports_rollback; else NotImplementedError."""
        cache = _build_cache(spec)
        _fill(cache, 6, rng)
        if cache.supports_rollback:
            cache.truncate(3)
            assert cache.num_tokens == 3
        else:
            with pytest.raises(NotImplementedError):
                cache.truncate(3)

    @pytest.mark.parametrize("spec", ["full", "paged:page_tokens=4"])
    def test_truncate_validates_range(self, spec, rng):
        cache = _build_cache(spec)
        _fill(cache, 5, rng)
        with pytest.raises(ValueError):
            cache.truncate(6)
        with pytest.raises(ValueError):
            cache.truncate(-1)
        cache.truncate(5)  # no-op at the boundary
        assert cache.num_tokens == 5


class TestForkTruncateRoundTrip:
    """fork(upto=n) and truncate(n) must land on identical fetch() contents."""

    @pytest.mark.parametrize("spec", ["full", "paged:page_tokens=4"])
    @pytest.mark.parametrize("upto", [0, 1, 3, 5, 9, 13])
    def test_fork_matches_truncate(self, spec, upto, rng):
        cache = _build_cache(spec)
        _fill(cache, 13, rng)
        child = cache.fork(upto)
        cache.truncate(upto)
        for side in (cache, child):
            assert side.num_tokens == upto
        k_t, v_t = cache.fetch()
        k_f, v_f = child.fetch()
        np.testing.assert_array_equal(k_t, k_f)
        np.testing.assert_array_equal(v_t, v_f)
        child.release()
        cache.release()

    @pytest.mark.parametrize("spec", ["full", "paged:page_tokens=4"])
    def test_regrowth_after_truncate_matches_fresh(self, spec, rng):
        """truncate(n) then re-extend == a cache that only ever saw the prefix."""
        keys = rng.standard_normal((N_HEADS, 12, HEAD_DIM)).astype(np.float32)
        values = rng.standard_normal((N_HEADS, 12, HEAD_DIM)).astype(np.float32)

        rolled = _build_cache(spec)
        _fill(rolled, 7, np.random.default_rng(0))
        rolled.truncate(4)
        rolled.extend_chunk(keys, values, None, np.arange(4, 16))

        fresh = _build_cache(spec)
        _fill(fresh, 7, np.random.default_rng(0))
        fresh_k, fresh_v = fresh.fetch()
        reference = _build_cache(spec)
        reference.extend_chunk(fresh_k[:, :4].copy(), fresh_v[:, :4].copy(), None,
                               np.arange(4))
        reference.extend_chunk(keys, values, None, np.arange(4, 16))

        np.testing.assert_array_equal(rolled.fetch()[0], reference.fetch()[0])
        np.testing.assert_array_equal(rolled.fetch()[1], reference.fetch()[1])

    @pytest.mark.parametrize("spec", ["full", "paged:page_tokens=4"])
    def test_truncate_isolates_forks(self, spec, rng):
        """Rolling the parent back must not disturb a forked child (and vice versa)."""
        cache = _build_cache(spec)
        _fill(cache, 10, rng)
        child = cache.fork(8)
        before_k = child.fetch()[0].copy()
        cache.truncate(2)
        fresh = rng.standard_normal((N_HEADS, 3, HEAD_DIM)).astype(np.float32)
        cache.extend_chunk(fresh, fresh, None, np.arange(2, 5))
        np.testing.assert_array_equal(child.fetch()[0], before_k)
        child.truncate(1)
        assert cache.num_tokens == 5


class TestPagedRollbackAccounting:
    """allocated = referenced + free must survive speculative rollback."""

    def test_accounting_after_rejection_cycles(self, rng):
        factory = PagedCacheFactory(page_tokens=4, initial_pages=8)
        recompute = lambda x, p: (None, None)  # noqa: E731
        caches = [factory(layer, N_HEADS, HEAD_DIM, D_MODEL, recompute)
                  for layer in range(2)]
        for cache in caches:
            _fill(cache, 10, rng)
        snapshots = [cache.fork(10) for cache in caches]  # radix-style snapshot
        for round_ in range(5):
            for cache in caches:
                assert isinstance(cache, PagedKVCache)
                # Speculate 5 tokens, then reject all but one (truncate back).
                block = rng.standard_normal((N_HEADS, 5, HEAD_DIM)).astype(np.float32)
                start = cache.num_tokens
                cache.extend_chunk(block, block, None, np.arange(start, start + 5))
                cache.fork(cache.num_tokens).release()  # force a flush to pages
                cache.truncate(start + 1)
                factory.check_accounting()
        for cache in caches + snapshots:
            cache.release()
        factory.check_accounting()
        assert factory.referenced_pages == 0
        assert factory.free_pages == factory.total_pages

    def test_truncate_returns_whole_pages_to_pool(self, rng):
        factory = PagedCacheFactory(page_tokens=4, initial_pages=8)
        cache = factory(0, N_HEADS, HEAD_DIM, D_MODEL, lambda x, p: (None, None))
        _fill(cache, 16, rng)
        cache.fork(16).release()  # flush all 16 tokens onto 4 pages
        pool = cache.pool
        assert len(cache.pages) == 4
        cache.truncate(5)  # keeps 2 pages (4 + 1 tokens), frees 2
        pool.check_accounting()
        assert len(cache.pages) == 2
        assert cache.num_tokens == 5
        cache.release()
        pool.check_accounting()
        assert pool.n_referenced == 0
