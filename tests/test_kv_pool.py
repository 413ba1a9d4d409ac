"""Paged KV pool tests: page accounting, CoW forks, full-cache equivalence.

The headline acceptance criterion: pool page accounting satisfies
``allocated = referenced + free`` at every point of a serve-like lifecycle
(alloc, fork, CoW, release), and the paged cache is bit-identical to the
contiguous full-cache oracle (``reference_full_cache``) under any
interleaving of prefill / append / fork / fetch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kv_pool import KVPagePool, PagedCacheFactory, PagedKVCache, PoolExhausted
from repro.registry import resolve

from reference_full_cache import FullKVCache

H, D, C = 2, 4, 8  # heads, head_dim, d_model


def _kv(rng, n):
    return (rng.standard_normal((H, n, D)).astype(np.float32),
            rng.standard_normal((H, n, D)).astype(np.float32))


@pytest.fixture
def pool() -> KVPagePool:
    return KVPagePool(H, D, page_tokens=4, initial_pages=8)


class TestKVPagePool:
    def test_alloc_release_accounting(self, pool):
        pool.check_accounting()
        pages = [pool.alloc() for _ in range(5)]
        assert pool.n_free == 3 and pool.n_referenced == 5
        pool.check_accounting()
        for page in pages[:2]:
            pool.release(page)
        assert pool.n_free == 5 and pool.n_referenced == 3
        pool.check_accounting()
        assert pool.n_pages == pool.n_referenced + pool.n_free

    def test_refcounts_and_recycling(self, pool):
        page = pool.alloc()
        pool.retain(page)
        assert pool.refcount(page) == 2
        pool.release(page)
        assert pool.refcount(page) == 1 and pool.n_referenced == 1
        pool.release(page)
        assert pool.refcount(page) == 0
        assert page == pool.alloc()  # LIFO free list reuses it immediately
        pool.check_accounting()

    def test_growth_preserves_contents_and_accounting(self, pool):
        rng = np.random.default_rng(0)
        page = pool.alloc()
        keys, values = _kv(rng, 4)
        pool.key_page(page)[:] = keys
        pool.value_page(page)[:] = values
        for _ in range(20):  # forces at least one doubling past 8 pages
            pool.alloc()
        assert pool.n_pages >= 21
        np.testing.assert_array_equal(pool.key_page(page), keys)
        np.testing.assert_array_equal(pool.value_page(page), values)
        pool.check_accounting()

    def test_exhaustion_raises_when_growth_disabled(self):
        fixed = KVPagePool(H, D, page_tokens=4, initial_pages=2, grow=False)
        fixed.alloc(), fixed.alloc()
        with pytest.raises(PoolExhausted):
            fixed.alloc()

    def test_bad_retain_release_raise(self, pool):
        with pytest.raises(ValueError):
            pool.retain(0)  # free page
        with pytest.raises(ValueError):
            pool.release(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            KVPagePool(0, D)
        with pytest.raises(ValueError):
            KVPagePool(H, D, page_tokens=0)


class TestPagedKVCache:
    def test_matches_full_cache_under_mixed_writes(self, pool):
        rng = np.random.default_rng(1)
        paged = PagedKVCache(pool, H, D, C)
        full = FullKVCache(H, D, C)
        keys, values = _kv(rng, 10)
        paged.prefill(keys, values, None, None)
        full.prefill(keys, values, np.zeros((10, C)), np.zeros((H, 10, 10)))
        for position in range(10, 17):
            key, value = _kv(rng, 1)
            paged.append(key[:, 0], value[:, 0], None, position)
            full.append(key[:, 0], value[:, 0], np.zeros(C), position)
        for a, b in zip(paged.fetch(), full.fetch()):
            np.testing.assert_array_equal(a, b)
        assert paged.num_tokens == full.num_tokens == 17

    def test_fork_is_zero_copy_and_isolated(self, pool):
        rng = np.random.default_rng(2)
        parent = PagedKVCache(pool, H, D, C)
        keys, values = _kv(rng, 10)  # 3 pages at page_tokens=4 after flush
        parent.prefill(keys, values, None, None)
        child = parent.fork(10)
        assert child.pages == parent.pages  # pages shared, not copied
        assert all(pool.refcount(p) == 2 for p in parent.pages)
        pool.check_accounting()
        # Divergent appends must not be visible across the fork.
        key_p, value_p = _kv(rng, 1)
        key_c, value_c = _kv(rng, 1)
        parent.append(key_p[:, 0], value_p[:, 0], None, 10)
        child.append(key_c[:, 0], value_c[:, 0], None, 10)
        np.testing.assert_array_equal(parent.fetch()[0][:, 10], key_p[:, 0])
        np.testing.assert_array_equal(child.fetch()[0][:, 10], key_c[:, 0])
        np.testing.assert_array_equal(parent.fetch()[0][:, :10], keys)
        np.testing.assert_array_equal(child.fetch()[0][:, :10], keys)
        pool.check_accounting()

    def test_fork_truncates_and_cow_protects_shared_tail(self, pool):
        rng = np.random.default_rng(3)
        parent = PagedKVCache(pool, H, D, C)
        keys, values = _kv(rng, 10)
        parent.prefill(keys, values, None, None)
        child = parent.fork(6)  # mid-page boundary: tail page shared partially
        assert child.num_tokens == 6
        shared_tail = child.pages[-1]
        assert pool.refcount(shared_tail) == 2
        # The child extends past the fork point, then forks again: the flush
        # must CoW-copy the shared tail page (parent tokens 6..9 live there)
        # instead of overwriting it.
        extra_k, extra_v = _kv(rng, 3)
        child.extend_chunk(extra_k, extra_v, None, np.arange(6, 9))
        grandchild = child.fork()  # forces child flush into the shared page
        assert child.pages[-2] != shared_tail  # CoW replaced it
        assert pool.refcount(shared_tail) == 1  # only the parent holds it now
        np.testing.assert_array_equal(parent.fetch()[0], keys)
        np.testing.assert_array_equal(grandchild.fetch()[0][:, 6:], extra_k)
        np.testing.assert_array_equal(child.fetch()[0][:, 6:], extra_k)
        np.testing.assert_array_equal(child.fetch()[0][:, :6], keys[:, :6])
        pool.check_accounting()

    def test_fork_bounds_validation(self, pool):
        cache = PagedKVCache(pool, H, D, C)
        rng = np.random.default_rng(4)
        keys, values = _kv(rng, 5)
        cache.prefill(keys, values, None, None)
        with pytest.raises(ValueError):
            cache.fork(6)
        with pytest.raises(ValueError):
            cache.fork(-1)

    def test_release_returns_all_pages(self, pool):
        rng = np.random.default_rng(5)
        cache = PagedKVCache(pool, H, D, C)
        keys, values = _kv(rng, 9)
        cache.prefill(keys, values, None, None)
        fork = cache.fork()
        assert pool.n_referenced > 0
        cache.release()
        fork.release()
        assert pool.n_referenced == 0 and pool.n_free == pool.n_pages
        cache.release()  # idempotent
        pool.check_accounting()

    def test_stored_bytes_is_page_granular(self, pool):
        cache = PagedKVCache(pool, H, D, C)
        rng = np.random.default_rng(6)
        keys, values = _kv(rng, 5)  # 5 tokens -> 2 pages of 4
        cache.prefill(keys, values, None, None)
        assert cache.stored_bytes(16) == 2 * 2 * 4 * H * D * 16 // 8

    def test_geometry_mismatch_raises(self, pool):
        with pytest.raises(ValueError):
            PagedKVCache(pool, H + 1, D, C)


class TestPagedCacheFactory:
    def test_pools_shared_across_sequences_per_layer(self):
        """One pool per factory: a page id spans every layer's arena."""
        factory = PagedCacheFactory(page_tokens=4, initial_pages=4)
        a0 = factory(0, H, D, C, None)
        b0 = factory(0, H, D, C, None)
        a1 = factory(1, H, D, C, None)
        assert a0.pool is b0.pool is a1.pool
        assert (a0.layer, a1.layer) == (0, 1) and a0.pool.n_layers == 2
        assert a0._table is not b0._table  # one table per handle here
        assert len(factory.pools) == 1

    def test_factory_accounting_spans_all_pools(self):
        rng = np.random.default_rng(7)
        factory = PagedCacheFactory(page_tokens=4, initial_pages=4)
        caches = factory.make_stack(3, H, D, C)
        for cache in caches:
            keys, values = _kv(rng, 6)
            cache.prefill(keys, values, None, None)
        caches[0].fork_stack(caches)  # leaves referenced pages behind (flushes)
        factory.check_accounting()
        assert factory.total_pages == factory.referenced_pages + factory.free_pages
        assert factory.referenced_pages == 2  # ceil(6/4) page ids span 3 layers
        assert factory.pools[0].bytes_per_page == 3 * 2 * H * 4 * D * 4

    def test_registry_spec_round_trip(self):
        factory = resolve("cache", "paged:page_tokens=8,initial_pages=2,grow=false")
        assert isinstance(factory, PagedCacheFactory)
        assert factory.page_tokens == 8 and factory.grow is False
        cache = factory(0, H, D, C, None)
        assert isinstance(cache, PagedKVCache)
        assert cache.supports_chunked_prefill

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedCacheFactory(page_tokens=0)


class TestCheckpointRoundTrip:
    def _filled(self, pool, rng, n_prefill=10, n_append=3):
        cache = PagedKVCache(pool, H, D, C)
        keys, values = _kv(rng, n_prefill)
        cache.prefill(keys, values, None, None)
        for position in range(n_prefill, n_prefill + n_append):
            key, value = _kv(rng, 1)
            cache.append(key[:, 0], value[:, 0], None, position)
        return cache

    def test_export_import_round_trip_same_pool(self, pool):
        rng = np.random.default_rng(10)
        source = self._filled(pool, rng)
        ckpt = source.export_state()
        assert ckpt.n_tokens == 13
        assert ckpt.n_heads == H and ckpt.head_dim == D
        assert ckpt.n_pages == -(-13 // 4)  # ceil over source page_tokens
        assert ckpt.nbytes == 2 * H * 13 * D * 4
        restored = PagedKVCache(pool, H, D, C)
        restored.import_state(ckpt)
        assert restored.num_tokens == source.num_tokens == 13
        for a, b in zip(restored.fetch(), source.fetch()):
            np.testing.assert_array_equal(a, b)
        pool.check_accounting()
        source.release()
        restored.release()
        assert pool.n_referenced == 0
        pool.check_accounting()

    def test_checkpoint_is_portable_across_page_geometries(self, pool):
        rng = np.random.default_rng(11)
        source = self._filled(pool, rng)
        keys_ref, values_ref = (a.copy() for a in source.fetch()[:2])
        ckpt = source.export_state()
        # Self-contained: the source (and its whole pool) can die first.
        source.release()
        assert pool.n_referenced == 0
        other = KVPagePool(H, D, page_tokens=3, initial_pages=2)
        restored = PagedKVCache(other, H, D, C)
        restored.import_state(ckpt)  # re-chunks 4-token pages into 3-token
        np.testing.assert_array_equal(restored.fetch()[0], keys_ref)
        np.testing.assert_array_equal(restored.fetch()[1], values_ref)
        other.check_accounting()
        # The restored cache keeps decoding like a local one.
        key, value = _kv(rng, 1)
        restored.append(key[:, 0], value[:, 0], None, 13)
        assert restored.num_tokens == 14
        np.testing.assert_array_equal(restored.fetch()[0][:, 13], key[:, 0])
        restored.release()
        other.check_accounting()
        assert other.n_referenced == 0

    def test_export_is_read_only_for_pool_accounting(self, pool):
        rng = np.random.default_rng(12)
        source = self._filled(pool, rng)
        fork = source.fork(8)  # flushes: pages + CoW sharing now exist
        free_before = pool.n_free
        refcounts_before = list(pool._refcounts)
        source.export_state()
        fork.export_state()
        assert pool.n_free == free_before
        assert list(pool._refcounts) == refcounts_before
        pool.check_accounting()

    def test_cow_shared_pages_are_never_aliased(self, pool):
        rng = np.random.default_rng(13)
        parent = self._filled(pool, rng, n_prefill=10, n_append=0)
        child = parent.fork(10)  # pages shared via refcounts, zero-copy
        keys_ref = child.fetch()[0].copy()
        ckpt = child.export_state()
        restored = PagedKVCache(pool, H, D, C)
        restored.import_state(ckpt)
        # Divergent parent writes must not leak into the restored copy.
        key, value = _kv(rng, 1)
        parent.append(key[:, 0], value[:, 0], None, 10)
        np.testing.assert_array_equal(restored.fetch()[0], keys_ref)
        pool.check_accounting()

    def test_import_requires_empty_cache(self, pool):
        rng = np.random.default_rng(14)
        source = self._filled(pool, rng)
        ckpt = source.export_state()
        with pytest.raises(ValueError, match="empty cache"):
            source.import_state(ckpt)

    def test_import_geometry_mismatch_raises(self, pool):
        rng = np.random.default_rng(15)
        ckpt = self._filled(pool, rng).export_state()
        other = KVPagePool(H + 1, D, page_tokens=4, initial_pages=4)
        with pytest.raises(ValueError, match="geometry"):
            PagedKVCache(other, H + 1, D, C).import_state(ckpt)

    def test_exhausted_import_releases_partial_allocation(self, pool):
        rng = np.random.default_rng(16)
        ckpt = self._filled(pool, rng).export_state()  # needs 4 pages of 4
        tiny = KVPagePool(H, D, page_tokens=4, initial_pages=2, grow=False)
        with pytest.raises(PoolExhausted):
            PagedKVCache(tiny, H, D, C).import_state(ckpt)
        # All-or-nothing: the partially-imported pages were handed back.
        assert tiny.n_free == 2 and tiny.n_referenced == 0
        tiny.check_accounting()

    def test_supports_checkpoint_flags(self, pool):
        assert PagedKVCache.supports_checkpoint is True
        assert FullKVCache.supports_checkpoint is False  # the contiguous oracle


class TestAccountingDiagnostics:
    def test_duplicate_free_pages_are_named(self, pool):
        pool._free.append(pool._free[0])
        with pytest.raises(AssertionError,
                           match=r"duplicate pages \[7\]"):
            pool.check_accounting()

    def test_count_mismatch_reports_counts(self, pool):
        page = pool.alloc()
        pool._free.append(page)  # page is now referenced AND free
        with pytest.raises(AssertionError,
                           match=r"8 allocated != 1 referenced \+ 8 free"):
            pool.check_accounting()

    def test_referenced_free_overlap_names_pages(self, pool):
        held = pool.alloc()
        leaked = pool.alloc()
        pool._free.append(held)
        pool._refcounts[leaked] = 0  # counts balance; overlap remains
        with pytest.raises(AssertionError,
                           match=rf"referenced pages \[{held}\]"):
            pool.check_accounting()

    def test_negative_refcount_names_pages(self, pool):
        page = pool.alloc()
        pool._refcounts[page] = -1
        pool._free.append(page)
        with pytest.raises(AssertionError,
                           match=rf"negative refcount on pages \[{page}\]"):
            pool.check_accounting()

    def test_negative_refcounts_are_not_references(self, pool):
        pages = [pool.alloc() for _ in range(3)]
        pool._refcounts[pages[0]] = -2
        assert pool.n_referenced == 2


class TestPresizedPools:
    """A KVSpaceManager bounding a *growable* factory by ``capacity_tokens``
    has each pool's arena mapped once, at the size that capacity can fill;
    the pool grows into the reserve without moving its pages."""

    def test_manager_capacity_reserves_future_arenas(self, small_model):
        from repro.serve.kv_manager import KVSpaceManager

        factory = PagedCacheFactory(page_tokens=8)
        KVSpaceManager(small_model, factory, capacity_tokens=1001)
        small_model.make_caches(factory)
        (pool,) = factory.pools  # one pool, an arena per layer
        assert pool._keys.shape[:2] == pool._values.shape[:2] == (
            small_model.config.n_layers, 126)  # ceil(1001/8)
        assert pool.n_pages == 64  # accounting starts where it always did
        assert factory.capacity_tokens is None  # still growable

    def test_growth_into_and_beyond_the_reserve(self):
        rng = np.random.default_rng(0)
        pool = KVPagePool(H, D, page_tokens=4, initial_pages=2, reserve_pages=10)
        arena = pool._keys
        first = pool.alloc()
        keys, _values = _kv(rng, 4)
        pool.key_page(first)[:] = keys
        pages = [first] + [pool.alloc() for _ in range(9)]
        assert pool.n_pages == 10 and pool._keys is arena  # 2 -> 4 -> 8 -> 10, in place
        pages.append(pool.alloc())  # the 11th page outgrows the reserve
        assert pool.n_pages == 20 and pool._keys is not arena
        assert sorted(pages) == list(range(11))  # low page ids first, none twice
        np.testing.assert_array_equal(pool.key_page(first), keys)
        pool.check_accounting()

    def test_smaller_capacity_and_bounded_factories_are_left_alone(self, small_model):
        from repro.serve.kv_manager import KVSpaceManager

        growable = PagedCacheFactory(page_tokens=8)
        KVSpaceManager(small_model, growable, capacity_tokens=64)
        KVSpaceManager(small_model, growable)  # no capacity: nothing to reserve
        assert growable(0, H, D, C, None).pool._keys.shape[1] == 64
        bounded = PagedCacheFactory(page_tokens=8, initial_pages=16, grow=False)
        manager = KVSpaceManager(small_model, bounded, capacity_tokens=4096)
        assert bounded.reserve_pages == 0 and bounded.capacity_tokens == 128
        assert manager.capacity_tokens == 120  # physical pool minus CoW headroom
        assert all(pool._keys.shape[1] == 16 for pool in bounded.pools)

    def test_untouched_pages_of_a_big_arena_stay_uncommitted(self):
        """The arena is its own mapping: a reserve far beyond what is used
        must not cost resident memory (this is what makes reserving free)."""
        import resource

        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pool = KVPagePool(8, 64, page_tokens=16, reserve_pages=4096)  # 2 x 128 MiB
        keys = np.ones((8, 16, 64), dtype=np.float32)
        for _ in range(4):
            pool.key_page(pool.alloc())[:] = keys
        pool.check_accounting()
        grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        assert grown_kib < 32 * 1024
