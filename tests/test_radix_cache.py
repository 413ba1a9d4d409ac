"""RadixPrefixIndex tests: matching semantics, edge splitting, LRU eviction.

The index stores forked KV cache state; these tests use a lightweight fake
cache that records fork/release calls, plus one end-to-end check with real
:class:`PagedKVCache` forks to prove evicted entries return their pages.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kv_pool import KVPagePool, PagedKVCache
from repro.serve.radix import RadixPrefixIndex


class FakeCache:
    """Minimal fork/release-tracking stand-in for a LayerKVCache (the radix
    index releases an entry's caches through ``release_stack``)."""

    supports_chunked_prefill = True

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.released = False

    def fork(self, upto=None):
        return FakeCache(self.depth if upto is None else upto)

    def release(self) -> None:
        self.released = True

    def release_stack(self, caches) -> None:
        for cache in caches:
            cache.release()


def _entry_caches(depth: int, n_layers: int = 2) -> list[FakeCache]:
    return [FakeCache(depth) for _ in range(n_layers)]


class TestMatching:
    def test_empty_index_misses(self):
        index = RadixPrefixIndex()
        assert index.match([1, 2, 3]) == (0, None)
        assert index.misses == 1

    def test_exact_match(self):
        index = RadixPrefixIndex()
        index.insert([1, 2, 3, 4], _entry_caches(4))
        use_len, entry = index.match([1, 2, 3, 4])
        assert use_len == 4 and entry.depth == 4
        assert index.hits == 1

    def test_longer_query_matches_stored_prefix(self):
        index = RadixPrefixIndex()
        index.insert([1, 2, 3], _entry_caches(3))
        use_len, entry = index.match([1, 2, 3, 9, 9])
        assert use_len == 3 and entry.depth == 3

    def test_shorter_query_usable_via_truncating_fork(self):
        # The stored entry is deeper than the match; fork(upto) truncates,
        # so the full matched length is usable.
        index = RadixPrefixIndex()
        index.insert([1, 2, 3, 4, 5, 6], _entry_caches(6))
        use_len, entry = index.match([1, 2, 3])
        assert use_len == 3 and entry.depth == 6

    def test_divergence_mid_edge(self):
        index = RadixPrefixIndex()
        index.insert([1, 2, 3, 4, 5], _entry_caches(5))
        use_len, entry = index.match([1, 2, 3, 7, 8])
        assert use_len == 3 and entry.depth == 5

    def test_prefers_most_recently_used_subtree_entry(self):
        index = RadixPrefixIndex()
        index.insert([1, 2, 3, 4], _entry_caches(4))
        index.insert([1, 2, 5, 6], _entry_caches(4))
        index.match([1, 2, 3, 4])  # touch the first entry
        use_len, entry = index.match([1, 2, 9])
        assert use_len == 2
        assert entry.depth == 4  # the recently-touched one wins

    def test_no_shared_first_token_misses(self):
        index = RadixPrefixIndex()
        index.insert([1, 2, 3], _entry_caches(3))
        assert index.match([9, 2, 3]) == (0, None)


class TestInsertion:
    def test_edge_split_keeps_both_entries_reachable(self):
        index = RadixPrefixIndex()
        index.insert([1, 2, 3, 4], _entry_caches(4))
        index.insert([1, 2, 7, 8], _entry_caches(4))
        assert index.n_entries == 2
        assert index.match([1, 2, 3, 4])[0] == 4
        assert index.match([1, 2, 7, 8])[0] == 4

    def test_inner_prefix_entry_after_split(self):
        index = RadixPrefixIndex()
        index.insert([1, 2, 3, 4], _entry_caches(4))
        index.insert([1, 2], _entry_caches(2))  # lands on the split node
        assert index.n_entries == 2
        use_len, entry = index.match([1, 2, 9])
        assert use_len == 2

    def test_duplicate_insert_releases_incoming_forks(self):
        index = RadixPrefixIndex()
        index.insert([1, 2, 3], _entry_caches(3))
        incoming = _entry_caches(3)
        assert index.insert([1, 2, 3], incoming) is False
        assert all(cache.released for cache in incoming)
        assert index.n_entries == 1

    def test_stored_tokens_accounting(self):
        index = RadixPrefixIndex()
        index.insert([1, 2, 3], _entry_caches(3))
        index.insert([1, 2, 3, 4, 5], _entry_caches(5))
        assert index.stored_tokens == 8

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            RadixPrefixIndex().insert([], _entry_caches(0))

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            RadixPrefixIndex(max_tokens=0)


class TestEviction:
    def test_lru_eviction_respects_budget_and_releases(self):
        index = RadixPrefixIndex(max_tokens=10)
        first = _entry_caches(4)
        second = _entry_caches(4)
        index.insert([1, 2, 3, 4], first)
        index.insert([5, 6, 7, 8], second)
        index.match([1, 2, 3, 4])  # first becomes most recently used
        third = _entry_caches(4)
        index.insert([9, 10, 11, 12], third)  # 12 tokens > 10: evict LRU
        assert index.stored_tokens <= 10
        assert all(cache.released for cache in second)  # LRU victim
        assert not any(cache.released for cache in first)
        assert index.match([5, 6, 7, 8]) == (0, None)
        assert index.match([1, 2, 3, 4])[0] == 4

    def test_clear_releases_everything(self):
        index = RadixPrefixIndex()
        first = _entry_caches(3)
        second = _entry_caches(2)
        index.insert([1, 2, 3], first)
        index.insert([4, 5], second)
        index.clear()
        assert index.n_entries == 0 and index.stored_tokens == 0
        assert all(cache.released for cache in first + second)
        assert index.match([1, 2, 3]) == (0, None)


class _LoggedCache:
    """A cache stand-in whose release lands in a shared, ordered log."""

    def __init__(self, prompt, log) -> None:
        self.prompt, self.log = prompt, log

    def release(self) -> None:
        self.log.append(self.prompt)

    def release_stack(self, caches) -> None:
        for cache in caches:
            cache.release()


class _MinScanIndex(RadixPrefixIndex):
    """The reference victim choice: scan the whole trie for the smallest
    ``last_used`` stamp (what ``evict_lru`` did before the recency list)."""

    def evict_lru(self) -> int:
        victim, stack = None, [self._root]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            if node.entry is not None and (
                    victim is None or node.entry.last_used < victim.entry.last_used):
                victim = node
        if victim is None:
            return 0
        depth = victim.entry.depth
        self._drop_entry(victim)
        return depth


#: Short prompts over a 3-token alphabet: heavy prefix sharing, edge
#: splits, inner entries, subtree and ancestor matches.
_prompts = st.lists(st.integers(1, 3), min_size=1, max_size=6).map(tuple)
_ops = st.one_of(
    st.tuples(st.just("insert"), _prompts),
    st.tuples(st.just("match"), _prompts),
    st.tuples(st.just("budget"), st.one_of(st.none(), st.integers(1, 24))),
    st.tuples(st.just("evict"), st.none()),
    st.tuples(st.just("clear"), st.none()))


class TestRecencyListMatchesMinScan:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(st.none(), st.integers(1, 24)), st.lists(_ops, max_size=60))
    def test_same_victims_in_the_same_order(self, budget, ops):
        logs = [], []
        indices = RadixPrefixIndex(budget), _MinScanIndex(budget)
        for op, arg in ops:
            outcomes = []
            for index, log in zip(indices, logs):
                if op == "insert":
                    outcomes.append(index.insert(arg, [_LoggedCache(arg, log)]))
                elif op == "match":
                    use_len, entry = index.match(arg)
                    outcomes.append((use_len, entry and entry.caches[0].prompt))
                elif op == "budget":
                    outcomes.append(index.set_max_tokens(arg))
                elif op == "evict":
                    outcomes.append(index.evict_lru())
                else:
                    outcomes.append(index.clear())
                outcomes.append((index.n_entries, index.stored_tokens,
                                 index.hits, index.misses))
            assert outcomes[:2] == outcomes[2:], (op, arg)
            assert logs[0] == logs[1], (op, arg)
            # The recency list is exactly the resident entries, oldest first.
            stamps = [node.entry.last_used for node in indices[0]._lru.values()]
            assert stamps == sorted(stamps) and len(stamps) == indices[0].n_entries


class TestWithRealPagedCaches:
    def test_eviction_returns_pages_to_the_pool(self):
        pool = KVPagePool(2, 4, page_tokens=4, initial_pages=8)
        rng = np.random.default_rng(0)

        def paged_entry(n_tokens):
            cache = PagedKVCache(pool, 2, 4, 8)
            keys = rng.standard_normal((2, n_tokens, 4)).astype(np.float32)
            values = rng.standard_normal((2, n_tokens, 4)).astype(np.float32)
            cache.prefill(keys, values, None, None)
            fork = cache.fork()
            cache.release()
            return fork

        index = RadixPrefixIndex(max_tokens=8)
        index.insert([1, 2, 3, 4, 5, 6], [paged_entry(6)])
        assert pool.n_referenced == 2  # ceil(6/4) pages held by the entry
        index.insert([7, 8, 9, 10, 11, 12], [paged_entry(6)])  # evicts first
        pool.check_accounting()
        index.clear()
        assert pool.n_referenced == 0 and pool.n_free == pool.n_pages
        pool.check_accounting()
