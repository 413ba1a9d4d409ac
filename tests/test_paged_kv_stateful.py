"""Stateful harness for paged KV storage: stacks, forks and the radix index.

A hypothesis ``RuleBasedStateMachine`` drives multi-layer ``paged`` cache
stacks (``DecoderLM.make_caches`` over one shared ``PagedCacheFactory``),
lone per-layer forks and a ``RadixPrefixIndex`` through the lifecycle the
serving stack uses, in random order: make a stack, chunk-extend, decode-
append through the stack's decode group (one claim for every layer, then
each layer's step writing pages and slab row),
fork a stack or one handle at any length, truncate and release a stack or
one handle, export a stack and import it into a pool of another page size,
and radix insert / match-and-fork (of a random query, or of the least
recently used prompt) / ``evict_lru`` / ``set_max_tokens``.  Every handle
carries a dense per-sequence reference of what it must hold.

After every rule the machine checks:

* ``check_accounting`` is clean on every pool;
* each page's refcount equals the number of live page tables referencing it
  (one table per sequence, shared by the handles of its stack);
* each page table is exactly as long as its longest handle needs, and one
  that claims its tail page (``tail_owned``) is the only table listing it;
* every live handle's ``fetch()`` — its decode-slab row — and the pool pages
  behind all of its tokens equal its dense reference;
* the radix recency list holds exactly the resident entries, in the order a
  model of LRU predicts.

The stack operations go through ``LayerKVCache``'s stack protocol
(``fork_stack`` / ``truncate_stack`` / ``release_stack``) and pool pages are
addressed by the handle's ``layer``; caches without them (every layer its own
pool) take the per-layer calls, so the machine checks either storage layout.
``tests/test_seeded_bugs.py`` measures the machine on seeded mutations.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro.core.kv_pool import PagedCacheFactory
from repro.llm.config import tiny_config
from repro.llm.model import DecoderLM
from repro.serve.radix import RadixPrefixIndex

N_LAYERS, N_HEADS, HEAD_DIM = 3, 2, 4
PAGE_TOKENS = 4
#: Page sizes a checkpoint may be imported into (the source's among them).
IMPORT_PAGE_TOKENS = (3, PAGE_TOKENS, 8)
MAX_TOKENS = 40
MAX_UNITS = 8

LM = DecoderLM(tiny_config("paged-stateful", n_layers=N_LAYERS, d_model=N_HEADS * HEAD_DIM,
                           n_heads=N_HEADS, d_ff=16, vocab_size=8, max_seq_len=64), seed=0)

#: Token ids over a 3-letter alphabet: prompts share prefixes often.
_tokens = st.lists(st.integers(0, 2), min_size=1, max_size=6)
_seeds = st.integers(0, 2 ** 32 - 1)


# -- the two storage layouts ------------------------------------------------
def _fork_stack(caches, upto):
    if hasattr(caches[0], "fork_stack"):
        return caches[0].fork_stack(caches, upto)
    return [cache.fork(upto) for cache in caches]


def _truncate_stack(caches, n):
    if hasattr(caches[0], "truncate_stack"):
        caches[0].truncate_stack(caches, n)
    else:
        for cache in caches:
            cache.truncate(n)


def _release_stack(caches):
    if hasattr(caches[0], "release_stack"):
        caches[0].release_stack(caches)
    else:
        for cache in caches:
            cache.release()


def _layer(cache) -> dict:
    """Keyword selecting the handle's slice of a pool shared by layers."""
    return {"layer": cache.layer} if hasattr(cache, "layer") else {}


def _page_tokens_of(cache, n_tokens):
    """``([H, n, d], [H, n, d])`` of the handle's first ``n`` tokens, read
    straight from its pool pages."""
    pool, pages = cache.pool, cache.pages
    if n_tokens == 0:
        return (np.zeros((N_HEADS, 0, HEAD_DIM), np.float32),) * 2
    keys = np.concatenate([pool.key_page(page, **_layer(cache)) for page in pages], axis=1)
    values = np.concatenate([pool.value_page(page, **_layer(cache)) for page in pages], axis=1)
    return keys[:, :n_tokens], values[:, :n_tokens]


# -- the machine --------------------------------------------------------------
class Unit:
    """Live handles plus what each must hold.

    ``caches`` is a stack (one handle per layer) or a lone forked handle;
    ``refs[i]`` is handle ``i``'s dense ``(K, V)``; ``tokens`` the token ids of
    a stack whose layers agree (``None`` once they do not).
    """

    def __init__(self, caches, refs, tokens):
        self.caches, self.refs, self.tokens = list(caches), list(refs), tokens

    @property
    def min_tokens(self) -> int:
        return min(ref[0].shape[1] for ref in self.refs)


def _empty_ref():
    return (np.zeros((N_HEADS, 0, HEAD_DIM), np.float32),) * 2


def _kv(seed, n):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((N_HEADS, n, HEAD_DIM)).astype(np.float32),
            rng.standard_normal((N_HEADS, n, HEAD_DIM)).astype(np.float32))


def _entry_tokens(node) -> tuple:
    parts = []
    while node.parent is not None:
        parts.append(node.edge)
        node = node.parent
    return tuple(token for edge in reversed(parts) for token in edge)


class PagedKVMachine(RuleBasedStateMachine):
    """Random paged-KV lifecycles against dense references and an LRU model."""

    @initialize(budget=st.one_of(st.none(), st.integers(8, 48)))
    def start(self, budget):
        self.factory = PagedCacheFactory(page_tokens=PAGE_TOKENS, initial_pages=4)
        #: Import targets by page size (the source factory among them).
        self.targets = {pt: (self.factory if pt == PAGE_TOKENS
                             else PagedCacheFactory(page_tokens=pt, initial_pages=2))
                        for pt in IMPORT_PAGE_TOKENS}
        self.units: list[Unit] = []
        self.index = RadixPrefixIndex(max_tokens=budget)
        #: Model of the index: resident prompts, least recently used first,
        #: and the dense reference each entry's stack holds.
        self.recency: list[tuple] = []
        self.entry_refs: dict[tuple, list] = {}
        self.make_stack([0], 0)

    # -- helpers ------------------------------------------------------------
    def _pick(self, data, units=None) -> Unit:
        units = self.units if units is None else units
        return units[data.draw(st.integers(0, len(units) - 1))]

    def _extend(self, unit, tokens, seed):
        """Append one chunk of fresh K/V to every handle of ``unit``."""
        n = len(tokens)
        if max(ref[0].shape[1] for ref in unit.refs) + n > MAX_TOKENS:
            return
        for i, cache in enumerate(unit.caches):
            keys, values = _kv(seed + i, n)
            start = cache.num_tokens
            cache.extend_chunk(keys, values, None, np.arange(start, start + n))
            old_k, old_v = unit.refs[i]
            unit.refs[i] = (np.concatenate([old_k, keys], 1), np.concatenate([old_v, values], 1))
        if unit.tokens is not None:
            unit.tokens.extend(tokens)

    def _model_evict(self):
        budget = self.index.max_tokens
        while budget is not None and sum(map(len, self.recency)) > budget:
            self.entry_refs.pop(self.recency.pop(0))

    def _model_touch(self, prompt):
        self.recency.remove(prompt)
        self.recency.append(prompt)

    # -- stacks and handles ---------------------------------------------------
    @precondition(lambda self: len(self.units) < MAX_UNITS)
    @rule(tokens=_tokens, seed=_seeds)
    def make_stack(self, tokens, seed):
        """A new sequence: a stack of empty handles, then its first chunk."""
        unit = Unit(LM.make_caches(self.factory), [_empty_ref() for _ in range(N_LAYERS)], [])
        self.units.append(unit)
        self._extend(unit, tokens, seed)

    @precondition(lambda self: self.units)
    @rule(data=st.data(), tokens=_tokens, seed=_seeds)
    def extend_chunk(self, data, tokens, seed):
        self._extend(self._pick(data), tokens, seed)

    @precondition(lambda self: self.units)
    @rule(data=st.data(), token=st.integers(0, 2), seed=_seeds)
    def decode_append(self, data, token, seed):
        """The decode write: the stack's decode group claims the slot for
        every layer (a lone handle or a stack out of step: each cache its
        own), then each layer steps into it."""
        unit = self._pick(data)
        if max(ref[0].shape[1] for ref in unit.refs) + 1 > MAX_TOKENS:
            return
        group = unit.caches[0].decode_group([unit.caches])
        if group.claim is not None:
            group.claim()
        for i, cache in enumerate(unit.caches):
            keys, values = _kv(seed + i, 1)
            position = np.array([unit.refs[i][0].shape[1]])
            group.step(i, keys.swapaxes(0, 1), values.swapaxes(0, 1),
                       np.zeros((1, N_HEADS * HEAD_DIM), np.float32), position)
            if group.observe is not None:
                group.observe(i, np.zeros((1, N_HEADS, 1)))
            old_k, old_v = unit.refs[i]
            unit.refs[i] = (np.concatenate([old_k, keys], 1), np.concatenate([old_v, values], 1))
        if unit.tokens is not None:
            unit.tokens.append(token)

    @precondition(lambda self: self.units and len(self.units) < MAX_UNITS)
    @rule(data=st.data())
    def fork_stack(self, data):
        unit = self._pick(data)
        upto = data.draw(st.integers(0, unit.min_tokens))
        forks = _fork_stack(unit.caches, upto)
        self.units.append(Unit(forks, [(k[:, :upto], v[:, :upto]) for k, v in unit.refs],
                               None if unit.tokens is None else unit.tokens[:upto]))

    @precondition(lambda self: self.units and len(self.units) < MAX_UNITS)
    @rule(data=st.data())
    def fork_handle(self, data):
        unit = self._pick(data)
        i = data.draw(st.integers(0, len(unit.caches) - 1))
        keys, values = unit.refs[i]
        upto = data.draw(st.integers(0, keys.shape[1]))
        self.units.append(Unit([unit.caches[i].fork(upto)],
                               [(keys[:, :upto], values[:, :upto])], None))

    @precondition(lambda self: self.units)
    @rule(data=st.data())
    def truncate_stack(self, data):
        unit = self._pick(data)
        n = data.draw(st.integers(0, unit.min_tokens))
        _truncate_stack(unit.caches, n)
        unit.refs = [(k[:, :n], v[:, :n]) for k, v in unit.refs]
        if unit.tokens is not None:
            del unit.tokens[n:]

    @precondition(lambda self: self.units)
    @rule(data=st.data())
    def truncate_handle(self, data):
        unit = self._pick(data)
        i = data.draw(st.integers(0, len(unit.caches) - 1))
        keys, values = unit.refs[i]
        n = data.draw(st.integers(0, keys.shape[1]))
        unit.caches[i].truncate(n)
        unit.refs[i] = (keys[:, :n], values[:, :n])
        if len(unit.caches) > 1 and n != keys.shape[1]:
            unit.tokens = None

    @precondition(lambda self: self.units)
    @rule(data=st.data())
    def release_stack(self, data):
        unit = self._pick(data)
        _release_stack(unit.caches)
        self.units.remove(unit)

    @precondition(lambda self: any(len(u.caches) > 1 for u in self.units))
    @rule(data=st.data())
    def release_handle(self, data):
        """One layer of a stack lets go; the handle stays usable, empty."""
        unit = self._pick(data, [u for u in self.units if len(u.caches) > 1])
        i = data.draw(st.integers(0, len(unit.caches) - 1))
        unit.caches[i].release()
        unit.refs[i] = _empty_ref()
        unit.tokens = None

    @precondition(lambda self: self.units and len(self.units) < MAX_UNITS)
    @rule(data=st.data(), page_tokens=st.sampled_from(IMPORT_PAGE_TOKENS))
    def export_import(self, data, page_tokens):
        unit = self._pick(data)
        checkpoints = [cache.export_state() for cache in unit.caches]
        target = self.targets[page_tokens]
        if len(unit.caches) == N_LAYERS:
            restored = LM.make_caches(target)
        else:
            restored = [target(0, N_HEADS, HEAD_DIM, LM.config.d_model, None)]
        for cache, ckpt in zip(restored, checkpoints):
            cache.import_state(ckpt)
        self.units.append(Unit(restored, list(unit.refs),
                               None if unit.tokens is None else list(unit.tokens)))

    # -- the radix index ------------------------------------------------------
    @precondition(lambda self: any(u.min_tokens for u in self.units))
    @rule(data=st.data())
    def radix_insert(self, data):
        """Snapshot a unit's common prefix; a unit whose layers disagree is
        filed under made-up token ids."""
        unit = self._pick(data, [u for u in self.units if u.min_tokens])
        depth = unit.min_tokens
        prompt = tuple(unit.tokens[:depth] if unit.tokens is not None else data.draw(
            st.lists(st.integers(0, 2), min_size=depth, max_size=depth)))
        inserted = self.index.insert(prompt, _fork_stack(unit.caches, depth))
        assert inserted == (prompt not in self.entry_refs)
        if inserted:
            self.recency.append(prompt)
            self.entry_refs[prompt] = [(k[:, :depth], v[:, :depth]) for k, v in unit.refs]
        else:
            self._model_touch(prompt)
        self._model_evict()

    @precondition(lambda self: self.recency)
    @rule(data=st.data(), suffix=st.lists(st.integers(0, 2), max_size=3))
    def radix_match_and_fork(self, data, suffix):
        if data.draw(st.booleans()):
            base = data.draw(st.sampled_from(sorted(self.entry_refs)))
            query = list(base[:data.draw(st.integers(0, len(base)))]) + suffix
        else:
            query = suffix
        if query:
            self._match(query)

    @precondition(lambda self: len(self.recency) > 1)
    @rule()
    def radix_match_lru(self):
        """A hit on the least recently used prompt makes it the most recent."""
        self._match(list(self.recency[0]))

    def _match(self, query):
        """Match ``query``; a hit is touched, and forked while units have room."""
        use_len, entry = self.index.match(query)
        if entry is None:
            assert use_len == 0
            return
        prompt = next(_entry_tokens(node) for node in self.index._lru.values()
                      if node.entry is entry)
        self._model_touch(prompt)
        assert 0 < use_len <= len(prompt) and list(prompt[:use_len]) == query[:use_len]
        if len(self.units) < MAX_UNITS:
            forks = _fork_stack(entry.caches, use_len)
            self.units.append(Unit(forks, [(k[:, :use_len], v[:, :use_len])
                                           for k, v in self.entry_refs[prompt]],
                                   list(prompt[:use_len])))

    @precondition(lambda self: self.recency)
    @rule()
    def radix_evict_lru(self):
        assert self.index.evict_lru() == len(self.recency[0])
        self.entry_refs.pop(self.recency.pop(0))

    @precondition(lambda self: self.recency)
    @rule(budget=st.one_of(st.none(), st.integers(8, 48)))
    def radix_set_max_tokens(self, budget):
        self.index.set_max_tokens(budget)
        self._model_evict()

    # -- invariants -----------------------------------------------------------
    def _live(self):
        """Every live handle with its dense reference."""
        for unit in self.units:
            yield from zip(unit.caches, unit.refs)
        for node in self.index._lru.values():
            yield from zip(node.entry.caches, self.entry_refs[_entry_tokens(node)])

    @invariant()
    def pools_are_consistent(self):
        tables: dict[int, tuple] = {}  # id(table) -> (pool, table, longest handle)
        pools = {id(f_pool): f_pool for factory in self.targets.values()
                 for f_pool in factory.pools}
        for cache, _ref in self._live():
            table = cache._table
            _pool, _table, longest = tables.get(id(table), (cache.pool, table, 0))
            tables[id(table)] = (cache.pool, table, max(longest, cache.num_tokens))
            pools[id(cache.pool)] = cache.pool
        expected: dict[int, dict[int, int]] = {key: {} for key in pools}
        for pool, table, longest in tables.values():
            pages = table.pages
            assert len(pages) == -(-longest // pool.page_tokens), (len(pages), longest)
            # A table that claims its tail page holds it alone.
            assert not table.tail_owned or pool.refcount(pages[-1]) == 1, pages
            counts = expected[id(pool)]
            for page in pages:
                counts[page] = counts.get(page, 0) + 1
        for key, pool in pools.items():
            pool.check_accounting()
            actual = {page: pool.refcount(page) for page in range(pool.n_pages)
                      if pool.refcount(page)}
            assert actual == expected[key]

    @invariant()
    def handles_hold_their_references(self):
        for cache, (keys, values) in self._live():
            assert cache.num_tokens == keys.shape[1]
            fetched_k, fetched_v = cache.fetch()
            np.testing.assert_array_equal(fetched_k, keys)
            np.testing.assert_array_equal(fetched_v, values)
            paged_k, paged_v = _page_tokens_of(cache, cache.num_tokens)
            np.testing.assert_array_equal(paged_k, keys)
            np.testing.assert_array_equal(paged_v, values)

    @invariant()
    def recency_list_is_the_resident_entries(self):
        index = self.index
        resident = [_entry_tokens(node) for node in index._lru.values()]
        assert resident == self.recency
        stamps = [node.entry.last_used for node in index._lru.values()]
        assert stamps == sorted(stamps)
        in_trie, stack = 0, [index._root]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            in_trie += node.entry is not None
        assert in_trie == index.n_entries == len(resident)
        assert index.stored_tokens == sum(map(len, resident))

    def teardown(self):
        for unit in getattr(self, "units", []):
            _release_stack(unit.caches)
        if hasattr(self, "index"):
            self.index.clear()
            for factory in self.targets.values():
                factory.check_accounting()
                assert factory.referenced_pages == 0


#: Tier-1 budget: a few seconds.  ``tests/test_seeded_bugs.py`` reuses the
#: machine with its own budget.
TestPagedKVMachine = PagedKVMachine.TestCase
TestPagedKVMachine.settings = settings(max_examples=100, stateful_step_count=30,
                                       deadline=None, derandomize=True)
