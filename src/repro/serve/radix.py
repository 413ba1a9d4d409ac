"""Radix-trie prefix index mapping prompt prefixes to forked KV cache state.

The serving engine inserts every fully-prefilled prompt together with a
*fork* of its per-layer KV caches (a zero-copy copy-on-write snapshot for the
paged cache).  A later request whose prompt shares a prefix with any stored
prompt can then fork the stored state at the shared length and prefill only
its novel suffix — the radix structure makes the longest-shared-prefix lookup
O(prompt length) regardless of how many prompts are cached.

Entries are the unit of storage and eviction:

* :meth:`RadixPrefixIndex.insert` stores ``(tokens, caches)``; the index
  *owns* the passed cache forks from then on and releases them when the
  entry is evicted or the index is cleared.  Inserting a duplicate prompt
  refreshes the existing entry and releases the incoming forks.
* :meth:`RadixPrefixIndex.match` returns the usable shared length and the
  entry to fork from.  Any entry *below* the divergence point works — its
  prompt agrees with the query on every matched token and
  ``LayerKVCache.fork(upto)`` truncates — so the lookup walks the trie as
  far as tokens agree and picks the most recently used entry in the
  remaining subtree (falling back to the deepest entry on the path).
* a ``max_tokens`` budget evicts least-recently-used entries (token count
  is the sum of entry depths — an upper bound, since page-level CoW sharing
  means the real footprint is smaller).  Resident entries sit in a recency
  list (least recently used first), so picking a victim is O(1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.llm.cache import LayerKVCache


@dataclass
class PrefixEntry:
    """One cached prompt: per-layer cache forks covering ``depth`` tokens."""

    caches: list[LayerKVCache]
    depth: int
    last_used: int = 0

    def release(self) -> None:
        _release(self.caches)
        self.caches = []


def _release(caches: list[LayerKVCache]) -> None:
    """Release one sequence's stack of caches (an index entry may hold none)."""
    if caches:
        caches[0].release_stack(caches)


class _Node:
    """A radix node: ``edge`` labels the path from the parent."""

    __slots__ = ("edge", "parent", "children", "entry")

    def __init__(self, edge: tuple[int, ...], parent: "_Node | None") -> None:
        self.edge = edge
        self.parent = parent
        self.children: dict[int, _Node] = {}
        self.entry: PrefixEntry | None = None


def _common_prefix_len(a: tuple[int, ...], b: Sequence[int], b_start: int) -> int:
    """Length of the shared prefix of ``a`` and ``b[b_start:]``."""
    limit = min(len(a), len(b) - b_start)
    i = 0
    while i < limit and a[i] == b[b_start + i]:
        i += 1
    return i


class RadixPrefixIndex:
    """Longest-shared-prefix index over prompts with LRU token budgeting."""

    def __init__(self, max_tokens: int | None = None) -> None:
        if max_tokens is not None and max_tokens <= 0:
            raise ValueError("max_tokens must be positive (or None for unbounded)")
        self.max_tokens = max_tokens
        self._root = _Node((), None)
        self._clock = 0
        self._stored_tokens = 0
        #: Recency list: ``id(entry) -> node`` of every resident entry, least
        #: recently used first (an entry is alive while listed, so its id is
        #: stable).  Ordered exactly as ascending ``last_used``.
        self._lru: "OrderedDict[int, _Node]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- stats ----------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return len(self._lru)

    @property
    def stored_tokens(self) -> int:
        """Sum of entry depths (an upper bound on unique cached tokens)."""
        return self._stored_tokens

    def _touch(self, entry: PrefixEntry) -> None:
        """Stamp ``entry`` as the most recently used."""
        self._clock += 1
        entry.last_used = self._clock
        self._lru.move_to_end(id(entry))

    # -- insertion ------------------------------------------------------
    def insert(self, tokens: Sequence[int], caches: list[LayerKVCache]) -> bool:
        """Store ``caches`` (now owned by the index) under ``tokens``.

        Returns False — releasing the incoming forks — when the exact prompt
        is already cached; the existing entry is refreshed instead.
        """
        tokens = tuple(tokens)
        if not tokens:
            raise ValueError("cannot index an empty prompt")
        node, i = self._root, 0
        while i < len(tokens):
            child = node.children.get(tokens[i])
            if child is None:
                child = _Node(tokens[i:], node)
                node.children[tokens[i]] = child
                node, i = child, len(tokens)
                continue
            common = _common_prefix_len(child.edge, tokens, i)
            if common == len(child.edge):
                node, i = child, i + common
                continue
            # Split the edge at the divergence point.
            mid = _Node(child.edge[:common], node)
            node.children[tokens[i]] = mid
            child.edge = child.edge[common:]
            child.parent = mid
            mid.children[child.edge[0]] = child
            i += common
            if i == len(tokens):
                node = mid
            else:
                tail = _Node(tokens[i:], mid)
                mid.children[tokens[i]] = tail
                node, i = tail, len(tokens)
        if node.entry is not None:
            self._touch(node.entry)
            _release(caches)
            return False
        node.entry = PrefixEntry(caches=list(caches), depth=len(tokens))
        self._lru[id(node.entry)] = node
        self._touch(node.entry)
        self._stored_tokens += len(tokens)
        self._evict_over_budget()
        return True

    # -- lookup ---------------------------------------------------------
    def match(self, tokens: Sequence[int]) -> tuple[int, PrefixEntry | None]:
        """Longest usable shared prefix of ``tokens`` against the index.

        Returns ``(use_len, entry)`` where ``entry.caches`` forked at
        ``use_len`` reproduce the KV state of prefilling
        ``tokens[:use_len]``; ``(0, None)`` when nothing matches.
        """
        node, i = self._root, 0
        last_consumed = 0  # tokens of node.edge the walk consumed
        tokens = tuple(tokens)
        while i < len(tokens):
            child = node.children.get(tokens[i])
            if child is None:
                break
            common = _common_prefix_len(child.edge, tokens, i)
            i += common
            node = child
            last_consumed = common
            if common < len(child.edge):
                break  # diverged (or ran out of query) mid-edge
        matched = i
        if matched == 0:
            self.misses += 1
            return 0, None
        # Any entry under `node` agrees with the query on all `matched`
        # tokens; prefer the most recently used one.  If the subtree holds
        # none (possible after eviction), fall back to the deepest entry on
        # the path to the root, usable only up to its own depth.
        best: PrefixEntry | None = None
        for entry in self._iter_entries(node):
            if best is None or entry.last_used > best.last_used:
                best = entry
        if best is not None:
            self._touch(best)
            self.hits += 1
            return matched, best
        ancestor, depth = node.parent, matched - last_consumed
        while ancestor is not None:
            if ancestor.entry is not None:
                self._touch(ancestor.entry)
                self.hits += 1
                return depth, ancestor.entry
            depth -= len(ancestor.edge)
            ancestor = ancestor.parent
        self.misses += 1
        return 0, None

    def longest_match_len(self, tokens: Sequence[int]) -> int:
        """Longest usable shared-prefix length for ``tokens`` — read-only.

        Exactly the length :meth:`match` would return, but without touching
        LRU recency or the hit/miss counters, so routers (and monitoring)
        can probe the index without perturbing eviction or statistics.
        """
        node, i = self._root, 0
        last_consumed = 0
        tokens = tuple(tokens)
        while i < len(tokens):
            child = node.children.get(tokens[i])
            if child is None:
                break
            common = _common_prefix_len(child.edge, tokens, i)
            i += common
            node = child
            last_consumed = common
            if common < len(child.edge):
                break  # diverged (or ran out of query) mid-edge
        matched = i
        if matched == 0:
            return 0
        if next(self._iter_entries(node), None) is not None:
            return matched  # some entry below the walk covers all matched tokens
        ancestor, depth = node.parent, matched - last_consumed
        while ancestor is not None:
            if ancestor.entry is not None:
                return depth
            depth -= len(ancestor.edge)
            ancestor = ancestor.parent
        return 0

    def _iter_entries(self, node: _Node) -> Iterator[PrefixEntry]:
        stack = [node]
        while stack:
            current = stack.pop()
            if current.entry is not None:
                yield current.entry
            stack.extend(current.children.values())

    def set_max_tokens(self, max_tokens: int | None) -> None:
        """Re-budget the index at runtime, evicting LRU entries to fit.

        The cluster's brownout ladder uses this to shrink the prefix cache
        under KV pressure and restore it on recovery.
        """
        if max_tokens is not None and max_tokens <= 0:
            raise ValueError("max_tokens must be positive (or None for unbounded)")
        self.max_tokens = max_tokens
        self._evict_over_budget()

    # -- eviction -------------------------------------------------------
    def evict_lru(self) -> int:
        """Evict the least-recently-used entry, releasing its cache forks.

        Returns the evicted entry's depth in tokens (0 when the index is
        empty).  The serving :class:`~repro.serve.kv_manager.KVSpaceManager`
        calls this to reclaim snapshot pages under KV-pool pressure before
        resorting to preempting running sequences.
        """
        if not self._lru:
            return 0
        victim_node = next(iter(self._lru.values()))
        depth = victim_node.entry.depth
        self._drop_entry(victim_node)
        return depth

    def _evict_over_budget(self) -> None:
        while (self.max_tokens is not None and self._stored_tokens > self.max_tokens
               and self._lru):
            self.evict_lru()

    def _drop_entry(self, node: _Node) -> None:
        entry = node.entry
        assert entry is not None
        self._stored_tokens -= entry.depth
        del self._lru[id(entry)]
        entry.release()
        node.entry = None
        # Prune now-useless nodes back toward the root.
        while (node.parent is not None and node.entry is None
               and not node.children):
            parent = node.parent
            del parent.children[node.edge[0]]
            node = parent

    def clear(self) -> None:
        """Release every cached fork and reset the index."""
        for node in self._lru.values():
            node.entry.release()
        self._root = _Node((), None)
        self._stored_tokens = 0
        self._lru.clear()
