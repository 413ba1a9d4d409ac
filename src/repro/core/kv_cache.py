"""AERP KV cache: per-head eviction plus popularity-driven recomputation.

This is the functional implementation of Section 4.1 of the paper.  Within a
decoder layer every sequence keeps at most ``budget`` tokens *per attention
head*, evicting the token with the lowest accumulated attention score
(Equation 3) whenever a new token arrives at a full head.  Sink tokens (the
first few positions) and the most recent tokens are protected from eviction,
following StreamingLLM/H2O practice and Section 7.1 of the paper.

Recomputation: tokens retained by at least ``popularity_threshold`` of the
heads ("popular" tokens) are stored as their block *input vector* ``x`` (C
elements) instead of per-head key/value pairs (2C elements across all heads);
their K/V are recomputed on demand through the layer's projection weights.
The same code path provides the storage accounting used by the accelerator
energy model and keeps the functional effect of fault injection honest: 2DRP
bit flips are applied to whatever representation is actually stored.

Storage.  Like Kelle's eDRAM, which holds ``N'`` entries per head and
overwrites an evicted entry in place, an :class:`AERPArena` — one per decoder
layer, owned by the cache factory and shared by every live sequence of that
layer — is a slab of fixed width ``W = max(budget, sink_tokens +
recent_window)`` (struct of arrays, no per-token Python objects):

* **Entry** — K and V ``[S, H, W, d]`` float32 for ``S`` sequence slots
  (doubled on demand; the last sequence to leave takes the grown slab with
  it), and per *policy row* ``[S, R, W]`` the entry's accumulated importance,
  token position and token index.  AERP evicts per head (``R = H``: an entry
  is a (token, head) pair); the baselines of :mod:`repro.baselines.eviction`
  share one token set across heads (``R = 1``, scored by the float64 sum
  over heads).
* **Token record** — what a token has once, whichever of its heads hold it:
  ``x``, creation step, observation base, format / pending-recompute /
  corrupted flags and how many entries hold it (0: a free record).  Every
  live token holds an entry, so ``R * W`` records per sequence suffice, and
  ``x`` sits on a fresh mapping of which only the written pages become
  resident.  Only per-head arenas keep records: a shared row never
  recomputes, injects faults or reports a token's ``x``.
* **Sequence slot** — one live sequence, allocated when its handle is built
  (the lowest free slot, so a batch that arrives together holds a contiguous
  range) and returned by ``release()`` — or, for a handle garbage collected
  unreleased, at the next allocation.  ``_seq[S, 11]`` holds its counters,
  among them its live and x-format token records.

Entries never move.  A sequence below budget writes a new token into entry
``count``; a full one writes it over each row's victim: for AERP the lowest
importance, ties to the oldest token (the old slot tables' "first minimum
in slot order"), among the entries that are neither sinks nor in the recent
window.  The arena keeps that eligibility across steps instead of masking
every entry each step: per entry a protection (+inf on sinks and on the
recent window, else 0) and per row a ring of the window's entries, by
position modulo the window.  A step whose newest positions advance by one
unprotects the one entry per row leaving the window and takes each row's
``argmin`` of importance plus protection, a second ``argmin`` checking that
the minimum is unique.  Ties, rows with nothing eligible, victim functions
without a ``key`` (``random``) and steps whose positions do not advance by
one take the masked choice (the sink and recent-window masks, then the
policy's victim function); the next full append at a newest position
rebuilds protection and ring.  Every operation adds or overwrites exactly
one entry in *every* row, so one ``count`` serves all rows and ``fetch``
never pads or masks: it returns the ``count`` entries of every row.  Entry
order is not token order; attention is permutation invariant (Equations
1-2), so only the summation order of its reductions differs from a
token-ordered store.

Group steps.  Every arena operation takes ``G`` sequence slots holding
equally many entries ``n`` and does its work once for all of them:
``append`` evicts and writes with one fancy-indexed write per array;
``fetch`` recomputes the group's pending tokens (below) in one
``recompute_fn`` call and returns ``slab[a:b, :, :n]`` views when the slots
are the contiguous range ``a:b`` (one gather otherwise); ``observe`` is one
``+=``.  A decode layer-step is one arena call, :meth:`AERPArena.step`: the
group's slot index and header rows are found once for its append and its
fetch, and its ``observe`` reuses that index.  The decode steps a group
of stacks through their :class:`SlabGroup` (the caches' ``decode_group``,
grouped by :meth:`SlabCache.group_key`: same arena, ``recompute_fn``
object and count, so nothing is padded or masked): per layer one
:meth:`SlabGroup.step` and one :meth:`SlabGroup.observe`, which ends the
members' step at that layer with one ``_STEP`` bump of the group's slots
(a lone stack reuses its caches' own slots arrays); the single-cache
``append`` / ``fetch`` / ``observe_attention`` are the arena's ``append`` /
``fetch`` / ``observe`` with ``G = 1``.  Prefill stays per sequence.  2DRP
fault injection (:meth:`AERPArena.inject_faults`) runs once per group
observe and once per prefill; for each sequence of the group it classifies
the tokens that came due, gathers their stored forms in token order into
one fp16 block, makes one sparse sampler call
(:func:`repro.memory.bitops.sample_bit_faults`) on the sequence's own
generator and scatters the block back, so a sequence's faults do not
depend on its company.

Recompute contract.  The slab holds K/V for every entry, whatever the
token's format; a token's K/V are rebuilt from its stored ``x`` (it is
*pending*) only where the slab's copy is not what the stored ``x``
projects to: after ``load``, whose prompt K/V came from the prefill's
``[N, C]`` GEMM (the first fetch recomputes the prompt's x-format tokens,
one ``recompute_fn`` call per group), and after a 2DRP fault corrupts a
stored ``x``.  A token appended in decode keeps the K/V its step
projected, in either format, so under ``refresh=none`` decode never calls
``recompute_fn``.  ``recompute_fn`` maps ``P`` rows at once (``x [P, C]``,
``positions [P]`` to keys and values ``[P, H, d]``) and must compute each
row as its own ``M = 1`` projection, so that a token's recomputed bits do
not depend on what it was recomputed with: a ``[P, C] @ [C, C]`` GEMM
differs in the last bits.  :meth:`repro.llm.model.DecoderLM.recompute_fn`
uses a stacked matmul, which NumPy issues as ``P`` independent ``M = 1``
calls.  At ``M = 1`` those bits equal the K/V columns of a decode step's
fused QKV GEMM on the ``bench-e2e`` model and on 6 of the 7
``TINY_CONFIGS`` (``tiny-qwen2-7b``, ``d_model`` 56, differs in the last
bit); a batched step's ``M = B`` GEMM differs from both in the last bits,
as it always did for its kv-format tokens.

:class:`TokenEntry`, :attr:`AERPCache.entries` and
:meth:`AERPCache.tokens_for_head` are introspection snapshots built on demand
from the arrays.  The original dict / list / set implementation lives on as
the test oracle (``tests/reference_aerp.py``): eviction victims, format
choices, counters, each (head, token) pair's importance and K/V, ``fetch``
outputs and the fault injector's RNG draw order equal it, up to each head's
entry order, for any call sequence with finite importance scores, however
the sequences of an arena are interleaved or grouped.
"""

from __future__ import annotations

import heapq
import math
import mmap
import weakref
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.llm.cache import LayerKVCache, RecomputeFn
from repro.core.importance import ImportanceTracker
from repro.core.refresh import KVFaultInjector
from repro.memory.bitops import sample_bit_faults, saturate_float16
from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.aerp import AERPConfig


@dataclass
class TokenEntry:
    """Snapshot of one token held by the cache (across heads).

    Built on demand by :attr:`AERPCache.entries`; every array is a copy, so
    mutating an entry does not touch the cache.  ``keys``, ``values`` and
    ``importance`` are zero in heads that no longer retain the token.  The
    2DRP class of a token is read off :meth:`AERPArena.importance_rates`.
    """

    token_index: int
    position: int
    x: np.ndarray
    keys: np.ndarray  # [H, head_dim]
    values: np.ndarray  # [H, head_dim]
    importance: np.ndarray  # [H]
    retaining_heads: set[int]
    storage_format: str = "kv"  # "kv" or "x"
    is_sink: bool = False
    corrupted: bool = False
    created_step: int = 0
    observation_count: int = 0


#: Added to the token index of every entry not at the lowest key.
_NOT_LOWEST = 1 << 62


def first_lowest(key: np.ndarray, eligible: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Per row of ``[G, R, n]``: the eligible entry with the lowest ``key``,
    ties to the oldest token (the lowest token index, hence position)."""
    key = np.where(eligible, key, np.inf)
    lowest = key == np.minimum.reduce(key, axis=2, keepdims=True)
    return (tokens + ~lowest * _NOT_LOWEST).argmin(axis=2)


#: ``(arena, slots, eligible, positions, tokens)`` -> ``[G, R]`` entries to
#: overwrite; ``eligible``, ``positions`` and ``tokens`` are ``[G, R, n]``.
Victims = Callable[["AERPArena", np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def lowest_importance(arena: "AERPArena", slots: np.ndarray, eligible: np.ndarray,
                      positions: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """AERP and H2O: the lowest accumulated importance."""
    return first_lowest(arena._importance[slots, :, :tokens.shape[2]], eligible, tokens)


#: The arena array whose lowest evictable entry is the victim: the arena
#: keeps it as a persistent key (see :class:`AERPArena`).
lowest_importance.key = "_importance"


def _zeros(shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """Zeros on a fresh mapping (not a reused spare): only written pages are resident."""
    size, itemsize = math.prod(shape), np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, size * itemsize or 1), dtype, size).reshape(shape)


#: Slots an arena starts with (Section 8's batch of 16).
_INITIAL_SLOTS = 16

#: Columns of :attr:`AERPArena._seq`: entries per row, steps ended, next token
#: index, observations, evictions, recomputations, the count the last
#: unobserved fetch handed out (-1: none), newest position, the position
#: whose append may follow the window with the victim key (-1: none), live
#: token records and those of them stored in x format.
(_COUNT, _STEP, _NEXT_TOKEN, _N_OBSERVED, _EVICTIONS, _RECOMPUTES, _FETCHED,
 _POSITION, _EXPECT, _LIVE, _N_X) = range(11)


class AERPArena:
    """One layer's fixed-width eviction slab (see the module docstring for the
    layout).  ``victims`` picks what a full sequence overwrites; ``shared=True``
    keeps one policy row per sequence instead of one per head, and no token
    records.  Group operations take ``slots``, an integer array of ``G``
    distinct sequence slots holding equally many entries.

    A ``victims`` function with a ``key`` attribute (the name of the entry
    array whose lowest evictable value it picks) lets the arena keep, across
    steps, which entries are protected (``_protect``: +inf on sinks and on
    the recent window, else 0) and a ring ``_ring`` of each row's window
    entries, by position modulo the window.  While every append of a
    sequence advances its newest position by one (``_EXPECT``), an append
    unprotects the entry leaving the window and picks the victims with one
    ``argmin`` of ``key + _protect``; any other step takes the masked
    choice, and the first full append at a newest position rebuilds
    ``_protect`` and the ring from its masks (a window of 0 is never
    followed)."""

    #: Arrays indexed by sequence slot along axis 0 (grown together).
    _SLOT_POOLS = ("_keys", "_values", "_importance", "_position", "_token", "_record", "_x",
                   "_created", "_obs_base", "_refs", "_stored_x", "_pending", "_corrupted",
                   "_protect", "_ring", "_seq")

    def __init__(self, n_heads: int, head_dim: int, d_model: int, config: "AERPConfig",
                 victims: Victims = lowest_importance, shared: bool = False) -> None:
        self.n_heads, self.head_dim, self.d_model = n_heads, head_dim, d_model
        self.config, self.victims = config, victims
        self.width = max(config.budget, config.sink_tokens + config.recent_window)
        # A new token takes x format while the recompute fraction is below
        # this; at 0 no token ever does, so nothing is pending recomputation.
        self._x_limit = config.max_recompute_fraction if config.recompute_enabled else 0.0
        self._heads = np.arange(n_heads)
        self._rows = np.arange(1 if shared else n_heads)  # policy rows per sequence
        self._records = not shared
        self._keyed: "str | None" = getattr(victims, "key", None)
        #: Per-slot random generators of victim functions that draw.
        self.rngs: dict[int, np.random.Generator] = {}
        # Slots of handles that were garbage collected unreleased.  The
        # collector can run in the middle of an arena operation, so their
        # finalizer only queues them here; ``alloc_slot`` takes them back.
        self._dropped: list[int] = []
        # The tokens ``[R, n]`` a fetch handed out, kept only when the sequence
        # mutates before its observe (never in the decode loop).
        self._stale: dict[int, np.ndarray] = {}
        # The slots array of the last ``step`` and its index, for its ``observe``.
        self._stepped: tuple = (None, None)
        self._allocate(_INITIAL_SLOTS)

    def _allocate(self, n_slots: int) -> None:
        """(Re)build every array for ``n_slots`` slots, all of them free.
        ``_flat`` holds a 1-D view of each (of ``_x``, one row per record):
        a step indexes its entries ``(slot * R + row) * W + entry``, its
        ring cells ``(slot * R + row) * max(window, 1) + cell`` and its
        records ``slot * R * W + record``."""
        rows, width = self._rows.size, self.width
        entries, records = (n_slots, rows, width), (n_slots, rows * width if self._records else 0)
        ring = (n_slots, rows, max(self.config.recent_window, 1))
        # Per entry its token's position, index and record.  Per record
        # ``_refs``, the entries holding its token (0: a free record), and
        # ``_obs_base``: the token has been observed ``_seq[s, _N_OBSERVED] -
        # _obs_base`` times; ``_pending``: x format, K/V to be rebuilt from x
        # (set by ``load`` and by a fault on x only; cleared when freed).
        self._flat = flat = SimpleNamespace()
        for names, shape, dtype in (
                ("_keys _values", (n_slots, self.n_heads, width, self.head_dim), np.float32),
                ("_importance _protect", entries, np.float64), ("_seq", (n_slots, 11), np.int64),
                ("_position _token _record", entries, np.int64), ("_ring", ring, np.int64),
                ("_created _obs_base _refs", records, np.int64),
                ("_x", records + (self.d_model,), np.float32),
                ("_stored_x _pending _corrupted", records, bool)):
            for name in names.split():  # _x on a fresh mapping: pages resident once written
                setattr(self, name, array := (_zeros if name == "_x" else np.zeros)(shape, dtype))
                setattr(flat, name, array.reshape(-1, *shape[2 if name == "_x" else 3:]))
        self._free_slots = list(range(n_slots))  # a heap: the lowest comes first
        # Sliced for every 0, 1, ... a group, a record or an element row needs.
        self._iota = np.arange(max(n_slots, self.d_model, self.n_heads * self.width) + 1)

    def alloc_slot(self) -> int:
        """Hand out the lowest free sequence slot, in the empty state."""
        while self._dropped:
            self.free_slot(self._dropped.pop())
        if not self._free_slots:  # double the slots, the old ones all taken
            n_slots = self._seq.shape[0]
            old = [getattr(self, name) for name in self._SLOT_POOLS]
            self._allocate(2 * n_slots)
            for name, array in zip(self._SLOT_POOLS, old):
                getattr(self, name)[:n_slots] = array
            self._free_slots = list(range(n_slots, 2 * n_slots))
        slot = heapq.heappop(self._free_slots)
        self._seq[slot] = self._refs[slot] = self._pending[slot] = 0
        self._seq[slot, _FETCHED] = self._seq[slot, _POSITION] = self._seq[slot, _EXPECT] = -1
        return slot

    def free_slot(self, slot: int) -> None:
        """Take back ``slot``.

        The last sequence to leave takes the grown slab with it: an idle
        arena holds no more than a fresh one.
        """
        heapq.heappush(self._free_slots, slot)
        self.rngs.pop(slot, None)
        self._stale.pop(slot, None)
        if len(self._free_slots) == self._seq.shape[0]:
            self._allocate(_INITIAL_SLOTS)

    def _snapshot_before_mutation(self, slots: list[int], fetched: list[int]) -> None:
        """Keep what unobserved fetches handed out before entries change."""
        for slot, count in zip(slots, fetched):
            if count >= 0 and slot not in self._stale:
                self._stale[slot] = self._token[slot, :, :count].copy()

    def _group(self, slots: np.ndarray) -> tuple["slice | np.ndarray", np.ndarray, int]:
        """The index of the group's slots — a slice when they are a contiguous
        ascending range, so that slab reads are views — its header rows (a
        view then, else a copy) and the entry count they share."""
        first, sel = int(slots[0]), slots
        if slots.size == 1 or np.logical_and.reduce(slots - first == self._iota[:slots.size]):
            sel = slice(first, first + slots.size)
        seq = self._seq[sel]
        count = int(seq[0, _COUNT])
        if slots.size > 1 and np.logical_or.reduce(seq[:, _COUNT] != count):
            raise ValueError("a group's sequences must hold equally many tokens per head")
        return sel, seq, count

    def step(self, slots: np.ndarray, keys: np.ndarray, values: np.ndarray, xs: np.ndarray,
             positions: np.ndarray, recompute_fn: RecomputeFn) -> tuple[np.ndarray, np.ndarray]:
        """One decode layer-step of the group: :meth:`append` (starting
        scores 0) then :meth:`fetch`, on one :meth:`_group` lookup whose index
        the step's :meth:`observe` reuses; returns ``(K, V)`` as :meth:`fetch`
        does.  The new tokens keep the K/V handed in: the fetch recomputes
        only tokens pending since a ``load`` or a fault on their ``x``."""
        sel, seq, count = self._group(slots)
        self._stepped = slots, sel
        self._append(slots, sel, seq, count, keys, values, xs, positions, 0.0)
        return self._fetch(slots, sel, recompute_fn)

    def append(self, slots: np.ndarray, keys: np.ndarray, values: np.ndarray,
               xs: np.ndarray, positions: np.ndarray, scores: "float | np.ndarray" = 0.0) -> None:
        """Insert one token per sequence (``keys``/``values`` ``[G, H, d]``,
        ``xs`` ``[G, C]``, ``positions`` ``[G]``) with its starting ``scores``,
        evicting in place when full."""
        self._append(slots, *self._group(slots), keys, values, xs, positions, scores)

    def fetch(self, slots: np.ndarray,
              recompute_fn: RecomputeFn) -> tuple[np.ndarray, np.ndarray]:
        """``(K, V)``, ``[G, H, n, d]`` each (slab views for contiguous
        slots), after pending x-format tokens are recomputed into the slab."""
        return self._fetch(slots, self._group(slots)[0], recompute_fn)

    def _append(self, slots: np.ndarray, sel: "slice | np.ndarray", seq: np.ndarray, count: int,
                keys: np.ndarray, values: np.ndarray, xs: np.ndarray, positions: np.ndarray,
                scores: "float | np.ndarray") -> None:
        """:meth:`append` on what :meth:`_group` found.  Every new token keeps
        the K/V handed in, whatever its format: none is pending recomputation."""
        if np.maximum.reduce(seq[:, _FETCHED]) >= 0:
            self._snapshot_before_mutation(slots.tolist(), seq[:, _FETCHED].tolist())
        synced = np.logical_and.reduce(positions == seq[:, _EXPECT])
        np.maximum(seq[:, _POSITION], positions, out=seq[:, _POSITION])
        if not synced and self._keyed and np.logical_and.reduce(positions == seq[:, _POSITION]):
            synced = None  # the newest tokens: an eviction rebuilds the protection
        flat, at = self._flat, slots[:, None]
        rows = at * self._rows.size + self._rows  # [G, R] flat (slot, row)
        cell = rows * self._ring.shape[2] + (positions % self._ring.shape[2])[:, None]
        if synced:  # each row's entry leaving the window becomes evictable
            flat._protect[rows * self.width + flat._ring[cell]] = 0.0
        if count >= self.config.budget:
            entry, new, synced = self._evict(slots, sel, seq, count, rows, synced)
        else:
            entry, new = count, rows * self.width + count
            seq[:, _COUNT] = count + 1
        # ``new``: the [G, R] flat entries, with R = H the K/V rows too.
        kv = new if self._records else (at * self.n_heads + self._heads) * self.width + entry
        flat._keys[kv] = keys
        flat._values[kv] = values
        flat._importance[new] = scores
        flat._position[new] = positions[:, None]
        flat._token[new] = seq[:, _NEXT_TOKEN, None]
        seq[:, _NEXT_TOKEN] += 1
        if synced:  # the new tokens enter the window
            flat._protect[new] = np.inf
            flat._ring[cell] = entry
        seq[:, _EXPECT] = positions + 1 if synced else -1
        if self._records:
            record = self._refs[sel].argmin(axis=1)  # the lowest free record
            flat._record[new] = record[:, None]
            new = slots * self._refs.shape[1] + record
            flat._x[new] = xs
            flat._created[new] = seq[:, _STEP]
            flat._obs_base[new] = seq[:, _N_OBSERVED]
            flat._refs[new] = self._rows.size
            flat._corrupted[new] = False  # not pending: a free record never is
            # Figure 7 (a): a new token's popularity of 1 meets any threshold.
            stored_x = seq[:, _N_X] / np.maximum(seq[:, _LIVE], 1) < self._x_limit
            flat._stored_x[new] = stored_x
            seq[:, _LIVE] += 1
            seq[:, _N_X] += stored_x
        if sel is slots:
            self._seq[slots] = seq

    def _evict(self, slots: np.ndarray, sel: "slice | np.ndarray", seq: np.ndarray,
               count: int, rows: np.ndarray, synced: "bool | None",
               ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Every row's victim entry, as an index and as a flat one (``rows``:
        the flat (slot, row) indices), and whether the key follows the window
        from here.  The key picks the victims when ``synced`` and every row's
        lowest key is unique; else the masked choice does (sinks and the
        recent window only when nothing else is eligible), and
        ``synced=None`` rebuilds ``_protect`` and the ring from its masks.
        Counted in ``seq``, the group's header rows; a victim's token record
        is freed once no entry holds it."""
        flat = self._flat
        if synced:
            key = self.__dict__[self._keyed][sel, :, :count] + self._protect[sel, :, :count]
            picked = (self._iota[:slots.size, None], self._rows, key.argmin(axis=2))
            # Each row's lowest key (finite: the entry that just left the
            # window) must be unique: with it at +inf, a second argmin finds
            # a higher one.
            low, key[picked] = key[picked], np.inf
            second = key[picked[:2] + (key.argmin(axis=2),)]
            synced, entry = not np.logical_or.reduce(second == low, axis=None), picked[2]
        if not synced:
            window, sink = self.config.recent_window, self.config.sink_tokens
            positions = self._position[sel, :, :count]  # [G, R, n]
            non_sink = positions >= sink
            oldest_recent = (seq[:, _POSITION] - window)[:, None, None]
            eligible = non_sink & (positions <= oldest_recent)
            if synced is None and np.minimum.reduce(oldest_recent, axis=None) >= sink:
                # Rebuild the protection, and the ring of the window's entries.
                self._protect[sel, :, :count] = np.where(eligible, 0.0, np.inf)
                recent = positions >= oldest_recent  # the window and what leaves it now
                group, row, entries = recent.nonzero()
                cell = (slots[group], row, positions[group, row, entries] % self._ring.shape[2])
                self._ring[cell] = entries
                # It follows a window if every row holds each of these
                # positions (no sink) once, and nothing newer.
                synced = (entries.size == window * rows.size > 0
                          and np.logical_and.reduce(self._ring[cell] == entries)
                          and np.logical_and.reduce(positions < oldest_recent + window, axis=None))
            has_candidate = np.logical_or.reduce(eligible, axis=2)
            if not np.logical_and.reduce(has_candidate, axis=None):
                eligible[~has_candidate] = non_sink[~has_candidate]
                eligible[~np.logical_or.reduce(eligible, axis=2)] = True
            entry = self.victims(self, slots, eligible, positions, self._token[sel, :, :count])
        seq[:, _EVICTIONS] += self._rows.size
        victims = rows * self.width + entry
        if self._records:
            rec = flat._record[victims] + slots[:, None] * self._refs.shape[1]
            same = rec[:, :, None] == rec[:, None]  # [G, R, R]: rows evicting one record
            flat._refs[rec] = held = flat._refs[rec] - np.add.reduce(same, axis=2)
            flat._pending[rec] &= held > 0
            # A freed record counts once: at the first row that evicted it.
            freed = (held == 0) & (same.argmax(axis=2) == self._rows)
            seq[:, _LIVE] -= np.add.reduce(freed, axis=1)
            seq[:, _N_X] -= np.add.reduce(freed & flat._stored_x[rec], axis=1)
        return entry, victims, bool(synced)

    def _fetch(self, slots: np.ndarray, sel: "slice | np.ndarray",
               recompute_fn: RecomputeFn) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`fetch` on the index :meth:`_group` found."""
        count = int(self._seq[slots[0], _COUNT])
        if self._x_limit and np.logical_or.reduce(self._pending[sel], axis=None):
            self._recompute(slots, self._record[sel, :, :count], self._pending[sel], recompute_fn)
        self._seq[sel, _FETCHED] = count
        if self._stale:
            for slot in slots.tolist():
                self._stale.pop(slot, None)
        return self._keys[sel, :, :count], self._values[sel, :, :count]

    def _recompute(self, slots: np.ndarray, records: np.ndarray, pending: np.ndarray,
                   recompute_fn: RecomputeFn) -> None:
        """Recompute each pending token once into its entries (per-head rows only)."""
        members, pending_records = pending.nonzero()
        at = (slots[members], pending_records)
        which = pending.cumsum().reshape(pending.shape) * pending  # 1 + row of keys / values
        hit = which[self._iota[:slots.size, None, None], records]
        group, heads, entries = hit.nonzero()
        row, slab = hit[group, heads, entries] - 1, (slots[group], heads, entries)
        positions = np.empty(members.size, dtype=np.int64)
        positions[row] = self._position[slab]  # every entry of a token holds its position
        keys, values = recompute_fn(self._x[at], positions)
        self._keys[slab] = keys[row, heads]
        self._values[slab] = values[row, heads]
        self._pending[at] = False
        self._seq[:, _RECOMPUTES] += np.bincount(at[0], minlength=self._seq.shape[0])

    def observe(self, slots: np.ndarray, probs: np.ndarray) -> None:
        """Credit ``probs`` ``[G, H, n]`` to the entries the last fetch returned
        (a shared row is credited the float64 sum over heads)."""
        if slots.size > 1 and self._stale:  # some sequence mutated since its fetch
            for g in range(slots.size):  # one at a time
                self.observe(slots[g:g + 1], probs[g:g + 1])
            return
        sel = self._stepped[1] if self._stepped[0] is slots else self._group(slots)[0]
        fetched = self._seq[sel, _FETCHED]
        count = int(fetched[0])
        if slots.size > 1 and np.logical_or.reduce(fetched != count):
            raise ValueError("a group's sequences must have been fetched together")
        if count < 0:
            raise RuntimeError("observe_attention called before fetch")
        probs = probs[:, :, :count]  # float32 adds exactly
        if self._rows.size < probs.shape[1]:
            probs = np.add.reduce(probs, axis=1, dtype=np.float64, keepdims=True)
        stale = self._stale.pop(int(slots[0]), None) if self._stale else None
        if stale is None:
            # Unchanged since the fetch: the entries hold every live token.
            self._importance[sel, :, :count] += probs
            self._seq[sel, _N_OBSERVED] += 1
        else:
            # Mutated since the fetch: credit the fetched (row, token) pairs
            # still held (entries never move: those whose entry still holds it).
            slot = int(slots[0])
            kept = self._token[slot, :, :count] == stale
            self._importance[slot, :, :count][kept] += probs[0][kept]
            if self._records:  # one observation for each token credited at all
                self._obs_base[slot, self._record[slot, :, :count][kept]] -= 1
        self._seq[sel, _FETCHED] = -1

    def load(self, slot: int, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
             importance: np.ndarray, retained: np.ndarray) -> None:
        """Write a prompt's retained tokens (``retained`` ``[R, N]``, equally
        many per row) into the next free entries, in token order; raises
        ``ValueError``, the sequence untouched, when they do not fit."""
        seq = self._seq[slot]  # a view: updated in place
        tokens = np.flatnonzero(retained.any(axis=0))
        retained = retained[:, tokens]
        rows, picks = np.nonzero(retained)  # each row's tokens, in token order
        start, width = int(seq[_COUNT]), picks.size // self._rows.size
        if start + width > self.width:
            raise ValueError(f"{start} + {width} entries exceed the slab width {self.width}")
        self._snapshot_before_mutation([slot], [int(seq[_FETCHED])])
        n_ctx = keys.shape[1]
        seq[_POSITION], seq[_EXPECT] = n_ctx - 1, -1
        at = (slot, rows, start + np.arange(picks.size) % width)
        # Entry e holds head rows[e]'s K/V, or with a shared row every head's.
        heads = rows if self._records else self._heads[:, None]
        self._keys[slot, heads, at[2]] = keys[heads, tokens[picks]]
        self._values[slot, heads, at[2]] = values[heads, tokens[picks]]
        self._importance[at] = importance[rows, tokens[picks]]
        self._position[at] = tokens[picks]
        self._token[at] = seq[_NEXT_TOKEN] + picks
        seq[_NEXT_TOKEN] += tokens.size
        seq[_COUNT] = start + width
        if self._records:
            record = np.flatnonzero(self._refs[slot] == 0)[:tokens.size]  # one free per token
            self._record[at] = record[picks]
            new = (slot, record)
            self._x[new] = inputs[tokens]
            self._created[new] = seq[_STEP]
            self._obs_base[new] = seq[_N_OBSERVED] - np.maximum(1, n_ctx - tokens)
            self._corrupted[new] = False
            # Figure 7 (a), token by token: each format choice reads the
            # recompute fraction the earlier ones left.
            live, stored = int(seq[_LIVE]), int(seq[_N_X])
            self._refs[new] = held = retained.sum(axis=0)
            config, stores_x = self.config, [False] * tokens.size
            for i, heads in enumerate(held.tolist()):
                stores_x[i] = (heads / self.n_heads >= config.popularity_threshold
                               and (stored / live if live else 0.0) < self._x_limit)
                stored, live = stored + stores_x[i], live + 1
            self._stored_x[new] = self._pending[new] = stores_x
            seq[_LIVE], seq[_N_X] = live, stored

    # ------------------------------------------------------------------
    # Introspection and fault injection (per sequence, per-head arenas)
    # ------------------------------------------------------------------
    def live(self, slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sequence's live tokens in token order: their records, ``[T, R]``
        their entries (-1: the row does not hold it) and one ``(row, entry)``
        holding each (the index of its position and token index)."""
        n = self._seq[slot, _COUNT]
        where = np.full((self._refs.shape[1], self._rows.size), -1)
        where[self._record[slot, :, :n], self._rows[:, None]] = np.arange(n)
        live = np.flatnonzero(self._refs[slot])
        row = (where[live] >= 0).argmax(axis=1)
        holder = (slot, row, where[live, row])
        order = np.argsort(self._token[holder])
        return live[order], where[live[order]], (slot, row[order], holder[2][order])

    def importance_rates(self, slot: int) -> np.ndarray:
        """The 2DRP class input of each record of the sequence: its token's
        mean accumulated score over the heads holding it (summed in head
        order) per observation."""
        seq, refs = self._seq[slot], self._refs[slot]
        sums = np.bincount(self._record[slot, :, :seq[_COUNT]].ravel(),
                           self._importance[slot, :, :seq[_COUNT]].ravel(), refs.size)
        return sums / np.maximum(refs, 1) / np.maximum(seq[_N_OBSERVED] - self._obs_base[slot], 1)

    def inject_faults(self, slots: np.ndarray, injector: KVFaultInjector,
                      rngs: "Sequence[np.random.Generator]", resident_steps: int) -> None:
        """Apply the 2DRP fault model once to every live, not yet corrupted
        token of each sequence in ``slots`` that was created ``resident_steps``
        steps ago or earlier.

        A token is HST when its :meth:`importance_rates` entry is at least
        the median over its sequence's live tokens.  Each sequence makes one
        :func:`~repro.memory.bitops.sample_bit_faults` call with its own
        generator ``rngs[g]`` (its draws do not depend on its company) on one
        fp16 block: every target's stored form in token order — the ``[C]``
        ``x`` of an x-format token, the K then the V of the heads holding a
        kv-format one, each in head order — written back with one scatter per
        array; a corrupted ``x`` is rebuilt at the next fetch.
        """
        d, ramp, table = self.head_dim, self._iota, injector.rates
        for slot, rng in zip(slots.tolist(), rngs):
            seq, refs = self._seq[slot], self._refs[slot]
            live = refs > 0
            targets = (live & ~self._corrupted[slot]
                       & (self._created[slot] <= seq[_STEP] - resident_steps)).nonzero()[0]
            if not targets.size:
                continue
            record = self._record[slot, :, :seq[_COUNT]]  # [H, n]
            if targets.size > 1:  # into token order
                tokens = np.empty(refs.size, dtype=np.int64)
                tokens[record] = self._token[slot, :, :seq[_COUNT]]
                targets = targets[tokens[targets].argsort()]
            rates = self.importance_rates(slot)
            ranked = rates[live]
            ranked.sort()
            median = (ranked[(ranked.size - 1) // 2] + ranked[ranked.size // 2]) / 2
            stored_x, held = self._stored_x[slot, targets], refs[targets]
            sizes = 2 * d * held
            sizes[stored_x] = self.d_model
            starts = sizes.cumsum() - sizes  # where each target's block starts
            x_at = (slot, targets[stored_x])
            x_pos = starts[stored_x, None] + ramp[:self.d_model]
            # The entries holding each kv-format target, target-major in head order.
            number = np.zeros(refs.size, dtype=np.int64)  # 1 + a kv-format target's index
            number[targets] = ramp[1:targets.size + 1] * ~stored_x
            hit = number[record]
            heads, entries = hit.nonzero()  # head-major
            if targets.size > 1:  # target-major
                order = hit[heads, entries].argsort(kind="stable")
                heads, entries = heads[order], entries[order]
            target, kv_at = hit[heads, entries] - 1, (slot, heads, entries)
            within = ramp[:target.size] - target.searchsorted(target)  # rank among its heads
            k_pos = (starts[target] + within * d)[:, None] + ramp[:d]
            v_pos = k_pos + (held[target] * d)[:, None]
            block = np.empty(int(starts[-1] + sizes[-1]), dtype=np.float16)  # stored at fp16
            block[x_pos], block[k_pos] = self._x[x_at], self._keys[kv_at]
            block[v_pos] = self._values[kv_at]
            bits = block.view(np.uint16)
            sample_bit_faults(bits, (rates[targets] >= median).repeat(sizes), table, rng,
                              injector.mode)
            values = saturate_float16(bits)
            self._x[x_at], self._keys[kv_at] = values[x_pos], values[k_pos]
            self._values[kv_at] = values[v_pos]
            self._pending[x_at] = True
            self._corrupted[slot, targets] = True

    def entries(self, slot: int) -> dict[int, TokenEntry]:
        live, where, holder = self.live(slot)
        held = where >= 0
        at = (slot, self._rows, where)  # where no row holds it, some entry: zeroed
        importance = np.where(held, self._importance[at], 0.0)
        keys = np.where(held[..., None], self._keys[at], np.float32(0))
        values = np.where(held[..., None], self._values[at], np.float32(0))
        tokens, positions = self._token[holder].tolist(), self._position[holder].tolist()
        observed = self._seq[slot, _N_OBSERVED] - self._obs_base[slot, live]
        return {tokens[t]: TokenEntry(
            token_index=tokens[t], position=positions[t], x=self._x[slot, r].copy(),
            keys=keys[t], values=values[t], importance=importance[t],
            retaining_heads=set(np.flatnonzero(held[t]).tolist()),
            storage_format="x" if self._stored_x[slot, r] else "kv",
            is_sink=positions[t] < self.config.sink_tokens,
            corrupted=bool(self._corrupted[slot, r]), created_step=int(self._created[slot, r]),
            observation_count=int(observed[t]),
        ) for t, r in enumerate(live.tolist())}


class SlabCache(LayerKVCache):
    """A handle on one sequence slot of an :class:`AERPArena` (the factory's
    per-layer arena); subclasses add ``prefill`` and ``stored_bytes``."""

    #: What :meth:`fetch` hands ``recompute_fn`` (caches that recompute set it).
    recompute_fn: "RecomputeFn | None" = None
    #: Whether observations inject 2DRP faults (set with ``injector``, ``_rng``).
    _injects = False

    def __init__(self, n_heads: int, head_dim: int, d_model: int, arena: AERPArena) -> None:
        super().__init__(n_heads, head_dim, d_model)
        self._arena = arena
        self._slot = arena.alloc_slot()
        self._slots = np.array([self._slot])  # this cache as a group of one
        # A handle dropped unreleased (generate() and the experiments never
        # release) hands its slot back through the arena's queue.
        self._finalizer = weakref.finalize(self, arena._dropped.append, self._slot)
        self._finalizer.atexit = False

    def release(self) -> None:
        """Return the slot to the arena; the cache is unusable afterwards."""
        super().release()
        if self._arena is not None:
            self._finalizer.detach()
            self._arena.free_slot(self._slot)
            self._arena = self._slots = None

    @property
    def num_tokens(self) -> int:
        return 0 if self._arena is None else int(self._arena._seq[self._slot, _COUNT])

    @property
    def eviction_count(self) -> int:
        return int(self._arena._seq[self._slot, _EVICTIONS])

    def positions(self) -> list[int]:
        """Positions of the tokens held (by any head), in token order."""
        arena, n = self._arena, self.num_tokens
        _tokens, first = np.unique(arena._token[self._slot, :, :n], return_index=True)
        return arena._position[self._slot, :, :n].ravel()[first].tolist()

    # -- LayerKVCache interface: the group operations with a group of one --
    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        self._arena.append(self._slots, np.asarray(key)[None], np.asarray(value)[None],
                           np.asarray(x)[None], np.array([position]))

    def fetch(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arena is None:
            raise RuntimeError(f"fetch on a released {type(self).__name__}")
        keys, values = self._arena.fetch(self._slots, self.recompute_fn)
        return keys[0], values[0]

    def observe_attention(self, probs: np.ndarray) -> None:
        self._arena.observe(self._slots, np.asarray(probs)[None])
        if self._injects:  # lazy 2DRP, as a group's observe (without ending the step)
            self._arena.inject_faults(self._slots, self.injector, [self._rng], resident_steps=1)

    # -- group protocol: one arena call for a whole decode group --------
    def group_key(self, stack: "Sequence[LayerKVCache]") -> tuple:
        """Stacks whose first caches share one arena, one ``recompute_fn``
        object and one entry count step together (nothing to pad or mask)."""
        del stack
        return (self._arena, self.recompute_fn, int(self._arena._seq[self._slot, _COUNT]))

    def decode_group(self, stacks: "Sequence[Sequence[SlabCache]]") -> "SlabGroup":
        return SlabGroup(stacks)


class SlabGroup:
    """Eviction-slab stacks decoding together: per layer one
    :meth:`AERPArena.step` and one :meth:`AERPArena.observe` for the group,
    the observe also injecting 2DRP faults (after one resident step) and
    ending the members' step at that layer.  Grouped again every step."""

    __slots__ = ("stacks", "_lone", "_slots")
    claim = order = None

    def __init__(self, stacks: "Sequence[Sequence[SlabCache]]") -> None:
        self.stacks = stacks
        self._lone = len(stacks) == 1

    def holds(self) -> bool:
        return False

    def step(self, layer: int, keys: np.ndarray, values: np.ndarray, xs: np.ndarray,
             positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
        """The layer's slots (a lone cache's own array) and one arena step."""
        head = self.stacks[0][layer]
        self._slots = slots = head._slots if self._lone else np.array(
            [caches[layer]._slot for caches in self.stacks])
        return head._arena.step(slots, keys, values, xs, positions, head.recompute_fn) + (None,)

    def observe(self, layer: int, probs: np.ndarray) -> None:
        head, slots = self.stacks[0][layer], self._slots
        arena = head._arena
        arena.observe(slots, probs)
        # Lazy 2DRP: a token is corrupted once, after one resident step (the
        # caches of an arena share their factory's injector).
        if head._injects:
            arena.inject_faults(slots, head.injector,
                                [caches[layer]._rng for caches in self.stacks], resident_steps=1)
        arena._seq[slots, _STEP] += 1  # every member's ``end_step`` at once


class AERPCache(SlabCache):
    """Per-layer KV cache implementing AERP (Section 4.1) with optional 2DRP faults.

    A handle on one sequence slot of an :class:`AERPArena`: ``arena`` is the
    storage shared with the other sequences of the layer (the ``kelle`` cache
    factory passes its per-layer arena); without one the cache gets a private
    arena.  The fault injector and its RNG stay per cache, so a sequence draws
    the same random numbers whatever it shares its arena with.
    """

    def __init__(self, n_heads: int, head_dim: int, d_model: int, config: "AERPConfig",
                 recompute_fn: RecomputeFn, injector: KVFaultInjector | None = None,
                 seed: int = 0, layer_index: int = 0, *,
                 arena: AERPArena | None = None) -> None:
        super().__init__(n_heads, head_dim, d_model,
                         arena or AERPArena(n_heads, head_dim, d_model, config))
        self.config = config
        self.recompute_fn = recompute_fn
        self.injector = injector or KVFaultInjector()
        self._injects = not self.injector.is_noop
        self._rng = derive_rng(seed, "aerp", layer_index)

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and the experiments
    # ------------------------------------------------------------------
    @property
    def entries(self) -> dict[int, TokenEntry]:
        """Snapshot of every live token, keyed by token index (creation order)."""
        return self._arena.entries(self._slot)

    def tokens_for_head(self, head: int) -> list[int]:
        """Token indices ``head`` retains, in entry (:meth:`fetch`) order."""
        return self._arena._token[self._slot, head, :self.num_tokens].tolist()

    @property
    def recompute_count(self) -> int:
        return int(self._arena._seq[self._slot, _RECOMPUTES])

    @property
    def recompute_fraction(self) -> float:
        """Fraction of live entries stored in recomputation (x) format."""
        if self._arena is None:
            return 0.0
        live, stored = self._arena._seq[self._slot, [_LIVE, _N_X]].tolist()
        return stored / live if live else 0.0

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        arena, slot = self._arena, self._slot
        kv_entries = int((~arena._stored_x[slot, arena._record[slot, :, :self.num_tokens]]).sum())
        x_elements = int(arena._seq[slot, _N_X]) * self.d_model
        return (x_elements + 2 * self.head_dim * kv_entries) * bits_per_element // 8

    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        config, n_ctx = self.config, keys.shape[1]
        importance = ImportanceTracker.prefill_importance(attn_probs)  # [H, N]
        retained = np.ones((self.n_heads, n_ctx), dtype=bool)  # head x token
        if n_ctx > config.budget:
            forced = np.zeros(n_ctx, dtype=bool)
            forced[:min(config.sink_tokens, n_ctx)] = True
            forced[max(0, n_ctx - config.recent_window):] = True
            remaining_budget = max(0, config.budget - int(forced.sum()))
            others = np.flatnonzero(~forced)
            # Highest pre-fill importance first; the stable sort keeps the
            # original position order among ties.
            order = np.argsort(-importance[:, others], axis=1, kind="stable")
            retained[:] = forced
            retained[np.arange(self.n_heads)[:, None], others[order[:, :remaining_budget]]] = True
        self._arena.load(self._slot, np.asarray(keys, dtype=np.float32),
                         np.asarray(values, dtype=np.float32),
                         np.asarray(inputs, dtype=np.float32), importance, retained)
        # Pre-filled tokens are classified by their pre-filling importance.
        if self._injects:
            self._arena.inject_faults(self._slots, self.injector, [self._rng], resident_steps=0)

    def end_step(self) -> None:
        self._arena._seq[self._slot, _STEP] += 1
