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

Storage layout.  All bytes live in an :class:`AERPArena`: one per decoder
layer, owned by the ``kelle`` cache factory and shared by every live sequence
of that layer (struct of arrays, no per-token Python objects).  An
:class:`AERPCache` is a ``(arena, sequence slot)`` handle; constructed directly
it gets a private arena of one.

* **Row** — one live token of one sequence.  Rows come from one pool shared
  by all sequences (amortised-doubling growth, freed rows recycled through a
  free stack, both owned by the arena).  Per row, ``[capacity, ...]``: the
  input vector ``x``, token index, owning sequence slot, storage format,
  pending-recompute flag, corrupted flag, creation step and the owner's
  observation counter when the row was created.
* **Cell** — head ``h``'s share of row ``r``, id ``r * n_heads + h`` (stable
  across pool growth).  Per cell, ``[capacity, H, ...]``: key and value
  (``[.., d]`` float32), a retained flag (a row is live while any of its cells
  is retained) and the token position (repeated per head so a cell id indexes
  it directly).
* **Sequence slot** — one live sequence; allocated when its handle is built,
  returned (with every row it still owns) by ``release()`` — or, for a handle
  garbage collected unreleased, at the next allocation — and reset on reuse;
  the slot pool doubles on demand and the last sequence to leave takes the
  grown pools with it.  Per slot, ``[S, ...]``: the slot table
  ``cells[s, h, :count]`` (the cells head ``h`` retains, in slot order) with
  the importance each has accumulated, and one header row of counters
  (``count``, step, next token index, live / recomputation-format rows,
  observations, evictions, recomputations, newest position).  Every
  operation adds or removes exactly one table entry in *every* head
  (``prefill`` retains equally many tokens per head, ``append`` evicts from
  all heads or none), so one ``count`` serves all heads and ``fetch`` never
  pads: its ``valid`` mask is all true.

Group steps.  Every arena operation takes an array of ``G`` sequence slots
that hold equally many table entries ``n`` and does its work once for all of
them: ``append`` picks every victim with one masked ``argmin`` over the
``[G, H, n]`` gathered importance (sink / recent-window tiers, first minimum
in slot order), compacts the tables with one masked copy, and lands the new
tokens with one fancy-indexed write per pool; ``fetch`` recomputes all pending
recomputation-format rows of the group in one ``recompute_fn`` call, then is
one ``take`` per K/V pool into ``[G, H, n, d]``; ``observe`` is one ``+=`` on
the tables and one on the observation counters.
:meth:`AERPCache.step_group` / :meth:`AERPCache.observe_group` hand a whole
decode group to those (the model groups by :meth:`AERPCache.group_key`: same
arena, ``recompute_fn`` object and count, so nothing is padded or masked); the
single-cache ``append`` / ``fetch`` / ``observe_attention`` are the same calls
with ``G = 1``.  That is the trade: a group step costs little more than one
sequence's did, a group of one about twice what the per-sequence pools it
replaced cost (scalar bookkeeping became one-element array operations).
Prefill and fault injection stay per sequence (injection draws from a
per-sequence RNG in token order).

Recompute contract.  ``recompute_fn`` maps ``P`` rows at once
(``x [P, C]``, ``positions [P]`` to keys and values ``[P, H, d]``) and must
compute each row as its own ``M = 1`` projection: the stored K/V of a token
came from an ``M = 1`` GEMM in ``decode_step``, and a ``[P, C] @ [C, C]`` GEMM
differs from it in the last bits.  :meth:`repro.llm.model.DecoderLM.recompute_fn`
uses a stacked matmul, which NumPy issues as ``P`` independent ``M = 1`` calls.

:class:`TokenEntry`, :attr:`AERPCache.entries`, :meth:`AERPCache.tokens_for_head`
and :meth:`AERPCache.popularity` are introspection snapshots built on demand
from the arrays.  The original dict / list / set implementation lives on as
the test oracle (``tests/reference_aerp.py``); eviction victims, slot order,
format choices, counters, importance values, ``fetch`` outputs and the fault
injector's RNG draw order are identical to it for any call sequence with
finite importance scores, however the sequences of an arena are interleaved
or grouped.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.llm.cache import LayerKVCache, RecomputeFn
from repro.core.importance import ImportanceTracker
from repro.core.refresh import KVFaultInjector
from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.aerp import AERPConfig


@dataclass
class TokenEntry:
    """Snapshot of one token held by the cache (across heads).

    Built on demand by :attr:`AERPCache.entries`; every array is a copy, so
    mutating an entry does not touch the cache.  ``importance[h]`` is zero for
    heads that no longer retain the token.
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

    def mean_importance(self) -> float:
        """Mean accumulated score over the heads still retaining the token."""
        if not self.retaining_heads:
            return 0.0
        heads = sorted(self.retaining_heads)
        return float(np.mean(self.importance[heads]))

    def importance_rate(self) -> float:
        """Mean attention received per query observed (age-normalised importance).

        Using the per-query rate rather than the raw accumulated sum makes the
        HST/LST classification fair between long-resident pre-fill tokens and
        freshly decoded tokens.
        """
        return self.mean_importance() / max(1, self.observation_count)


def _grown(old: np.ndarray, size: int) -> np.ndarray:
    """``old`` copied into a zeroed array of ``size`` entries along axis 0."""
    grown = np.zeros((size,) + old.shape[1:], dtype=old.dtype)
    grown[:old.shape[0]] = old
    return grown


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct elements of an integer array (``np.unique``, minus the
    ``numpy.ma`` import — 1.3 MB resident — its first call costs)."""
    values = np.sort(values, axis=None)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


#: Columns of :attr:`AERPArena._seq`, the per-sequence header: table entries
#: per head, decode steps ended, next token index, live rows, live rows in
#: recomputation format, observations, evictions, recomputations, the entries
#: the last fetch handed out that observe has not consumed (-1: none) and the
#: newest position seen.
(_COUNT, _STEP, _NEXT_TOKEN, _N_LIVE, _N_STORED_X, _N_OBSERVED, _EVICTIONS, _RECOMPUTES,
 _FETCHED, _POSITION) = range(10)


class AERPArena:
    """Storage and policy arithmetic for every AERP sequence of one layer.

    See the module docstring for the layout.  All group operations take
    ``slots``, an integer array of ``G`` distinct sequence slots whose slot
    tables hold equally many entries.
    """

    #: Arrays indexed by row along axis 0 (grown together).
    _ROW_POOLS = ("_keys", "_values", "_retained", "_position", "_x", "_token_index",
                  "_owner", "_stored_x", "_pending", "_corrupted", "_created_step",
                  "_obs_base", "_free_rows")
    #: Arrays indexed by sequence slot along axis 0 (grown together).
    _SLOT_POOLS = ("_seq", "_cells", "_slot_importance")

    def __init__(self, n_heads: int, head_dim: int, d_model: int,
                 config: "AERPConfig") -> None:
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.d_model = d_model
        self.config = config
        self._heads = np.arange(n_heads)
        # Slots of handles that were garbage collected unreleased.  The
        # collector can run in the middle of an arena operation, so their
        # finalizer only queues them here; ``alloc_slot`` takes them back.
        self._dropped: list[int] = []
        self._allocate()

    def _allocate(self) -> None:
        """(Re)build every pool at its initial size, with every slot free."""
        n_heads, head_dim, d_model, config = (self.n_heads, self.head_dim, self.d_model,
                                              self.config)
        capacity = max(16, config.budget + config.sink_tokens + 1)
        # Per-cell pools.
        self._keys = np.zeros((capacity, n_heads, head_dim), dtype=np.float32)
        self._values = np.zeros((capacity, n_heads, head_dim), dtype=np.float32)
        self._retained = np.zeros((capacity, n_heads), dtype=bool)
        self._position = np.zeros((capacity, n_heads), dtype=np.int64)
        # Per-row pools.
        self._x = np.zeros((capacity, d_model), dtype=np.float32)
        self._token_index = np.zeros(capacity, dtype=np.int64)
        self._owner = np.zeros(capacity, dtype=np.int64)
        self._stored_x = np.zeros(capacity, dtype=bool)
        # Recomputation-format rows whose K/V cells do not hold their
        # recomputed values yet (new, or x was corrupted since).
        self._pending = np.zeros(capacity, dtype=bool)
        self._corrupted = np.zeros(capacity, dtype=bool)
        self._created_step = np.zeros(capacity, dtype=np.int64)
        # A row has been observed ``_seq[owner, _N_OBSERVED] - _obs_base[row]``
        # times: an observation credits every live row of its sequence, so it
        # is one counter step, not a pass over the rows.
        self._obs_base = np.zeros(capacity, dtype=np.int64)
        # Free rows are ``_free_rows[:_n_free]`` (a stack).
        self._free_rows = np.arange(capacity - 1, -1, -1)
        self._n_free = capacity
        # Per-sequence state; one slot to start with, doubled on demand.
        self._seq = np.zeros((1, 10), dtype=np.int64)
        self._cells = np.zeros((1, n_heads, config.budget + 1), dtype=np.int64)
        self._slot_importance = np.zeros(self._cells.shape, dtype=np.float64)
        self._all_valid = np.ones(self._cells.shape, dtype=bool)  # fetch's mask
        self._free_slots = [0]
        # A fetch copies nothing for observe unless the sequence mutates in
        # between (never in the decode loop); then this keeps the fetched
        # cells and their token indices, keyed by sequence slot.
        self._stale: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Sequence slots and rows
    # ------------------------------------------------------------------
    def alloc_slot(self) -> int:
        """Hand out a sequence slot in the empty state."""
        while self._dropped:
            self.free_slot(self._dropped.pop())
        if not self._free_slots:
            n_slots = self._seq.shape[0]
            for name in self._SLOT_POOLS:
                setattr(self, name, _grown(getattr(self, name), 2 * n_slots))
            self._all_valid = np.ones(self._cells.shape, dtype=bool)
            self._free_slots.extend(range(2 * n_slots - 1, n_slots - 1, -1))
        slot = self._free_slots.pop()
        self._seq[slot] = 0
        self._seq[slot, _FETCHED] = self._seq[slot, _POSITION] = -1
        return slot

    def free_slot(self, slot: int) -> None:
        """Take back ``slot`` and every row it still owns.

        The last sequence to leave takes the grown pools with it: an idle
        arena holds no more than a fresh one.
        """
        self._free_slots.append(slot)
        if len(self._free_slots) == self._seq.shape[0]:
            self._allocate()
            return
        rows = self._live_rows(slot)
        self._retained[rows] = False
        self._release_rows(rows)
        self._seq[slot, _COUNT] = 0
        self._stale.pop(slot, None)

    def _alloc_rows(self, count: int) -> np.ndarray:
        """Pop ``count`` free rows, doubling the pools first if they run out."""
        if count > self._n_free:
            capacity = self._keys.shape[0]
            new_capacity = 2 * capacity
            while new_capacity - capacity + self._n_free < count:
                new_capacity *= 2
            for name in self._ROW_POOLS:
                setattr(self, name, _grown(getattr(self, name), new_capacity))
            added = new_capacity - capacity
            self._free_rows[self._n_free:self._n_free + added] = np.arange(
                new_capacity - 1, capacity - 1, -1)
            self._n_free += added
        self._n_free -= count
        return self._free_rows[self._n_free:self._n_free + count].copy()

    def _release_rows(self, rows: np.ndarray) -> None:
        """Recycle ``rows`` (distinct, no cell retained any more)."""
        self._stored_x[rows] = False
        self._pending[rows] = False
        self._free_rows[self._n_free:self._n_free + rows.size] = rows
        self._n_free += rows.size

    def _ensure_slot_width(self, width: int) -> None:
        if width > self._cells.shape[2]:
            shape = self._cells.shape[:2] + (max(width, 2 * self._cells.shape[2]),)
            for name in ("_cells", "_slot_importance"):
                old = getattr(self, name)
                grown = np.zeros(shape, dtype=old.dtype)
                grown[:, :, :old.shape[2]] = old
                setattr(self, name, grown)
            self._all_valid = np.ones(shape, dtype=bool)

    def _snapshot_before_mutation(self, slots: list[int], fetched: list[int]) -> None:
        """Detach live fetch snapshots (``fetched``: the slots' ``_FETCHED``)
        before the slot tables change."""
        for slot, count in zip(slots, fetched):
            if count >= 0 and slot not in self._stale:
                cells = self._cells[slot, :, :count].copy()
                self._stale[slot] = (cells, self._token_index[cells // self.n_heads])

    def _group_header(self, slots: np.ndarray) -> tuple[np.ndarray, int]:
        """The group's header rows (a copy) and the entry count they share."""
        seq = self._seq[slots]
        count = int(seq[0, _COUNT])
        if slots.size > 1 and (seq[:, _COUNT] != count).any():
            raise ValueError("a group's sequences must hold equally many tokens per head")
        return seq, count

    # ------------------------------------------------------------------
    # Group operations
    # ------------------------------------------------------------------
    def append(self, slots: np.ndarray, keys: np.ndarray, values: np.ndarray,
               xs: np.ndarray, positions: np.ndarray) -> None:
        """Insert one token per sequence: ``keys``/``values`` ``[G, H, d]``,
        ``xs`` ``[G, C]``, ``positions`` ``[G]``; full heads evict first."""
        config = self.config
        seq, count = self._group_header(slots)  # updated here, written back at the end
        if seq[:, _FETCHED].max() >= 0:
            self._snapshot_before_mutation(slots.tolist(), seq[:, _FETCHED].tolist())
        np.maximum(seq[:, _POSITION], positions, out=seq[:, _POSITION])
        if count >= config.budget:
            self._evict_from_all_heads(slots, seq, count)
            count -= 1
        rows = self._alloc_rows(slots.size)
        self._keys[rows] = keys
        self._values[rows] = values
        self._retained[rows] = True
        self._position[rows] = np.asarray(positions)[:, None]
        self._x[rows] = xs
        self._owner[rows] = slots
        self._token_index[rows] = seq[:, _NEXT_TOKEN]
        self._corrupted[rows] = False
        self._created_step[rows] = seq[:, _STEP]
        self._obs_base[rows] = seq[:, _N_OBSERVED]
        # Storage format (Figure 7 (a)): a new token is retained by every
        # head, so its popularity of 1 always meets the threshold.  The
        # recompute fraction of a sequence with no token yet is 0 / 1.
        stores_x = (config.recompute_enabled
                    and seq[:, _N_STORED_X] / np.maximum(seq[:, _N_LIVE], 1)
                    < config.max_recompute_fraction)
        self._stored_x[rows] = stores_x
        self._pending[rows] = stores_x
        self._ensure_slot_width(count + 1)
        self._cells[slots, :, count] = rows[:, None] * self.n_heads + self._heads
        self._slot_importance[slots, :, count] = 0.0
        seq[:, _N_STORED_X] += stores_x
        seq[:, _N_LIVE] += 1
        seq[:, _NEXT_TOKEN] += 1
        seq[:, _COUNT] = count + 1
        self._seq[slots] = seq

    def _evict_from_all_heads(self, slots: np.ndarray, seq: np.ndarray, count: int) -> None:
        """Remove every head's lowest-importance eligible token (``seq``: the
        group's header rows, updated in place).

        Sink tokens and the most recent window are never evicted while another
        candidate exists; ties go to the earliest slot.
        """
        config, n_heads = self.config, self.n_heads
        n_tables = slots.size * n_heads  # one table per (sequence, head): [G * H, n]
        cells = self._cells.take(slots, axis=0).reshape(n_tables, -1)[:, :count]
        importance = self._slot_importance.take(slots, axis=0).reshape(n_tables, -1)[:, :count]
        positions = self._position.reshape(-1).take(cells)
        non_sink = positions >= config.sink_tokens
        oldest_recent = (seq[:, _POSITION] - config.recent_window).repeat(n_heads)
        eligible = non_sink & (positions <= oldest_recent[:, None])
        has_candidate = np.logical_or.reduce(eligible, axis=1)
        if not np.logical_and.reduce(has_candidate):
            eligible[~has_candidate] = non_sink[~has_candidate]
            eligible[~eligible.any(axis=1)] = True
        tables = np.arange(n_tables)
        victims = np.where(eligible, importance, np.inf).argmin(axis=1)  # entry per table
        victim_cells = cells[tables, victims]
        keep = np.ones((n_tables, count), dtype=bool)
        keep[tables, victims] = False
        compacted = (slots.size, n_heads, count - 1)
        self._cells[slots, :, :count - 1] = cells[keep].reshape(compacted)
        self._slot_importance[slots, :, :count - 1] = importance[keep].reshape(compacted)
        self._retained.reshape(-1)[victim_cells] = False
        seq[:, _EVICTIONS] += n_heads
        # Recycle the rows (which just lost a cell) no head retains any more.
        victim_rows = victim_cells // n_heads
        dead_tables = (~np.logical_or.reduce(self._retained[victim_rows], axis=1)).nonzero()[0]
        if dead_tables.size:
            # Several heads of a sequence may have evicted the same row: sort
            # to count it once, keeping the group member it belonged to.
            order = np.argsort(victim_rows[dead_tables])
            dead = victim_rows[dead_tables[order]]
            first = np.ones(dead.size, dtype=bool)
            first[1:] = dead[1:] != dead[:-1]
            dead, member = dead[first], dead_tables[order][first] // n_heads
            seq[:, _N_LIVE] -= np.bincount(member, minlength=slots.size)
            seq[:, _N_STORED_X] -= np.bincount(member[self._stored_x[dead]],
                                               minlength=slots.size)
            self._release_rows(dead)

    def fetch(self, slots: np.ndarray,
              recompute_fn: RecomputeFn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(K, V, valid)`` of the group: ``[G, H, n, d]`` twice and an
        all-true ``[G, H, n]`` mask.

        K/V of recomputation-format rows are first recomputed into their pool
        cells, so one gather serves both storage formats from the same pools.
        """
        count = self._group_header(slots)[1]
        member = np.zeros(self._seq.shape[0], dtype=bool)
        member[slots] = True
        pending = (self._pending & member.take(self._owner)).nonzero()[0]
        if pending.size:
            keys, values = recompute_fn(self._x[pending], self._position[pending, 0])
            self._keys[pending] = keys
            self._values[pending] = values
            self._pending[pending] = False
            self._seq[:, _RECOMPUTES] += np.bincount(self._owner[pending],
                                                     minlength=self._seq.shape[0])
        cells = self._cells.take(slots, axis=0)[:, :, :count]
        keys = self._keys.reshape(-1, self.head_dim).take(cells, axis=0)  # [G, H, n, d]
        values = self._values.reshape(-1, self.head_dim).take(cells, axis=0)
        self._seq[slots, _FETCHED] = count
        if self._stale:
            for slot in slots.tolist():
                self._stale.pop(slot, None)
        return keys, values, self._all_valid[:slots.size, :, :count]

    def observe(self, slots: np.ndarray, probs: np.ndarray) -> None:
        """Credit ``probs`` ``[G, H, n]`` to the entries the last fetch returned."""
        fetched = self._seq[slots, _FETCHED]
        count = int(fetched[0])
        if slots.size > 1:
            if self._stale:  # some sequence mutated since its fetch: one at a time
                for g in range(slots.size):
                    self.observe(slots[g:g + 1], probs[g:g + 1])
                return
            if (fetched != count).any():
                raise ValueError("a group's sequences must have been fetched together")
        if count < 0:
            raise RuntimeError("observe_attention called before fetch")
        probs = np.asarray(probs)[:, :, :count]  # float32 adds exactly
        stale = self._stale.pop(int(slots[0]), None) if self._stale else None
        if stale is None:
            # Nothing changed since the fetch: the fetched entries are the
            # current ones and cover every live row.
            self._slot_importance[slots, :, :count] += probs
            self._seq[slots, _N_OBSERVED] += 1
        else:
            # The sequence mutated between fetch and observe: credit only the
            # fetched (head, token) pairs that are still retained, wherever
            # their table entries moved to.
            (slot,) = slots.tolist()
            stale_cells, stale_tokens = stale
            now = int(self._seq[slot, _COUNT])
            entry_of = np.full(self._retained.size, -1)
            entry_of[self._cells[slot, :, :now]] = np.arange(now)
            entries = entry_of[stale_cells]
            rows = stale_cells // self.n_heads
            kept = (entries >= 0) & (self._token_index[rows] == stale_tokens)
            self._slot_importance[slot][np.nonzero(kept)[0], entries[kept]] += probs[0][kept]
            self._obs_base[_distinct(rows[kept])] -= 1
        self._seq[slots, _FETCHED] = -1

    # ------------------------------------------------------------------
    # Per-sequence operations
    # ------------------------------------------------------------------
    def prefill(self, slot: int, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        inputs = np.asarray(inputs, dtype=np.float32)
        seq = self._seq[slot]  # a view: updated in place
        self._snapshot_before_mutation([slot], [int(seq[_FETCHED])])
        config, n_heads = self.config, self.n_heads
        n_ctx = keys.shape[1]
        seq[_POSITION] = n_ctx - 1
        importance = ImportanceTracker.prefill_importance(attn_probs)  # [H, N]
        budget = config.budget

        retained = np.ones((n_heads, n_ctx), dtype=bool)  # head x token
        if n_ctx > budget:
            forced = np.zeros(n_ctx, dtype=bool)
            forced[:min(config.sink_tokens, n_ctx)] = True
            forced[max(0, n_ctx - config.recent_window):] = True
            remaining_budget = max(0, budget - int(forced.sum()))
            others = np.flatnonzero(~forced)
            # Highest pre-fill importance first; the stable sort keeps the
            # original position order among ties.
            order = np.argsort(-importance[:, others], axis=1, kind="stable")
            retained[:] = forced
            retained[self._heads[:, None], others[order[:, :remaining_budget]]] = True

        tokens = np.flatnonzero(retained.any(axis=0))
        if tokens.size == 0:
            return
        retained = retained[:, tokens]  # [H, m]
        rows = self._alloc_rows(tokens.size)
        self._keys[rows] = keys[:, tokens].transpose(1, 0, 2)
        self._values[rows] = values[:, tokens].transpose(1, 0, 2)
        self._retained[rows] = retained.T
        self._position[rows] = tokens[:, None]
        self._x[rows] = inputs[tokens]
        self._owner[rows] = slot
        self._token_index[rows] = seq[_NEXT_TOKEN] + np.arange(tokens.size)
        seq[_NEXT_TOKEN] += tokens.size
        self._corrupted[rows] = False
        self._created_step[rows] = seq[_STEP]
        self._obs_base[rows] = seq[_N_OBSERVED] - np.maximum(1, n_ctx - tokens)
        self._choose_formats(seq, rows, retained.sum(axis=0).tolist())
        # Each head's new table entries, in token order (equally many per head).
        head_ids, token_ids = np.nonzero(retained)
        new_cells = (rows[token_ids] * n_heads + head_ids).reshape(n_heads, -1)
        start = int(seq[_COUNT])
        count = start + new_cells.shape[1]
        self._ensure_slot_width(count)
        self._cells[slot, :, start:count] = new_cells
        self._slot_importance[slot, :, start:count] = (
            importance[:, tokens][retained].reshape(n_heads, -1))
        seq[_COUNT] = count

    def _choose_formats(self, seq: np.ndarray, rows: np.ndarray,
                        retained_heads: list[int]) -> None:
        """Storage-format decision of Figure 7 (a) for new rows, in order
        (``seq``: the sequence's header row, updated in place).

        Sequential because every choice reads the recompute fraction the
        earlier ones left behind.
        """
        config = self.config
        live, stored = int(seq[_N_LIVE]), int(seq[_N_STORED_X])
        stores_x = [False] * len(retained_heads)
        if config.recompute_enabled:
            for i, heads in enumerate(retained_heads):
                if (heads / self.n_heads >= config.popularity_threshold
                        and (stored / live if live else 0.0) < config.max_recompute_fraction):
                    stores_x[i] = True
                    stored += 1
                live += 1
        else:
            live += len(retained_heads)
        self._stored_x[rows] = stores_x
        self._pending[rows] = stores_x
        seq[_N_LIVE] = live
        seq[_N_STORED_X] = stored

    def inject_faults(self, slot: int, injector: KVFaultInjector, rng: np.random.Generator,
                      resident_steps: int) -> None:
        """Apply the 2DRP fault model once to every live, not yet corrupted
        row of the sequence that was created ``resident_steps`` steps ago or
        earlier.

        Rows are classified HST/LST against the median importance rate of all
        live rows (corruption never changes importance, so one median serves
        the whole call) and corrupted in token order, in whatever
        representation is stored.
        """
        rows = self._live_rows(slot)
        targets = np.flatnonzero(
            (self._created_step[rows] <= self._seq[slot, _STEP] - resident_steps)
            & ~self._corrupted[rows])
        if targets.size == 0:
            return
        observed = self._seq[slot, _N_OBSERVED] - self._obs_base[rows]
        rates = self._mean_importance(slot, rows) / np.maximum(1, observed)
        high_score = rates >= np.median(rates)
        corrupt = injector.corrupt
        for row, is_high in zip(rows[targets].tolist(), high_score[targets].tolist()):
            if self._stored_x[row]:
                self._x[row] = corrupt(self._x[row], is_high, rng)
                self._pending[row] = True
            else:
                self._keys[row] = corrupt(self._keys[row], is_high, rng)
                self._values[row] = corrupt(self._values[row], is_high, rng)
            self._corrupted[row] = True

    # ------------------------------------------------------------------
    # Introspection (per sequence)
    # ------------------------------------------------------------------
    def _live_rows(self, slot: int) -> np.ndarray:
        """The sequence's live rows in token-index (creation) order."""
        rows = _distinct(self._cells[slot, :, :self._seq[slot, _COUNT]] // self.n_heads)
        return rows[np.argsort(self._token_index[rows])]

    def _importance_by_row(self, slot: int, rows: np.ndarray) -> np.ndarray:
        """``[len(rows), H]`` accumulated importance of the sequence's live
        ``rows``; zero where the head no longer retains the token."""
        count = self._seq[slot, _COUNT]
        order = np.argsort(rows)
        index = order[np.searchsorted(rows, self._cells[slot, :, :count] // self.n_heads,
                                      sorter=order)]
        by_row = np.zeros((rows.size, self.n_heads), dtype=np.float64)
        by_row[index, self._heads[:, None]] = self._slot_importance[slot, :, :count]
        return by_row

    def _mean_importance(self, slot: int, rows: np.ndarray) -> np.ndarray:
        """Mean accumulated score of each live row over the heads retaining it.

        Rows are reduced in groups of equal retaining-head count, each as a
        contiguous ``[m, k]`` block, which is the summation order ``np.mean``
        applies to one token's ``importance[heads]`` vector.
        """
        retained = self._retained[rows]
        importance = self._importance_by_row(slot, rows)
        head_counts = retained.sum(axis=1)
        means = np.empty(rows.size, dtype=np.float64)
        for count in np.unique(head_counts).tolist():
            group = head_counts == count
            means[group] = importance[group][retained[group]].reshape(-1, count).mean(axis=1)
        return means

    def entries(self, slot: int) -> dict[int, TokenEntry]:
        sink_tokens = self.config.sink_tokens
        rows = self._live_rows(slot)
        importance = self._importance_by_row(slot, rows)
        entries = {}
        for i, row in enumerate(rows.tolist()):
            position = int(self._position[row, 0])
            entries[int(self._token_index[row])] = TokenEntry(
                token_index=int(self._token_index[row]),
                position=position,
                x=self._x[row].copy(),
                keys=self._keys[row].copy(),
                values=self._values[row].copy(),
                importance=importance[i],
                retaining_heads=set(np.flatnonzero(self._retained[row]).tolist()),
                storage_format="x" if self._stored_x[row] else "kv",
                is_sink=position < sink_tokens,
                corrupted=bool(self._corrupted[row]),
                created_step=int(self._created_step[row]),
                observation_count=int(self._seq[slot, _N_OBSERVED] - self._obs_base[row]),
            )
        return entries

    def tokens_for_head(self, slot: int, head: int) -> list[int]:
        rows = self._cells[slot, head, :self._seq[slot, _COUNT]] // self.n_heads
        return self._token_index[rows].tolist()

    def popularity(self, slot: int, token_index: int) -> float:
        rows = self._live_rows(slot)
        match = rows[self._token_index[rows] == token_index]
        if match.size == 0:
            raise KeyError(token_index)
        return int(self._retained[match].sum()) / self.n_heads

    def stored_bytes(self, slot: int, bits_per_element: int) -> int:
        rows = self._live_rows(slot)
        kv_cells = int(self._retained[rows[~self._stored_x[rows]]].sum())
        total_elements = (int(self._seq[slot, _N_STORED_X]) * self.d_model
                          + 2 * self.head_dim * kv_cells)
        return total_elements * bits_per_element // 8


class AERPCache(LayerKVCache):
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
        super().__init__(n_heads, head_dim, d_model)
        self.config = config
        self.recompute_fn = recompute_fn
        self.injector = injector or KVFaultInjector()
        self._injects = not self.injector.is_noop
        self._rng = derive_rng(seed, "aerp", layer_index)
        if arena is None:
            arena = AERPArena(n_heads, head_dim, d_model, config)
        self._arena = arena
        self._slot = arena.alloc_slot()
        self._slots = np.array([self._slot])  # this cache as a group of one
        # A handle dropped unreleased (generate() and the experiments never
        # release) hands its slot back through the arena's queue.
        self._finalizer = weakref.finalize(self, arena._dropped.append, self._slot)
        self._finalizer.atexit = False

    def release(self) -> None:
        """Return the slot and its rows to the arena; the cache is unusable afterwards."""
        super().release()
        if self._arena is not None:
            self._finalizer.detach()
            self._arena.free_slot(self._slot)
            self._arena = self._slots = None

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and the experiments
    # ------------------------------------------------------------------
    @property
    def entries(self) -> dict[int, TokenEntry]:
        """Snapshot of every live token, keyed by token index (creation order)."""
        return self._arena.entries(self._slot)

    def tokens_for_head(self, head: int) -> list[int]:
        """Token indices currently retained by ``head`` (slot order)."""
        return self._arena.tokens_for_head(self._slot, head)

    def popularity(self, token_index: int) -> float:
        """Fraction of heads retaining the token."""
        return self._arena.popularity(self._slot, token_index)

    def _live_rows(self) -> np.ndarray:
        return self._arena._live_rows(self._slot)

    def _mean_importance(self, rows: np.ndarray) -> np.ndarray:
        return self._arena._mean_importance(self._slot, rows)

    @property
    def num_tokens(self) -> int:
        return 0 if self._arena is None else int(self._arena._seq[self._slot, _COUNT])

    @property
    def eviction_count(self) -> int:
        return int(self._arena._seq[self._slot, _EVICTIONS])

    @property
    def recompute_count(self) -> int:
        return int(self._arena._seq[self._slot, _RECOMPUTES])

    @property
    def recompute_fraction(self) -> float:
        """Fraction of live entries stored in recomputation (x) format."""
        if self._arena is None:
            return 0.0
        live, stored = self._arena._seq[self._slot, [_N_LIVE, _N_STORED_X]].tolist()
        return stored / live if live else 0.0

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        return self._arena.stored_bytes(self._slot, bits_per_element)

    # ------------------------------------------------------------------
    # LayerKVCache interface: the group operations with a group of one
    # ------------------------------------------------------------------
    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        self._arena.prefill(self._slot, keys, values, inputs, attn_probs)
        # Fault injection for pre-filled entries: classification uses the
        # pre-filling importance ranking.
        if self._injects:
            self._arena.inject_faults(self._slot, self.injector, self._rng, resident_steps=0)

    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        self._arena.append(self._slots, np.asarray(key)[None], np.asarray(value)[None],
                           np.asarray(x)[None], np.array([position]))

    def fetch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arena is None:
            raise RuntimeError("fetch on a released AERPCache")
        keys, values, valid = self._arena.fetch(self._slots, self.recompute_fn)
        return keys[0], values[0], valid[0]

    def observe_attention(self, probs: np.ndarray) -> None:
        self.observe_group([self], np.asarray(probs)[None])

    def end_step(self) -> None:
        self._arena._seq[self._slot, _STEP] += 1

    # ------------------------------------------------------------------
    # Group protocol: one arena call for a whole decode group
    # ------------------------------------------------------------------
    def group_key(self) -> tuple:
        """Caches of one arena, one ``recompute_fn`` object and one slot count
        step together (nothing to pad or mask)."""
        return (self._arena, self.recompute_fn, int(self._arena._seq[self._slot, _COUNT]))

    def step_group(self, caches: "Sequence[AERPCache]", keys: np.ndarray, values: np.ndarray,
                   xs: np.ndarray, positions: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        slots = np.array([cache._slot for cache in caches])
        self._arena.append(slots, keys, values, xs, positions)
        return self._arena.fetch(slots, self.recompute_fn)

    def observe_group(self, caches: "Sequence[AERPCache]", probs: np.ndarray) -> None:
        self._arena.observe(np.array([cache._slot for cache in caches]), probs)
        # Lazy 2DRP fault injection: an entry is corrupted once, after it has
        # been resident for at least one step (so its HST/LST class reflects
        # observed importance rather than defaulting to "new token").
        for cache in caches:
            if cache._injects:
                self._arena.inject_faults(cache._slot, cache.injector, cache._rng,
                                          resident_steps=1)
