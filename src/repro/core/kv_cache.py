"""AERP KV cache: per-head eviction plus popularity-driven recomputation.

This is the functional implementation of Section 4.1 of the paper.  Each
decoder layer owns one :class:`AERPCache`; within a layer the cache keeps at
most ``budget`` tokens *per attention head*, evicting the token with the
lowest accumulated attention score (Equation 3) whenever a new token arrives
at a full head.  Sink tokens (the first few positions) and the most recent
tokens are protected from eviction, following StreamingLLM/H2O practice and
Section 7.1 of the paper.

Recomputation: tokens retained by at least ``popularity_threshold`` of the
heads ("popular" tokens) are stored as their block *input vector* ``x`` (C
elements) instead of per-head key/value pairs (2C elements across all heads);
their K/V are recomputed on demand through the layer's projection weights.
The same code path provides the storage accounting used by the accelerator
energy model and keeps the functional effect of fault injection honest: 2DRP
bit flips are applied to whatever representation is actually stored.

Storage layout (struct of arrays; no per-token Python objects).  A live token
owns one *row* of a preallocated pool (amortised-doubling growth, freed rows
recycled through a free list); head ``h``'s share of row ``r`` is *cell*
``r * n_heads + h``, which is stable across pool growth.

* per cell, ``[capacity, H, ...]``: keys and values (``[.., d]`` float32),
  accumulated importance (float64), a retained flag (a row is live while any
  of its cells is retained) and the token position (repeated per head so a
  cell id indexes it directly);
* per row, ``[capacity]``: the input vector ``x`` (``[.., d_model]``), token
  index, storage format, corrupted flag, creation step, observation count;
* per head, ``_cells[h, :_count]``: the cells head ``h`` retains, in slot
  order.  Every operation adds or removes exactly one slot in *every* head
  (``prefill`` retains equally many tokens per head, ``append`` evicts from
  all heads or none), so one ``_count`` serves all heads and ``fetch`` never
  pads: its ``valid`` mask is all true.

``append`` picks every head's victim with one masked ``argmin`` over the
``[H, n]`` gathered importance and compacts the slot table in one masked
copy; ``fetch`` is one ``take`` per K/V pool after materialising the (few)
pending recomputation-format rows; ``observe_attention`` is one gather-add-
scatter over the fetched cells.  ``recompute_fraction`` and the storage-format
decision read running counters.  :class:`TokenEntry`, :attr:`AERPCache.entries`,
:meth:`AERPCache.tokens_for_head` and :meth:`AERPCache.popularity` are
introspection snapshots built on demand from the arrays.

The previous dict / list / set implementation lives on as the test oracle
(``tests/reference_aerp.py``); eviction victims, slot order, format choices,
counters, importance values, ``fetch`` outputs and the fault injector's RNG
draw order are identical to it for any call sequence with finite importance
scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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


class AERPCache(LayerKVCache):
    """Per-layer KV cache implementing AERP (Section 4.1) with optional 2DRP faults."""

    #: Pool arrays indexed by row along axis 0 (grown together, dropped on release).
    _POOLS = ("_keys", "_values", "_retained", "_position", "_x",
              "_token_index", "_stored_x", "_corrupted", "_created_step", "_obs_count")

    def __init__(self, n_heads: int, head_dim: int, d_model: int, config: "AERPConfig",
                 recompute_fn: RecomputeFn, injector: KVFaultInjector | None = None,
                 seed: int = 0, layer_index: int = 0) -> None:
        super().__init__(n_heads, head_dim, d_model)
        self.config = config
        self.recompute_fn = recompute_fn
        self.injector = injector or KVFaultInjector()
        self._rng = derive_rng(seed, "aerp", layer_index)
        self._next_token_index = 0
        self._current_position = -1
        self._step = 0
        self.eviction_count = 0
        self.recompute_count = 0
        capacity = max(16, config.budget + config.sink_tokens + 1)
        # Per-cell pools.
        self._keys = np.zeros((capacity, n_heads, head_dim), dtype=np.float32)
        self._values = np.zeros((capacity, n_heads, head_dim), dtype=np.float32)
        self._retained = np.zeros((capacity, n_heads), dtype=bool)
        self._position = np.zeros((capacity, n_heads), dtype=np.int64)
        # Per-row pools.
        self._x = np.zeros((capacity, d_model), dtype=np.float32)
        self._token_index = np.zeros(capacity, dtype=np.int64)
        self._stored_x = np.zeros(capacity, dtype=bool)
        self._corrupted = np.zeros(capacity, dtype=bool)
        self._created_step = np.zeros(capacity, dtype=np.int64)
        self._obs_count = np.zeros(capacity, dtype=np.int64)
        self._free_rows: list[int] = list(range(capacity - 1, -1, -1))
        # Recomputation-format rows whose K/V cells do not hold their
        # recomputed values yet (new, or x was corrupted since).
        self._pending: set[int] = set()
        self._n_live = 0
        self._n_stored_x = 0
        # Slot table: the cells each head retains, in slot order, and the
        # importance each has accumulated in that head.
        self._heads = np.arange(n_heads)
        self._cells = np.zeros((n_heads, config.budget + 1), dtype=np.int64)
        self._slot_importance = np.zeros(self._cells.shape, dtype=np.float64)
        self._all_valid = np.ones(self._cells.shape, dtype=bool)  # fetch's mask
        self._count = 0
        # Fetch snapshot for observe_attention: nothing is copied unless the
        # cache mutates between fetch and observe (never in the decode loop).
        self._fetch_count: int | None = None
        self._stale_cells: np.ndarray | None = None
        self._stale_tokens: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def _alloc_rows(self, count: int) -> list[int]:
        """Pop ``count`` free rows, doubling the pools first if they run out."""
        capacity = self._keys.shape[0]
        needed = capacity - len(self._free_rows) + count
        if needed > capacity:
            new_capacity = capacity
            while new_capacity < needed:
                new_capacity *= 2
            for name in self._POOLS:
                old = getattr(self, name)
                grown = np.zeros((new_capacity,) + old.shape[1:], dtype=old.dtype)
                grown[:capacity] = old
                setattr(self, name, grown)
            self._free_rows.extend(range(new_capacity - 1, capacity - 1, -1))
        rows = self._free_rows[:-count - 1:-1]
        del self._free_rows[-count:]
        return rows

    def _free_dead_rows(self, rows: np.ndarray) -> None:
        """Recycle those of ``rows`` (which just lost a cell) no head retains."""
        alive = np.logical_or.reduce(self._retained[rows], axis=1)
        for row in {row for row, kept in zip(rows.tolist(), alive.tolist()) if not kept}:
            self._free_rows.append(row)
            self._n_live -= 1
            if self._stored_x[row]:
                self._stored_x[row] = False
                self._n_stored_x -= 1
                self._pending.discard(row)

    def _snapshot_before_mutation(self) -> None:
        """Detach a live fetch snapshot before the slot table changes."""
        if self._fetch_count is not None and self._stale_cells is None:
            self._stale_cells = self._cells[:, :self._fetch_count].copy()
            self._stale_tokens = self._token_index[self._stale_cells // self.n_heads]

    def _ensure_slot_width(self, width: int) -> None:
        if width > self._cells.shape[1]:
            shape = (self.n_heads, max(width, 2 * self._cells.shape[1]))
            for name in ("_cells", "_slot_importance"):
                old = getattr(self, name)
                grown = np.zeros(shape, dtype=old.dtype)
                grown[:, :self._count] = old[:, :self._count]
                setattr(self, name, grown)
            self._all_valid = np.ones(shape, dtype=bool)

    def release(self) -> None:
        """Drop every pool; the cache is unusable afterwards."""
        super().release()
        for name in self._POOLS:
            setattr(self, name, None)
        self._cells = self._slot_importance = self._all_valid = None
        self._free_rows = []
        self._pending = set()
        self._count = self._n_live = self._n_stored_x = 0
        self._fetch_count = self._stale_cells = self._stale_tokens = None

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and the experiments
    # ------------------------------------------------------------------
    def _importance_by_cell(self) -> np.ndarray:
        """``[capacity, H]`` accumulated importance; zero where not retained."""
        by_cell = np.zeros(self._retained.shape, dtype=np.float64)
        by_cell.reshape(-1)[self._cells[:, :self._count]] = (
            self._slot_importance[:, :self._count])
        return by_cell

    def _live_rows(self) -> np.ndarray:
        """Live pool rows in token-index (creation) order."""
        rows = np.flatnonzero(self._retained.any(axis=1))
        return rows[np.argsort(self._token_index[rows])]

    @property
    def entries(self) -> dict[int, TokenEntry]:
        """Snapshot of every live token, keyed by token index (creation order)."""
        sink_tokens = self.config.sink_tokens
        importance = self._importance_by_cell()
        entries = {}
        for row in self._live_rows().tolist():
            retained = self._retained[row]
            position = int(self._position[row, 0])
            entries[int(self._token_index[row])] = TokenEntry(
                token_index=int(self._token_index[row]),
                position=position,
                x=self._x[row].copy(),
                keys=self._keys[row].copy(),
                values=self._values[row].copy(),
                importance=importance[row],
                retaining_heads=set(np.flatnonzero(retained).tolist()),
                storage_format="x" if self._stored_x[row] else "kv",
                is_sink=position < sink_tokens,
                corrupted=bool(self._corrupted[row]),
                created_step=int(self._created_step[row]),
                observation_count=int(self._obs_count[row]),
            )
        return entries

    def tokens_for_head(self, head: int) -> list[int]:
        """Token indices currently retained by ``head`` (slot order)."""
        rows = self._cells[head, :self._count] // self.n_heads
        return self._token_index[rows].tolist()

    def popularity(self, token_index: int) -> float:
        """Fraction of heads retaining the token."""
        live = self._retained.any(axis=1) & (self._token_index == token_index)
        if not live.any():
            raise KeyError(token_index)
        return int(self._retained[live].sum()) / self.n_heads

    @property
    def num_tokens(self) -> int:
        return self._count

    @property
    def recompute_fraction(self) -> float:
        """Fraction of live entries stored in recomputation (x) format."""
        if not self._n_live:
            return 0.0
        return self._n_stored_x / self._n_live

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        kv_cells = int(self._retained[~self._stored_x].sum())
        total_elements = self._n_stored_x * self.d_model + 2 * self.head_dim * kv_cells
        return total_elements * bits_per_element // 8

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _stores_x(self, retained_heads: int) -> bool:
        """Storage-format decision of Figure 7 (a) for the next new entry."""
        if not self.config.recompute_enabled:
            return False
        if retained_heads / self.n_heads < self.config.popularity_threshold:
            return False
        return self.recompute_fraction < self.config.max_recompute_fraction

    def _register_rows(self, rows: list[int], retained_heads: list[int]) -> None:
        """Choose each new row's storage format, in order, and count it live.

        Sequential because every choice reads the recompute fraction the
        earlier ones left behind.
        """
        for row, heads in zip(rows, retained_heads):
            stores_x = self._stores_x(heads)
            self._stored_x[row] = stores_x
            self._n_live += 1
            if stores_x:
                self._n_stored_x += 1
                self._pending.add(row)

    def _evict_from_all_heads(self) -> None:
        """Remove every head's lowest-importance eligible token.

        Sink tokens and the most recent window are never evicted while another
        candidate exists; ties go to the earliest slot.
        """
        n = self._count
        heads = self._heads
        cells = self._cells[:, :n]
        positions = self._position.reshape(-1).take(cells)  # [H, n]
        non_sink = positions >= self.config.sink_tokens
        eligible = non_sink & (positions <= self._current_position - self.config.recent_window)
        has_candidate = np.logical_or.reduce(eligible, axis=1)
        if not np.logical_and.reduce(has_candidate):
            eligible[~has_candidate] = non_sink[~has_candidate]
            eligible[~eligible.any(axis=1)] = True
        importance = self._slot_importance[:, :n]
        victims = np.where(eligible, importance, np.inf).argmin(axis=1)  # slot per head
        victim_cells = cells[heads, victims]
        keep = np.ones((self.n_heads, n), dtype=bool)
        keep[heads, victims] = False
        self._cells[:, :n - 1] = cells[keep].reshape(self.n_heads, n - 1)
        self._slot_importance[:, :n - 1] = importance[keep].reshape(self.n_heads, n - 1)
        self._count = n - 1
        self._retained.reshape(-1)[victim_cells] = False
        self.eviction_count += self.n_heads
        self._free_dead_rows(victim_cells // self.n_heads)

    def _materialise_pending(self) -> None:
        """Recompute K/V of recomputation-format rows into their pool cells,
        so the fetch gather serves both storage formats from the same pools."""
        for row in self._pending:
            keys, values = self.recompute_fn(self._x[row], int(self._position[row, 0]))
            self._keys[row] = keys
            self._values[row] = values
            self.recompute_count += 1
        self._pending.clear()

    def _mean_importance(self, rows: np.ndarray) -> np.ndarray:
        """Mean accumulated score of each row over the heads retaining it.

        Rows are reduced in groups of equal retaining-head count, each as a
        contiguous ``[m, k]`` block, which is the summation order ``np.mean``
        applies to one token's ``importance[heads]`` vector.
        """
        retained = self._retained[rows]
        importance = self._importance_by_cell()[rows]
        head_counts = retained.sum(axis=1)
        means = np.empty(rows.size, dtype=np.float64)
        for count in np.unique(head_counts).tolist():
            group = head_counts == count
            means[group] = importance[group][retained[group]].reshape(-1, count).mean(axis=1)
        return means

    def _inject_faults(self, created_before: int) -> None:
        """Apply the 2DRP fault model once to every live, not yet corrupted
        row created before step ``created_before``.

        Rows are classified HST/LST against the median importance rate of all
        live rows (corruption never changes importance, so one median serves
        the whole call) and corrupted in token order, in whatever
        representation is stored.
        """
        rows = self._live_rows()
        targets = np.flatnonzero((self._created_step[rows] < created_before)
                                 & ~self._corrupted[rows])
        if targets.size == 0:
            return
        rates = self._mean_importance(rows) / np.maximum(1, self._obs_count[rows])
        high_score = rates >= np.median(rates)
        corrupt = self.injector.corrupt
        for row, is_high in zip(rows[targets].tolist(), high_score[targets].tolist()):
            if self._stored_x[row]:
                self._x[row] = corrupt(self._x[row], is_high, self._rng)
                self._pending.add(row)
            else:
                self._keys[row] = corrupt(self._keys[row], is_high, self._rng)
                self._values[row] = corrupt(self._values[row], is_high, self._rng)
            self._corrupted[row] = True

    # ------------------------------------------------------------------
    # LayerKVCache interface
    # ------------------------------------------------------------------
    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        inputs = np.asarray(inputs, dtype=np.float32)
        self._snapshot_before_mutation()
        n_ctx = keys.shape[1]
        n_heads = self.n_heads
        self._current_position = n_ctx - 1
        importance = ImportanceTracker.prefill_importance(attn_probs)  # [H, N]
        budget = self.config.budget

        retained = np.ones((n_heads, n_ctx), dtype=bool)  # head x token
        if n_ctx > budget:
            forced = np.zeros(n_ctx, dtype=bool)
            forced[:min(self.config.sink_tokens, n_ctx)] = True
            forced[max(0, n_ctx - self.config.recent_window):] = True
            remaining_budget = max(0, budget - int(forced.sum()))
            others = np.flatnonzero(~forced)
            # Highest pre-fill importance first; the stable sort keeps the
            # original position order among ties.
            order = np.argsort(-importance[:, others], axis=1, kind="stable")
            retained[:] = forced
            retained[self._heads[:, None], others[order[:, :remaining_budget]]] = True

        tokens = np.flatnonzero(retained.any(axis=0))
        if tokens.size:
            retained = retained[:, tokens]  # [H, m]
            rows = self._alloc_rows(tokens.size)
            self._keys[rows] = keys[:, tokens].transpose(1, 0, 2)
            self._values[rows] = values[:, tokens].transpose(1, 0, 2)
            self._retained[rows] = retained.T
            self._position[rows] = tokens[:, None]
            self._x[rows] = inputs[tokens]
            self._token_index[rows] = self._next_token_index + np.arange(tokens.size)
            self._next_token_index += tokens.size
            self._corrupted[rows] = False
            self._created_step[rows] = self._step
            self._obs_count[rows] = np.maximum(1, n_ctx - tokens)
            self._register_rows(rows, retained.sum(axis=0).tolist())
            # Each head's new slots, in token order (equally many per head).
            head_ids, token_ids = np.nonzero(retained)
            new_cells = (np.asarray(rows)[token_ids] * n_heads + head_ids).reshape(n_heads, -1)
            count = self._count + new_cells.shape[1]
            self._ensure_slot_width(count)
            self._cells[:, self._count:count] = new_cells
            self._slot_importance[:, self._count:count] = (
                importance[:, tokens][retained].reshape(n_heads, -1))
            self._count = count

        # Fault injection for pre-filled entries: classification uses the
        # pre-filling importance ranking.
        if self._n_live and not self.injector.is_noop:
            self._inject_faults(created_before=self._step + 1)

    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        self._snapshot_before_mutation()
        self._current_position = max(self._current_position, position)
        if self._count >= self.config.budget:
            self._evict_from_all_heads()
        (row,) = self._alloc_rows(1)
        self._keys[row] = key
        self._values[row] = value
        self._retained[row] = True
        self._position[row] = position
        self._x[row] = x
        self._token_index[row] = self._next_token_index
        self._next_token_index += 1
        self._corrupted[row] = False
        self._created_step[row] = self._step
        self._obs_count[row] = 0
        self._register_rows((row,), (self.n_heads,))
        self._ensure_slot_width(self._count + 1)
        self._cells[:, self._count] = row * self.n_heads + self._heads
        self._slot_importance[:, self._count] = 0.0
        self._count += 1

    def fetch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._cells is None:
            raise RuntimeError("fetch on a released AERPCache")
        if self._pending:
            self._materialise_pending()
        n = self._count
        cells = self._cells[:, :n]
        keys = self._keys.reshape(-1, self.head_dim).take(cells, axis=0)  # [H, n, d]
        values = self._values.reshape(-1, self.head_dim).take(cells, axis=0)
        self._fetch_count = n
        self._stale_cells = self._stale_tokens = None
        return keys, values, self._all_valid[:, :n]

    def observe_attention(self, probs: np.ndarray) -> None:
        if self._fetch_count is None:
            raise RuntimeError("observe_attention called before fetch")
        probs = np.asarray(probs)[:, :self._fetch_count]  # float32 adds exactly
        if self._stale_cells is None:
            # Nothing changed since the fetch: the fetched slots are the
            # current ones and cover every live row.
            self._slot_importance[:, :self._fetch_count] += probs
            self._obs_count += 1  # free rows are reset when allocated
        else:
            # The cache mutated between fetch and observe: credit only the
            # fetched (head, token) pairs that are still retained, wherever
            # their slots moved to.
            slot_of = np.full(self._retained.size, -1)
            slot_of[self._cells[:, :self._count]] = np.arange(self._count)
            slots = slot_of[self._stale_cells]
            rows = self._stale_cells // self.n_heads
            kept = (slots >= 0) & (self._token_index[rows] == self._stale_tokens)
            self._slot_importance[np.nonzero(kept)[0], slots[kept]] += probs[kept]
            self._obs_count[np.unique(rows[kept])] += 1
        self._fetch_count = None
        self._stale_cells = self._stale_tokens = None
        # Lazy 2DRP fault injection: an entry is corrupted once, after it has
        # been resident for at least one step (so its HST/LST class reflects
        # observed importance rather than defaulting to "new token").
        if not self.injector.is_noop:
            self._inject_faults(created_before=self._step)

    def end_step(self) -> None:
        self._step += 1
