"""Reference AERP cache: the dict / list / set implementation, kept as the oracle.

This is ``repro.core.kv_cache`` as it stood before the struct-of-arrays
rewrite, moved here verbatim but for two changes, made in step with the
slab.  An x-format token appended in decode starts with ``recomputed`` set
to the K/V handed in, so only prefilled tokens and tokens whose ``x`` a
fault corrupted (``recomputed`` ``None``) are recomputed at the next
``fetch``.  And the tokens that come due for 2DRP faults in one call are
corrupted together (:meth:`AERPCache._inject_faults`): one call of the
sparse sampler :func:`repro.memory.bitops.sample_bit_faults` on their stored
forms, a kv-format token's retaining heads only, classified by an
importance rate summed in head order.
``tests/test_aerp_differential.py`` drives it and the array-native
:class:`repro.core.kv_cache.AERPCache` through the same call sequences and
requires identical victims, slot order, formats, counters, importance values
and ``fetch()`` outputs.  Do not optimise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
    """Book-keeping for one token held by the cache (across heads).

    ``keys``/``values``/``importance`` are views into the cache's contiguous
    pools; mutate them in place (``entry.keys[...] = ...``) rather than
    rebinding the attributes.
    """

    token_index: int
    position: int
    x: np.ndarray
    keys: np.ndarray  # [H, head_dim] pool view
    values: np.ndarray  # [H, head_dim] pool view
    importance: np.ndarray  # [H] pool view
    retaining_heads: set[int]
    storage_format: str = "kv"  # "kv" or "x"
    is_sink: bool = False
    corrupted: bool = False
    created_step: int = 0
    observation_count: int = 0
    recomputed: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

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

    def __init__(self, n_heads: int, head_dim: int, d_model: int, config: "AERPConfig",
                 recompute_fn: RecomputeFn, injector: KVFaultInjector | None = None,
                 seed: int = 0, layer_index: int = 0) -> None:
        super().__init__(n_heads, head_dim, d_model)
        self.config = config
        self.recompute_fn = recompute_fn
        self.injector = injector or KVFaultInjector()
        self._rng = derive_rng(seed, "aerp", layer_index)
        self._entries: dict[int, TokenEntry] = {}
        self._slots: list[list[int]] = [[] for _ in range(n_heads)]
        self._next_token_index = 0
        self._current_position = -1
        self._step = 0
        # Fetch snapshot: the slot lists are shared by reference and only
        # copied if the cache mutates between fetch and observe_attention
        # (copy-on-write; never happens in the decode loop).
        self._last_fetch_slots: list[list[int]] | None = None
        self._last_fetch_rows: list[np.ndarray] | None = None
        self._fetch_stale = False
        self.eviction_count = 0
        self.recompute_count = 0
        # Contiguous pools; rows are recycled through a free list.
        capacity = max(16, config.budget + config.sink_tokens + 1)
        self._pool_k = np.zeros((n_heads, capacity, head_dim), dtype=np.float32)
        self._pool_v = np.zeros((n_heads, capacity, head_dim), dtype=np.float32)
        self._pool_imp = np.zeros((n_heads, capacity), dtype=np.float64)
        self._rows: dict[int, int] = {}  # token_index -> pool row
        self._free_rows: list[int] = list(range(capacity - 1, -1, -1))

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def _grow_pools(self, extra: int) -> None:
        capacity = self._pool_k.shape[1]
        needed = capacity - len(self._free_rows) + extra
        if needed <= capacity:
            return
        new_capacity = capacity
        while new_capacity < needed:
            new_capacity *= 2
        for name in ("_pool_k", "_pool_v", "_pool_imp"):
            old = getattr(self, name)
            grown = np.zeros(old.shape[:1] + (new_capacity,) + old.shape[2:], dtype=old.dtype)
            grown[:, :capacity] = old
            setattr(self, name, grown)
        self._free_rows.extend(range(new_capacity - 1, capacity - 1, -1))
        # Re-bind the per-entry views onto the reallocated pools.
        for token_index, entry in self._entries.items():
            row = self._rows[token_index]
            entry.keys = self._pool_k[:, row, :]
            entry.values = self._pool_v[:, row, :]
            entry.importance = self._pool_imp[:, row]
            if entry.recomputed is not None:
                entry.recomputed = (entry.keys, entry.values)

    def _alloc_row(self, token_index: int) -> int:
        self._grow_pools(1)
        row = self._free_rows.pop()
        self._rows[token_index] = row
        return row

    def _snapshot_before_mutation(self) -> None:
        """Detach a live fetch snapshot before the slot lists change."""
        if self._last_fetch_slots is not None and not self._fetch_stale:
            self._last_fetch_slots = [list(slots) for slots in self._slots]
            self._fetch_stale = True

    def _release_entry(self, token_index: int) -> None:
        del self._entries[token_index]
        self._free_rows.append(self._rows.pop(token_index))

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and the experiments
    # ------------------------------------------------------------------
    @property
    def entries(self) -> dict[int, TokenEntry]:
        return self._entries

    def tokens_for_head(self, head: int) -> list[int]:
        """Token indices currently retained by ``head`` (slot order)."""
        return list(self._slots[head])

    def popularity(self, token_index: int) -> float:
        """Fraction of heads retaining the token."""
        entry = self._entries[token_index]
        return len(entry.retaining_heads) / self.n_heads

    @property
    def num_tokens(self) -> int:
        return max((len(slots) for slots in self._slots), default=0)

    @property
    def recompute_fraction(self) -> float:
        """Fraction of live entries stored in recomputation (x) format."""
        if not self._entries:
            return 0.0
        stored_x = sum(1 for e in self._entries.values() if e.storage_format == "x")
        return stored_x / len(self._entries)

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        total_elements = 0
        for entry in self._entries.values():
            if entry.storage_format == "x":
                total_elements += self.d_model
            else:
                total_elements += 2 * self.head_dim * len(entry.retaining_heads)
        return total_elements * bits_per_element // 8

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _is_protected(self, entry: TokenEntry) -> bool:
        """Sink tokens and the most recent window are never evicted."""
        if entry.is_sink:
            return True
        return entry.position > self._current_position - self.config.recent_window

    def _importance_rate(self, entry: TokenEntry) -> float:
        """HST/LST input: the mean accumulated score over the retaining heads
        (summed in head order) per query observed."""
        total = 0.0
        for head in sorted(entry.retaining_heads):
            total += float(entry.importance[head])
        return total / len(entry.retaining_heads) / max(1, entry.observation_count)

    def _inject_faults(self, targets: list[TokenEntry]) -> None:
        """Apply the 2DRP fault model to ``targets`` (live, uncorrupted, in
        token order) with one sampler call.

        A target is HST when its importance rate is at least the median rate
        of all live entries.  The block is every target's stored form at
        fp16, in token order: ``x``, or the K then the V of its retaining
        heads in head order.
        """
        if not targets:
            return
        median = float(np.median([self._importance_rate(e) for e in self._entries.values()]))
        parts, high = [], []
        for entry in targets:
            heads = sorted(entry.retaining_heads)
            stored = [entry.x] if entry.storage_format == "x" else [entry.keys[heads],
                                                                   entry.values[heads]]
            parts.append(np.concatenate([part.ravel() for part in stored]))
            high.append(np.full(parts[-1].size, self._importance_rate(entry) >= median))
        bits = np.concatenate(parts).astype(np.float16).view(np.uint16)
        sample_bit_faults(bits, np.concatenate(high), self.injector.rates, self._rng,
                          self.injector.mode)
        corrupted = saturate_float16(bits)
        start = 0
        for entry, part in zip(targets, parts):
            values = corrupted[start:start + part.size]
            start += part.size
            if entry.storage_format == "x":
                entry.x = values.copy()
                entry.recomputed = None
            else:
                heads = sorted(entry.retaining_heads)
                keys, vals = values.reshape(2, len(heads), self.head_dim)
                entry.keys[heads] = keys
                entry.values[heads] = vals
            entry.corrupted = True

    def _choose_format(self, retained_heads: int) -> str:
        """Storage-format decision of Figure 7 (a)."""
        if not self.config.recompute_enabled:
            return "kv"
        popularity = retained_heads / self.n_heads
        if popularity < self.config.popularity_threshold:
            return "kv"
        if self.recompute_fraction >= self.config.max_recompute_fraction:
            return "kv"
        return "x"

    def _evict_from_head(self, head: int) -> None:
        """Remove the lowest-importance eligible token from ``head``."""
        slots = self._slots[head]
        candidates = [tok for tok in slots if not self._is_protected(self._entries[tok])]
        if not candidates:
            candidates = [tok for tok in slots if not self._entries[tok].is_sink]
        if not candidates:
            candidates = list(slots)
        victim = min(candidates, key=lambda tok: self._entries[tok].importance[head])
        slots.remove(victim)
        entry = self._entries[victim]
        entry.retaining_heads.discard(head)
        self.eviction_count += 1
        if not entry.retaining_heads:
            self._release_entry(victim)

    def _recomputed_kv(self, entry: TokenEntry) -> tuple[np.ndarray, np.ndarray]:
        if entry.recomputed is None:
            keys, values = self.recompute_fn(entry.x, entry.position)
            # Recomputed K/V are written back into the entry's pool row so the
            # fetch gather serves both storage formats from the same buffers.
            entry.keys[...] = keys
            entry.values[...] = values
            entry.recomputed = (entry.keys, entry.values)
            self.recompute_count += 1
        return entry.recomputed

    def _make_entry(self, position: int, x: np.ndarray, keys: np.ndarray, values: np.ndarray,
                    importance: np.ndarray, retaining_heads: set[int], *, is_sink: bool,
                    observation_count: int = 0) -> TokenEntry:
        """Allocate a pool row, write K/V/importance into it and build the entry."""
        token_index = self._next_token_index
        self._next_token_index += 1
        row = self._alloc_row(token_index)
        self._pool_k[:, row, :] = keys
        self._pool_v[:, row, :] = values
        self._pool_imp[:, row] = importance
        entry = TokenEntry(
            token_index=token_index,
            position=position,
            x=np.array(x, dtype=np.float32),
            keys=self._pool_k[:, row, :],
            values=self._pool_v[:, row, :],
            importance=self._pool_imp[:, row],
            retaining_heads=retaining_heads,
            is_sink=is_sink,
            created_step=self._step,
            observation_count=observation_count,
        )
        entry.storage_format = self._choose_format(len(retaining_heads))
        self._entries[token_index] = entry
        return entry

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
        self._current_position = n_ctx - 1
        importance = ImportanceTracker.prefill_importance(attn_probs)  # [H, N]
        budget = self.config.budget

        retained = np.zeros((self.n_heads, n_ctx), dtype=bool)  # head x token
        forced = np.zeros(n_ctx, dtype=bool)
        forced[:min(self.config.sink_tokens, n_ctx)] = True
        forced[max(0, n_ctx - self.config.recent_window):] = True
        for head in range(self.n_heads):
            if n_ctx <= budget:
                retained[head] = True
                continue
            remaining_budget = max(0, budget - int(forced.sum()))
            others = np.nonzero(~forced)[0]
            # Highest pre-fill importance first; stable sort keeps the original
            # position order among ties, matching list.sort(reverse=True).
            order = others[np.argsort(-importance[head, others], kind="stable")]
            retained[head, forced] = True
            retained[head, order[:remaining_budget]] = True

        for n in range(n_ctx):
            heads = np.nonzero(retained[:, n])[0]
            if heads.size == 0:
                continue
            entry = self._make_entry(
                position=n,
                x=inputs[n],
                keys=keys[:, n, :],
                values=values[:, n, :],
                importance=importance[:, n].astype(np.float64),
                retaining_heads=set(int(h) for h in heads),
                is_sink=n < self.config.sink_tokens,
                observation_count=max(1, n_ctx - n),
            )
            for head in heads:
                self._slots[int(head)].append(entry.token_index)

        # Fault injection for pre-filled entries: classification uses the
        # pre-filling importance ranking.
        if not self.injector.is_noop:
            self._inject_faults([e for e in self._entries.values() if not e.corrupted])

    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        self._snapshot_before_mutation()
        self._current_position = max(self._current_position, position)
        for head in range(self.n_heads):
            if len(self._slots[head]) >= self.config.budget:
                self._evict_from_head(head)
        entry = self._make_entry(
            position=position,
            x=x,
            keys=key,
            values=value,
            importance=np.zeros(self.n_heads, dtype=np.float64),
            retaining_heads=set(range(self.n_heads)),
            is_sink=position < self.config.sink_tokens,
        )
        if entry.storage_format == "x":  # the K/V handed in are its recomputation
            entry.recomputed = (entry.keys, entry.values)
        for head in range(self.n_heads):
            self._slots[head].append(entry.token_index)

    def fetch(self) -> tuple[np.ndarray, np.ndarray]:
        # Materialise any recomputation-format entries into their pool rows
        # first, so the per-head gather below covers both storage formats.
        for entry in self._entries.values():
            if entry.storage_format == "x" and entry.recomputed is None:
                self._recomputed_kv(entry)
        n_max = self.num_tokens
        keys = np.zeros((self.n_heads, n_max, self.head_dim), dtype=np.float32)
        values = np.zeros((self.n_heads, n_max, self.head_dim), dtype=np.float32)
        rows_by_head: list[np.ndarray] = []
        for head in range(self.n_heads):
            slots = self._slots[head]
            rows = np.fromiter((self._rows[tok] for tok in slots), dtype=np.int64,
                               count=len(slots))
            rows_by_head.append(rows)
            if rows.size:
                keys[head, :rows.size] = self._pool_k[head, rows]
                values[head, :rows.size] = self._pool_v[head, rows]
        self._last_fetch_slots = self._slots  # shared; copied on mutation
        self._last_fetch_rows = rows_by_head
        self._fetch_stale = False
        return keys, values

    def observe_attention(self, probs: np.ndarray) -> None:
        if self._last_fetch_slots is None:
            raise RuntimeError("observe_attention called before fetch")
        probs = np.asarray(probs, dtype=np.float64)
        observed: set[int] = set()
        # Fast path applies only when no append/eviction ran since the fetch
        # (tracked copy-on-write): unchanged slot lists imply every
        # (head, token) pair is still retained and every token still occupies
        # its fetched pool row.
        rows_valid = not self._fetch_stale
        for head in range(self.n_heads):
            slots = self._last_fetch_slots[head]
            if not slots:
                continue
            if rows_valid:
                rows = self._last_fetch_rows[head]
                self._pool_imp[head, rows] += probs[head, :rows.size]
                observed.update(slots)
            else:
                # Slow path: the cache mutated between fetch and observe.
                for slot, token_index in enumerate(slots):
                    entry = self._entries.get(token_index)
                    if entry is not None and head in entry.retaining_heads:
                        entry.importance[head] += probs[head, slot]
                        observed.add(token_index)
        for token_index in observed:
            entry = self._entries.get(token_index)
            if entry is not None:
                entry.observation_count += 1
        self._last_fetch_slots = None
        self._last_fetch_rows = None
        self._fetch_stale = False
        # Lazy 2DRP fault injection: an entry is corrupted once, after it has
        # been resident for at least one step (so its HST/LST class reflects
        # observed importance rather than defaulting to "new token").
        if self.injector.is_noop:
            return
        self._inject_faults([entry for entry in self._entries.values()
                             if not entry.corrupted and entry.created_step < self._step])

    def end_step(self) -> None:
        self._step += 1
