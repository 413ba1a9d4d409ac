"""KV-cache interface, contiguous storage substrate and the full cache.

The attention layer of :class:`repro.llm.model.DecoderLM` talks to the cache
through a narrow interface so that the paper's policies (AERP with eviction
and recomputation, 2DRP fault injection) and the baselines (full cache,
StreamingLLM, H2O, random eviction, quantized caches) are interchangeable.

All caches are **per-layer** objects with **per-head** slot state, because
AERP evicts independently per attention head (Section 4.1 of the paper) and
relies on the permutation invariance of Equations 1-2 to reuse the victim's
slot for the incoming token.

Storage-wise every cache builds on :class:`ContiguousKVStore`: preallocated
``[H, capacity, head_dim]`` buffers grown by amortised doubling.  ``fetch``
returns *views* into these buffers, so the per-step cost of reading the cache
is O(1) instead of the O(n) re-stacking a list-of-arrays layout pays.
"""

from __future__ import annotations

import abc
from typing import Callable, Hashable, Protocol, Sequence

import numpy as np

from repro.registry import register

#: Recompute callback, rows in / rows out: maps ``P`` block input vectors
#: ``x [P, C]`` at absolute ``positions [P]`` to this layer's per-head keys and
#: values ``([P, H, d], [P, H, d])``.  Every row must be computed as its own
#: ``M = 1`` projection (what ``decode_step`` stored for the token), not as one
#: ``[P, C]`` GEMM, whose results differ in the last bits.
RecomputeFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


class ContiguousKVStore:
    """Preallocated contiguous per-head K/V slot storage.

    Keys and values live in ``[n_heads, capacity, head_dim]`` float32 buffers;
    ``capacity`` doubles whenever an insert would overflow, so the amortised
    cost of ``append`` is O(head_dim) and ``view()`` is a zero-copy slice.
    Slots are ordered; :meth:`delete_slot` compacts the tail left by one
    position (a single vectorised memmove), preserving slot order for the
    eviction policies that rely on it.
    """

    __slots__ = ("n_heads", "head_dim", "_keys", "_values", "_count", "_valid")

    def __init__(self, n_heads: int, head_dim: int, initial_capacity: int = 64) -> None:
        if n_heads <= 0 or head_dim <= 0 or initial_capacity <= 0:
            raise ValueError("n_heads, head_dim and initial_capacity must be positive")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self._keys = np.empty((n_heads, initial_capacity, head_dim), dtype=np.float32)
        self._values = np.empty((n_heads, initial_capacity, head_dim), dtype=np.float32)
        self._valid = np.ones((n_heads, initial_capacity), dtype=bool)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return self._keys.shape[1]

    def reserve(self, extra: int) -> None:
        """Grow (by doubling) until ``extra`` more slots fit."""
        needed = self._count + extra
        capacity = self.capacity
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_keys", "_values"):
            old = getattr(self, name)
            grown = np.empty((self.n_heads, capacity, self.head_dim), dtype=np.float32)
            grown[:, :self._count] = old[:, :self._count]
            setattr(self, name, grown)
        self._valid = np.ones((self.n_heads, capacity), dtype=bool)

    def append(self, key: np.ndarray, value: np.ndarray) -> int:
        """Insert one ``[H, d]`` K/V pair, returning its slot index."""
        self.reserve(1)
        slot = self._count
        self._keys[:, slot] = key
        self._values[:, slot] = value
        self._count += 1
        return slot

    def extend(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Bulk-insert ``[H, n, d]`` K/V blocks in one buffer write."""
        n = keys.shape[1]
        if n == 0:
            return
        self.reserve(n)
        self._keys[:, self._count:self._count + n] = keys
        self._values[:, self._count:self._count + n] = values
        self._count += n

    def delete_slot(self, slot: int) -> None:
        """Remove one slot, shifting the tail left (slot order preserved)."""
        if not 0 <= slot < self._count:
            raise IndexError(f"slot {slot} out of range [0, {self._count})")
        if slot < self._count - 1:
            self._keys[:, slot:self._count - 1] = self._keys[:, slot + 1:self._count]
            self._values[:, slot:self._count - 1] = self._values[:, slot + 1:self._count]
        self._count -= 1

    def truncate(self, n: int) -> None:
        """Shrink to the first ``n`` slots (O(1): the view just gets shorter)."""
        if not 0 <= n <= self._count:
            raise ValueError(f"truncate to {n} out of range [0, {self._count}]")
        self._count = n

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``([H, n, d], [H, n, d])`` views of the live slots."""
        return self._keys[:, :self._count], self._values[:, :self._count]

    def valid_view(self) -> np.ndarray:
        """All-true ``[H, n]`` validity view matching :meth:`view` (zero-copy).

        Every store-backed slot is live by construction, so caches whose
        policies never invalidate individual slots can return this directly
        from ``fetch``.
        """
        return self._valid[:, :self._count]


class LayerKVCache(abc.ABC):
    """Abstract per-layer KV cache with per-head slots."""

    #: Whether this cache supports *incremental* prefill and prefix forking
    #: with exact full-cache semantics (see :meth:`extend_chunk` and
    #: :meth:`fork`).  Eviction/quantization policies whose prefill decisions
    #: depend on seeing the whole prompt at once leave this False, and the
    #: serving engine's prefix-sharing/chunked-prefill paths skip them.
    supports_chunked_prefill: bool = False

    #: Whether this cache supports :meth:`truncate` — rolling the cache back
    #: to a shorter prefix with exact full-cache semantics.  Speculative
    #: decoding needs it to discard the KV entries of rejected draft tokens;
    #: drivers fall back to plain (non-speculative) decoding for caches that
    #: leave this False.
    supports_rollback: bool = False

    #: Whether this cache can serialise its state into a self-contained
    #: checkpoint (``export_state``) and rebuild it in a compatible pool
    #: (``import_state``) — the recompute-free failover/migration primitive.
    #: Only pool-backed caches (:class:`repro.core.kv_pool.PagedKVCache`)
    #: advertise it; every other cache keeps the eviction-and-recompute
    #: recovery path.
    supports_checkpoint: bool = False

    #: How (if at all) this cache can join a *fused* batched decode group —
    #: attention for a whole group of sequences as one batched BLAS call per
    #: layer (:meth:`repro.llm.model.DecoderLM.decode_step_batch`).  A cache
    #: qualifies only if its ``fetch`` mask is always all-true and it does
    #: not depend on per-step :meth:`observe_attention` feedback:
    #:
    #: * ``"paged"`` — pool-backed; the fused path appends straight into
    #:   pool pages and gathers group K/V via page-table indexing;
    #: * ``"contig"`` — private contiguous storage; same-length sequences
    #:   are stacked into a shared workspace;
    #: * ``None`` — no fused layout (eviction/importance policies whose
    #:   validity masks and ``observe_attention`` hooks need their own
    #:   ``append`` / ``fetch`` every step); the batched decode stacks the
    #:   attention of such rows only where their fetched shapes agree.
    fused_kind: "str | None" = None

    #: Whether :meth:`append` stores the K/V vectors *verbatim* — no
    #: quantization round-trip or storage-dtype rounding.  When every member
    #: of a fused decode group stores verbatim, the group's persistent K/V
    #: stacks extend directly from the batched projections; otherwise the
    #: fused path reads each newly stored token back so the stacks hold
    #: exactly what the cache holds.
    fused_store_identity: bool = False

    def __init__(self, n_heads: int, head_dim: int, d_model: int) -> None:
        if n_heads <= 0 or head_dim <= 0 or d_model <= 0:
            raise ValueError("n_heads, head_dim and d_model must be positive")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.d_model = d_model
        #: Mutation counter for fused group-buffer invalidation: bumped
        #: whenever already-stored tokens may change or disappear (truncate,
        #: release, checkpoint import).  Plain appends do NOT bump it — the
        #: fused decode path relies on that to extend its persistent stacked
        #: K/V buffers incrementally instead of re-gathering every step.
        self.write_epoch = 0

    @abc.abstractmethod
    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        """Load the context tokens processed in parallel during pre-filling.

        Parameters
        ----------
        keys, values:
            ``[H, N_ctx, head_dim]`` per-head projections of the context.
        inputs:
            ``[N_ctx, d_model]`` normalised block inputs (needed when a token
            is stored in recomputation format).
        attn_probs:
            ``[H, N_ctx, N_ctx]`` causal attention probabilities of the
            pre-filling pass, used to compute importance scores.
        """

    @abc.abstractmethod
    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        """Insert the KV vectors of a newly decoded token.

        ``key``/``value`` are ``[H, head_dim]``, ``x`` is the ``[d_model]``
        block input and ``position`` the absolute token position (needed to
        re-apply rotary embeddings when the token is recomputed later).
        """

    @abc.abstractmethod
    def fetch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(K, V, valid)`` with shapes ``[H, n, d], [H, n, d], [H, n]``.

        ``valid`` is a boolean mask marking live slots; invalid slots must be
        ignored by the attention computation.  The returned arrays may be
        *views* into the cache's internal buffers — callers must treat them as
        read-only and must not hold them across a mutating call.
        """

    @abc.abstractmethod
    def observe_attention(self, probs: np.ndarray) -> None:
        """Feed back the attention probabilities of the newest query.

        ``probs`` has shape ``[H, n]`` aligned with the slots returned by the
        immediately preceding :meth:`fetch`.
        """

    @property
    @abc.abstractmethod
    def num_tokens(self) -> int:
        """Number of live tokens (maximum across heads)."""

    @abc.abstractmethod
    def stored_bytes(self, bits_per_element: int = 16) -> int:
        """Bytes of cache storage currently occupied (for energy accounting)."""

    def end_step(self) -> None:
        """Hook called once per decode step after attention; default no-op."""

    # -- group protocol (batched decode of caches no fused layout covers) --
    def group_key(self) -> "Hashable | None":
        """Key under which this cache can share the next decode step.

        Caches returning equal keys are stepped by ONE :meth:`step_group` /
        :meth:`observe_group` call on any of them; equal keys promise equal
        fetched lengths.  ``None`` (the default) steps the cache on its own.
        """
        return None

    def step_group(self, caches: "Sequence[LayerKVCache]", keys: np.ndarray,
                   values: np.ndarray, xs: np.ndarray, positions: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`append` one token to each of ``caches``, then :meth:`fetch`.

        ``keys``/``values`` are ``[G, H, d]``, ``xs`` ``[G, C]``, ``positions``
        ``[G]``; returns ``(K, V, valid)`` as :meth:`fetch` does, with a
        leading group axis.  The default is the per-cache calls, for the
        group of one the default :meth:`group_key` forms.
        """
        (cache,) = caches
        cache.append(keys[0], values[0], xs[0], int(positions[0]))
        return tuple(part[None] for part in cache.fetch())

    def observe_group(self, caches: "Sequence[LayerKVCache]", probs: np.ndarray) -> None:
        """:meth:`observe_attention` for each of ``caches``: ``probs`` is
        ``[G, H, n]``, aligned with the preceding :meth:`step_group`."""
        for cache, cache_probs in zip(caches, probs):
            cache.observe_attention(cache_probs)

    # -- chunked prefill and prefix forking (optional capabilities) -----
    def extend_chunk(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                     positions: np.ndarray) -> None:
        """Append a prefill *chunk* of ``[H, c, d]`` K/V pairs at ``positions``.

        Only caches with ``supports_chunked_prefill`` implement this; it must
        leave the cache in exactly the state a whole-prompt :meth:`prefill`
        of the concatenated chunks would.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support chunked prefill")

    def fork(self, upto: int | None = None) -> "LayerKVCache":
        """Return an independent cache sharing the first ``upto`` tokens.

        Writes to either side must never be visible to the other.  Only
        caches with ``supports_chunked_prefill`` implement this; it is what
        the serving engine's radix prefix index snapshots and reuses.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support forking")

    def truncate(self, n: int) -> None:
        """Roll the cache back to its first ``n`` tokens (KV rollback).

        After ``truncate(n)`` the cache must be indistinguishable from one
        that only ever saw the first ``n`` tokens — this is what discards the
        KV entries of rejected speculative tokens.  Only caches with
        ``supports_rollback`` implement it natively (``full`` shrinks its
        contiguous view, ``paged`` returns rolled-back pages to the pool).

        A cache that supports :meth:`fork` but not in-place truncation can
        realise the same semantics with a *fork-based fallback* — replace the
        cache with ``self.fork(upto=n)`` and :meth:`release` the original —
        at the cost of the fork's bookkeeping.  The eviction/quantization
        policies support neither (their slot state is not a pure token
        prefix: evicted-slot order and accumulated importance cannot be
        rewound), so speculative drivers simply fall back to plain decoding
        for them.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support rollback")

    def release(self) -> None:
        """Return backing storage to its owner (no-op for private storage).

        The serving engine calls this when a sequence retires; pool-backed
        caches drop their page references here.  Bumps :attr:`write_epoch`
        so any fused group buffer still referencing this cache restacks.
        """
        self.write_epoch += 1


class KVCacheFactory(Protocol):
    """Factory building one :class:`LayerKVCache` per decoder layer."""

    def __call__(self, layer_index: int, n_heads: int, head_dim: int, d_model: int,
                 recompute_fn: RecomputeFn) -> LayerKVCache:
        ...


class FullKVCache(LayerKVCache):
    """The unbounded baseline cache: every token's KV vectors are retained.

    Storage is one :class:`ContiguousKVStore`; prefill is a single bulk buffer
    write and ``fetch`` returns zero-copy views, so the decode hot loop does no
    per-token Python work at all.
    """

    supports_chunked_prefill = True
    supports_rollback = True
    fused_kind = "contig"
    fused_store_identity = True  # fp32 verbatim storage, no transform

    def __init__(self, n_heads: int, head_dim: int, d_model: int) -> None:
        super().__init__(n_heads, head_dim, d_model)
        self._store = ContiguousKVStore(n_heads, head_dim)

    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        del inputs, attn_probs
        self._store.extend(np.asarray(keys, dtype=np.float32),
                           np.asarray(values, dtype=np.float32))

    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        del x, position
        self._store.append(key, value)

    def fetch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys, values = self._store.view()
        return keys, values, self._store.valid_view()

    def observe_attention(self, probs: np.ndarray) -> None:
        del probs  # the full cache does not track importance

    def extend_chunk(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                     positions: np.ndarray) -> None:
        del inputs, positions
        self._store.extend(np.asarray(keys, dtype=np.float32),
                           np.asarray(values, dtype=np.float32))

    def fork(self, upto: int | None = None) -> "FullKVCache":
        """Fork by copying the prefix (the full cache has no shareable pages)."""
        upto = len(self._store) if upto is None else int(upto)
        if not 0 <= upto <= len(self._store):
            raise ValueError(f"fork upto={upto} out of range [0, {len(self._store)}]")
        child = FullKVCache(self.n_heads, self.head_dim, self.d_model)
        keys, values = self._store.view()
        child._store.extend(keys[:, :upto], values[:, :upto])
        return child

    def truncate(self, n: int) -> None:
        """Native rollback: shrink the contiguous view to ``n`` tokens."""
        self._store.truncate(n)
        self.write_epoch += 1

    @property
    def num_tokens(self) -> int:
        return len(self._store)

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        elements = 2 * len(self._store) * self.n_heads * self.head_dim
        return elements * bits_per_element // 8


def full_cache_factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                       recompute_fn: RecomputeFn) -> LayerKVCache:
    """Factory for the full-cache baseline (ignores the recompute callback)."""
    del layer_index, recompute_fn
    return FullKVCache(n_heads, head_dim, d_model)


@register("cache", "full", "fp16", description="unbounded full KV cache (no eviction)")
def _build_full_cache() -> KVCacheFactory:
    """Registry builder for the full-cache baseline: ``resolve("cache", "full")``."""
    return full_cache_factory
