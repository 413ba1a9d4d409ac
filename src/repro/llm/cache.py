"""The KV-cache interface.

The attention layer of :class:`repro.llm.model.DecoderLM` talks to the cache
through a narrow interface so that the paper's policies (AERP with eviction
and recomputation, 2DRP fault injection) and the baselines (full cache,
StreamingLLM, H2O, random eviction, quantized caches) are interchangeable.

All caches are **per-layer** objects with **per-head** slot state, because
AERP evicts independently per attention head (Section 4.1 of the paper) and
relies on the permutation invariance of Equations 1-2 to reuse the victim's
slot for the incoming token.

Two stores implement it.  The full cache (``full`` / ``fp16``, ``paged``)
and the quantized caches (``kivi`` / ``quarot``, :mod:`repro.baselines.
quant_kv`, whose fake-quant round trip is the pool's write transform) are
the paged store of :mod:`repro.core.kv_pool`; ``kelle`` and the eviction
baselines share one fixed-width slab per layer (:mod:`repro.core.kv_cache`).
Every ``fetch`` returns the cache's live K/V as *views* of its store where
it can, so reading the cache costs O(1) per step, and no cache pads or masks
what it returns.

**The group protocol** is how the batched forwards reach either store
without knowing it.  A stack (one sequence's per-layer caches) has a
:meth:`LayerKVCache.group_key`; stacks of equal keys share one decode group
(:meth:`LayerKVCache.decode_group`: ``claim`` once a step, then per layer
``step`` and ``observe``) and one chunk writer
(:meth:`LayerKVCache.chunk_group`).  The paged store's groups are whole
stacks of one pool, claimed once a step for every layer; the eviction
slab's are one :class:`~repro.core.kv_cache.AERPArena` call per layer; a
stack keyed ``None`` steps alone, by default cache by cache
(:class:`CacheGroup`, :class:`CacheChunks`), which is what the test
oracles use.
"""

from __future__ import annotations

import abc
from typing import Callable, Hashable, Protocol, Sequence

import numpy as np

#: Recompute callback, rows in / rows out: maps ``P`` block input vectors
#: ``x [P, C]`` at absolute ``positions [P]`` to this layer's per-head keys and
#: values ``([P, H, d], [P, H, d])``.  Every row must be computed as its own
#: ``M = 1`` projection, not as one ``[P, C]`` GEMM, whose results differ in
#: the last bits: a token's recomputed K/V must not depend on the rows it was
#: recomputed with.  Caches call it only to rebuild K/V they do not hold as
#: projected (after a prefill, or a fault on a stored ``x``), never for the
#: token a decode step hands them.
RecomputeFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


class LayerKVCache(abc.ABC):
    """Abstract per-layer KV cache with per-head slots."""

    #: Whether this cache supports *incremental* prefill and prefix forking
    #: with exact full-cache semantics (see :meth:`extend_chunk` and
    #: :meth:`fork`).  Eviction policies, whose prefill decisions depend on
    #: seeing the whole prompt at once, and the quantized caches, whose lossy
    #: codec would make a chunk attend decoded K/V where a whole prompt
    #: attends its projections, leave this False, and the serving engine's
    #: prefix-sharing/chunked-prefill paths skip them.
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

    #: Where a decode batch led by this cache keeps its plan between steps
    #: (an object with a writable ``decode_plan``; the paged handles' pool),
    #: or ``None``: the batch is grouped again every step.
    plan_home = None

    def __init__(self, n_heads: int, head_dim: int, d_model: int) -> None:
        if n_heads <= 0 or head_dim <= 0 or d_model <= 0:
            raise ValueError("n_heads, head_dim and d_model must be positive")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.d_model = d_model
        #: Mutation counter for fused decode groups: bumped whenever
        #: already-stored tokens may change or disappear (truncate, release,
        #: checkpoint import).  Plain appends do NOT bump it — the fused
        #: decode relies on that to keep its group (and the slot claims it
        #: makes) across steps instead of regrouping every step.
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
    def fetch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(K, V)``, each ``[H, n, d]``: every one of the ``n`` slots
        is a live token, attended in full (the attention masks nothing a
        cache returns).  The arrays may be *views* into the cache's internal
        buffers — callers must treat them as read-only and must not hold
        them across a mutating call.
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
        """Hook ending a decode step at this layer, called after attention
        (by :class:`CacheGroup`'s ``observe``); default no-op."""

    # -- group protocol (how the decode and the chunk forward reach a store) --
    def group_key(self, stack: "Sequence[LayerKVCache]") -> "Hashable | None":
        """Key under which ``stack`` — one sequence's per-layer caches, this
        cache first — can share a decode step or a chunk write.

        Stacks of equal keys are stepped by ONE group of
        :meth:`decode_group` (written by one :meth:`chunk_group`); equal keys
        promise equal fetched lengths or a group that masks what differs.
        ``None`` (the default) steps the stack on its own.
        """
        del stack
        return None

    def decode_group(self, stacks: "Sequence[Sequence[LayerKVCache]]") -> "CacheGroup":
        """The decode group of ``stacks`` (equal :meth:`group_key`, or one
        stack), this cache leading the first.

        A group steps its members one layer at a time, member ``g`` being
        ``stacks[order[g]]`` (``order`` ``None``: as given):
        ``step(layer, keys, values, xs, positions) -> (K, V, masked)`` stores
        the members' ``[G, H, d]`` new tokens (``xs`` ``[G, C]``,
        ``positions`` ``[G]``) and returns their ``[G, H, n, d]`` K/V with
        the mask of the slots past each member's length (``None``: nothing
        masked); ``observe(layer, probs)`` credits the ``[G, H, n]``
        probabilities and ends the step at that layer (``None`` for a group
        that scores nothing).  ``claim()`` (``None`` when there is nothing
        to claim) runs once a step before any layer writes, and ``holds()``
        says whether the group may serve the next step of the same stacks.
        The default is :class:`CacheGroup`.
        """
        return CacheGroup(stacks)

    def chunk_group(self, stacks: "Sequence[Sequence[LayerKVCache]]",
                    lengths: Sequence[int]) -> "CacheChunks":
        """The writer extending ``stacks`` (equal :meth:`group_key`, or one
        stack) by chunks of ``lengths`` tokens in one forward:
        ``write(layer, keys, values, inputs, positions)`` stores the members'
        ``[H, N, d]`` chunk tokens, in member order.  The default is
        :class:`CacheChunks`."""
        del lengths
        return CacheChunks(stacks)

    # -- stack protocol (one call for every layer of one sequence) ------
    def fork_stack(self, caches: "Sequence[LayerKVCache]",
                   upto: int | None = None) -> "list[LayerKVCache]":
        """:meth:`fork` each of ``caches`` — one sequence's per-layer stack,
        this cache among them — at ``upto``.

        The default is the per-layer loop; a cache whose layers share their
        bookkeeping (the paged cache's one page table per sequence) forks
        the whole stack with one operation.
        """
        return [cache.fork(upto) for cache in caches]

    def truncate_stack(self, caches: "Sequence[LayerKVCache]", n: int) -> None:
        """:meth:`truncate` each of ``caches`` to ``n`` tokens (see
        :meth:`fork_stack`)."""
        for cache in caches:
            cache.truncate(n)

    def release_stack(self, caches: "Sequence[LayerKVCache]") -> None:
        """:meth:`release` each of ``caches`` (see :meth:`fork_stack`)."""
        for cache in caches:
            cache.release()

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
        ``supports_rollback`` implement it natively (``full`` / ``paged``
        return rolled-back pages to the pool).

        A cache that supports :meth:`fork` but not in-place truncation can
        realise the same semantics with a *fork-based fallback* — replace the
        cache with ``self.fork(upto=n)`` and :meth:`release` the original —
        at the cost of the fork's bookkeeping.  The eviction policies
        support neither (their slot state is not a pure token prefix:
        evicted-slot order and accumulated importance cannot be rewound), nor
        do the quantized caches (a verify chunk is a chunked prefill), so
        speculative drivers simply fall back to plain decoding for them.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support rollback")

    def release(self) -> None:
        """Return backing storage to its owner (no-op for private storage).

        The serving engine calls this when a sequence retires; pool-backed
        caches drop their page references here.  Bumps :attr:`write_epoch`
        so any fused decode group still holding this cache regroups.
        """
        self.write_epoch += 1


class CacheGroup:
    """The default decode group: one stack stepped cache by cache
    (:meth:`~LayerKVCache.append`, :meth:`~LayerKVCache.fetch`,
    :meth:`~LayerKVCache.observe_attention`, :meth:`~LayerKVCache.end_step`),
    planned again every step."""

    __slots__ = ("stack",)
    claim = order = None

    def __init__(self, stacks: "Sequence[Sequence[LayerKVCache]]") -> None:
        (self.stack,) = stacks

    def holds(self) -> bool:
        return False

    def step(self, layer: int, keys: np.ndarray, values: np.ndarray, xs: np.ndarray,
             positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
        cache = self.stack[layer]
        cache.append(keys[0], values[0], xs[0], int(positions[0]))
        keys, values = cache.fetch()
        return keys[None], values[None], None

    def observe(self, layer: int, probs: np.ndarray) -> None:
        cache = self.stack[layer]
        cache.observe_attention(probs[0])
        cache.end_step()


class CacheChunks:
    """The default chunk writer: one stack, each layer's chunk through its
    cache's :meth:`~LayerKVCache.extend_chunk`."""

    __slots__ = ("stack",)

    def __init__(self, stacks: "Sequence[Sequence[LayerKVCache]]") -> None:
        (self.stack,) = stacks

    def write(self, layer: int, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
              positions: np.ndarray) -> None:
        self.stack[layer].extend_chunk(keys, values, inputs, positions)


class KVCacheFactory(Protocol):
    """Factory building one :class:`LayerKVCache` per decoder layer.

    A factory may also offer ``make_stack(n_layers, n_heads, head_dim,
    d_model)``, building one sequence's whole stack at once (layer ``i`` at
    index ``i``); :meth:`~repro.llm.model.DecoderLM.make_caches` uses it when
    present.
    """

    def __call__(self, layer_index: int, n_heads: int, head_dim: int, d_model: int,
                 recompute_fn: RecomputeFn) -> LayerKVCache:
        ...
