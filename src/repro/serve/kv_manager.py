"""KV-space management layer: capacity accounting, prefix reuse, preemption.

This is the *memory* layer of the serving core's three-layer split.  A
:class:`KVSpaceManager` wraps the cache factory (usually a
:class:`~repro.core.kv_pool.PagedCacheFactory` over per-layer
:class:`~repro.core.kv_pool.KVPagePool` arenas) plus the
:class:`~repro.serve.radix.RadixPrefixIndex`, and owns every KV-space
question the scheduler asks:

* **capability probing** — whether the configured cache supports chunked
  prefill (prefix sharing, token-budget scheduling) and rollback
  (speculative decoding), probed once per run;
* **capacity accounting** — when the factory is *bounded*
  (``paged:...,grow=false``), every sequence holds a logical page-granular
  reservation; :meth:`reserve` answers ``can_allocate`` questions and
  :meth:`release` implements eviction-for-preemption (pages back to the
  pool, reservation zeroed).  Reservations are conservative (radix
  snapshots are counted at full depth even though copy-on-write sharing
  makes the physical footprint smaller), so a granted reservation can
  never exhaust the physical pool;
* **prefix reuse** — the per-step radix matching with intra-wave dedup that
  the engine used to inline: fresh sequences fork cached prefixes and
  prefill only their novel suffix, and a miss that shares a prefix with a
  prompt being prefilled right now defers one step to reuse it.

Unbounded factories (the default) make every capacity question a no-op, so
the unconstrained serving path is byte-for-byte the pre-refactor behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.kv_pool import KVCheckpoint
from repro.serve.radix import RadixPrefixIndex

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.llm.cache import KVCacheFactory
    from repro.llm.model import DecoderLM
    from repro.serve.scheduler import SequenceState

#: Minimum shared-prefix length for which a fresh sequence is worth
#: deferring one step behind another sequence prefilling the same prefix.
DEFER_MIN_SHARED = 16


@dataclass(frozen=True)
class RequestCheckpoint:
    """Portable snapshot of one in-flight request: KV pages + decode state.

    Pairs the self-contained per-layer :class:`~repro.core.kv_pool.
    KVCheckpoint` with the token-level state (``generated``, ``position``)
    needed to resume DECODE exactly where the source left off — no replica-
    local references, so it can cross session/pool boundaries (live
    migration) or outlive a crashed replica (periodic checkpointing).
    ``kv.n_tokens == position`` by construction: the KV state covers every
    token *behind* the pending ``generated[-1]`` input.
    """

    request_id: str
    kv: KVCheckpoint
    generated: tuple[int, ...]
    position: int

    @property
    def n_tokens(self) -> int:
        """KV tokens carried — what a recompute recovery would re-prefill."""
        return self.kv.n_tokens

    @property
    def n_pages(self) -> int:
        return self.kv.n_pages


def shared_prefix_len(a: list[int], b: list[int]) -> int:
    """Length of the common prefix of two token lists."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class KVSpaceManager:
    """Tracks KV space per request and implements preemption by eviction.

    ``capacity_tokens`` overrides the capacity detected from a bounded
    :class:`~repro.core.kv_pool.PagedCacheFactory`; ``None`` with an
    unbounded factory disables all capacity gating.
    """

    def __init__(self, lm: "DecoderLM", cache_factory: "KVCacheFactory | None", *,
                 prefix_cache: bool = False, radix_max_tokens: int | None = None,
                 capacity_tokens: int | None = None) -> None:
        from repro.llm.cache import full_cache_factory

        self.lm = lm
        self.cache_factory = cache_factory
        if capacity_tokens is not None:
            # Pools this manager bounds are allocated once, at final size.
            presize = getattr(cache_factory, "reserve_capacity", None)
            if presize is not None:
                presize(capacity_tokens)
        # Probe the factory once (building a cache is cheap and side-effect
        # free — the paged cache allocates no pages until written).
        probe = (cache_factory or full_cache_factory)(
            0, lm.config.n_heads, lm.config.head_dim, lm.config.d_model,
            lm.recompute_fn(0))
        self.chunkable: bool = probe.supports_chunked_prefill
        self.rollbackable: bool = probe.supports_rollback
        self.checkpointable: bool = getattr(probe, "supports_checkpoint", False)
        probe.release()
        #: Restore counters surfaced by the serving report: requests resumed
        #: from a checkpoint, and the prefill tokens recompute recovery would
        #: have replayed for them (= tokens carried by their checkpoints).
        self.n_restored = 0
        self.restored_tokens = 0
        self.page_tokens = getattr(cache_factory, "page_tokens", 1)
        physical = getattr(cache_factory, "capacity_tokens", None)
        if physical is not None:
            # Keep one page of headroom: a copy-on-write flush into a
            # shared tail page transiently holds both copies.
            physical = max(self.page_tokens, physical - self.page_tokens)
        if capacity_tokens is None:
            capacity_tokens = physical
        elif physical is not None:
            # An explicit capacity never exceeds what the physical pool can
            # grant (including the CoW headroom above).
            capacity_tokens = min(capacity_tokens, physical)
        self.capacity_tokens = capacity_tokens
        self._reserved_total = 0
        self.index: RadixPrefixIndex | None = (
            RadixPrefixIndex(max_tokens=radix_max_tokens)
            if prefix_cache and self.chunkable else None)
        #: The budget the session was built with — what :meth:`limit_radix`
        #: restores on brownout recovery.
        self._radix_budget = radix_max_tokens
        #: When frozen (brownout level 2 with a zero budget), prefills are
        #: not snapshotted at all and the index stays empty.
        self.radix_frozen = False
        #: Chaos hook (``repro.serve.faults.FaultGate``): when armed, growing
        #: reservations spuriously fail — deterministic allocation pressure.
        self.pressure_gate = None
        #: Session clock for the gate's draws (advanced by the session).
        self.fault_clock = 0
        #: Whether the most recent :meth:`reserve` *failure* was gate-injected
        #: (evicting victims cannot cure it; the caller should just wait).
        #: Updated only on failure: a genuine capacity failure clears it, so
        #: stall detection stays sound while the gate is armed.
        self.last_failure_spurious = False

    # -- capacity accounting --------------------------------------------
    @property
    def bounded(self) -> bool:
        return self.capacity_tokens is not None

    def _page_round(self, n_tokens: int) -> int:
        page = self.page_tokens
        return -(-n_tokens // page) * page

    @property
    def used_tokens(self) -> int:
        """Logical tokens held by sequences plus radix snapshots.

        Each snapshot is charged ``depth + page_tokens - 1`` tokens — an
        upper bound on its per-entry page-rounded footprint (an unaligned
        entry holds its partial tail page in full), so logical accounting
        can never report free space the physical pool lacks.
        """
        held = self._reserved_total
        if self.index is not None and self.index.n_entries:
            held += (self.index.stored_tokens
                     + self.index.n_entries * (self.page_tokens - 1))
        return held

    @property
    def free_tokens(self) -> int:
        if self.capacity_tokens is None:
            raise RuntimeError("free_tokens is undefined for an unbounded pool")
        return max(0, self.capacity_tokens - self.used_tokens)

    def reserve(self, state: "SequenceState", n_tokens: int, *,
                faultable: bool = True) -> bool:
        """Grow ``state``'s reservation to cover ``n_tokens`` total tokens.

        Answers the scheduler's ``can_allocate`` question *bindingly*: on
        success the space is reserved.  Reservations never shrink here
        (:meth:`sync` lowers them); radix snapshots are reclaimed LRU-first
        before reporting failure.  An armed :attr:`pressure_gate` makes a
        *growing* reservation spuriously fail (``faultable=False`` bypasses
        the gate — the scheduler's genuine-capacity recheck); the draw is
        keyed by ``(request, size, clock)`` so it is stable within a step
        and redrawn the next.
        """
        if (self.pressure_gate is not None and faultable
                and self._page_round(n_tokens) > state.reserved_tokens
                and self.pressure_gate.fires(state.request_id, n_tokens,
                                             self.fault_clock)):
            self.last_failure_spurious = True
            return False
        if not self.bounded:
            return True
        rounded = self._page_round(n_tokens)
        extra = rounded - state.reserved_tokens
        if extra <= 0:
            return True
        if extra > self.free_tokens:
            self.reclaim(extra)
        if extra > self.free_tokens:
            self.last_failure_spurious = False  # genuine capacity failure
            return False
        state.reserved_tokens = rounded
        self._reserved_total += extra
        return True

    def sync(self, state: "SequenceState", n_tokens: int) -> None:
        """Settle the reservation to the tokens actually held (page-rounded).

        Called after each executor phase; a speculative verify that rolled
        back rejected tokens, or a finish-step, returns the excess here.
        """
        if not self.bounded:
            return
        rounded = self._page_round(n_tokens)
        if rounded < state.reserved_tokens:
            self._reserved_total -= state.reserved_tokens - rounded
            state.reserved_tokens = rounded

    def max_growth(self, state: "SequenceState") -> int:
        """Most extra tokens ``state`` can take this step (chunk sizing)."""
        if not self.bounded:
            raise RuntimeError("max_growth is undefined for an unbounded pool")
        slack = state.reserved_tokens - state.cached_tokens
        return max(0, slack + self.free_tokens)

    def release(self, state: "SequenceState") -> None:
        """Release every page and the reservation (preempt/finish/cancel)."""
        if state.caches is not None:
            for cache in state.caches:
                cache.release()
            state.caches = None
        self._reserved_total -= state.reserved_tokens
        state.reserved_tokens = 0

    def validate_footprint(self, state: "SequenceState") -> None:
        """Reject a request whose peak KV footprint can never fit the pool.

        The peak is ``prompt_len + decode_len`` tokens (page-rounded): what
        the sequence holds at its final decode step.  Checking at submission
        turns an otherwise-unservable request into an immediate error
        instead of an admission/preemption livelock.
        """
        if not self.bounded:
            return
        peak = self._page_round(state.request.prompt_len + state.request.decode_len)
        if peak > self.capacity_tokens:
            raise RuntimeError(
                f"request '{state.request_id}' peaks at {peak} KV tokens but the "
                f"pool capacity is {self.capacity_tokens}; it cannot be served "
                "even with every other sequence preempted")

    def reclaim(self, needed_tokens: int) -> None:
        """Evict LRU radix snapshots until ``needed_tokens`` could fit."""
        if self.index is None:
            return
        while (self.index.n_entries > 0 and needed_tokens > self.free_tokens):
            self.index.evict_lru()

    # -- cache resolution (radix reuse and intra-wave dedup) ------------
    def resolve_caches(self, states: "list[SequenceState]") -> None:
        """Give every admitted sequence its per-layer caches.

        Matching happens per step (not at admission) so a request can reuse
        a prefix that an *earlier member of its own admission wave* is
        prefilling right now: a fresh miss that shares a prefix with a
        prompt being prefilled — resolved this step or still in flight under
        the chunked scheduler — is deferred, and matches the index once that
        prefill is inserted.
        """
        index = self.index
        if index is not None:
            prefilling = [s.prefill_target for s in states
                          if s.caches is not None
                          and s.prefilled < len(s.prefill_target)]
        for state in states:
            if state.caches is not None:
                continue
            target = state.prefill_target
            if index is not None:
                # Reuse at most len-1 tokens so the suffix chunk always
                # produces the first-token logits.
                use_len, entry = index.match(target)
                use_len = min(use_len, len(target) - 1)
                if entry is not None and use_len > 0:
                    # Fork *before* reserving: reserve() under pressure may
                    # LRU-evict the matched entry itself, and the forks'
                    # own page references survive that eviction.
                    forks = [c.fork(use_len) for c in entry.caches]
                    if not self.reserve(state, use_len):
                        for fork in forks:  # no space to restore this step
                            fork.release()
                        continue
                    state.caches = forks
                    state.prefilled = use_len
                    state.reused += use_len
                    continue
                if any(shared_prefix_len(target, other) >= DEFER_MIN_SHARED
                       for other in prefilling):
                    continue  # defer: a later step's match will hit
                prefilling.append(target)
            state.caches = self.lm.make_caches(self.cache_factory)

    def snapshot(self, state: "SequenceState") -> None:
        """Insert a finished prefill into the radix index (CoW forks).

        Under a bounded pool, LRU snapshots are evicted straight away until
        the insertion fits the capacity again — the snapshot's pages are
        shared with (and already reserved by) the inserting sequence, so the
        physical pool is safe either way, but keeping ``used_tokens`` within
        capacity preserves space for the next reservation.
        """
        if (self.index is None or self.radix_frozen
                or state.resume_next_input is not None):
            return  # recomputed targets contain generated tokens: not prompts
        self.index.insert(state.prefill_target,
                          [cache.fork() for cache in state.caches])
        if self.bounded:
            while (self.index.n_entries > 1
                   and self.used_tokens > self.capacity_tokens):
                self.index.evict_lru()

    def limit_radix(self, max_tokens: int | None) -> None:
        """Clamp (or restore) the radix budget at runtime (brownout level 2).

        ``max_tokens > 0`` shrinks the index to that budget, evicting LRU
        snapshots immediately; ``0`` freezes it — clears every snapshot and
        stops inserting new ones; ``None`` restores the budget the manager
        was built with.  No-op without a prefix cache.
        """
        if self.index is None:
            return
        if max_tokens is None:
            self.radix_frozen = False
            self.index.set_max_tokens(self._radix_budget)
        elif max_tokens <= 0:
            self.radix_frozen = True
            self.index.clear()
        else:
            self.radix_frozen = False
            self.index.set_max_tokens(max_tokens)

    # -- checkpoint / restore -------------------------------------------
    def checkpoint(self, state: "SequenceState") -> "RequestCheckpoint | None":
        """Export ``state``'s live KV + decode position, or ``None``.

        Only decode-phase sequences on checkpoint-capable caches qualify:
        a waiting/prefilling request has nothing worth carrying (whole-
        prefill admission would stall on a partial-prefill resume anyway),
        and a non-paged cache keeps the eviction-and-recompute path.  The
        export is read-only — pool accounting and the live decode state are
        untouched, so periodic checkpointing is safe mid-run.
        """
        if (not self.checkpointable or state.caches is None
                or not state.prefill_done or not state.generated
                or not all(getattr(c, "supports_checkpoint", False)
                           for c in state.caches)):
            return None
        kv = KVCheckpoint(tuple(c.export_state() for c in state.caches))
        return RequestCheckpoint(
            request_id=state.request_id, kv=kv,
            generated=tuple(state.generated), position=state.position)

    def can_restore(self, ckpt: "RequestCheckpoint") -> bool:
        """Whether ``ckpt`` fits this manager's cache/model geometry."""
        cfg = self.lm.config
        return (self.checkpointable
                and len(ckpt.kv.layers) == cfg.n_layers
                and ckpt.kv.n_heads == cfg.n_heads
                and ckpt.kv.head_dim == cfg.head_dim)

    def restore(self, state: "SequenceState", ckpt: "RequestCheckpoint") -> None:
        """Materialise ``ckpt`` as ``state``'s caches in the local pool.

        The caller has already reserved space (:meth:`reserve` for
        ``ckpt.n_tokens + 1``), and reservations are conservative, so the
        physical imports cannot exhaust the pool; all-or-nothing regardless
        — a failed layer import releases every restored layer before
        propagating.
        """
        caches = self.lm.make_caches(self.cache_factory)
        try:
            for cache, layer in zip(caches, ckpt.kv.layers):
                cache.import_state(layer)
        except Exception:
            for cache in caches:
                cache.release()
            raise
        state.caches = caches
        self.n_restored += 1
        self.restored_tokens += ckpt.n_tokens

    # -- teardown and invariants ----------------------------------------
    def clear(self) -> None:
        """Return every radix snapshot's pages to the pool."""
        if self.index is not None:
            self.index.clear()

    def check_accounting(self) -> None:
        """Assert the underlying pool invariant (bounded paged factories)."""
        checker = getattr(self.cache_factory, "check_accounting", None)
        if checker is not None:
            checker()


__all__ = ["DEFER_MIN_SHARED", "KVSpaceManager", "RequestCheckpoint",
           "shared_prefix_len"]
