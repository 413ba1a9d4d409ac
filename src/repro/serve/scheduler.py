"""Request-lifecycle scheduler with pluggable, registry-resolvable policies.

This is the *policy* layer of the serving core's three-layer split
(:class:`Scheduler` / :class:`~repro.serve.kv_manager.KVSpaceManager` /
:class:`~repro.serve.executor.ModelExecutor`).  The scheduler owns every
request's lifecycle state::

    WAITING -> PREFILL -> DECODE -> FINISHED
        ^          |         |        (or CANCELLED / TIMEOUT / FAILED
        |          v         v         from any live phase)
        +------ PREEMPTED <--+

and consults a :class:`SchedulingPolicy` — a first-class component registered
under the ``"policy"`` registry kind (``"fcfs"``, ``"priority:levels=3"``,
``"sjf"``) — to produce a per-step :class:`ScheduleDecision`: which waiting
requests to admit, how to split the chunked-prefill token budget, which
sequences decode this step, and which running victims to preempt when the
:class:`~repro.serve.kv_manager.KVSpaceManager` reports KV-space pressure.

Preemption is eviction-and-recompute: a victim's pages are released, its
generated tokens are preserved on its :class:`SequenceState`, and it re-enters
the waiting queue; on re-admission its *recompute target* (prompt plus all
generated tokens but the last) is prefilled again and decoding resumes from
the preserved last token — token-identical to an uninterrupted run for greedy
decoding over pinned prompts.

The decode batch persists across steps, rebuilt only after
:meth:`Scheduler.invalidate`: a steady step plans, grants and retires with a
few whole-batch operations — growth is granted only where a reservation
must grow, and one comparison tells whether anything finished.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

from repro.registry import register, resolve

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.llm.cache import LayerKVCache
    from repro.llm.speculate import DrafterSession
    from repro.serve.engine import Request
    from repro.serve.kv_manager import KVSpaceManager, RequestCheckpoint


class RequestPhase(Enum):
    """Lifecycle phase of one serving request."""

    WAITING = "waiting"
    PREFILL = "prefill"
    DECODE = "decode"
    PREEMPTED = "preempted"
    FINISHED = "finished"
    CANCELLED = "cancelled"
    #: Deadline exceeded (``Request.deadline_steps``) — terminal.
    TIMEOUT = "timeout"
    #: Transient-failure retries exhausted (``Request.max_retries``) — terminal.
    FAILED = "failed"


@dataclass(eq=False)
class SequenceState:
    """Mutable per-request run state (the unit the three layers exchange).

    ``prefill_target`` is the token sequence that must be in the KV cache
    before decoding: the prompt on a fresh admission, or prompt + all
    generated tokens but the last when resuming after preemption (the
    recompute path).  ``resume_next_input`` carries the preserved last
    generated token across that recompute.
    """

    request: "Request"
    prompt: list[int]
    phase: RequestPhase = RequestPhase.WAITING
    caches: "list[LayerKVCache] | None" = None
    generated: list[int] = field(default_factory=list)
    prefill_target: list[int] = field(default_factory=list)
    prefilled: int = 0
    reused: int = 0
    position: int = 0
    next_input: int | None = None
    resume_next_input: int | None = None
    ttft_s: float = 0.0
    first_token_step: int = -1
    admitted_step: int = -1
    admitted_wall: float = 0.0
    spec_session: "DrafterSession | None" = None
    proposals: list[int] = field(default_factory=list)
    n_preemptions: int = 0
    #: Logical KV tokens reserved for this sequence (KVSpaceManager-owned).
    reserved_tokens: int = 0
    #: Transient executor failures retried so far.
    n_retries: int = 0
    #: Session clock before which admission skips this state (retry backoff).
    blocked_until_step: int = 0
    #: Session clock at submission — the deadline baseline.
    submitted_clock: int = 0
    #: Pending KV checkpoint to restore from at admission (recompute-free
    #: failover).  Attached by migration/crash recovery; consumed (or, when
    #: stale/incompatible, silently dropped to the recompute path) by
    #: :meth:`Scheduler.admit`.  Self-contained, so it survives evacuation
    #: and even the crash of the replica it was queued on.
    checkpoint: "RequestCheckpoint | None" = None
    #: Brownout decode cap: when set, the request finishes (``truncated``)
    #: after this many generated tokens instead of ``request.decode_len``.
    #: Never below ``len(generated)`` — capping cannot rewind progress.
    decode_cap: int | None = None

    @property
    def request_id(self) -> str:
        return self.request.request_id

    @property
    def prefill_done(self) -> bool:
        return self.caches is not None and self.prefilled == len(self.prefill_target)

    @property
    def effective_decode_len(self) -> int:
        """Decode target honouring any brownout cap (never below progress)."""
        if self.decode_cap is None:
            return self.request.decode_len
        return min(self.request.decode_len,
                   max(self.decode_cap, len(self.generated), 1))

    @property
    def decode_remaining(self) -> int:
        return self.effective_decode_len - len(self.generated)

    @property
    def is_live(self) -> bool:
        return self.phase in (RequestPhase.WAITING, RequestPhase.PREFILL,
                              RequestPhase.DECODE, RequestPhase.PREEMPTED)

    @property
    def is_running(self) -> bool:
        return self.phase in (RequestPhase.PREFILL, RequestPhase.DECODE)

    @property
    def cached_tokens(self) -> int:
        """Tokens currently held in this sequence's KV caches."""
        return self.position if self.prefill_done else self.prefilled

    def drop_kv(self) -> None:
        """Forget the run state tied to the KV cache; the tokens stay."""
        self.caches = self.spec_session = None
        self.next_input = self.resume_next_input = None
        self.prefilled, self.proposals = 0, []


@dataclass
class ScheduleDecision:
    """One step's scheduling outcome, consumed by the ModelExecutor."""

    step: int
    #: Sequences drafting/decoding this step (pre-prefill decode-ready set).
    decode_ready: list[SequenceState] = field(default_factory=list)
    #: Fresh sequences prefilling their whole target in one batched forward.
    prefill_whole: list[SequenceState] = field(default_factory=list)
    #: (sequence, chunk_len) pairs for the chunked-prefill scheduler.
    prefill_chunks: list[tuple[SequenceState, int]] = field(default_factory=list)
    #: Victims evicted this step to relieve KV-space pressure.
    preempted: list[SequenceState] = field(default_factory=list)

    @property
    def has_model_work(self) -> bool:
        return bool(self.decode_ready or self.prefill_whole or self.prefill_chunks)


class _DecodeBatch:
    """The running states split, in run order, into decode-ready ``rows``,
    unprefilled ``pending`` and finished ``done``.  Each row advances one
    token per plain decode step, so ``lead``, the row with the fewest tokens
    left, finishes first: nothing retires while it is short of ``lead_end``."""

    __slots__ = ("rows", "pending", "done", "lead", "lead_end")

    def __init__(self, running) -> None:
        self.rows, self.pending, self.done = [], [], []
        self.lead, self.lead_end, least = None, 0, 0
        for state in running:
            if not state.prefill_done:
                self.pending.append(state)
            elif (left := state.decode_remaining) <= 0:
                self.done.append(state)
            else:
                self.rows.append(state)
                if self.lead is None or left < least:
                    self.lead, self.lead_end, least = state, state.position + left, left

    def columns(self) -> tuple:
        return self.rows, self.pending, self.done, self.lead, self.lead_end


class SchedulingPolicy(abc.ABC):
    """Ordering policy for admission, step priority and victim selection.

    ``rank`` maps a sequence to a sortable key: *smaller ranks run first* —
    they are admitted earlier, their KV growth is protected under memory
    pressure, and preemption victims are chosen from the *largest* ranks.
    """

    name: str = "policy"

    #: Whether a waiting request may preempt strictly worse-ranked running
    #: sequences to claim KV space at admission time (priority traffic).
    preempts_for_admission: bool = False

    @abc.abstractmethod
    def rank(self, state: SequenceState):
        """Sort key; smaller means more entitled to run."""

    def describe(self) -> str:
        return self.name

    def victim(self, candidates: list[SequenceState]) -> SequenceState | None:
        """The preemption victim among ``candidates`` (worst rank), if any."""
        if not candidates:
            return None
        return max(candidates, key=self.rank)


class FCFSPolicy(SchedulingPolicy):
    """First-come-first-served: arrival order, ties broken by request id."""

    name = "fcfs"

    def rank(self, state: SequenceState):
        return (state.request.arrival_time_s, state.request.request_id)


class PriorityPolicy(SchedulingPolicy):
    """Strict priority classes: level 0 dominates 1 dominates 2 ...

    ``levels`` buckets :attr:`Request.priority` into ``[0, levels)``; within
    a level, FCFS order applies.  Waiting high-priority requests may preempt
    strictly lower-priority running sequences to claim KV space.
    """

    name = "priority"
    preempts_for_admission = True

    def __init__(self, levels: int = 3) -> None:
        if levels <= 0:
            raise ValueError("levels must be positive")
        self.levels = levels

    def rank(self, state: SequenceState):
        level = min(max(int(state.request.priority), 0), self.levels - 1)
        return (level, state.request.arrival_time_s, state.request.request_id)

    def describe(self) -> str:
        return f"priority:levels={self.levels}"


class SJFPolicy(SchedulingPolicy):
    """Shortest predicted job first: smallest remaining work runs first.

    The prediction is the request's declared geometry — remaining decode
    tokens plus any prompt/recompute tokens still to prefill — with FCFS
    tie-breaks, so equal-length jobs keep arrival order.
    """

    name = "sjf"

    def rank(self, state: SequenceState):
        predicted = state.decode_remaining + max(
            len(state.prefill_target or state.prompt) - state.prefilled, 0)
        return (predicted, state.request.arrival_time_s, state.request.request_id)


@register("policy", "fcfs", description="first-come-first-served admission order")
def _build_fcfs() -> SchedulingPolicy:
    return FCFSPolicy()


@register("policy", "priority", description="strict priority classes "
                                            "(Request.priority, FCFS within a class)")
def _build_priority(levels: int = 3) -> SchedulingPolicy:
    return PriorityPolicy(levels=levels)


@register("policy", "sjf", description="shortest predicted job first")
def _build_sjf() -> SchedulingPolicy:
    return SJFPolicy()


def resolve_policy(policy: "SchedulingPolicy | str | None") -> SchedulingPolicy:
    """Build a policy from a spec string (``None`` means ``"fcfs"``)."""
    if policy is None:
        return FCFSPolicy()
    return resolve("policy", policy)


class Scheduler:
    """Owns request lifecycle state and produces per-step decisions.

    The running set is an insertion-ordered dict keyed by request id (O(1)
    membership, retirement and cancellation), the waiting queue a rank-keyed
    heap (O(log n) push/pop, cancelled entries dropped lazily), and the
    decode batch a cached split of the running set (see :meth:`invalidate`).
    """

    def __init__(self, policy: SchedulingPolicy, max_concurrency: int) -> None:
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        self.policy = policy
        self.max_concurrency = max_concurrency
        #: Rank-keyed min-heap of (rank, push-seq, state); ranks include a
        #: request-id tiebreak so ordering matches a stable policy sort.
        self._waiting: list[tuple] = []
        self._push_seq = 0
        self._n_waiting = 0
        self.running: dict[str, SequenceState] = {}
        self.finished: list[SequenceState] = []
        self.n_preemptions = 0
        #: Victims preempted since the last plan() call (admission included).
        self._victims: list[SequenceState] = []
        self._batch: _DecodeBatch | None = None

    # -- the decode batch -------------------------------------------------
    def invalidate(self) -> None:
        """Drop the decode batch (rebuilt on its next read).  Every change of
        membership, prefill completion or decode target calls this: admission,
        prefill, retirement, preemption, extraction, termination, evacuation,
        resubmission, decode caps, and uneven (speculative) steps."""
        self._batch = None

    def _decode_batch(self) -> _DecodeBatch:
        if self._batch is None:
            self._batch = _DecodeBatch(self.running.values())
        return self._batch

    def _leave(self, state: SequenceState) -> bool:
        """Take ``state`` out of the running set; False if it was not in it."""
        if self.running.pop(state.request_id, None) is None:
            return False
        self.invalidate()
        return True

    # -- the waiting queue ----------------------------------------------
    @property
    def n_waiting(self) -> int:
        """Live waiting-queue depth (preempted requeues included)."""
        return self._n_waiting

    @property
    def waiting(self) -> list[SequenceState]:
        """Live waiting states in policy order (a sorted copy for callers)."""
        return [entry[2] for entry in sorted(self._waiting)
                if self._queued(entry[2])]

    @staticmethod
    def _queued(state: SequenceState) -> bool:
        return state.phase in (RequestPhase.WAITING, RequestPhase.PREEMPTED)

    def _push_waiting(self, state: SequenceState) -> None:
        heapq.heappush(self._waiting, (self.policy.rank(state), self._push_seq, state))
        self._push_seq += 1
        self._n_waiting += 1

    def _peek_waiting(self) -> SequenceState | None:
        """The best-ranked live waiting state (drops stale entries lazily)."""
        while self._waiting and not self._queued(self._waiting[0][2]):
            heapq.heappop(self._waiting)
        return self._waiting[0][2] if self._waiting else None

    def _pop_waiting(self) -> SequenceState:
        self._n_waiting -= 1
        return heapq.heappop(self._waiting)[2]

    # -- submission ------------------------------------------------------
    def _check_new_ids(self, states: list[SequenceState]) -> None:
        seen = ({entry[2].request_id for entry in self._waiting
                 if self._queued(entry[2])} | set(self.running))
        for state in states:
            if state.request_id in seen:
                raise ValueError(f"duplicate request_id '{state.request_id}'")
            seen.add(state.request_id)

    def submit(self, states: list[SequenceState]) -> None:
        self._check_new_ids(states)
        for state in states:
            state.phase = RequestPhase.WAITING
            self._push_waiting(state)

    def resubmit(self, states: list[SequenceState]) -> None:
        """Re-queue states drained from another scheduler (cluster requeue).

        A state with generated tokens re-enters as ``PREEMPTED`` so admission
        rebuilds its recompute target (prompt + generated[:-1]) and resumes
        from the preserved last token — the eviction-and-recompute path.
        Ranks derive from the state's *original* :class:`Request` (arrival
        time, priority), so fcfs/priority ordering never penalises a
        re-admitted request for having been drained or preempted.
        """
        self._check_new_ids(states)
        for state in states:
            state.phase = (RequestPhase.PREEMPTED if state.generated
                           else RequestPhase.WAITING)
            self._push_waiting(state)
        self.invalidate()

    def evacuate(self, kv: "KVSpaceManager") -> list[SequenceState]:
        """Remove every live state (replica-failure drain), releasing its KV.

        Returned states are reset like preemption victims — caches dropped,
        prompt/generated tokens and the original request preserved — ready
        for :meth:`resubmit` on a surviving scheduler.  Finished/cancelled
        history stays behind; this does not count as preemption (the
        sequences did nothing wrong — their replica died).
        """
        drained = list(self.running.values())
        for state in drained:
            kv.release(state)
            self._leave(state)
        drained += [entry[2] for entry in self._waiting if self._queued(entry[2])]
        self._waiting.clear()
        self._n_waiting = 0
        for state in drained:
            state.phase = (RequestPhase.PREEMPTED if state.generated
                           else RequestPhase.WAITING)
            state.drop_kv()
        return drained

    def has_work(self) -> bool:
        return bool(self._n_waiting or self.running)

    # -- admission -------------------------------------------------------
    def admit(self, step: int, now: float, kv: "KVSpaceManager", *,
              whole_prefill: bool,
              on_admit: "Callable[[SequenceState, bool], None]",
              clock: int | None = None) -> list[SequenceState]:
        """Fill free continuous-batching slots in policy order.

        In whole-prefill mode the candidate's full target (plus the decode
        append that follows in the same step) must be reservable up front;
        in chunked mode admission reserves nothing and chunks grow within
        free space.  A policy with ``preempts_for_admission`` may evict
        strictly worse-ranked running sequences to make room.  Admission
        stops at the first candidate that cannot fit, preserving policy
        order under memory pressure — but states still serving a retry
        backoff (``blocked_until_step > clock``) are skipped over rather
        than blocking the queue head.
        """
        if clock is None:
            clock = step
        admitted: list[SequenceState] = []
        deferred: list[SequenceState] = []
        while self._n_waiting and len(self.running) < self.max_concurrency:
            state = self._peek_waiting()
            if state is None:
                break
            if state.blocked_until_step > clock:
                deferred.append(self._pop_waiting())
                continue
            resumed = state.phase is RequestPhase.PREEMPTED
            ckpt = state.checkpoint
            if ckpt is not None and (
                    not state.generated
                    or ckpt.n_tokens != len(state.prompt) + len(state.generated) - 1
                    or not kv.can_restore(ckpt)):
                # Stale or incompatible checkpoint: fall back to the always-
                # correct eviction-and-recompute path.
                state.checkpoint = ckpt = None
            if ckpt is not None:
                # Recompute-free re-entry: reserve and materialise the
                # checkpointed pages now (even in chunked mode — the caches
                # exist the moment admission succeeds), then resume DECODE
                # directly from the preserved last token, skipping PREFILL.
                if not self._make_room(state, ckpt.n_tokens + 1, kv,
                                       admission=True):
                    break
                self._pop_waiting()
                kv.restore(state, ckpt)
                state.checkpoint = None
                state.phase = RequestPhase.DECODE
                state.prefill_target = state.prompt + state.generated[:-1]
                state.prefilled = len(state.prefill_target)
                state.position = ckpt.n_tokens
                state.next_input = state.generated[-1]
                state.resume_next_input = None
            else:
                state.prefill_target = (state.prompt + state.generated[:-1]
                                        if resumed and state.generated else
                                        list(state.prompt))
                need = len(state.prefill_target) + 1 if whole_prefill else 0
                if need and not self._make_room(state, need, kv, admission=True):
                    break
                # Admission preemption only evicts strictly worse-ranked
                # victims, so the candidate is still the heap head.
                self._pop_waiting()
                state.phase = RequestPhase.PREFILL
                state.prefilled = 0
                state.caches = None
                state.position = len(state.prefill_target)
                state.resume_next_input = (state.generated[-1]
                                           if resumed and state.generated else None)
            first = state.admitted_step < 0
            if first:
                state.admitted_step = step
                state.admitted_wall = now
            on_admit(state, first)
            self.running[state.request_id] = state
            admitted.append(state)
        for state in deferred:
            self._push_waiting(state)
        if admitted:
            self.invalidate()
        return admitted

    def has_blocked(self, clock: int) -> bool:
        """Whether any queued state is serving a retry backoff at ``clock``."""
        return any(self._queued(entry[2]) and entry[2].blocked_until_step > clock
                   for entry in self._waiting)

    def _make_room(self, state: SequenceState, projected: int,
                   kv: "KVSpaceManager", *, admission: bool = False,
                   protected: set[str] | None = None) -> bool:
        """Reserve ``projected`` total tokens for ``state``, evicting victims.

        Victim candidates are running sequences other than ``state`` and any
        ``protected`` ids; at admission time only policies that opt in may
        preempt, and only strictly worse-ranked victims.  Returns whether
        the reservation succeeded.
        """
        while not kv.reserve(state, projected):
            if kv.last_failure_spurious:
                # Injected allocation pressure: evicting victims cannot cure
                # it and the draw is stable within this clock — just wait.
                return False
            candidates = [s for s in self.running.values() if s is not state
                          and (protected is None or s.request_id not in protected)]
            if admission:
                if not self.policy.preempts_for_admission:
                    return False
                rank = self.policy.rank(state)
                candidates = [s for s in candidates if self.policy.rank(s) > rank]
            victim = self.policy.victim(candidates)
            if victim is None:
                if not admission and not self.running.keys() - {state.request_id}:
                    raise RuntimeError(
                        f"request '{state.request_id}' needs {projected} KV tokens "
                        f"but the pool capacity is {kv.capacity_tokens}; it cannot "
                        "run even with every other sequence preempted")
                return False
            self.preempt(victim, kv)
        return True

    # -- per-step planning ----------------------------------------------
    def decode_ready(self) -> list[SequenceState]:
        """Prefilled sequences with decode tokens left (run order; the decode
        batch's own list, kept across steps: do not mutate it)."""
        return self._decode_batch().rows

    def prefilling(self) -> list[SequenceState]:
        """Running sequences whose prefill is not done, with or without
        caches (run order; the decode batch's own list)."""
        return self._decode_batch().pending

    def plan(self, step: int, kv: "KVSpaceManager", *, token_budget: int | None,
             spec_on: bool, chunkable: bool) -> ScheduleDecision:
        """Produce this step's :class:`ScheduleDecision`: decode (and
        speculative verify) tokens are charged against ``token_budget`` first
        and only the leftover is spent on prompt chunks; under a bounded KV
        pool, growth is granted in policy-rank order, evicting the worst."""
        decision = ScheduleDecision(step=step)
        decision.decode_ready = self.decode_ready()
        decode_charge = len(decision.decode_ready)
        if spec_on:
            budget_left = (None if token_budget is None
                           else token_budget - len(decision.decode_ready))
            for state in decision.decode_ready:
                cap = state.decode_remaining - 1
                if budget_left is not None:
                    cap = min(cap, budget_left)
                # A state admitted while speculation was browned out has no
                # drafter session even though spec_on is back — it simply
                # decodes non-speculatively.
                state.proposals = (state.spec_session.propose(
                    state.prompt + state.generated, max_tokens=cap)
                    if cap > 0 and state.spec_session is not None else [])
                decode_charge += len(state.proposals)
                if budget_left is not None:
                    budget_left -= len(state.proposals)
        # Whole-target batched prefill: fresh sequences without chunk support
        # or running without a token budget.
        if not chunkable or token_budget is None:
            decision.prefill_whole = [
                s for s in self.prefilling()
                if s.caches is not None and s.prefilled == 0 and s.next_input is None]
        if kv.bounded:
            self._grant_growth(decision, kv)
        # Chunked prefill: decode keeps strict priority over prompt chunks.
        whole_ids = {id(s) for s in decision.prefill_whole}
        pending = [s for s in self.prefilling()
                   if s.caches is not None and id(s) not in whole_ids]
        if pending:
            budget = (None if token_budget is None
                      else max(0, token_budget - decode_charge))
            for state in pending:
                remaining = len(state.prefill_target) - state.prefilled
                chunk = remaining if budget is None else min(budget, remaining)
                if chunk <= 0:
                    break  # budget exhausted: later pending sequences wait
                if kv.bounded:
                    growth = kv.max_growth(state)
                    if growth < chunk + 1:
                        # Radix snapshots may be hoarding the free space (the
                        # +1 covers a completing chunk's same-step decode).
                        kv.reclaim(chunk + 1)
                        growth = kv.max_growth(state)
                    chunk = min(chunk, growth)
                    if (chunk > 0 and chunk + 1 > growth
                            and state.prefilled + chunk == len(state.prefill_target)):
                        # A chunk that completes the target decodes this same
                        # step; without room for that append, stop one short.
                        chunk -= 1
                    if chunk <= 0:
                        continue  # KV pressure: retry once space frees up
                    need = state.prefilled + chunk
                    if need == len(state.prefill_target):
                        need += 1  # the same-step decode append
                    if not kv.reserve(state, need):
                        continue  # page-rounding edge: wait for space instead
                decision.prefill_chunks.append((state, chunk))
                if budget is not None:
                    budget -= chunk
        if (kv.bounded and not decision.has_model_work and len(self.running) > 1
                and (self._n_waiting or self.prefilling())):
            # Nothing runnable but live work exists: relieve the pressure by
            # evicting the worst-ranked running sequence so the best one can
            # make progress next step.  A lone running sequence is never its
            # own victim — that would livelock; footprint validation at
            # submission guarantees it can fit once everything else is gone,
            # so the engine's stall guard covers the residue.
            victim = self.policy.victim(list(self.running.values()))
            if victim is not None:
                self.preempt(victim, kv)
        # Victims accumulated since the last plan() — admission-time evictions
        # included — are handed over in one place.
        decision.preempted, self._victims = self._victims, []
        return decision

    def _grant_growth(self, decision: ScheduleDecision, kv: "KVSpaceManager") -> None:
        """Reserve rigid KV growth in policy-rank order, evicting victims.

        Rigid growers — decode/verify appends and whole-target prefills —
        must fit in full; a grower that cannot fit even after every
        unprotected victim is evicted is itself preempted (recompute later
        is always correct).  Chunked prefills are flexible (their chunk
        shrinks to the free space) and are handled by the caller.
        Reservations are page multiples: a row within its reservation is
        granted with no side effect, so the pass runs only if some row grows.
        """
        if not ([s for s in decision.decode_ready
                 if s.proposals or s.position >= s.reserved_tokens]
                or [s for s in decision.prefill_whole
                    if len(s.prefill_target) >= s.reserved_tokens]):
            return
        granted: set[str] = set()
        rigid = [(s, s.position + 1 + len(s.proposals)) for s in decision.decode_ready]
        rigid += [(s, len(s.prefill_target) + 1) for s in decision.prefill_whole]
        for state, projected in sorted(rigid, key=lambda item: self.policy.rank(item[0])):
            if not state.is_running:
                continue  # already evicted as an earlier grower's victim
            if self._make_room(state, projected, kv, protected=granted):
                granted.add(state.request_id)
            else:
                self.preempt(state, kv)
        decision.decode_ready = [s for s in decision.decode_ready if s.is_running]
        decision.prefill_whole = [s for s in decision.prefill_whole if s.is_running]

    # -- lifecycle transitions ------------------------------------------
    def preempt(self, state: SequenceState, kv: "KVSpaceManager") -> None:
        """Evict a running sequence: release its KV space, preserve tokens."""
        kv.release(state)
        self._leave(state)
        state.phase = RequestPhase.PREEMPTED
        state.drop_kv()
        state.n_preemptions += 1
        self.n_preemptions += 1
        self._victims.append(state)
        self._push_waiting(state)

    def extract(self, state: SequenceState, kv: "KVSpaceManager") -> None:
        """Remove one live state from this scheduler entirely (live migration).

        Unlike preemption, the state leaves *every* scheduler set — the
        caller takes ownership, typically to inject it into another
        session.  A queued state's heap entry is removed physically, not
        lazily: the extracted state re-enters another scheduler as
        WAITING/PREEMPTED, and a stale local heap entry would then look live
        to :meth:`_queued` and double-admit it.  Does not count as
        preemption and is not pushed back on the waiting queue.
        """
        if not self._leave(state):
            before = len(self._waiting)
            self._waiting = [e for e in self._waiting if e[2] is not state]
            if len(self._waiting) != before:
                heapq.heapify(self._waiting)
                self._n_waiting -= 1
        kv.release(state)  # idempotent: a queued state holds nothing
        state.phase = (RequestPhase.PREEMPTED if state.generated
                       else RequestPhase.WAITING)
        state.drop_kv()

    def retire_finished(self) -> list[SequenceState]:
        """Move fully-decoded sequences out of the running set (run order);
        nothing retires while the decode batch's lead is short of its end."""
        batch = self._decode_batch()
        if not batch.done and (batch.lead is None
                               or batch.lead.position < batch.lead_end):
            return []
        done = [s for s in self.running.values()
                if s.prefill_done and s.decode_remaining <= 0]
        for state in done:
            self._leave(state)
            state.phase = RequestPhase.FINISHED
            self.finished.append(state)
        return done

    def _terminate(self, state: SequenceState, kv: "KVSpaceManager",
                   phase: RequestPhase) -> None:
        """Move a live state to a terminal phase, releasing any KV space.

        Handles every live phase uniformly: a running state leaves the
        running set, a queued (waiting/preempted) one is dropped lazily from
        the heap on the next peek.  ``kv.release`` is idempotent for queued
        states (no caches, zero reservation), so pages can never leak or be
        resurrected by a later re-admission sweep.
        """
        if not state.is_live:
            return
        if not self._leave(state):
            self._n_waiting -= 1  # heap entry is dropped lazily on peek
        kv.release(state)
        state.phase = phase
        state.caches = None
        state.spec_session = None
        state.checkpoint = None  # terminal: never restored, free the copy
        self.finished.append(state)

    def cancel(self, state: SequenceState, kv: "KVSpaceManager") -> None:
        """Cancel a waiting or running request, releasing any KV space."""
        self._terminate(state, kv, RequestPhase.CANCELLED)

    def timeout(self, state: SequenceState, kv: "KVSpaceManager") -> None:
        """Expire a request past its ``deadline_steps`` (terminal)."""
        self._terminate(state, kv, RequestPhase.TIMEOUT)

    def fail(self, state: SequenceState, kv: "KVSpaceManager") -> None:
        """Give up on a request whose transient retries are exhausted."""
        self._terminate(state, kv, RequestPhase.FAILED)

    def live_states(self) -> list[SequenceState]:
        """Every waiting (unsorted) and running state — membership sweeps
        (e.g. cancellation checks) that don't care about policy order."""
        return ([entry[2] for entry in self._waiting if self._queued(entry[2])]
                + list(self.running.values()))

    def check_legal(self) -> None:
        """Assert the scheduler's state machine is in a legal configuration.

        The paranoid-mode invariant sweep (run every step under chaos):
        running states must be mid-prefill or mid-decode with consistent
        progress counters, queued states must hold no KV, terminal states
        must be terminal, no request may appear in two sets at once, and the
        decode batch — every cached column of it — must equal a rebuild
        from the states (a missed :meth:`invalidate` shows up here).
        """
        if self._batch is not None:
            fresh = _DecodeBatch(self.running.values())
            assert self._batch.columns() == fresh.columns(), (
                f"stale decode batch (rows {[s.request_id for s in self._batch.rows]})")
        terminal = (RequestPhase.FINISHED, RequestPhase.CANCELLED,
                    RequestPhase.TIMEOUT, RequestPhase.FAILED)
        queued_ids = set()
        for entry in self._waiting:
            state = entry[2]
            if not self._queued(state):
                continue
            queued_ids.add(state.request_id)
            assert state.caches is None, (
                f"queued request '{state.request_id}' holds caches")
            assert state.reserved_tokens == 0, (
                f"queued request '{state.request_id}' holds a KV reservation")
        for request_id, state in self.running.items():
            assert request_id == state.request_id, (
                f"running key '{request_id}' maps to '{state.request_id}'")
            assert state.phase in (RequestPhase.PREFILL, RequestPhase.DECODE), (
                f"running request '{request_id}' in phase {state.phase.value}")
            assert request_id not in queued_ids, (
                f"request '{request_id}' is both queued and running")
            assert len(state.generated) <= state.request.decode_len, (
                f"request '{request_id}' decoded past its decode_len")
            assert state.prefilled <= len(state.prefill_target), (
                f"request '{request_id}' prefilled past its target")
        for state in self.finished:
            assert state.phase in terminal, (
                f"retired request '{state.request_id}' in live phase "
                f"{state.phase.value}")
            assert state.reserved_tokens == 0, (
                f"terminal request '{state.request_id}' holds a KV reservation")

    def find(self, request_id: str) -> SequenceState | None:
        state = self.running.get(request_id)
        if state is not None:
            return state
        for entry in self._waiting:
            if self._queued(entry[2]) and entry[2].request_id == request_id:
                return entry[2]
        return None


__all__ = [
    "FCFSPolicy",
    "PriorityPolicy",
    "RequestPhase",
    "SJFPolicy",
    "ScheduleDecision",
    "SchedulingPolicy",
    "Scheduler",
    "SequenceState",
    "resolve_policy",
]
