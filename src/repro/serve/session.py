"""One functional serving run: :class:`FunctionalSession` and its reports.

A session serves requests by *actually decoding tokens* against a
:class:`~repro.llm.model.DecoderLM`, one engine step per :meth:`step` call,
wiring the three serving layers (the vLLM/SGLang-style split):

* :class:`~repro.serve.scheduler.Scheduler` — request lifecycle
  (``WAITING → PREFILL → DECODE → PREEMPTED → FINISHED/CANCELLED``) driven
  by a pluggable ``"policy"`` registry component (``fcfs``, ``priority``,
  ``sjf``);
* :class:`~repro.serve.kv_manager.KVSpaceManager` — KV-space accounting over
  the paged pool + radix prefix index, including preemption by
  eviction-and-recompute when a bounded pool runs out of pages;
* :class:`~repro.serve.executor.ModelExecutor` — batched prefill / decode /
  speculative-verify forwards, emitting per-token streaming events.

:meth:`~repro.serve.engine.ServingEngine.start_functional` and
:meth:`~repro.serve.engine.ServingEngine.run_functional` open a session with
the engine's ``max_concurrency``; a
:class:`~repro.serve.cluster.ClusterEngine` drives one per replica.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.registry import resolve
from repro.serve.executor import ModelExecutor, OnToken, StepOutcome
from repro.serve.faults import TransientExecutorError, resolve_fault_plan
from repro.serve.kv_manager import KVSpaceManager, RequestCheckpoint
from repro.serve.scheduler import (
    Scheduler,
    SchedulingPolicy,
    SequenceState,
    resolve_policy,
)
from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.llm.cache import KVCacheFactory
    from repro.llm.model import DecoderLM
    from repro.llm.speculate import Drafter
    from repro.serve.engine import Request


def _percentiles_from_sorted(sorted_values: np.ndarray,
                             percentiles: tuple[float, ...]) -> list[float]:
    """Percentiles of an already-sorted array (linear interpolation).

    Matches ``np.percentile``'s default method but sorts nothing, so one
    ``np.sort`` can serve every percentile a report needs.
    """
    if sorted_values.size == 0:
        return [0.0] * len(percentiles)
    ranks = (sorted_values.size - 1) * np.asarray(percentiles, dtype=np.float64) / 100.0
    low = np.floor(ranks).astype(np.intp)
    high = np.ceil(ranks).astype(np.intp)
    frac = ranks - low
    values = sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac
    return [float(v) for v in values]


@dataclass
class FunctionalRequestResult:
    """Outcome of one functionally-decoded request (real tokens, real cache)."""

    request: Request
    prompt_tokens: list[int]
    generated_tokens: list[int]
    admitted_step: int
    finished_step: int
    #: Wall-clock seconds from admission to this request's first token.
    ttft_s: float = 0.0
    #: Prompt tokens restored from the radix prefix cache instead of prefilled.
    reused_prefix_tokens: int = 0
    #: Terminal status: ``"finished"``, ``"cancelled"``, ``"timeout"``
    #: (deadline exceeded), ``"failed"`` (transient retries exhausted) or
    #: ``"shed"`` (admission refused under cluster KV pressure).
    status: str = "finished"
    #: Decode-step counter when the first token was produced (-1 if never).
    first_token_step: int = -1
    #: Times this request was evicted-and-recomputed under KV pressure.
    n_preemptions: int = 0
    #: Injected transient executor failures this request retried through.
    n_retries: int = 0
    #: Finished early under a brownout decode cap (fewer tokens than asked).
    truncated: bool = False
    #: Session clock (cluster round) when the terminal status was reached
    #: (-1 when the session was never driven with an external clock).
    finished_clock: int = -1

    @property
    def tokens_generated(self) -> int:
        return len(self.generated_tokens)

    @property
    def cancelled(self) -> bool:
        return self.status == "cancelled"

    @property
    def completed(self) -> bool:
        """Whether the request ran to full completion."""
        return self.status == "finished"


@dataclass(frozen=True)
class LoadSnapshot:
    """A cheap point-in-time view of one engine's serving load.

    This is the introspection surface cluster routers consume (via
    :meth:`FunctionalSession.load_snapshot`): queue depth, running-batch size,
    outstanding work in tokens, and — for a bounded paged pool — the free
    pool space.  Everything here is derivable in O(live requests) without
    touching scheduler or KV-manager internals.
    """

    #: Requests waiting for admission (preempted requeues included).
    n_queued: int
    #: Requests currently in the running batch (prefilling or decoding).
    n_running: int
    #: Outstanding work across live requests: prompt tokens not yet
    #: prefilled plus decode tokens not yet generated.
    inflight_tokens: int
    #: Free tokens in a bounded KV pool (``None`` when unbounded).
    free_pool_tokens: int | None = None
    #: Peak KV footprint (prompt + decode tokens) summed over live requests
    #: — the load-shedding admission signal.
    projected_kv_tokens: int = 0
    #: The bounded pool's capacity (``None`` when unbounded).
    capacity_tokens: int | None = None

    @property
    def n_live(self) -> int:
        return self.n_queued + self.n_running


@dataclass
class FunctionalServingReport:
    """Aggregate outcome of one :class:`FunctionalSession`.

    Unlike :class:`~repro.serve.engine.ServingReport` (analytical
    latency/energy model), every
    token here was actually decoded through the batched model path, so the
    throughput figure is a *measured* wall-clock rate.
    """

    model_name: str
    max_concurrency: int
    results: list[FunctionalRequestResult] = field(default_factory=list)
    wall_s: float = 0.0
    n_steps: int = 0
    peak_batch: int = 0
    #: Wall-clock duration of every engine step (admission+prefill+decode).
    step_latencies_s: list[float] = field(default_factory=list)
    #: Drafter description when the run speculated (None otherwise).
    drafter: str | None = None
    #: Tokens the drafter proposed / the target model accepted across the run.
    spec_proposed_tokens: int = 0
    spec_accepted_tokens: int = 0
    #: Scheduling policy the run used (``"fcfs"`` unless overridden).
    policy: str = "fcfs"
    #: Total eviction-and-recompute preemptions across the run.
    n_preemptions: int = 0
    #: Injected transient executor failures retried across the run.
    n_retries: int = 0
    #: Fault plan description when the run injected faults (None otherwise).
    faults: str | None = None
    #: Requests re-admitted from a KV checkpoint (recompute-free failover).
    n_restored: int = 0
    #: Prefill tokens those restores skipped — what eviction-and-recompute
    #: recovery would have replayed for the same re-admissions.
    recompute_tokens_saved: int = 0

    @property
    def n_requests(self) -> int:
        return len(self.results)

    @property
    def n_cancelled(self) -> int:
        return sum(1 for r in self.results if r.cancelled)

    @property
    def n_timeouts(self) -> int:
        return sum(1 for r in self.results if r.status == "timeout")

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.results if r.status == "failed")

    @property
    def n_truncated(self) -> int:
        """Requests finished early under a brownout decode cap."""
        return sum(1 for r in self.results if r.truncated)

    @property
    def total_decode_tokens(self) -> int:
        return sum(r.tokens_generated for r in self.results)

    @property
    def total_prompt_tokens(self) -> int:
        return sum(len(r.prompt_tokens) for r in self.results)

    @property
    def reused_prefix_tokens(self) -> int:
        """Prompt tokens served from the radix prefix cache across all requests."""
        return sum(r.reused_prefix_tokens for r in self.results)

    @property
    def decode_tokens_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.total_decode_tokens / self.wall_s

    def _ttft_values(self) -> list[float]:
        """TTFT samples of requests that actually produced a first token
        (a request cancelled before its first token has no TTFT)."""
        return [r.ttft_s for r in self.results if r.first_token_step >= 0]

    @property
    def mean_ttft_s(self) -> float:
        values = self._ttft_values()
        if not values:
            return 0.0
        return float(np.mean(values))

    def ttft_percentile_s(self, percentile: float) -> float:
        """Time-to-first-token percentile across requests (e.g. 99 for p99)."""
        values = self._ttft_values()
        if not values:
            return 0.0
        return float(np.percentile(values, percentile))

    def step_latency_percentile_s(self, percentile: float) -> float:
        """Engine-step wall-latency percentile (e.g. 50/99 for p50/p99)."""
        if not self.step_latencies_s:
            return 0.0
        return float(np.percentile(self.step_latencies_s, percentile))

    @property
    def spec_acceptance_rate(self) -> float:
        """Fraction of drafter-proposed tokens the target model accepted."""
        if self.spec_proposed_tokens == 0:
            return 0.0
        return self.spec_accepted_tokens / self.spec_proposed_tokens

    def summary(self) -> str:
        """Human-readable multi-line summary of the functional run."""
        reused = self.reused_prefix_tokens
        prompt_tokens = self.total_prompt_tokens
        # Sort each latency series once; every percentile derives from the
        # sorted array instead of re-sorting inside np.percentile per call.
        ttft_sorted = np.sort(self._ttft_values())
        ttft_p50, ttft_p99 = _percentiles_from_sorted(ttft_sorted, (50, 99))
        step_sorted = np.sort(self.step_latencies_s)
        step_p50, step_p99 = _percentiles_from_sorted(step_sorted, (50, 99))
        lines = [
            f"FunctionalServingReport: {self.n_requests} requests on {self.model_name} "
            f"(<= {self.max_concurrency} concurrent, peak batch {self.peak_batch}): "
            f"{self.total_decode_tokens} tokens decoded in {self.wall_s:.2f} s "
            f"({self.decode_tokens_per_s:.1f} tok/s, {self.n_steps} batched steps)",
            f"  TTFT           mean {self.mean_ttft_s * 1e3:8.2f} ms | "
            f"p50 {ttft_p50 * 1e3:8.2f} ms | "
            f"p99 {ttft_p99 * 1e3:8.2f} ms",
            f"  step latency   p50  {step_p50 * 1e3:8.2f} ms | "
            f"p99 {step_p99 * 1e3:8.2f} ms",
            f"  prefix reuse   {reused} / {prompt_tokens} prompt tokens "
            f"({100.0 * reused / max(prompt_tokens, 1):.1f}%)",
        ]
        if self.drafter is not None:
            lines.append(
                f"  speculation    drafter {self.drafter} | accept rate "
                f"{100.0 * self.spec_acceptance_rate:.1f}% "
                f"({self.spec_accepted_tokens}/{self.spec_proposed_tokens} "
                f"proposed) | {self.decode_tokens_per_s:.1f} speculative tok/s")
        if self.n_preemptions or self.n_cancelled:
            lines.append(
                f"  scheduling     policy {self.policy} | "
                f"{self.n_preemptions} preemptions | "
                f"{self.n_cancelled} cancelled")
        if self.n_retries or self.n_timeouts or self.n_failed or self.faults:
            lines.append(
                f"  robustness     faults {self.faults or 'none'} | "
                f"{self.n_retries} transient retries | "
                f"{self.n_timeouts} timeouts | {self.n_failed} failed")
        if self.n_restored:
            lines.append(
                f"  failover       {self.n_restored} checkpoint restores | "
                f"{self.recompute_tokens_saved} recompute tokens saved")
        return "\n".join(lines)


class FunctionalSession:
    """One functional serving run driven step-by-step by the caller.

    The caller drives the loop: :meth:`submit` queues requests (also while
    the session runs — dynamic arrival), :meth:`step` executes one engine
    step, :meth:`cancel` flags a request for cancellation at the next step
    boundary and :meth:`finish` seals the report.
    :meth:`ServingEngine.run_functional
    <repro.serve.engine.ServingEngine.run_functional>` is ``submit(requests);
    while step(): pass; finish()``.  Keeping the loop outside the session
    lets a :class:`~repro.serve.cluster.ClusterEngine` interleave many
    replicas' steps in lockstep rounds, route arrivals while replicas run,
    and — on a replica failure — :meth:`drain` every in-flight request for
    resubmission (:meth:`resubmit`) to a surviving replica, reusing the
    scheduler's eviction-and-recompute semantics.

    Up to ``max_concurrency`` sequences run simultaneously through
    :meth:`DecoderLM.decode_step_batch`, each with per-layer KV caches built
    from ``cache`` (a factory, registry spec string or ``None`` for the full
    cache); prompts not pinned by the request are drawn from ``seed``.
    ``policy`` is the scheduling policy, a spec string such as ``"fcfs"``,
    ``"priority:levels=3"`` or ``"sjf"``.

    Optional mechanisms (all default off, which reproduces the plain
    per-request-cache path exactly):

    * ``prefix_cache=True`` maintains a radix-trie prefix index: every
      prefilled prompt is snapshotted (a zero-copy copy-on-write fork of its
      pages), and a new request whose prompt shares a prefix with a cached
      one forks that state and prefills only its novel suffix.  Requires a
      cache with chunked-prefill support (``"full"`` and ``"paged"``, both
      the paged store); other specs silently run unshared.
      ``radix_max_tokens`` bounds the index with LRU eviction.
    * ``token_budget=N`` enables the chunked-prefill scheduler: each engine
      step first decodes every running sequence, then spends the remaining
      budget on prompt *chunks* of admitted sequences, so a long prompt no
      longer stalls the running batch for a whole-prompt prefill.  Caches
      without chunked-prefill support fall back to whole-prompt prefill at
      admission.
    * ``drafter`` (a spec string such as ``"ngram:k=4"`` or a built
      :class:`~repro.llm.speculate.Drafter`) enables batch-wide speculative
      decoding, token-identical to the non-speculative greedy path; verify
      tokens are charged against ``token_budget`` (decode keeps priority).
      Requires a rollback-capable cache (``full``/``paged``); other specs
      silently run non-speculatively.
    * a *bounded* paged cache (``"paged:...,grow=false"``, or an explicit
      ``capacity_tokens``) enables preemption: when the pool cannot hold
      every running sequence, the policy picks victims whose pages are
      released and whose generated tokens are preserved for
      eviction-and-recompute, so the engine survives oversubscription
      instead of raising :class:`~repro.core.kv_pool.PoolExhausted`.
    * ``on_token`` streams every generated token as a
      :class:`~repro.serve.executor.TokenEvent`.
    * ``faults`` (a :class:`~repro.serve.faults.FaultPlan`, ``"fault"``
      registry spec string, fault dataclass or sequence of those) arms
      deterministic chaos injection: transient executor failures are retried
      with capped step-based exponential backoff, spurious KV-reservation
      failures are waited out, and per-request ``deadline_steps`` /
      ``max_retries`` bound how long the engine keeps trying.
      ``paranoid=True`` asserts the full invariant sweep (pool accounting,
      scheduler legality, request conservation) after every step.
      ``replica_id`` scopes straggler faults when the session is one cluster
      replica.

    :meth:`finish` returns a :class:`FunctionalServingReport` with the
    decoded tokens, measured throughput, per-request TTFT, per-step
    latencies, preemption/cancellation counts and (when a drafter is set)
    the proposal-acceptance counters.
    """

    def __init__(self, lm: "DecoderLM", max_concurrency: int,
                 cache: "KVCacheFactory | str | None" = None,
                 seed: int = 0, *, prefix_cache: bool = False,
                 token_budget: int | None = None,
                 radix_max_tokens: int | None = None,
                 drafter: "Drafter | str | None" = None,
                 policy: "SchedulingPolicy | str | None" = "fcfs",
                 on_token: OnToken | None = None,
                 capacity_tokens: int | None = None,
                 faults: "object | None" = None,
                 paranoid: bool = False,
                 replica_id: int = 0) -> None:
        from repro.llm.speculate import resolve_drafter

        if token_budget is not None and token_budget <= 0:
            raise ValueError("token_budget must be positive (or None to disable)")
        self.lm = lm
        cache_factory = resolve("cache", "full" if cache is None else cache)
        self.kv = KVSpaceManager(lm, cache_factory, prefix_cache=prefix_cache,
                                 radix_max_tokens=radix_max_tokens,
                                 capacity_tokens=capacity_tokens)
        self._drafter = resolve_drafter(drafter)
        # Speculation needs verify_chunk_batch (chunked prefill) and KV rollback;
        # caches without them run the plain decode path, as generate() does.
        self.spec_on = (self._drafter is not None and self._drafter.k > 0
                        and self.kv.chunkable and self.kv.rollbackable)
        if self.spec_on:
            self._drafter.check_compatible(lm.config)
        if self._drafter is None or self._drafter.k <= 0:
            drafter_desc = None
        elif self.spec_on:
            drafter_desc = self._drafter.describe()
        else:  # keep the silent fallback observable in the report/summary
            drafter_desc = self._drafter.describe() + " (disabled: cache lacks rollback)"
        self.policy = resolve_policy(policy)
        self.scheduler = Scheduler(self.policy, max_concurrency)
        self.executor = ModelExecutor(lm, self.kv, on_token=on_token)
        self.rng = derive_rng(seed, "serve-functional")
        self.token_budget = token_budget
        self.whole_prefill = not self.kv.chunkable or token_budget is None
        # Chaos wiring: resolve the plan once and arm every layer's hook.
        # Each hook defaults to None, so an unfaulted session pays only a
        # handful of attribute checks per step.
        self.fault_plan = resolve_fault_plan(faults, seed=seed)
        self.replica_id = replica_id
        self.paranoid = paranoid
        self._stragglers = (self.fault_plan.stragglers_for(replica_id)
                           if self.fault_plan is not None else ())
        if self.fault_plan is not None:
            self.executor.fault_gate = self.fault_plan.exec_gate()
            self.kv.pressure_gate = self.fault_plan.alloc_gate()
            pool_gate = self.fault_plan.pool_gate()
            arm = getattr(self.kv.cache_factory, "arm_fault_gate", None)
            if pool_gate is not None and arm is not None:
                arm(pool_gate)
        self.report = FunctionalServingReport(
            model_name=lm.config.name, max_concurrency=max_concurrency,
            drafter=drafter_desc, policy=self.policy.describe(),
            faults=(self.fault_plan.describe()
                    if self.fault_plan is not None else None))
        self._step = 0
        #: Session clock: advances every step() call (unlike _step, which
        #: only counts decoded steps), so backoff/deadline/fault draws always
        #: make forward progress.
        self._clock = 0
        self._has_deadlines = False
        self._submitted_ids: set[str] = set()
        self._drained_ids: set[str] = set()
        #: Request ids flagged by :meth:`cancel`, applied at the next step.
        self._cancelled: set[str] = set()
        self._start: float | None = None
        self._finished = False
        #: Whether the cache/drafter pair could speculate at all — the upper
        #: bound :meth:`set_speculation` can re-enable to.
        self._spec_capable = self.spec_on
        #: Results already stamped with a terminal clock (prefix of
        #: ``report.results``).
        self._stamped = 0

    # -- submission ------------------------------------------------------
    def submit(self, requests: "list[Request]") -> None:
        """Materialise and queue ``requests`` (callable while running)."""
        if not requests:
            raise ValueError("requests must be non-empty")
        max_len = self.lm.config.max_seq_len
        for request in requests:
            if request.prompt_len + request.decode_len > max_len:
                raise ValueError(
                    f"request '{request.request_id}' needs {request.prompt_len + request.decode_len} "
                    f"positions but the model supports max_seq_len={max_len}")
        states = self._materialise(requests)
        for state in states:
            self.kv.validate_footprint(state)  # reject never-servable requests now
            state.submitted_clock = self._clock
            if state.request.deadline_steps is not None:
                self._has_deadlines = True
        self.scheduler.submit(states)
        self._submitted_ids.update(state.request_id for state in states)

    def _materialise(self, requests: "list[Request]") -> list[SequenceState]:
        """Sequence states in arrival order, prompts synthesised up front.

        Prompts draw from the session's rng in arrival order — the same
        order the former inline loop drew at admission time under FCFS — so
        outputs stay identical while becoming policy-independent.
        """
        ordered = sorted(requests, key=lambda r: (r.arrival_time_s, r.request_id))
        states = []
        for request in ordered:
            if request.prompt_tokens is not None:
                prompt = list(request.prompt_tokens)
            else:
                prompt = self.rng.integers(0, self.lm.config.vocab_size,
                                           size=request.prompt_len).tolist()
            states.append(SequenceState(request=request, prompt=prompt))
        return states

    def resubmit(self, states: "list[SequenceState]") -> None:
        """Queue states drained from another session (cluster requeue).

        States keep their original :class:`Request` — arrival time, priority
        and accumulated results (generated tokens, TTFT, preemption counts)
        — so policy ranking does not penalise the re-admission, and a state
        with generated tokens resumes by eviction-and-recompute exactly as a
        locally-preempted one would.  The deadline baseline restarts here: a
        requeued request gets a fresh ``deadline_steps`` budget on its new
        replica rather than inheriting rounds burned on the failed one.
        """
        for state in states:
            self.kv.validate_footprint(state)
            state.submitted_clock = self._clock
            if state.request.deadline_steps is not None:
                self._has_deadlines = True
        self.scheduler.resubmit(states)
        for state in states:
            self._submitted_ids.add(state.request_id)
            self._drained_ids.discard(state.request_id)

    # -- stepping --------------------------------------------------------
    def has_work(self) -> bool:
        return not self._finished and self.scheduler.has_work()

    def _on_admit(self, state: SequenceState, first: bool) -> None:
        if self.spec_on:
            state.spec_session = self._drafter.session()

    def step(self, clock: int | None = None) -> bool:
        """Run one engine step; returns False when there is nothing to do.

        ``clock`` pins the session clock to an external counter (the cluster
        passes its round number so fault draws, backoffs and deadlines line
        up across replicas); left ``None`` it simply advances by one per
        call.  The clock advances even on steps that decode nothing, so a
        request blocked by an injected fault always redraws a fresh gate
        decision instead of failing forever.
        """
        if self._finished:
            raise RuntimeError("session already finished")
        scheduler, kv, executor = self.scheduler, self.kv, self.executor
        if not scheduler.has_work():
            return False
        self._clock = self._clock + 1 if clock is None else clock
        if self.fault_plan is not None:
            if executor.fault_gate is not None:
                executor.fault_clock = self._clock
            if kv.pressure_gate is not None:
                kv.fault_clock = self._clock
        if self._start is None:
            self._start = time.perf_counter()
        step_start = time.perf_counter()
        expired = self._expire_deadlines() if self._has_deadlines else 0
        if self._cancelled:
            self._apply_cancellations()
        if not scheduler.has_work():
            self._stamp_results()
            return False
        admitted = scheduler.admit(self._step, time.perf_counter(), kv,
                                   whole_prefill=self.whole_prefill,
                                   on_admit=self._on_admit, clock=self._clock)
        kv.resolve_caches(scheduler.prefilling())
        decision = scheduler.plan(self._step, kv, token_budget=self.token_budget,
                                  spec_on=self.spec_on, chunkable=kv.chunkable)
        faulted: TransientExecutorError | None = None
        try:
            executor.prefill_whole(decision.prefill_whole, self._step)
            executor.prefill_chunks(decision.prefill_chunks, self._step)
            if decision.prefill_whole or decision.prefill_chunks:
                scheduler.invalidate()  # finished prefills join the decode batch
            outcome = executor.decode_step(scheduler.decode_ready(), self._step,
                                           self.spec_on)
            if self.spec_on:
                scheduler.invalidate()  # verified rows advanced unevenly
        except TransientExecutorError as err:
            # The gate raises before any forward touches KV, so every state
            # is exactly as it was at step entry; the faulted request is
            # preempted (eviction-and-recompute) and retried after backoff.
            faulted = err
            outcome = StepOutcome()
            self._handle_transient(err)
        if outcome.decoded:
            self._step += 1
            self.report.n_steps += 1
            self.report.peak_batch = max(self.report.peak_batch, outcome.batch)
            self.report.spec_proposed_tokens += outcome.spec_proposed
            self.report.spec_accepted_tokens += outcome.spec_accepted
        retired = scheduler.retire_finished()
        for state in retired:
            kv.release(state)
            self.report.results.append(_result(state, self._step))
        self.report.n_restored = kv.n_restored
        self.report.recompute_tokens_saved = kv.restored_tokens
        if kv.bounded:
            kv.check_accounting()  # pool invariant holds after every step
        dt = time.perf_counter() - step_start
        if self._stragglers:
            # Straggling inflates the *reported* simulated latency only —
            # progress per step is unchanged, so tokens stay identical.
            dt *= self.fault_plan.inflation(self.replica_id, self._clock)
        self.report.step_latencies_s.append(dt)
        self._stamp_results()
        if self.paranoid:
            self.check_invariants()
        if not (admitted or decision.has_model_work or outcome.decoded
                or retired or decision.preempted or expired
                or faulted is not None or kv.last_failure_spurious
                or scheduler.has_blocked(self._clock)):
            raise RuntimeError(
                "serving stalled: no admission, prefill, decode, retirement "
                "or preemption was possible this step (KV pool too small?)")
        return True

    def cancel(self, request_id: str) -> None:
        """Cancel one in-flight request at the next step boundary.

        Streaming ``on_token`` callbacks may call this to abort mid-decode;
        the request's pages are released and its partial output is reported
        with ``status="cancelled"``.  An id that is not live when the next
        step starts stays flagged until it is.
        """
        self._cancelled.add(request_id)

    def _apply_cancellations(self) -> None:
        """Cancel flagged requests between steps, releasing their KV space."""
        for state in self.scheduler.live_states():
            rid = state.request_id
            if rid in self._cancelled:
                self.scheduler.cancel(state, self.kv)
                self._cancelled.discard(rid)
                self.report.results.append(_result(state, self._step))

    def _expire_deadlines(self) -> int:
        """Expire live requests past their step deadline (terminal timeout)."""
        expired = 0
        for state in self.scheduler.live_states():
            deadline = state.request.deadline_steps
            if (deadline is not None
                    and self._clock - state.submitted_clock >= deadline):
                self.scheduler.timeout(state, self.kv)
                self.report.results.append(_result(state, self._step))
                expired += 1
        return expired

    def _handle_transient(self, err: TransientExecutorError) -> None:
        """Retry (preempt + backoff) or give up on a faulted request."""
        state = self.scheduler.running.get(err.request_id)
        if state is None:  # already retired/cancelled — nothing to retry
            return
        state.n_retries += 1
        self.report.n_retries += 1
        if state.n_retries > state.request.max_retries:
            self.scheduler.fail(state, self.kv)
            self.report.results.append(_result(state, self._step))
            return
        self.scheduler.preempt(state, self.kv)
        # Deterministic capped exponential backoff in *steps* (1, 2, 4, 8,
        # 8, ...) — never wall clock, so retry schedules replay exactly.
        state.blocked_until_step = (
            self._clock + min(2 ** (state.n_retries - 1), 8))

    def check_invariants(self) -> None:
        """The paranoid-mode invariant sweep (asserted every step under chaos).

        * **page accounting** — every replica pool's allocated pages equal
          referenced + free (:meth:`KVPagePool.check_accounting`);
        * **state-machine legality** — scheduler sets hold only legal phases
          with consistent progress counters (:meth:`Scheduler.check_legal`);
        * **conservation of requests** — every submitted request is exactly
          live, terminal (reported) or drained; none lost, none duplicated;
        * **reservations cover the cache** — under a bounded pool, every
          running sequence has reserved at least the tokens it holds.
        """
        self.kv.check_accounting()
        self.scheduler.check_legal()
        if self.kv.bounded:
            for state in self.scheduler.running.values():
                assert state.reserved_tokens >= state.cached_tokens, (
                    f"request '{state.request_id}' holds {state.cached_tokens} "
                    f"KV tokens but reserved only {state.reserved_tokens}")
        live = {s.request_id for s in self.scheduler.live_states()}
        done = {r.request.request_id for r in self.report.results}
        assert len(done) == len(self.report.results), (
            "duplicate terminal results in the report")
        assert not live & done, (
            f"requests both live and terminal: {sorted(live & done)}")
        missing = self._submitted_ids - (live | done | self._drained_ids)
        assert not missing, f"requests lost (not live/terminal/drained): " \
                            f"{sorted(missing)}"

    # -- introspection ---------------------------------------------------
    def load_snapshot(self) -> LoadSnapshot:
        """Queue depth, batch size, outstanding tokens and free pool space."""
        inflight = 0
        projected = 0
        for state in self.scheduler.live_states():
            outstanding = (len(state.prompt) + state.request.decode_len
                           - state.prefilled - len(state.generated))
            inflight += max(0, outstanding)
            projected += len(state.prompt) + state.request.decode_len
        return LoadSnapshot(
            n_queued=self.scheduler.n_waiting,
            n_running=len(self.scheduler.running),
            inflight_tokens=inflight,
            free_pool_tokens=self.kv.free_tokens if self.kv.bounded else None,
            projected_kv_tokens=projected,
            capacity_tokens=self.kv.capacity_tokens if self.kv.bounded else None)

    # -- live migration ---------------------------------------------------
    def checkpoint_requests(self) -> "dict[str, RequestCheckpoint]":
        """Checkpoint every checkpointable running request (periodic pass).

        Read-only: the live decode state and pool accounting are untouched,
        so the cluster can stash these every ``interval`` rounds and attach
        them to drained states if this replica later crashes — bounding the
        loss to at most ``interval`` decode steps.  Waiting, prefilling and
        non-checkpointable requests simply don't appear (recompute covers
        them).
        """
        checkpoints: dict[str, RequestCheckpoint] = {}
        for state in self.scheduler.running.values():
            ckpt = self.kv.checkpoint(state)
            if ckpt is not None:
                checkpoints[state.request_id] = ckpt
        return checkpoints

    def extract_request(self, request_id: str) \
            -> "tuple[SequenceState, RequestCheckpoint | None] | None":
        """Pull one live request out of this session for migration.

        Checkpoints the request first when possible (decode-phase on a
        checkpoint-capable cache), then removes it from the scheduler and
        releases its local KV — the returned state carries the checkpoint
        and is ready for :meth:`inject_request` on another session.  A
        request that cannot be checkpointed (still waiting/prefilling, or a
        non-paged cache) migrates with ``None`` and resumes by
        eviction-and-recompute; ``None`` overall means the id is not live
        here (already finished, cancelled or never submitted).
        """
        state = self.scheduler.find(request_id)
        if state is None:
            return None
        ckpt = self.kv.checkpoint(state)
        self.scheduler.extract(state, self.kv)
        if ckpt is not None:
            state.checkpoint = ckpt
        self._drained_ids.add(request_id)
        # A queued state may already carry a (stash-attached) checkpoint.
        return state, state.checkpoint

    def inject_request(self, state: "SequenceState",
                       checkpoint: "RequestCheckpoint | None" = None) -> None:
        """Admit a migrated request, restoring from ``checkpoint`` if possible.

        ``checkpoint`` defaults to whatever rides on the state.  A *stale*
        periodic checkpoint (its ``generated`` a strict prefix of the
        state's) rewinds the decode to the capture point — greedy decoding
        re-produces the identical suffix tokens, so results stay
        token-identical (downstream ``on_token`` listeners may see those
        suffix tokens again).  A checkpoint inconsistent with the token
        history is dropped: eviction-and-recompute is always correct.
        """
        if checkpoint is None:
            checkpoint = state.checkpoint
        if checkpoint is not None:
            ckgen = tuple(checkpoint.generated)
            gen = tuple(state.generated)
            if ckgen and gen[:len(ckgen)] == ckgen:
                state.generated = list(ckgen)
                state.checkpoint = checkpoint
            else:
                state.checkpoint = None
        self.resubmit([state])

    # -- overload / brownout controls -------------------------------------
    def _stamp_results(self) -> None:
        """Stamp newly-appended terminal results with the session clock.

        ``finished_clock`` is the deterministic (round-domain) counterpart
        of the wall-clock latency series: under an external cluster clock it
        records the exact round each request reached its terminal status.
        """
        results = self.report.results
        while self._stamped < len(results):
            results[self._stamped].finished_clock = self._clock
            self._stamped += 1

    def set_speculation(self, enabled: bool) -> None:
        """Toggle speculative decoding at runtime (brownout level 1).

        Re-enabling is bounded by what the session could ever do
        (``drafter`` present, rollback-capable cache).  Requests admitted
        while speculation was off keep decoding non-speculatively — the
        toggle only affects future admissions — and tokens are identical
        either way (speculation is exact).
        """
        self.spec_on = bool(enabled) and self._spec_capable

    def limit_radix(self, max_tokens: int | None) -> None:
        """Clamp (or restore) the radix prefix-cache budget (brownout level 2).

        ``0`` freezes the index entirely — existing snapshots are evicted
        and new prefills are not snapshotted — returning every cached page
        to the pool for live requests; ``None`` restores the budget the
        session was built with.  No-op without a prefix cache.
        """
        self.kv.limit_radix(max_tokens)

    def cap_decodes(self, cap: int, min_priority: int = 1) -> int:
        """Cap remaining decode length of live low-tier requests (level 3).

        Every live request with ``priority >= min_priority`` and more than
        ``cap`` total decode tokens is clamped to finish early (never below
        what it has already generated, so nothing retroactively breaks);
        results finished this way report ``truncated=True``.  Returns how
        many states were (re)capped.  Deterministic: depends only on live
        scheduler state.
        """
        if cap <= 0:
            raise ValueError("cap must be positive")
        capped = 0
        for state in self.scheduler.live_states():
            request = state.request
            if request.priority < min_priority or request.decode_len <= cap:
                continue
            effective = max(cap, len(state.generated))
            if state.decode_cap != effective:
                state.decode_cap = effective
                capped += 1
        if capped:
            self.scheduler.invalidate()  # decode targets moved
        return capped

    def uncap_decodes(self) -> None:
        """Lift brownout decode caps from every live request (recovery)."""
        for state in self.scheduler.live_states():
            state.decode_cap = None
        self.scheduler.invalidate()

    def harvest_result(self, request_id: str) -> FunctionalRequestResult | None:
        """Remove and return one terminal result (hedged-request accounting).

        The cluster uses this to take a hedge duplicate's terminal result
        out of the per-replica report — the surviving copy is the request's
        single terminal record — while keeping this session's conservation
        sweep sound (the id moves to the drained set).  ``None`` when the id
        has no terminal result here.
        """
        results = self.report.results
        for i, result in enumerate(results):
            if result.request.request_id == request_id:
                if i < self._stamped:
                    self._stamped -= 1
                self._drained_ids.add(request_id)
                self._submitted_ids.discard(request_id)
                return results.pop(i)
        return None

    # -- teardown --------------------------------------------------------
    def drain(self) -> "list[SequenceState]":
        """Evacuate every live request (replica failure), releasing all KV.

        Returns the drained states — generated tokens and original requests
        preserved, caches dropped — ready for :meth:`resubmit` on another
        session; the local radix index is cleared so every pool page is back
        on the free list.
        """
        drained = self.scheduler.evacuate(self.kv)
        self.kv.clear()
        if self.kv.bounded:
            self.kv.check_accounting()
        self._drained_ids.update(state.request_id for state in drained)
        return drained

    def finish(self) -> FunctionalServingReport:
        """Seal the session and return its report (idempotent)."""
        if not self._finished:
            self._finished = True
            self.kv.clear()  # return every radix snapshot's pages to the pool
            self.report.n_preemptions = self.scheduler.n_preemptions
            self.report.n_restored = self.kv.n_restored
            self.report.recompute_tokens_saved = self.kv.restored_tokens
            self.report.wall_s = (time.perf_counter() - self._start
                                  if self._start is not None else 0.0)
            self._stamp_results()
            self.report.results.sort(
                key=lambda r: (r.request.arrival_time_s, r.request.request_id))
        return self.report


def _result(state: SequenceState, step: int) -> FunctionalRequestResult:
    """The terminal :class:`FunctionalRequestResult` of one retired state."""
    terminal = state.phase.value
    status = (terminal if terminal in ("cancelled", "timeout", "failed")
              else "finished")
    return FunctionalRequestResult(
        request=state.request,
        prompt_tokens=state.prompt,
        generated_tokens=state.generated,
        admitted_step=state.admitted_step,
        finished_step=step,
        ttft_s=state.ttft_s,
        reused_prefix_tokens=state.reused,
        status=status,
        first_token_step=state.first_token_step,
        n_preemptions=state.n_preemptions,
        n_retries=state.n_retries,
        truncated=(status == "finished"
                   and len(state.generated) < state.request.decode_len),
    )


__all__ = ["FunctionalRequestResult", "FunctionalServingReport",
           "FunctionalSession", "LoadSnapshot"]
