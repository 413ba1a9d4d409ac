"""Scheduler-layer unit tests: policies, lifecycle, KV-space accounting.

Covers the ``"policy"`` registry kind (FCFS ordering, priority strict
dominance, SJF tie-breaks), the :class:`Scheduler` lifecycle transitions,
and the :class:`KVSpaceManager` reservation arithmetic.
"""

from __future__ import annotations

import pytest

from repro.registry import RegistryError, known, resolve
from repro.serve import (
    FCFSPolicy,
    PriorityPolicy,
    Request,
    RequestPhase,
    SJFPolicy,
    Scheduler,
    SequenceState,
    ServingEngine,
    resolve_policy,
)
from repro.serve.kv_manager import KVSpaceManager


def _state(request_id: str, arrival: float = 0.0, prompt_len: int = 8,
           decode_len: int = 4, priority: int = 0) -> SequenceState:
    request = Request(request_id, arrival, prompt_len, decode_len,
                      prompt_tokens=tuple(range(1, prompt_len + 1)),
                      priority=priority)
    return SequenceState(request=request, prompt=list(request.prompt_tokens))


@pytest.fixture
def lm():
    from repro.llm.config import tiny_config
    from repro.llm.model import DecoderLM

    return DecoderLM(tiny_config("sched-tiny", n_layers=2, d_model=32, n_heads=4,
                                 d_ff=64, vocab_size=48, max_seq_len=512), seed=7)


class TestPolicyRegistry:
    def test_policy_kind_registered(self):
        assert set(known("policy")) == {"fcfs", "priority", "sjf"}

    def test_resolve_builds_policies(self):
        assert isinstance(resolve("policy", "fcfs"), FCFSPolicy)
        assert isinstance(resolve("policy", "sjf"), SJFPolicy)
        priority = resolve("policy", "priority:levels=5")
        assert isinstance(priority, PriorityPolicy)
        assert priority.levels == 5
        assert priority.describe() == "priority:levels=5"

    def test_resolve_policy_helper(self):
        assert isinstance(resolve_policy(None), FCFSPolicy)
        assert isinstance(resolve_policy("priority"), PriorityPolicy)
        built = SJFPolicy()
        assert resolve_policy(built) is built

    def test_unknown_policy_raises(self):
        with pytest.raises(RegistryError):
            resolve("policy", "wfq")

    def test_priority_levels_validation(self):
        with pytest.raises(ValueError):
            PriorityPolicy(levels=0)


class TestPolicyOrdering:
    def test_fcfs_orders_by_arrival_then_id(self):
        policy = FCFSPolicy()
        early = _state("b", arrival=0.0)
        late = _state("a", arrival=1.0)
        tie = _state("a0", arrival=0.0)
        ranked = sorted([late, early, tie], key=policy.rank)
        assert [s.request_id for s in ranked] == ["a0", "b", "a"]

    def test_priority_strictly_dominates_arrival(self):
        policy = PriorityPolicy(levels=3)
        urgent_late = _state("u", arrival=100.0, priority=0)
        casual_early = _state("c", arrival=0.0, priority=2)
        assert policy.rank(urgent_late) < policy.rank(casual_early)

    def test_priority_clamps_to_levels(self):
        policy = PriorityPolicy(levels=2)
        a = _state("a", priority=1)
        b = _state("b", priority=9)  # clamped into the last level
        assert policy.rank(a)[0] == policy.rank(b)[0] == 1

    def test_sjf_prefers_short_jobs_with_fcfs_tie_break(self):
        policy = SJFPolicy()
        short_late = _state("s", arrival=5.0, prompt_len=4, decode_len=2)
        long_early = _state("l", arrival=0.0, prompt_len=64, decode_len=32)
        same_a = _state("a", arrival=1.0, prompt_len=8, decode_len=8)
        same_b = _state("b", arrival=2.0, prompt_len=8, decode_len=8)
        ranked = sorted([long_early, same_b, short_late, same_a], key=policy.rank)
        assert [s.request_id for s in ranked] == ["s", "a", "b", "l"]

    def test_victim_is_worst_ranked(self):
        policy = PriorityPolicy()
        states = [_state("a", priority=0), _state("b", priority=2),
                  _state("c", priority=1)]
        assert policy.victim(states).request_id == "b"
        assert policy.victim([]) is None


class TestSchedulerLifecycle:
    def test_duplicate_submission_raises(self):
        scheduler = Scheduler(FCFSPolicy(), max_concurrency=2)
        scheduler.submit([_state("x")])
        with pytest.raises(ValueError):
            scheduler.submit([_state("x")])

    def test_bad_concurrency_raises(self):
        with pytest.raises(ValueError):
            Scheduler(FCFSPolicy(), max_concurrency=0)

    def test_admission_respects_concurrency_and_policy_order(self, lm):
        kv = KVSpaceManager(lm, resolve("cache", "full"))
        scheduler = Scheduler(FCFSPolicy(), max_concurrency=2)
        scheduler.submit([_state("c", 2.0), _state("a", 0.0), _state("b", 1.0)])
        admitted = scheduler.admit(0, 0.0, kv, whole_prefill=True,
                                   on_admit=lambda s, first: None)
        assert [s.request_id for s in admitted] == ["a", "b"]
        assert [s.phase for s in admitted] == [RequestPhase.PREFILL] * 2
        assert set(scheduler.running) == {"a", "b"}
        assert [s.request_id for s in scheduler.waiting] == ["c"]

    def test_preempt_preserves_generated_tokens(self, lm):
        kv = KVSpaceManager(lm, resolve("cache", "full"))
        scheduler = Scheduler(FCFSPolicy(), max_concurrency=1)
        scheduler.submit([_state("x", prompt_len=4, decode_len=6)])
        (state,) = scheduler.admit(0, 0.0, kv, whole_prefill=True,
                                   on_admit=lambda s, first: None)
        state.caches = []
        state.prefilled = len(state.prefill_target)
        state.generated = [7, 8, 9]
        scheduler.preempt(state, kv)
        assert state.phase is RequestPhase.PREEMPTED
        assert state.generated == [7, 8, 9]
        assert state.n_preemptions == 1
        assert not scheduler.running and len(scheduler.waiting) == 1
        # Re-admission recomputes prompt + generated[:-1], resuming from 9.
        (resumed,) = scheduler.admit(3, 0.0, kv, whole_prefill=True,
                                     on_admit=lambda s, first: None)
        assert resumed is state
        assert resumed.prefill_target == state.prompt + [7, 8]
        assert resumed.resume_next_input == 9
        assert resumed.admitted_step == 0  # first admission is reported

    def test_cancel_waiting_and_running(self, lm):
        kv = KVSpaceManager(lm, resolve("cache", "full"))
        scheduler = Scheduler(FCFSPolicy(), max_concurrency=1)
        scheduler.submit([_state("run"), _state("wait", arrival=1.0)])
        scheduler.admit(0, 0.0, kv, whole_prefill=True,
                        on_admit=lambda s, first: None)
        running = scheduler.running["run"]
        waiting = scheduler.find("wait")
        scheduler.cancel(waiting, kv)
        scheduler.cancel(running, kv)
        assert waiting.phase is RequestPhase.CANCELLED
        assert running.phase is RequestPhase.CANCELLED
        assert not scheduler.has_work()
        # Cancelling twice is a no-op.
        scheduler.cancel(running, kv)
        assert len(scheduler.finished) == 2


class TestKVSpaceManager:
    def test_unbounded_factory_disables_gating(self, lm):
        kv = KVSpaceManager(lm, resolve("cache", "paged:page_tokens=8"))
        assert not kv.bounded
        state = _state("x")
        assert kv.reserve(state, 10 ** 9)
        assert state.reserved_tokens == 0  # nothing accounted

    def test_bounded_factory_capacity_detection(self, lm):
        factory = resolve("cache", "paged:page_tokens=8,initial_pages=10,grow=false")
        assert factory.bounded
        assert factory.capacity_tokens == 80
        kv = KVSpaceManager(lm, factory)
        # One page of headroom is kept back for CoW flushes.
        assert kv.bounded and kv.capacity_tokens == 72
        # The per-pool view agrees once pools materialise (and growable
        # pools advertise no capacity).
        caches = lm.make_caches(factory)
        assert all(pool.capacity_tokens == 80 for pool in factory.pools)
        for cache in caches:
            cache.release()
        growable = resolve("cache", "paged:page_tokens=8,initial_pages=10")
        assert growable.capacity_tokens is None and not growable.bounded

    def test_reserve_rounds_to_pages_and_is_idempotent(self, lm):
        factory = resolve("cache", "paged:page_tokens=8,initial_pages=10,grow=false")
        kv = KVSpaceManager(lm, factory)
        state = _state("x")
        assert kv.reserve(state, 9)
        assert state.reserved_tokens == 16  # 2 pages
        assert kv.used_tokens == 16
        assert kv.reserve(state, 12)  # within the existing reservation
        assert state.reserved_tokens == 16
        assert not kv.reserve(state, 10 ** 6)
        kv.sync(state, 5)
        assert state.reserved_tokens == 8
        kv.release(state)
        assert state.reserved_tokens == 0 and kv.used_tokens == 0

    @pytest.mark.parametrize("spec", ["kivi:bits=2", "quarot:bits=4"])
    def test_quantized_caches_reserve_whole_pages(self, lm, spec):
        """``kivi`` / ``quarot`` store on the paged pool: a bounded run
        reserves whole 16-token pages for them, as for ``paged``."""
        kv = KVSpaceManager(lm, resolve("cache", spec), capacity_tokens=64)
        state = _state("x")
        assert kv.reserve(state, 10)
        assert state.reserved_tokens == kv.used_tokens == 16
        assert kv.reserve(state, 33) and state.reserved_tokens == 48
        assert not kv.reserve(_state("y"), 17)  # 32 tokens; 16 are free

    def test_explicit_capacity_overrides_unbounded_factory(self, lm):
        kv = KVSpaceManager(lm, resolve("cache", "paged:page_tokens=1"),
                            capacity_tokens=32)
        assert kv.bounded and kv.capacity_tokens == 32
        a, b = _state("a"), _state("b")
        assert kv.reserve(a, 20)
        assert not kv.reserve(b, 20)
        assert kv.reserve(b, 12)
        assert kv.free_tokens == 0

    def test_max_growth_counts_slack_and_free_space(self, lm):
        kv = KVSpaceManager(lm, resolve("cache", "paged:page_tokens=1"),
                            capacity_tokens=32)
        state = _state("x")
        assert kv.reserve(state, 16)
        state.prefilled = 10  # 6 tokens of slack inside the reservation
        assert kv.max_growth(state) == 6 + 16


class TestEngineLevelPolicyOrdering:
    """The satellite acceptance: FCFS ordering, priority strict dominance."""

    @pytest.fixture(scope="class")
    def lm(self):
        from repro.llm.config import tiny_config
        from repro.llm.model import DecoderLM

        return DecoderLM(tiny_config("sched-engine-tiny", n_layers=2, d_model=32,
                                     n_heads=4, d_ff=64, vocab_size=48,
                                     max_seq_len=512), seed=7)

    @pytest.fixture(scope="class")
    def tiered(self):
        from repro.workloads import tiered_requests

        return tiered_requests(n_requests=9, levels=3, prompt_len=12,
                               decode_len=8, vocab_size=48, seed=3)

    def test_fcfs_admits_in_arrival_order(self, lm, tiered):
        engine = ServingEngine(max_concurrency=2)
        report = engine.run_functional(lm, tiered, policy="fcfs")
        by_arrival = sorted(report.results, key=lambda r: r.request.arrival_time_s)
        admitted = [r.admitted_step for r in by_arrival]
        assert admitted == sorted(admitted)

    def test_priority_dominates_admission(self, lm, tiered):
        engine = ServingEngine(max_concurrency=2)
        report = engine.run_functional(lm, tiered, policy="priority:levels=3")
        steps = {level: [r.first_token_step for r in report.results
                         if r.request.priority == level]
                 for level in (0, 1, 2)}
        # Strict dominance: every level-0 request sees its first token no
        # later than any level-2 request's first token.
        assert max(steps[0]) <= min(steps[2])

    def test_priority_output_token_identical_to_fcfs(self, lm, tiered):
        engine = ServingEngine(max_concurrency=2)
        fcfs = engine.run_functional(lm, tiered, policy="fcfs")
        priority = engine.run_functional(lm, tiered, policy="priority:levels=3")
        sjf = engine.run_functional(lm, tiered, policy="sjf")
        baseline = [r.generated_tokens for r in fcfs.results]
        assert [r.generated_tokens for r in priority.results] == baseline
        assert [r.generated_tokens for r in sjf.results] == baseline

    def test_report_carries_policy_description(self, lm, tiered):
        engine = ServingEngine(max_concurrency=2)
        report = engine.run_functional(lm, tiered, policy="priority:levels=3")
        assert report.policy == "priority:levels=3"


class TestRequestExtensions:
    def test_priority_defaults_keep_generators_source_compatible(self):
        request = Request("x", 0.0, 8, 4)
        assert request.priority == 0
        assert request.arrival_time == request.arrival_time_s

    def test_negative_priority_raises(self):
        with pytest.raises(ValueError):
            Request("x", 0.0, 8, 4, priority=-1)

    def test_deprecated_engine_hooks_warn(self):
        """The engine's former prefix helpers live in the KV manager only."""
        from repro.serve.kv_manager import shared_prefix_len

        assert shared_prefix_len([1, 2, 3], [1, 2, 9]) == 2
        assert shared_prefix_len([1, 2], [1, 2, 3]) == 2
        assert shared_prefix_len([], [1]) == 0
        for removed in ("_shared_prefix_len", "_finish_prefill", "_DEFER_MIN_SHARED"):
            assert not hasattr(ServingEngine, removed)


class TestRequeueFairness:
    """Drained/re-admitted requests keep their original arrival ranking."""

    def test_resubmit_keeps_original_arrival_rank(self, lm):
        kv = KVSpaceManager(lm, resolve("cache", "full"))
        source = Scheduler(FCFSPolicy(), max_concurrency=2)
        early = _state("early", arrival=0.0, decode_len=6)
        source.submit([early])
        (admitted,) = source.admit(0, 0.0, kv, whole_prefill=True,
                                   on_admit=lambda s, first: None)
        admitted.caches = []
        admitted.prefilled = len(admitted.prefill_target)
        admitted.generated = [7, 8]  # mid-decode when its replica dies
        drained = source.evacuate(kv)
        assert drained == [early]
        assert early.phase is RequestPhase.PREEMPTED  # has generated tokens
        assert early.caches is None and early.prefilled == 0

        # A surviving scheduler already holds later arrivals; the drained
        # request must rank ahead of them (fcfs rank = original arrival).
        survivor = Scheduler(FCFSPolicy(), max_concurrency=2)
        survivor.submit([_state("late1", arrival=5.0), _state("late2", arrival=6.0)])
        survivor.resubmit(drained)
        assert [s.request_id for s in survivor.waiting] == ["early", "late1", "late2"]
        # Re-admission resumes by eviction-and-recompute from the last token.
        states = survivor.admit(9, 0.0, kv, whole_prefill=True,
                                on_admit=lambda s, first: None)
        assert states[0] is early
        assert early.prefill_target == early.prompt + [7]
        assert early.resume_next_input == 8

    def test_resubmit_without_generated_reenters_as_waiting(self):
        scheduler = Scheduler(FCFSPolicy(), max_concurrency=2)
        fresh = _state("fresh", arrival=1.0)
        scheduler.resubmit([fresh])
        assert fresh.phase is RequestPhase.WAITING
        assert scheduler.n_waiting == 1

    def test_resubmit_duplicate_id_raises(self):
        scheduler = Scheduler(FCFSPolicy(), max_concurrency=2)
        scheduler.submit([_state("x")])
        with pytest.raises(ValueError):
            scheduler.resubmit([_state("x")])

    def test_evacuate_does_not_count_as_preemption(self, lm):
        kv = KVSpaceManager(lm, resolve("cache", "full"))
        scheduler = Scheduler(FCFSPolicy(), max_concurrency=1)
        scheduler.submit([_state("x", decode_len=6)])
        (state,) = scheduler.admit(0, 0.0, kv, whole_prefill=True,
                                   on_admit=lambda s, first: None)
        state.caches = []
        state.generated = [3]
        scheduler.evacuate(kv)
        assert state.n_preemptions == 0
        assert not scheduler.has_work()

    def test_priority_rank_survives_requeue(self, lm):
        kv = KVSpaceManager(lm, resolve("cache", "full"))
        source = Scheduler(PriorityPolicy(levels=3), max_concurrency=1)
        urgent = _state("urgent", arrival=50.0, priority=0)
        source.submit([urgent])
        drained = source.evacuate(kv)
        survivor = Scheduler(PriorityPolicy(levels=3), max_concurrency=1)
        survivor.submit([_state("casual", arrival=0.0, priority=2)])
        survivor.resubmit(drained)
        assert [s.request_id for s in survivor.waiting] == ["urgent", "casual"]
