"""Overload-control tests: admission, brownout, breakers, hedged requests.

Covers the ``"admission"`` registry kind (token buckets, weighted-fair
queueing, KV-pressure gating, severity composition), the brownout ladder's
hysteresis and per-replica application, circuit-breaker state transitions
and breaker-aware routing, the multi-tenant workload generator, per-tenant
report accounting, and the hedged-request edge cases: hedge wins are
token-identical and first-to-finish, cancellation/deadline expiry with a
duplicate in flight resolve to exactly one terminal status, and a hedge
target crashing mid-decode never loses the primary — all under
``paranoid=True`` page/conservation checking and byte-identical on rerun.
"""

from __future__ import annotations

import pytest

from repro.registry import RegistryError, known, resolve
from repro.serve import (
    AdmissionContext,
    AdmissionDecision,
    BreakerState,
    BrownoutConfig,
    BrownoutLadder,
    CircuitBreaker,
    ClusterEngine,
    CompositeAdmission,
    KVPressureAdmission,
    LoadSnapshot,
    ReplicaHealth,
    ReplicaView,
    Request,
    Router,
    TokenBucketAdmission,
    WeightedFairAdmission,
    resolve_admission,
    resolve_breaker,
    resolve_brownout,
    resolve_hedge,
)
from repro.serve.cluster import HEDGE_SUFFIX
from repro.serve.overload import BreakerConfig, HedgePolicy
from repro.workloads import multi_tenant_requests


def _request(request_id: str, prompt, decode_len: int = 6, arrival: float = 0.0,
             **kwargs) -> Request:
    return Request(request_id=request_id, arrival_time_s=arrival,
                   prompt_len=len(prompt), decode_len=decode_len,
                   prompt_tokens=tuple(prompt), **kwargs)


def _outcome(report) -> dict:
    return {r.request.request_id: (r.status, tuple(r.generated_tokens))
            for r in report.results}


@pytest.fixture
def lm():
    from repro.llm.config import tiny_config
    from repro.llm.model import DecoderLM

    return DecoderLM(tiny_config("overload-tiny", n_layers=2, d_model=32,
                                 n_heads=4, d_ff=64, vocab_size=48,
                                 max_seq_len=512), seed=7)


# ----------------------------------------------------------------------
# Admission policies (unit)
# ----------------------------------------------------------------------
class TestAdmissionRegistry:
    def test_admission_kind_registered(self):
        names = set(known("admission"))
        assert {"none", "kv-pressure", "token-bucket",
                "weighted-fair"} <= names

    def test_resolve_round_trips(self):
        policy = resolve("admission", "token-bucket:rate=16,burst=64")
        assert isinstance(policy, TokenBucketAdmission)
        wf = resolve("admission", "weighted-fair:quantum=2,weights=a=4;b=1")
        assert isinstance(wf, WeightedFairAdmission)
        assert "a=4" in wf.describe()

    def test_unknown_admission_raises(self):
        with pytest.raises(RegistryError):
            resolve("admission", "leaky-bucket")

    def test_resolve_admission_helper(self):
        assert resolve_admission(None) is None
        pressure = resolve_admission("kv-pressure:threshold=0.5")
        assert isinstance(pressure, KVPressureAdmission)
        assert pressure.describe() == "kv-pressure:threshold=0.5"
        composed = resolve_admission(["token-bucket:rate=8",
                                      "kv-pressure:threshold=0.5"])
        assert isinstance(composed, CompositeAdmission)
        listed = resolve_admission(["token-bucket:rate=8", "kv-pressure"])
        assert isinstance(listed, CompositeAdmission)


class TestTokenBucket:
    def test_admit_defer_and_overflow_shed(self):
        bucket = TokenBucketAdmission(rate=4.0, burst=16.0)
        ctx = AdmissionContext(clock=0)
        small = _request("a", [1] * 4, decode_len=4)   # cost 8 <= 16
        assert bucket.decide(small, ctx) is AdmissionDecision.ADMIT
        second = _request("b", [1] * 8, decode_len=4)  # cost 12 > 8 left
        assert bucket.decide(second, ctx) is AdmissionDecision.DEFER
        huge = _request("c", [1] * 20, decode_len=4)   # cost 24 > burst
        assert bucket.decide(huge, ctx) is AdmissionDecision.SHED

    def test_refill_admits_deferred_later(self):
        bucket = TokenBucketAdmission(rate=4.0, burst=16.0)
        request = _request("a", [1] * 8, decode_len=8)  # cost 16 = full burst
        assert bucket.decide(request,
                             AdmissionContext(clock=0)) is AdmissionDecision.ADMIT
        assert bucket.decide(request,
                             AdmissionContext(clock=1)) is AdmissionDecision.DEFER
        # 4 tokens/round: the bucket refills to 16 after 4 more rounds.
        assert bucket.decide(request,
                             AdmissionContext(clock=4)) is AdmissionDecision.ADMIT

    def test_max_wait_sheds_starved_request(self):
        bucket = TokenBucketAdmission(rate=0.5, burst=8.0, max_wait=3)
        request = _request("a", [1] * 4, decode_len=4)
        assert bucket.decide(request, AdmissionContext(clock=0)) \
            is AdmissionDecision.ADMIT
        assert bucket.decide(request, AdmissionContext(clock=1, waited=1)) \
            is AdmissionDecision.DEFER
        assert bucket.decide(request, AdmissionContext(clock=2, waited=3)) \
            is AdmissionDecision.SHED

    def test_weights_scale_per_tenant_budget(self):
        bucket = TokenBucketAdmission(rate=4.0, burst=8.0,
                                      weights={"gold": 2.0, "free": 0.5})
        gold = _request("g", [1] * 8, decode_len=8, tenant="gold")
        free = _request("f", [1] * 8, decode_len=8, tenant="free")
        ctx = AdmissionContext(clock=0)
        assert bucket.decide(gold, ctx) is AdmissionDecision.ADMIT  # 16 = burst
        assert bucket.decide(free, ctx) is AdmissionDecision.SHED   # 16 > 4


class TestWeightedFair:
    def test_quantum_grants_by_virtual_time(self):
        wf = WeightedFairAdmission(quantum=1, weights={"a": 4.0, "b": 1.0})
        a0 = _request("a0", [1] * 4, tenant="a")
        b0 = _request("b0", [1] * 4, tenant="b")
        ctx = AdmissionContext(clock=0)
        wf.begin_round([a0, b0], ctx)
        granted = [wf.decide(r, ctx) for r in (a0, b0)]
        assert granted.count(AdmissionDecision.ADMIT) == 1
        assert granted.count(AdmissionDecision.DEFER) == 1

    def test_heavier_tenant_accumulates_less_vtime(self):
        wf = WeightedFairAdmission(quantum=1, weights={"a": 4.0, "b": 1.0})
        decisions = {"a": 0, "b": 0}
        backlog = ([_request(f"a{i}", [1] * 4, tenant="a") for i in range(8)]
                   + [_request(f"b{i}", [1] * 4, tenant="b")
                      for i in range(8)])
        for clock in range(8):
            ctx = AdmissionContext(clock=clock)
            wf.begin_round(backlog, ctx)
            admitted = [r for r in backlog
                        if wf.decide(r, ctx) is AdmissionDecision.ADMIT]
            for r in admitted:
                decisions[r.tenant] += 1
                backlog.remove(r)
        # weight 4 vs 1: tenant a drains ~4x faster.
        assert decisions["a"] >= 3 * decisions["b"]


class TestCompositeAdmission:
    def test_severest_decision_wins(self):
        always_shed = KVPressureAdmission(threshold=0.01)
        bucket = TokenBucketAdmission(rate=64.0, burst=256.0)
        composite = CompositeAdmission([bucket, always_shed])
        request = _request("a", [1] * 8, decode_len=8)
        ctx = AdmissionContext(clock=0, projected_kv_tokens=100,
                               capacity_tokens=100)
        assert composite.decide(request, ctx) is AdmissionDecision.SHED
        assert " + " in composite.describe()


# ----------------------------------------------------------------------
# Brownout ladder and circuit breakers (unit)
# ----------------------------------------------------------------------
class TestBrownoutLadder:
    def test_hysteresis_and_single_rung_steps(self):
        ladder = BrownoutLadder(BrownoutConfig(high=0.8, low=0.5, hold=2))
        assert ladder.observe(0.9, 0, 0) is None          # hold not reached
        assert ladder.observe(0.9, 0, 1) == (0, 1, "kv-pressure")
        assert ladder.level == 1
        # In the hysteresis band: neither counter advances.
        assert ladder.observe(0.6, 0, 2) is None
        assert ladder.observe(0.9, 0, 3) is None
        assert ladder.observe(0.9, 0, 4) == (1, 2, "kv-pressure")
        assert ladder.observe(0.4, 0, 5) is None
        assert ladder.observe(0.4, 0, 6) == (2, 1, "recovered")
        assert ladder.observe(0.4, 0, 7) is None
        assert ladder.observe(0.4, 0, 8) == (1, 0, "recovered")

    def test_queue_pressure_reason(self):
        ladder = BrownoutLadder(BrownoutConfig(high=0.8, low=0.5, hold=1,
                                               queue_high=10))
        assert ladder.observe(0.1, 50, 0) == (0, 1, "queue")

    def test_resolve_brownout_spec(self):
        assert resolve_brownout(None) is None
        assert resolve_brownout(False) is None
        default = resolve_brownout(True)
        assert isinstance(default, BrownoutConfig)
        custom = resolve_brownout("brownout:high=0.7,low=0.4,decode_cap=4")
        assert custom.high == 0.7 and custom.decode_cap == 4


class TestCircuitBreaker:
    def test_trip_halfopen_probe_and_close(self):
        breaker = CircuitBreaker(BreakerConfig(threshold=3, window=4,
                                               cooldown=2, probe_rounds=2))
        assert breaker.state is BreakerState.CLOSED
        assert breaker.record(3, clock=0) == ("closed", "open")
        assert not breaker.allows_routing()
        assert breaker.tick(1) is None                    # still cooling
        assert breaker.tick(2) == ("open", "half-open")
        assert breaker.allows_routing()                   # one probe slot
        breaker.note_routed()
        assert not breaker.allows_routing()               # slot consumed
        assert breaker.record(0, clock=2) is None         # 1 clean round
        breaker.tick(3)
        assert breaker.record(0, clock=3) == ("half-open", "closed")
        assert breaker.state is BreakerState.CLOSED

    def test_halfopen_failure_reopens(self):
        breaker = CircuitBreaker(BreakerConfig(threshold=2, window=4,
                                               cooldown=1, probe_rounds=2))
        breaker.record(2, clock=0)
        breaker.tick(1)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.record(1, clock=1) == ("half-open", "open")

    def test_routable_filters_open_breakers(self):
        views = [ReplicaView(0, LoadSnapshot(0, 0, 0), breaker_open=True),
                 ReplicaView(1, LoadSnapshot(0, 0, 0))]
        assert [v.replica_id for v in Router.routable(views)] == [1]
        # A fully-tripped fleet still serves rather than deadlocking.
        tripped = [ReplicaView(0, LoadSnapshot(0, 0, 0), breaker_open=True)]
        assert Router.routable(tripped) == tripped

    def test_resolve_specs(self):
        assert resolve_breaker(None) is None
        assert resolve_breaker(True) == BreakerConfig()
        assert resolve_breaker("breaker:threshold=5").threshold == 5
        assert resolve_hedge(None) is None
        assert resolve_hedge("hedge:slowdown=2.0") == HedgePolicy(slowdown=2.0)


# ----------------------------------------------------------------------
# Multi-tenant workload
# ----------------------------------------------------------------------
class TestMultiTenantWorkload:
    def test_tenants_tiers_and_determinism(self):
        requests = multi_tenant_requests(4, 3, tier_levels=3,
                                         deadline_steps=40, seed=5)
        assert len(requests) == 12
        by_tenant = {r.tenant for r in requests}
        assert by_tenant == {"t0", "t1", "t2", "t3"}
        for r in requests:
            idx = int(r.tenant[1:])
            assert r.priority == min(idx, 2)
            assert r.deadline_steps == 40
            assert r.request_id.startswith(r.tenant + "r")
        again = multi_tenant_requests(4, 3, tier_levels=3,
                                      deadline_steps=40, seed=5)
        assert [(r.request_id, r.arrival_time_s) for r in requests] \
            == [(r.request_id, r.arrival_time_s) for r in again]

    def test_rate_skew_loads_low_tiers(self):
        requests = multi_tenant_requests(3, 16, rate_skew=4.0, seed=1)
        last = {r.tenant: r.arrival_time_s for r in requests}
        assert last["t2"] < last["t1"] < last["t0"]

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_tenant_requests(0, 4)
        with pytest.raises(ValueError):
            multi_tenant_requests(2, 4, rate_skew=0.0)


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------
class TestClusterAdmission:
    def _cluster(self, **kwargs):
        merged = dict(router="least-loaded", cache="paged:page_tokens=8",
                      max_concurrency=2, seed=0, paranoid=True)
        merged.update(kwargs)
        return ClusterEngine(2, **merged)

    def test_per_tenant_accounting_and_summary(self, lm):
        requests = multi_tenant_requests(3, 4, prompt_len=12, decode_len=4,
                                         vocab_size=48, seed=2)
        report = self._cluster(
            admission="token-bucket:rate=64,burst=256").run(lm, requests)
        tenants = report.per_tenant()
        assert set(tenants) == {"t0", "t1", "t2"}
        assert all(t["n"] == 4 and t["finished"] == 4
                   for t in tenants.values())
        assert all(t["goodput_tokens"] == 16 for t in tenants.values())
        text = report.summary()
        assert "admission" in text and "token-bucket" in text
        for line in ("shed", "timeouts", "goodput tokens"):
            assert line in text

    def test_weighted_fair_protects_high_tier_under_overload(self, lm):
        requests = multi_tenant_requests(3, 6, prompt_len=24, decode_len=10,
                                         vocab_size=48, rate_skew=1.5,
                                         deadline_steps=30, seed=0)
        kwargs = dict(capacity_tokens=1024, arrivals_per_step=4,
                      faults="tenant-burst:tenant=t2,copies=1")
        n_offered = len(requests) + 6
        baseline = self._cluster(**kwargs).run(lm, requests)
        admitted = self._cluster(
            admission="weighted-fair:quantum=2,weights=t0=8;t1=2;t2=1,"
                      "threshold=0.9", **kwargs).run(lm, requests)
        # 100% terminal on both sides: nothing lost, nothing duplicated.
        assert len(baseline.results) == n_offered
        assert len(admitted.results) == n_offered
        gain = (admitted.per_tenant()["t0"]["goodput_tokens"]
                / max(baseline.per_tenant()["t0"]["goodput_tokens"], 1))
        assert gain > 1.0
        assert admitted.tenant_admission["t2"]["deferred"] > 0

    def test_legacy_shed_threshold_still_sheds(self, lm):
        requests = multi_tenant_requests(2, 8, prompt_len=24, decode_len=6,
                                         vocab_size=48, seed=3)
        report = self._cluster(admission="kv-pressure:threshold=0.25",
                               capacity_tokens=512).run(lm, requests)
        assert report.n_shed > 0
        assert len(report.results) == len(requests)
        assert report.admission == "kv-pressure:threshold=0.25"

    def test_deferred_requests_eventually_terminal(self, lm):
        requests = multi_tenant_requests(2, 4, prompt_len=12, decode_len=4,
                                         vocab_size=48, deadline_steps=64,
                                         seed=4)
        report = self._cluster(
            admission="token-bucket:rate=8,burst=32,max_wait=40").run(
            lm, requests)
        assert len(report.results) == len(requests)
        statuses = {r.status for r in report.results}
        assert statuses <= {"finished", "shed", "timeout"}


class TestBrownoutCluster:
    def test_brownout_engages_and_recovers_under_pressure(self, lm):
        requests = multi_tenant_requests(2, 10, prompt_len=24, decode_len=8,
                                         vocab_size=48, seed=1)
        report = ClusterEngine(
            2, router="least-loaded", cache="paged:page_tokens=8",
            max_concurrency=4, capacity_tokens=640, arrivals_per_step=6,
            seed=0, paranoid=True,
            brownout="brownout:high=0.5,low=0.3,hold=1,decode_cap=4",
        ).run(lm, requests)
        assert report.brownout_events, "pressure never engaged the ladder"
        ups = [e for e in report.brownout_events if e[2] > e[1]]
        downs = [e for e in report.brownout_events if e[2] < e[1]]
        assert ups and downs, "ladder must step up under load and recover"
        assert report.brownout_degraded_rounds > 0
        assert all(abs(e[2] - e[1]) == 1 for e in report.brownout_events)
        # L3 caps low-tier decodes: capped requests report truncated.
        if any(e[2] == 3 for e in report.brownout_events):
            assert report.n_truncated > 0
        assert "brownout" in report.summary()

    def test_brownout_rerun_byte_identical(self, lm):
        requests = multi_tenant_requests(2, 8, prompt_len=24, decode_len=8,
                                         vocab_size=48, seed=1)
        def run():
            return ClusterEngine(
                2, router="least-loaded", cache="paged:page_tokens=8",
                max_concurrency=4, capacity_tokens=640, arrivals_per_step=6,
                seed=0, paranoid=True, brownout=True,
            ).run(lm, requests)
        first, second = run(), run()
        assert _outcome(first) == _outcome(second)
        assert first.brownout_events == second.brownout_events
        assert first.brownout_rounds == second.brownout_rounds


class TestHedgedRequests:
    PROMPT = [(3 * j) % 30 + 1 for j in range(12)]

    def _cluster(self, **kwargs):
        merged = dict(router="least-loaded", cache="paged:page_tokens=8",
                      max_concurrency=2, seed=0, paranoid=True,
                      faults="stall:replica=0,period=3",
                      hedge="hedge:slowdown=1.5,patience=2")
        merged.update(kwargs)
        return ClusterEngine(2, **merged)

    def test_hedge_win_is_faster_and_token_identical(self, lm):
        request = _request("r0", self.PROMPT, decode_len=24)
        healthy = ClusterEngine(
            2, router="least-loaded", cache="paged:page_tokens=8",
            max_concurrency=2, seed=0, paranoid=True).run(lm, [request])
        unhedged = self._cluster(hedge=None).run(lm, [request])
        hedged = self._cluster().run(lm, [request])
        assert hedged.n_hedges == 1 and hedged.hedge_wins == 1
        assert hedged.cluster_steps < unhedged.cluster_steps
        assert _outcome(hedged) == _outcome(healthy)
        kinds = [e[1] for e in hedged.hedge_events]
        assert kinds == ["launch", "hedge-win"]
        assert hedged.hedge_events[0][5] == "checkpoint"
        assert "hedging" in hedged.summary()

    def test_cancel_while_hedged_exactly_one_terminal(self, lm):
        request = _request("r0", self.PROMPT, decode_len=24)
        engine = self._cluster()
        engine.cancel("r0", at_step=6)
        report = engine.run(lm, [request])
        kinds = [e[1] for e in report.hedge_events]
        assert kinds == ["launch", "primary-terminal"]
        assert len(report.results) == 1
        assert report.results[0].status == "cancelled"
        assert report.hedge_wins == 0

    def test_deadline_expiry_with_duplicate_in_flight(self, lm):
        request = _request("r0", self.PROMPT, decode_len=24,
                           deadline_steps=8)
        report = self._cluster().run(lm, [request])
        assert len(report.results) == 1
        assert report.results[0].status == "timeout"
        assert "launch" in [e[1] for e in report.hedge_events]
        assert report.hedge_wins == 0

    def test_hedge_target_crash_mid_decode(self, lm):
        request = _request("r0", self.PROMPT, decode_len=24)
        engine = self._cluster()
        engine.fail_replica(1, at_step=8)
        report = engine.run(lm, [request])
        kinds = [e[1] for e in report.hedge_events]
        assert kinds == ["launch", "hedge-lost-replica"]
        assert len(report.results) == 1
        assert report.results[0].status == "finished"
        assert len(report.results[0].generated_tokens) == 24
        # The lost duplicate frees its hedge slot but is never re-hedged.
        assert report.n_hedges == 1

    #: How each way a hedge flight can end is provoked (``hedge_events`` kind
    #: -> extra cluster kwargs, cancellations, replica failures).
    ENDINGS = {
        "hedge-win": {},
        # Reported latency inflates (the hedge trigger) but the primary loses
        # no round, so it finishes ahead of the duplicate.
        "primary-win": dict(faults="straggler:replica=0,slowdown=2.0"),
        "primary-terminal": dict(cancel=("r0", 6)),
        "hedge-terminal": dict(cancel=("r0" + HEDGE_SUFFIX, 7)),
        "hedge-lost-replica": dict(fail=(1, 8)),
    }

    @pytest.mark.parametrize("ending", sorted(ENDINGS))
    def test_report_maps_name_only_submitted_requests(self, lm, ending):
        """However the flight ends, the duplicate's ``~hedge`` id leaves the
        report with it: every per-request map is keyed by submitted ids."""
        kwargs = dict(self.ENDINGS[ending])
        cancel, fail = kwargs.pop("cancel", None), kwargs.pop("fail", None)
        engine = self._cluster(**kwargs)
        if cancel is not None:
            engine.cancel(cancel[0], at_step=cancel[1])
        if fail is not None:
            engine.fail_replica(fail[0], at_step=fail[1])
        requests = [_request("r0", self.PROMPT, decode_len=24),
                    _request("r1", self.PROMPT[::-1], decode_len=4, arrival=0.01)]
        report = engine.run(lm, requests)
        assert [e[1] for e in report.hedge_events if e[2] == "r0"] == ["launch", ending]
        submitted = {request.request_id for request in requests}
        assert set(report.assignments) == submitted
        assert set(report.requeues) <= submitted
        assert sorted(r.request.request_id for r in report.results) == sorted(submitted)
        # ... and no other map of the report mentions a duplicate either.
        for name, value in vars(report).items():
            if isinstance(value, dict):
                assert not [key for key in value if str(key).endswith(HEDGE_SUFFIX)], name

    def test_hedge_rerun_byte_identical(self, lm):
        request = _request("r0", self.PROMPT, decode_len=24)
        first = self._cluster().run(lm, [request])
        second = self._cluster().run(lm, [request])
        assert _outcome(first) == _outcome(second)
        assert first.hedge_events == second.hedge_events
        assert first.hedge_waste_tokens == second.hedge_waste_tokens


class TestBreakerCluster:
    def test_breaker_trips_on_retry_storm_and_logs_transitions(self, lm):
        requests = [
            _request(f"r{i}", [(3 * i + j) % 30 + 1 for j in range(12)],
                     arrival=i * 0.01, max_retries=12) for i in range(8)]
        report = ClusterEngine(
            2, router="least-loaded", cache="paged:page_tokens=8",
            max_concurrency=2, seed=0, paranoid=True,
            faults="transient-exec:rate=0.5",
            breaker="breaker:threshold=2,window=4,cooldown=3",
        ).run(lm, requests)
        assert report.n_breaker_trips >= 1
        changes = [c for _, _, c in report.breaker_events]
        assert "closed->open" in changes
        assert "open->half-open" in changes
        assert "breakers" in report.summary()
        assert len(report.results) == len(requests)

    def test_full_composition_rerun_byte_identical(self, lm):
        requests = multi_tenant_requests(3, 4, prompt_len=12, decode_len=6,
                                         vocab_size=48, deadline_steps=64,
                                         seed=6)
        def run():
            return ClusterEngine(
                3, router="least-loaded", cache="paged:page_tokens=8",
                max_concurrency=2, capacity_tokens=1024,
                arrivals_per_step=4, seed=0, paranoid=True,
                faults=["stall:replica=2,period=3",
                        "tenant-burst:tenant=t2,copies=1,until=4"],
                admission="token-bucket:rate=48,burst=192,max_wait=24",
                brownout=True, breaker=True, hedge=True,
            ).run(lm, requests)
        first, second = run(), run()
        assert _outcome(first) == _outcome(second)
        assert first.hedge_events == second.hedge_events
        assert first.breaker_events == second.breaker_events
        assert first.brownout_events == second.brownout_events
        assert first.tenant_admission == second.tenant_admission
        assert len(first.results) >= len(requests)
