"""Recompute-free failover tests: KV checkpointing and live migration.

Covers the ``"migration"`` registry kind and :func:`resolve_migration`
composition, session-level :meth:`FunctionalSession.extract_request` /
:meth:`~FunctionalSession.inject_request` token identity across every cache
spec (checkpoint restore for paged caches, eviction-and-recompute for the
rest), stale-checkpoint rewind and inconsistent-checkpoint fallback, CoW
radix-shared migration, and the cluster-level policies: proactive drain of
DEGRADED replicas, periodic crash checkpoints bounding recompute loss, and
the issue's edge cases (cancel while migrating, deadline expiry during
drain, crash of a migration target).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from cache_specs import ALL_CACHE_SPECS
from repro.registry import RegistryError, known, resolve
from repro.serve import (
    ClusterEngine,
    MigrationPolicy,
    Request,
    ServingEngine,
    resolve_migration,
)

BOUNDED = "paged:page_tokens=8,initial_pages=16,grow=false"


def _request(request_id: str, prompt, decode_len: int = 6, arrival: float = 0.0,
             **kwargs) -> Request:
    return Request(request_id=request_id, arrival_time_s=arrival,
                   prompt_len=len(prompt), decode_len=decode_len,
                   prompt_tokens=tuple(prompt), **kwargs)


def _trace(n: int = 6, decode_len: int = 6, **kwargs) -> list[Request]:
    return [_request(f"r{i}", [(3 * i + j) % 30 + 1 for j in range(12)],
                     decode_len=decode_len, arrival=i * 0.01, **kwargs)
            for i in range(n)]


def _tokens(report) -> dict:
    return {r.request.request_id: tuple(r.generated_tokens)
            for r in report.results}


def _by_id(report) -> dict:
    return {r.request.request_id: r for r in report.results}


@pytest.fixture
def lm():
    from repro.llm.config import tiny_config
    from repro.llm.model import DecoderLM

    return DecoderLM(tiny_config("migrate-tiny", n_layers=2, d_model=32,
                                 n_heads=4, d_ff=64, vocab_size=48,
                                 max_seq_len=512), seed=7)


class TestMigrationRegistry:
    def test_migration_kind_registered(self):
        assert set(known("migration")) == {"none", "drain-on-degraded",
                                           "checkpoint"}

    def test_specs_round_trip(self):
        policy = resolve("migration", "drain-on-degraded:max_inflight=2")
        assert policy == MigrationPolicy(drain_max_inflight=2)
        assert policy.enabled
        assert policy.describe() == "drain-on-degraded:max_inflight=2"
        policy = resolve("migration", "checkpoint:interval=4")
        assert policy == MigrationPolicy(checkpoint_interval=4)
        assert policy.describe() == "checkpoint:interval=4"
        none = resolve("migration", "none")
        assert not none.enabled and none.describe() == "none"

    def test_resolve_migration_helper_and_composition(self):
        assert not resolve_migration(None).enabled
        built = MigrationPolicy(checkpoint_interval=2)
        assert resolve_migration(built) is built
        composed = resolve_migration(["drain-on-degraded:max_inflight=1",
                                      "checkpoint:interval=4"])
        assert composed == MigrationPolicy(drain_max_inflight=1,
                                           checkpoint_interval=4)
        assert (composed.describe()
                == "drain-on-degraded:max_inflight=1+checkpoint:interval=4")
        # Later members override earlier ones field-wise.
        assert resolve_migration(
            ["checkpoint:interval=2", "checkpoint:interval=8"]
        ).checkpoint_interval == 8

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            resolve("migration", "drain-on-degraded:max_inflight=-1")
        with pytest.raises(ValueError):
            resolve("migration", "checkpoint:interval=0")
        with pytest.raises(RegistryError):
            resolve("migration", "teleport")
        with pytest.raises(RegistryError):
            resolve("migration", "checkpoint:cadence=4")


class TestSessionMigration:
    """extract_request/inject_request across two standalone sessions."""

    def _run_split(self, lm, requests, cache, *, steps_before=6,
                   move=2, corrupt=False):
        """Serve ``requests`` on session A, migrate ``move`` of them to
        session B after ``steps_before`` steps, run both to completion and
        return ``(report_a, report_b, checkpoints_seen)``."""
        src = ServingEngine(max_concurrency=2).start_functional(
            lm, cache=cache, seed=0)
        src.submit(requests)
        for _ in range(steps_before):
            src.step()
        dst = ServingEngine(max_concurrency=2).start_functional(
            lm, cache=cache, seed=0)
        checkpoints = []
        for request in requests[:move]:
            extracted = src.extract_request(request.request_id)
            if extracted is None:
                continue
            state, ckpt = extracted
            checkpoints.append(ckpt)
            if corrupt and ckpt is not None:
                state.checkpoint = replace(
                    ckpt, generated=tuple(t + 1 for t in ckpt.generated))
            dst.inject_request(state)
        while src.step():
            pass
        while dst.step():
            pass
        return src.finish(), dst.finish(), checkpoints

    @pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
    def test_extract_inject_is_token_identical(self, lm, spec):
        requests = _trace(4, decode_len=8)
        reference = ServingEngine(max_concurrency=2).run_functional(
            lm, requests, cache=spec, seed=0)
        report_a, report_b, checkpoints = self._run_split(
            lm, requests, spec)
        combined = {**_by_id(report_a), **_by_id(report_b)}
        assert set(combined) == {r.request_id for r in requests}
        assert all(r.status == "finished" for r in combined.values())
        assert ({rid: tuple(r.generated_tokens)
                 for rid, r in combined.items()} == _tokens(reference))
        # Decode-phase checkpoints exist exactly when the cache supports
        # them: the paged store, which "full" is too.
        if spec.startswith(("paged", "full")):
            assert checkpoints and all(c is not None for c in checkpoints)
            assert report_b.n_restored == len(checkpoints)
            assert report_b.recompute_tokens_saved > 0
        else:
            assert all(c is None for c in checkpoints)
            assert report_b.n_restored == 0

    def test_stale_checkpoint_rewinds_token_identically(self, lm):
        # The crash-recovery path: a periodic stash is two decode steps old
        # by the time the replica dies; the rewound requests re-decode the
        # lost suffix token-identically instead of re-prefilling.
        requests = _trace(3, decode_len=10)
        reference = ServingEngine(max_concurrency=2).run_functional(
            lm, requests, cache="paged:page_tokens=4", seed=0)
        src = ServingEngine(max_concurrency=2).start_functional(
            lm, cache="paged:page_tokens=4", seed=0)
        src.submit(requests)
        for _ in range(5):
            src.step()
        stash = src.checkpoint_requests()
        assert stash
        for _ in range(2):
            src.step()
        drained = src.drain()
        for state in drained:
            assert state.checkpoint is None  # drain itself attaches nothing
            state.checkpoint = stash.get(state.request_id)
        stale = [s for s in drained if s.checkpoint is not None
                 and len(s.generated) > len(s.checkpoint.generated)]
        assert stale  # the stash really is behind the live state
        dst = ServingEngine(max_concurrency=2).start_functional(
            lm, cache="paged:page_tokens=4", seed=0)
        for state in drained:
            dst.inject_request(state)
        while dst.step():
            pass
        report_a, report_b = src.finish(), dst.finish()
        combined = {**_tokens(report_a), **_tokens(report_b)}
        assert combined == _tokens(reference)
        assert report_b.n_restored >= len(stale)
        assert report_b.recompute_tokens_saved > 0

    def test_inconsistent_checkpoint_falls_back_to_recompute(self, lm):
        requests = _trace(3, decode_len=8)
        reference = ServingEngine(max_concurrency=2).run_functional(
            lm, requests, cache="paged:page_tokens=4", seed=0)
        report_a, report_b, checkpoints = self._run_split(
            lm, requests, "paged:page_tokens=4", move=1, corrupt=True)
        assert checkpoints[0] is not None
        combined = {**_tokens(report_a), **_tokens(report_b)}
        assert combined == _tokens(reference)
        # The corrupted checkpoint was dropped, not trusted.
        assert report_b.n_restored == 0
        assert report_b.recompute_tokens_saved == 0

    def test_checkpoint_requests_covers_decoding_states_only(self, lm):
        session = ServingEngine(max_concurrency=2).start_functional(
            lm, cache="paged:page_tokens=4", seed=0)
        session.submit(_trace(3, decode_len=6))
        assert session.checkpoint_requests() == {}  # nothing admitted yet
        for _ in range(3):
            session.step()
        checkpoints = session.checkpoint_requests()
        assert checkpoints  # someone is mid-decode by now
        for rid, ckpt in checkpoints.items():
            state = session.scheduler.find(rid)
            assert ckpt.request_id == rid
            assert tuple(state.generated) == ckpt.generated
            assert ckpt.n_tokens == len(state.prompt) + len(state.generated) - 1
        while session.step():
            pass
        session.finish()

    def test_extract_unknown_or_finished_returns_none(self, lm):
        session = ServingEngine(max_concurrency=2).start_functional(
            lm, cache="paged:page_tokens=4", seed=0)
        requests = _trace(1, decode_len=2)
        session.submit(requests)
        assert session.extract_request("nope") is None
        while session.step():
            pass
        assert session.extract_request(requests[0].request_id) is None
        session.finish()

    def test_extract_queued_request_moves_without_checkpoint(self, lm):
        # max_concurrency=1 parks r1/r2 in the waiting queue.
        src = ServingEngine(max_concurrency=1).start_functional(
            lm, cache="paged:page_tokens=4", seed=0)
        requests = _trace(3, decode_len=6)
        src.submit(requests)
        src.step()
        state, ckpt = src.extract_request("r2")
        assert ckpt is None and not state.generated
        dst = ServingEngine(max_concurrency=1).start_functional(
            lm, cache="paged:page_tokens=4", seed=0)
        dst.inject_request(state)
        while src.step():
            pass
        while dst.step():
            pass
        reference = ServingEngine(max_concurrency=1).run_functional(
            lm, requests, cache="paged:page_tokens=4", seed=0)
        combined = {**_tokens(src.finish()), **_tokens(dst.finish())}
        assert combined == _tokens(reference)

    def test_cow_radix_shared_prefix_migration(self, lm):
        # Two requests share a 12-token prefix through the radix index:
        # extracting one mid-decode must not disturb the other's CoW pages.
        prefix = [(j % 30) + 1 for j in range(12)]
        requests = [
            _request("a", prefix + [31, 32], decode_len=8),
            _request("b", prefix + [33, 34], decode_len=8, arrival=0.01),
        ]
        factory_ref = resolve("cache", "paged:page_tokens=4")
        reference = ServingEngine(max_concurrency=2).run_functional(
            lm, requests, cache=factory_ref, seed=0, prefix_cache=True)

        factory_src = resolve("cache", "paged:page_tokens=4")
        factory_dst = resolve("cache", "paged:page_tokens=4")
        src = ServingEngine(max_concurrency=2).start_functional(
            lm, cache=factory_src, seed=0, prefix_cache=True)
        src.submit(requests)
        for _ in range(5):
            src.step()
        state, ckpt = src.extract_request("b")
        assert ckpt is not None  # mid-decode on a paged cache
        dst = ServingEngine(max_concurrency=2).start_functional(
            lm, cache=factory_dst, seed=0)
        dst.inject_request(state)
        while src.step():
            pass
        while dst.step():
            pass
        report_a, report_b = src.finish(), dst.finish()
        assert {**_tokens(report_a), **_tokens(report_b)} == _tokens(reference)
        for factory in (factory_src, factory_dst):
            factory.check_accounting()
            assert factory.referenced_pages == 0


class TestClusterMigration:
    def _trace(self, n=10, decode_len=12, **kwargs):
        return _trace(n, decode_len=decode_len, **kwargs)

    def _cluster(self, n_replicas=3, **kwargs):
        merged = dict(router="round-robin", cache=BOUNDED, max_concurrency=2,
                      seed=0)
        merged.update(kwargs)
        return ClusterEngine(n_replicas, **merged)

    def test_drain_on_degraded_migrates_and_stays_token_identical(self, lm):
        requests = self._trace()
        healthy = self._cluster().run(lm, requests)
        report = self._cluster(
            faults=["straggler:replica=0,slowdown=3"],
            migration="drain-on-degraded:max_inflight=0",
            paranoid=True,
        ).run(lm, requests)
        assert all(r.status == "finished" for r in report.results)
        assert _tokens(report) == _tokens(healthy)
        assert report.migrated_requests > 0
        assert report.migrated_pages > 0
        assert report.n_restored >= report.migrated_requests
        assert report.recompute_tokens_saved > 0
        text = report.summary()
        assert "migration" in text and "drain-on-degraded:max_inflight=0" in text

    def test_periodic_checkpoints_bound_crash_recompute(self, lm):
        requests = self._trace()
        healthy = self._cluster(n_replicas=2).run(lm, requests)
        recompute = self._cluster(n_replicas=2, paranoid=True)
        recompute.fail_replica(1, at_step=5)
        recompute_report = recompute.run(lm, requests)
        ckpt = self._cluster(n_replicas=2, paranoid=True,
                             migration="checkpoint:interval=2")
        ckpt.fail_replica(1, at_step=5)
        report = ckpt.run(lm, requests)
        for run in (recompute_report, report):
            assert run.completed_fraction == 1.0
            assert _tokens(run) == _tokens(healthy)
        # Recompute-only recovery restores nothing; checkpointed recovery
        # resumes the crashed replica's decodes from the last stash.
        assert recompute_report.recompute_tokens_saved == 0
        assert report.recompute_tokens_saved > 0
        assert report.migrated_requests > 0
        assert "recompute tokens saved" in report.summary()

    def test_cancel_while_migrating_is_terminal_once(self, lm):
        requests = self._trace()
        cluster = self._cluster(
            faults=["straggler:replica=0,slowdown=3"],
            migration=["drain-on-degraded:max_inflight=0",
                       "checkpoint:interval=2"],
            paranoid=True,
        )
        victim = requests[0].request_id
        cluster.cancel(victim, at_step=10)  # mid-run, after drains begin
        report = cluster.run(lm, requests)
        assert len(report.results) == len(requests)
        outcomes = _by_id(report)
        assert outcomes[victim].status == "cancelled"
        others = [r for rid, r in outcomes.items() if rid != victim]
        assert all(r.status == "finished" for r in others)

    def test_deadline_expiry_during_drain_is_explicit(self, lm):
        requests = self._trace(8, decode_len=24, deadline_steps=14)
        report = self._cluster(
            faults=["straggler:replica=0,slowdown=4"],
            migration="drain-on-degraded:max_inflight=0",
            paranoid=True,
        ).run(lm, requests)
        assert len(report.results) == len(requests)
        statuses = {r.status for r in report.results}
        assert statuses <= {"finished", "timeout"}
        assert "timeout" in statuses  # the deadline did bite mid-drain

    def test_crash_of_migration_target_mid_round(self, lm):
        requests = self._trace()
        healthy = self._cluster().run(lm, requests)
        cluster = self._cluster(
            faults=["straggler:replica=0,slowdown=3"],
            migration=["drain-on-degraded:max_inflight=0",
                       "checkpoint:interval=2"],
            paranoid=True,
        )
        # Replica 1 absorbs migrations off the degraded replica 0, then
        # crashes itself: its requests (migrated ones included) must land on
        # replica 2 and still finish token-identically.
        cluster.fail_replica(1, at_step=12)
        report = cluster.run(lm, requests)
        assert report.completed_fraction == 1.0
        assert _tokens(report) == _tokens(healthy)
        assert report.failed_replicas == [1]
        assert report.n_requeued > 0  # the target's load moved again

    def test_migration_disabled_by_default(self, lm):
        requests = self._trace(6, decode_len=5)
        report = self._cluster(n_replicas=2).run(lm, requests)
        assert report.migration is None
        assert report.migrated_requests == 0
        assert report.migrated_pages == 0
        assert "migration" not in report.summary()
