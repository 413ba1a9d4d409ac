"""Deterministic fault injection for the serving engine and cluster.

Production fleets fail in several ways at once — replicas crash, straggle,
hit transient forward errors, and run out of allocator headroom — and the
only way to *prove* the serving layers handle every combination is to inject
those faults on purpose, deterministically, and assert the invariants every
step.  This module is that chaos harness:

* a ``"fault"`` registry kind whose specs each build a single-fault
  :class:`FaultPlan` — ``replica-crash:at=S`` (with optional rejoin),
  ``straggler:replica=I,slowdown=X`` (inflated *simulated* step latency),
  ``transient-exec:rate=P`` (executor forwards raise a retryable
  :class:`TransientExecutorError`), ``alloc-pressure:rate=P`` (KV
  reservations / :meth:`~repro.core.kv_pool.KVPagePool.try_alloc` spuriously
  fail), ``stall:replica=I,period=K`` / ``sustained-overload:period=K``
  (a replica — or the whole fleet — only makes progress every K-th round,
  so tail latency is real in the deterministic round domain) and
  ``tenant-burst:tenant=T,copies=N`` (demand-side arrival amplification for
  one tenant) — composable into one plan;
* :class:`FaultGate`, the seeded Bernoulli gate every probabilistic fault
  draws from.  Decisions hash ``(seed, tag, *key)`` with BLAKE2b — never the
  wall clock, never Python's salted ``hash()`` — so the same plan + seed
  produces byte-identical failure schedules on any host, and a faulted run
  is exactly reproducible.

The plan itself is inert: injection happens through explicit hooks the
serving layers expose (``ModelExecutor.fault_gate``,
``KVSpaceManager.pressure_gate``, ``KVPagePool.fault_gate``, the cluster's
crash/recovery schedule).  Every hook defaults to ``None`` and is a single
attribute check when unarmed, so the no-fault path costs nothing.

Fault plans compose with the ``"migration"`` registry kind
(:mod:`repro.serve.cluster`): a straggler demoting a replica to DEGRADED
triggers ``drain-on-degraded`` checkpoint migration, and a
``replica-crash`` rewinds its drained requests to the last periodic
``checkpoint:interval=S`` stash instead of recomputing from scratch —
both recovery paths stay token-identical under the same seeded plans.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Union

from repro.registry import register, resolve

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    pass


class TransientExecutorError(RuntimeError):
    """Retryable, injected executor-forward failure for one request.

    Raised *before* the model forward touches the KV cache, so the faulted
    sequence's state is exactly as it was at step entry: the engine preempts
    it (eviction-and-recompute) and retries after a deterministic backoff.
    """

    def __init__(self, request_id: str, clock: int) -> None:
        super().__init__(f"injected transient executor failure for request "
                         f"'{request_id}' at clock {clock}")
        self.request_id = request_id
        self.clock = clock


# ----------------------------------------------------------------------
# Fault descriptions (immutable, composable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaCrash:
    """Kill ``replica`` at cluster round ``at``; rejoin after ``recover_after``
    rounds with a fresh pool and an empty radix index (``None`` = never)."""

    replica: int = 0
    at: int = 0
    recover_after: int | None = None

    def __post_init__(self) -> None:
        if self.replica < 0 or self.at < 0:
            raise ValueError("replica and at must be non-negative")
        if self.recover_after is not None and self.recover_after <= 0:
            raise ValueError("recover_after must be positive (or None)")


@dataclass(frozen=True)
class Straggler:
    """Multiply ``replica``'s simulated step latency by ``slowdown`` from
    round ``at`` until round ``until`` (exclusive; ``None`` = forever).

    Only the *reported* latency (step percentiles, the cluster's parallel
    makespan) inflates — simulated progress per round is unchanged, so
    straggling never alters decoded tokens, only timing metrics and the
    health supervisor's view of the replica.
    """

    replica: int = 0
    slowdown: float = 2.0
    at: int = 0
    until: int | None = None

    def __post_init__(self) -> None:
        if self.replica < 0 or self.at < 0:
            raise ValueError("replica and at must be non-negative")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1.0")
        if self.until is not None and self.until <= self.at:
            raise ValueError("until must exceed at (or be None)")


@dataclass(frozen=True)
class TransientExec:
    """Each (request, clock) executor forward fails with probability ``rate``."""

    rate: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")


@dataclass(frozen=True)
class AllocPressure:
    """Each growing KV reservation spuriously fails with probability ``rate``."""

    rate: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")


@dataclass(frozen=True)
class ReplicaStall:
    """``replica`` only makes progress every ``period``-th cluster round
    between ``at`` and ``until`` (``replica=None`` stalls the whole fleet).

    Unlike :class:`Straggler` — which inflates *reported* latency while
    token progress per round is unchanged — a stall skips the replica's
    lockstep step entirely on non-multiple rounds, so requests pinned to it
    genuinely fall behind in the deterministic round domain.  This is what
    makes tail latency *real* for hedging: a duplicate launched on a healthy
    replica can overtake the stalled primary without any wall-clock input.
    ``sustained-overload`` is the fleet-wide spelling (``replica=None``).
    """

    replica: int | None = 0
    period: int = 2
    at: int = 0
    until: int | None = None

    def __post_init__(self) -> None:
        if self.replica is not None and self.replica < 0:
            raise ValueError("replica must be non-negative (or None for all)")
        if self.period < 2:
            raise ValueError("period must be >= 2 (1 would be a no-op)")
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.until is not None and self.until <= self.at:
            raise ValueError("until must exceed at (or be None)")

    def active(self, replica: int, clock: int) -> bool:
        return ((self.replica is None or self.replica == replica)
                and self.at <= clock
                and (self.until is None or clock < self.until))


@dataclass(frozen=True)
class TenantBurst:
    """Clone each fresh arrival of ``tenant`` ``copies`` extra times while
    the burst window ``[at, until)`` is open (at most ``limit`` clones).

    The clones are real requests — same prompt, geometry and tenant, ids
    suffixed ``~b<k>`` — injected at the cluster's routing step, so they hit
    the admission policy exactly like organic traffic and are fully counted
    in reports and the conservation sweep.  This is the demand-side fault
    the ``admission:`` kind exists to absorb.
    """

    tenant: str = "default"
    at: int = 0
    until: int | None = None
    copies: int = 1
    limit: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant must be a non-empty string")
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.until is not None and self.until <= self.at:
            raise ValueError("until must exceed at (or be None)")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        if self.limit is not None and self.limit <= 0:
            raise ValueError("limit must be positive (or None)")

    def active(self, clock: int) -> bool:
        return self.at <= clock and (self.until is None or clock < self.until)


Fault = Union[ReplicaCrash, Straggler, TransientExec, AllocPressure,
              ReplicaStall, TenantBurst]


# ----------------------------------------------------------------------
# The seeded gate
# ----------------------------------------------------------------------
class FaultGate:
    """Deterministic seeded Bernoulli gate: ``fires(*key)`` is a pure function
    of ``(seed, tag, *key)``.

    The decision hashes the key material with BLAKE2b (stable across
    processes and hosts, unlike Python's salted ``hash()``) and compares the
    64-bit digest against ``rate``; keys should include a monotonically
    advancing component (the session clock) so a faulted request redraws on
    retry instead of failing forever.
    """

    __slots__ = ("rate", "_prefix")

    def __init__(self, rate: float, seed: int, tag: str) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        self.rate = float(rate)
        self._prefix = f"{int(seed)}|{tag}|"

    def fires(self, *key) -> bool:
        if self.rate <= 0.0:
            return False
        material = (self._prefix + "|".join(str(k) for k in key)).encode()
        digest = hashlib.blake2b(material, digest_size=8).digest()
        return int.from_bytes(digest, "little") < self.rate * 2.0 ** 64


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
class FaultPlan:
    """A composed, seeded set of faults, ready to arm serving-layer hooks.

    ``faults`` accepts :class:`Fault` dataclasses, ``"fault"`` registry spec
    strings (``"transient-exec:rate=0.1"``) or other plans, flattened into
    one immutable tuple.  Independent probabilistic faults of the same kind
    compose as independent gates (``1 - prod(1 - rate)``).  The plan never
    injects by itself — :class:`~repro.serve.session.FunctionalSession` and
    :class:`~repro.serve.cluster.ClusterEngine` read it and arm their hooks.
    """

    def __init__(self, faults: "Sequence[Fault | FaultPlan | str] | Fault | FaultPlan | str" = (),
                 seed: int = 0) -> None:
        if isinstance(faults, (str, FaultPlan, ReplicaCrash, Straggler,
                               TransientExec, AllocPressure, ReplicaStall,
                               TenantBurst)):
            faults = [faults]
        flat: list[Fault] = []
        for fault in faults:
            if isinstance(fault, str):
                fault = resolve("fault", fault)
            if isinstance(fault, FaultPlan):
                flat.extend(fault.faults)
            elif isinstance(fault, (ReplicaCrash, Straggler, TransientExec,
                                    AllocPressure, ReplicaStall, TenantBurst)):
                flat.append(fault)
            else:
                raise TypeError(f"not a fault or fault spec: {fault!r}")
        self.faults: tuple[Fault, ...] = tuple(flat)
        self.seed = int(seed)

    # -- fault views -----------------------------------------------------
    @property
    def crashes(self) -> tuple[ReplicaCrash, ...]:
        return tuple(f for f in self.faults if isinstance(f, ReplicaCrash))

    def stragglers_for(self, replica: int) -> tuple[Straggler, ...]:
        return tuple(f for f in self.faults
                     if isinstance(f, Straggler) and f.replica == replica)

    def inflation(self, replica: int, clock: int) -> float:
        """Latency multiplier for ``replica`` at round ``clock`` (>= 1.0)."""
        factor = 1.0
        for straggler in self.faults:
            if (isinstance(straggler, Straggler)
                    and straggler.replica == replica
                    and straggler.at <= clock
                    and (straggler.until is None or clock < straggler.until)):
                factor *= straggler.slowdown
        return factor

    def stall_skips(self, replica: int, clock: int) -> bool:
        """True when ``replica`` must skip its lockstep step at ``clock``.

        A stalled replica still steps on rounds where ``(clock - at)`` is a
        multiple of ``period`` — progress is delayed, never denied — so runs
        with open-ended stalls still terminate.
        """
        for stall in self.faults:
            if (isinstance(stall, ReplicaStall)
                    and stall.active(replica, clock)
                    and (clock - stall.at) % stall.period != 0):
                return True
        return False

    def stall_period(self, replica: int, clock: int) -> int:
        """Largest active stall period for ``replica`` at ``clock`` (1 = none)."""
        period = 1
        for stall in self.faults:
            if isinstance(stall, ReplicaStall) and stall.active(replica, clock):
                period = max(period, stall.period)
        return period

    def slowdown(self, replica: int, clock: int) -> float:
        """Deterministic per-replica slowdown signal: the max of straggler
        latency inflation and the active stall period.  Health supervision
        and hedge triggers key off this (never wall clock) so every
        derived decision is byte-reproducible.
        """
        return max(self.inflation(replica, clock),
                   float(self.stall_period(replica, clock)))

    @property
    def bursts(self) -> tuple[TenantBurst, ...]:
        return tuple(f for f in self.faults if isinstance(f, TenantBurst))

    @staticmethod
    def _combined_rate(rates: "list[float]") -> float:
        prod = 1.0
        for rate in rates:
            prod *= 1.0 - rate
        return 1.0 - prod

    def exec_gate(self) -> FaultGate | None:
        """Gate for transient executor failures (``None`` when not armed)."""
        rates = [f.rate for f in self.faults if isinstance(f, TransientExec)]
        rate = self._combined_rate(rates)
        if rate <= 0.0:
            return None
        return FaultGate(rate, self.seed, "transient-exec")

    def alloc_gate(self) -> FaultGate | None:
        """Gate for spurious KV-reservation failures (``None`` when not armed)."""
        rates = [f.rate for f in self.faults if isinstance(f, AllocPressure)]
        rate = self._combined_rate(rates)
        if rate <= 0.0:
            return None
        return FaultGate(rate, self.seed, "alloc-pressure")

    def pool_gate(self) -> "Callable[[], bool] | None":
        """A zero-argument gate for :meth:`KVPagePool.try_alloc` hooks.

        Pool-level allocations carry no request identity, so the gate keys
        its draws by an internal call counter — deterministic given the
        (deterministic) allocation order.
        """
        gate = self.alloc_gate()
        if gate is None:
            return None
        counter = [0]

        def fire() -> bool:
            counter[0] += 1
            return gate.fires("pool-alloc", counter[0])

        return fire

    def describe(self) -> str:
        if not self.faults:
            return "fault:none"
        parts = []
        for fault in self.faults:
            if isinstance(fault, ReplicaCrash):
                recover = ("" if fault.recover_after is None
                           else f",recover_after={fault.recover_after}")
                parts.append(f"replica-crash:replica={fault.replica},"
                             f"at={fault.at}{recover}")
            elif isinstance(fault, Straggler):
                until = "" if fault.until is None else f",until={fault.until}"
                parts.append(f"straggler:replica={fault.replica},"
                             f"slowdown={fault.slowdown},at={fault.at}{until}")
            elif isinstance(fault, TransientExec):
                parts.append(f"transient-exec:rate={fault.rate}")
            elif isinstance(fault, ReplicaStall):
                until = "" if fault.until is None else f",until={fault.until}"
                if fault.replica is None:
                    parts.append(f"sustained-overload:period={fault.period},"
                                 f"at={fault.at}{until}")
                else:
                    parts.append(f"stall:replica={fault.replica},"
                                 f"period={fault.period},at={fault.at}{until}")
            elif isinstance(fault, TenantBurst):
                until = "" if fault.until is None else f",until={fault.until}"
                limit = "" if fault.limit is None else f",limit={fault.limit}"
                parts.append(f"tenant-burst:tenant={fault.tenant},"
                             f"at={fault.at},copies={fault.copies}"
                             f"{until}{limit}")
            else:
                parts.append(f"alloc-pressure:rate={fault.rate}")
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.describe()}, seed={self.seed})"


def resolve_fault_plan(faults: "FaultPlan | Fault | str | Sequence | None",
                       seed: int = 0) -> FaultPlan | None:
    """Build a :class:`FaultPlan` from any accepted form (``None`` stays None).

    An already-built plan keeps its own seed; specs/faults/sequences are
    wrapped in a fresh plan seeded with ``seed`` (the session/cluster seed),
    so ``faults="transient-exec:rate=0.1"`` is deterministic per run seed.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults
    return FaultPlan(faults, seed=seed)


# ----------------------------------------------------------------------
# The "fault" registry kind
# ----------------------------------------------------------------------
@register("fault", "replica-crash",
          description="kill one replica at a cluster round, optional rejoin "
                      "after recover_after rounds")
def _build_replica_crash(replica: int = 0, at: int = 0,
                         recover_after: int | None = None) -> FaultPlan:
    return FaultPlan([ReplicaCrash(replica=replica, at=at,
                                   recover_after=recover_after)])


@register("fault", "straggler",
          description="inflate one replica's simulated step latency by a "
                      "slowdown factor")
def _build_straggler(replica: int = 0, slowdown: float = 2.0, at: int = 0,
                     until: int | None = None) -> FaultPlan:
    return FaultPlan([Straggler(replica=replica, slowdown=float(slowdown),
                                at=at, until=until)])


@register("fault", "transient-exec",
          description="executor forwards raise a retryable "
                      "TransientExecutorError with probability rate")
def _build_transient_exec(rate: float = 0.05) -> FaultPlan:
    return FaultPlan([TransientExec(rate=float(rate))])


@register("fault", "alloc-pressure",
          description="KV reservations / pool try_alloc spuriously fail "
                      "with probability rate")
def _build_alloc_pressure(rate: float = 0.05) -> FaultPlan:
    return FaultPlan([AllocPressure(rate=float(rate))])


@register("fault", "stall",
          description="one replica only steps every period-th cluster round "
                      "— real (round-domain) tail latency, for hedging")
def _build_stall(replica: int = 0, period: int = 2, at: int = 0,
                 until: int | None = None) -> FaultPlan:
    return FaultPlan([ReplicaStall(replica=replica, period=period, at=at,
                                   until=until)])


@register("fault", "sustained-overload",
          description="the whole fleet only steps every period-th round — "
                      "drain stalls while arrivals keep queueing")
def _build_sustained_overload(period: int = 2, at: int = 0,
                              until: int | None = None) -> FaultPlan:
    return FaultPlan([ReplicaStall(replica=None, period=period, at=at,
                                   until=until)])


@register("fault", "tenant-burst",
          description="clone each fresh arrival of one tenant `copies` extra "
                      "times during [at, until) — demand-side chaos for "
                      "admission policies")
def _build_tenant_burst(tenant: str = "default", at: int = 0,
                        until: int | None = None, copies: int = 1,
                        limit: int | None = None) -> FaultPlan:
    return FaultPlan([TenantBurst(tenant=str(tenant), at=at, until=until,
                                  copies=copies, limit=limit)])


__all__ = [
    "AllocPressure",
    "Fault",
    "FaultGate",
    "FaultPlan",
    "ReplicaCrash",
    "ReplicaStall",
    "Straggler",
    "TenantBurst",
    "TransientExec",
    "TransientExecutorError",
    "resolve_fault_plan",
]
