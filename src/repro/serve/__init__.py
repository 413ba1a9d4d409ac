"""Request-level serving on top of the accelerator model.

The functional serving core is split into three explicit layers, wired
together by one :class:`FunctionalSession` (:mod:`repro.serve.session`,
with its :class:`FunctionalServingReport`, :class:`FunctionalRequestResult`
and :class:`LoadSnapshot`), which the caller steps or
:meth:`ServingEngine.run_functional` drives to completion:

* :mod:`repro.serve.scheduler` -- :class:`Scheduler`, per-request
  :class:`SequenceState` lifecycle (``WAITING → PREFILL → DECODE →
  PREEMPTED → FINISHED/CANCELLED``) and the pluggable ``"policy"`` registry
  kind (:class:`FCFSPolicy`, :class:`PriorityPolicy`, :class:`SJFPolicy`)
  producing per-step :class:`ScheduleDecision` objects.
* :mod:`repro.serve.kv_manager` -- :class:`KVSpaceManager`: KV-space
  accounting over the paged pool, radix prefix reuse, and preemption by
  eviction-and-recompute when a bounded pool oversubscribes.
* :mod:`repro.serve.executor` -- :class:`ModelExecutor`: batched prefill /
  decode / speculative-verify forwards emitting per-token
  :class:`TokenEvent` streams (the ``on_token`` callback) consumed by
  streaming clients, which may cancel through
  :meth:`FunctionalSession.cancel` or :meth:`ServingEngine.cancel`.

:mod:`repro.serve.engine` hosts :class:`Request`, the analytical
:class:`ServingEngine.run` queueing model, the functional-session entry
points and the spec-driven :func:`simulate` helper;
:mod:`repro.serve.radix` holds :class:`RadixPrefixIndex`, the radix-trie
prompt-prefix index mapping shared prefixes to forked KV cache state; :mod:`repro.serve.faults` holds the
deterministic chaos harness — the ``"fault"`` registry kind,
:class:`FaultPlan`/:class:`FaultGate` and the retryable
:class:`TransientExecutorError` — consumed by the engine's and cluster's
fault-injection hooks and health supervision (:class:`ReplicaHealth`);
:mod:`repro.serve.admission` holds the ``"admission"`` registry kind
(per-tenant token buckets, weighted-fair queueing) and
:mod:`repro.serve.overload` the brownout ladder, per-replica circuit
breakers and hedged-request policy the cluster's overload control composes.
"""

from repro.serve.admission import (
    AdmissionContext,
    AdmissionDecision,
    AdmissionPolicy,
    CompositeAdmission,
    KVPressureAdmission,
    TokenBucketAdmission,
    WeightedFairAdmission,
    resolve_admission,
)
from repro.serve.overload import (
    BreakerConfig,
    BreakerState,
    BrownoutConfig,
    BrownoutLadder,
    CircuitBreaker,
    HedgePolicy,
    resolve_breaker,
    resolve_brownout,
    resolve_hedge,
)
from repro.serve.cluster import (
    ClusterEngine,
    ClusterReport,
    LeastLoadedRouter,
    MigrationPolicy,
    PrefixDigest,
    RadixAffinityRouter,
    ReplicaHealth,
    ReplicaView,
    RoundRobinRouter,
    Router,
    resolve_migration,
    resolve_router,
)
from repro.serve.faults import (
    AllocPressure,
    FaultGate,
    FaultPlan,
    ReplicaCrash,
    Straggler,
    TransientExec,
    TransientExecutorError,
    resolve_fault_plan,
)
from repro.serve.engine import (
    Request,
    RequestResult,
    ServingEngine,
    ServingReport,
    poisson_requests,
    simulate,
)
from repro.serve.session import (
    FunctionalRequestResult,
    FunctionalServingReport,
    FunctionalSession,
    LoadSnapshot,
)
from repro.serve.executor import ModelExecutor, StepOutcome, TokenEvent
from repro.serve.kv_manager import KVSpaceManager, RequestCheckpoint
from repro.serve.radix import PrefixEntry, RadixPrefixIndex
from repro.serve.scheduler import (
    FCFSPolicy,
    PriorityPolicy,
    RequestPhase,
    SJFPolicy,
    ScheduleDecision,
    SchedulingPolicy,
    Scheduler,
    SequenceState,
    resolve_policy,
)

__all__ = [
    "AdmissionContext",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AllocPressure",
    "BreakerConfig",
    "BreakerState",
    "BrownoutConfig",
    "BrownoutLadder",
    "CircuitBreaker",
    "ClusterEngine",
    "ClusterReport",
    "CompositeAdmission",
    "FCFSPolicy",
    "FaultGate",
    "FaultPlan",
    "FunctionalRequestResult",
    "FunctionalServingReport",
    "FunctionalSession",
    "HedgePolicy",
    "KVPressureAdmission",
    "KVSpaceManager",
    "LeastLoadedRouter",
    "LoadSnapshot",
    "MigrationPolicy",
    "ModelExecutor",
    "PrefixDigest",
    "PrefixEntry",
    "PriorityPolicy",
    "RadixAffinityRouter",
    "RadixPrefixIndex",
    "ReplicaCrash",
    "ReplicaHealth",
    "ReplicaView",
    "Request",
    "RequestCheckpoint",
    "RequestPhase",
    "RequestResult",
    "RoundRobinRouter",
    "Router",
    "SJFPolicy",
    "ScheduleDecision",
    "SchedulingPolicy",
    "Scheduler",
    "SequenceState",
    "ServingEngine",
    "ServingReport",
    "StepOutcome",
    "Straggler",
    "TokenBucketAdmission",
    "TokenEvent",
    "TransientExec",
    "TransientExecutorError",
    "WeightedFairAdmission",
    "poisson_requests",
    "resolve_admission",
    "resolve_breaker",
    "resolve_brownout",
    "resolve_fault_plan",
    "resolve_hedge",
    "resolve_migration",
    "resolve_policy",
    "resolve_router",
    "simulate",
]
