"""Per-tenant admission control: the ``"admission"`` registry kind.

The demand-side counterpart of the fault-handling layers: an
:class:`AdmissionPolicy` sees every arrival *before* it is routed and
returns one of three explicit decisions:

* **ADMIT** — route to a replica now;
* **DEFER** — keep the request in the cluster's deferred queue and re-offer
  it next round (backpressure without loss: a token bucket that will refill,
  a fair queue whose turn is coming);
* **SHED** — terminate it right now with ``status="shed"`` (the explicit
  give-up: the bucket can never fit it, or it has waited past ``max_wait``).

Built-in policies:

* ``none`` — admit everything (the no-admission baseline);
* ``kv-pressure:threshold=X`` — shed when the cluster-wide projected KV
  footprint (live + candidate) would exceed ``X`` times the summed pool
  capacity;
* ``token-bucket:rate=R,burst=B,max_wait=W,weights=t0=4;t1=2`` — one token
  bucket per tenant, refilled ``R * weight`` KV tokens per round up to
  ``B * weight``; a request costs its full footprint (prompt + decode
  tokens).  Can't pay now → DEFER while the bucket could ever cover it,
  SHED once it waited ``max_wait`` rounds (or could never fit);
* ``weighted-fair:quantum=Q,weights=...`` — stride (virtual-time) scheduling
  across tenants: per round at most ``Q`` admissions, granted to the tenant
  with the lowest virtual time, which advances by ``cost / weight`` per
  grant — long-run KV-token shares proportional to the weights, with an
  optional ``threshold`` KV-pressure gate and ``max_wait`` shedding.

Specs compose like migration specs do —
``admission=["token-bucket:rate=64", "kv-pressure:threshold=0.9"]`` — with
the severest decision winning (SHED > DEFER > ADMIT).

Every decision is a pure function of the round clock, the replica views and
the policy's own counters — no wall clock, no RNG — so admission outcomes
are byte-reproducible run to run, like everything else in the chaos
harness.  Weights are spelled ``weights=t0=4;t1=2`` (``;``-separated inside
the spec-string value; :func:`~repro.registry.parse_spec` splits params on
the *first* ``=`` only, so the value survives intact).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.registry import register, resolve

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.serve.engine import Request


class AdmissionDecision(Enum):
    """One arrival's fate this round (ordered by severity)."""

    ADMIT = "admit"
    DEFER = "defer"
    SHED = "shed"


#: Severity order for composing policies: the worst decision wins.
_SEVERITY = {AdmissionDecision.ADMIT: 0, AdmissionDecision.DEFER: 1,
             AdmissionDecision.SHED: 2}


@dataclass(frozen=True)
class AdmissionContext:
    """What a policy may see when deciding one arrival.

    ``projected_kv_tokens`` / ``capacity_tokens`` summarise the alive
    replicas' load (``capacity_tokens`` is ``None`` when any replica is
    unbounded — such a cluster can always absorb more);  ``waited`` is how
    many rounds this candidate has already been deferred (0 for a fresh
    arrival).  Rebuilt per candidate, so earlier admissions in the same
    round are reflected in the pressure a later candidate sees.
    """

    clock: int
    projected_kv_tokens: int = 0
    capacity_tokens: int | None = None
    n_live: int = 0
    waited: int = 0


def parse_weights(weights: "str | Mapping[str, float] | None") -> dict[str, float]:
    """Parse per-tenant weights (``"t0=4;t1=2"`` or a mapping) into a dict."""
    if weights is None or weights == "":
        return {}
    if isinstance(weights, Mapping):
        parsed = {str(k): float(v) for k, v in weights.items()}
    else:
        parsed = {}
        for item in str(weights).split(";"):
            item = item.strip()
            if not item:
                continue
            tenant, sep, value = item.partition("=")
            if not sep or not tenant:
                raise ValueError(f"bad tenant weight {item!r} "
                                 f"(expected 'tenant=weight;...')")
            parsed[tenant] = float(value)
    for tenant, weight in parsed.items():
        if weight <= 0:
            raise ValueError(f"weight for tenant '{tenant}' must be positive")
    return parsed


def _weights_spec(weights: dict[str, float]) -> str:
    return ";".join(f"{t}={w:g}" for t, w in sorted(weights.items()))


class AdmissionPolicy(abc.ABC):
    """Admission policy: decide admit/defer/shed for each arrival.

    The cluster calls :meth:`begin_round` once per round with every
    candidate (deferred requests first, then fresh arrivals), then
    :meth:`decide` per candidate in that order with a freshly-built
    context.  Policies that rank candidates against each other
    (weighted-fair) plan their grants in :meth:`begin_round`; per-request
    policies just implement :meth:`decide`.
    """

    name: str = "admission"

    def begin_round(self, candidates: "Sequence[Request]",
                    ctx: AdmissionContext) -> None:
        """Observe the round's full candidate list (default: nothing)."""

    @abc.abstractmethod
    def decide(self, request: "Request",
               ctx: AdmissionContext) -> AdmissionDecision:
        """This arrival's fate at ``ctx.clock``."""

    def describe(self) -> str:
        return self.name


class AdmitAll(AdmissionPolicy):
    """Admit every arrival (the no-admission baseline)."""

    name = "none"

    def decide(self, request: "Request",
               ctx: AdmissionContext) -> AdmissionDecision:
        return AdmissionDecision.ADMIT


class KVPressureAdmission(AdmissionPolicy):
    """Shed when projected cluster KV would exceed ``threshold`` * capacity.

    The candidate's peak footprint (prompt + decode tokens) plus every live
    request's, over the alive replicas' summed pool capacity.  Never
    defers; clusters with any unbounded replica never shed.
    """

    name = "kv-pressure"

    def __init__(self, threshold: float = 0.85) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = float(threshold)

    def decide(self, request: "Request",
               ctx: AdmissionContext) -> AdmissionDecision:
        if ctx.capacity_tokens is None:
            return AdmissionDecision.ADMIT
        projected = (ctx.projected_kv_tokens + request.prompt_len
                     + request.decode_len)
        if projected > self.threshold * ctx.capacity_tokens:
            return AdmissionDecision.SHED
        return AdmissionDecision.ADMIT

    def describe(self) -> str:
        return f"kv-pressure:threshold={self.threshold:g}"


class TokenBucketAdmission(AdmissionPolicy):
    """Per-tenant token buckets over KV-token cost.

    Tenant ``t``'s bucket holds up to ``burst * weight(t)`` tokens and
    refills ``rate * weight(t)`` per round (lazily, from the round delta).
    A request costs its full KV footprint (prompt + decode tokens):
    affordable → ADMIT (and the bucket pays), otherwise DEFER — the bucket
    is refilling — until the request has waited ``max_wait`` rounds (then
    SHED), or immediately SHED when the cost exceeds the bucket's burst
    ceiling and no amount of waiting could ever cover it.
    """

    name = "token-bucket"

    def __init__(self, rate: float = 32.0, burst: float = 256.0,
                 max_wait: int | None = None,
                 weights: "str | Mapping[str, float] | None" = None) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        if max_wait is not None and max_wait <= 0:
            raise ValueError("max_wait must be positive (or None)")
        self.rate = float(rate)
        self.burst = float(burst)
        self.max_wait = max_wait
        self.weights = parse_weights(weights)
        self._level: dict[str, float] = {}
        self._refilled: dict[str, int] = {}

    def weight(self, tenant: str) -> float:
        return self.weights.get(tenant, 1.0)

    def _refill(self, tenant: str, clock: int) -> float:
        weight = self.weight(tenant)
        ceiling = self.burst * weight
        if tenant not in self._level:  # first sight: a full bucket
            self._level[tenant] = ceiling
            self._refilled[tenant] = clock
        elapsed = clock - self._refilled[tenant]
        if elapsed > 0:
            self._level[tenant] = min(
                ceiling, self._level[tenant] + self.rate * weight * elapsed)
            self._refilled[tenant] = clock
        return self._level[tenant]

    def decide(self, request: "Request",
               ctx: AdmissionContext) -> AdmissionDecision:
        tenant = request.tenant
        cost = float(request.prompt_len + request.decode_len)
        level = self._refill(tenant, ctx.clock)
        if cost <= level:
            self._level[tenant] = level - cost
            return AdmissionDecision.ADMIT
        if cost > self.burst * self.weight(tenant):
            return AdmissionDecision.SHED  # could never fit, even full
        if self.max_wait is not None and ctx.waited >= self.max_wait:
            return AdmissionDecision.SHED
        return AdmissionDecision.DEFER

    def describe(self) -> str:
        parts = [f"token-bucket:rate={self.rate:g},burst={self.burst:g}"]
        if self.max_wait is not None:
            parts.append(f"max_wait={self.max_wait}")
        if self.weights:
            parts.append(f"weights={_weights_spec(self.weights)}")
        return ",".join(parts)


class WeightedFairAdmission(AdmissionPolicy):
    """Stride (virtual-time) weighted-fair admission across tenants.

    Per round at most ``quantum`` candidates are granted.  Grants go to the
    queued candidate whose tenant has the lowest virtual time; a grant
    advances that tenant's virtual time by ``cost / weight``, so long-run
    admitted KV-token shares converge to the weight ratios while an idle
    tenant's next request is served promptly (its virtual time is lifted to
    the global floor, the classic start-time rule).  An optional
    ``threshold`` adds the KV-pressure gate on top; ``max_wait`` bounds how
    long a candidate may sit deferred before it is shed.
    """

    name = "weighted-fair"

    def __init__(self, quantum: int = 4,
                 weights: "str | Mapping[str, float] | None" = None,
                 max_wait: int | None = None,
                 threshold: float | None = None) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        if max_wait is not None and max_wait <= 0:
            raise ValueError("max_wait must be positive (or None)")
        if threshold is not None and threshold <= 0:
            raise ValueError("threshold must be positive (or None)")
        self.quantum = quantum
        self.weights = parse_weights(weights)
        self.max_wait = max_wait
        self.threshold = threshold
        self._vtime: dict[str, float] = {}
        self._granted: set[str] = set()

    def weight(self, tenant: str) -> float:
        return self.weights.get(tenant, 1.0)

    def begin_round(self, candidates: "Sequence[Request]",
                    ctx: AdmissionContext) -> None:
        """Pick this round's grants by lowest tenant virtual time."""
        self._granted = set()
        queues: dict[str, list] = {}
        for request in candidates:
            queues.setdefault(request.tenant, []).append(request)
        floor = min(self._vtime.values(), default=0.0)
        for tenant in queues:
            # Lift idle/new tenants to the floor so they can't bank credit.
            self._vtime[tenant] = max(self._vtime.get(tenant, floor), floor)
        for _ in range(min(self.quantum, len(candidates))):
            ready = [t for t, q in queues.items() if q]
            if not ready:
                break
            tenant = min(ready, key=lambda t: (self._vtime[t], t))
            request = queues[tenant].pop(0)
            cost = float(request.prompt_len + request.decode_len)
            self._vtime[tenant] += cost / self.weight(tenant)
            self._granted.add(request.request_id)

    def decide(self, request: "Request",
               ctx: AdmissionContext) -> AdmissionDecision:
        if request.request_id in self._granted:
            if self.threshold is not None and ctx.capacity_tokens is not None:
                projected = (ctx.projected_kv_tokens + request.prompt_len
                             + request.decode_len)
                if projected > self.threshold * ctx.capacity_tokens:
                    # Granted a turn but the KV can't hold it yet: wait.
                    return (AdmissionDecision.SHED
                            if (self.max_wait is not None
                                and ctx.waited >= self.max_wait)
                            else AdmissionDecision.DEFER)
            return AdmissionDecision.ADMIT
        if self.max_wait is not None and ctx.waited >= self.max_wait:
            return AdmissionDecision.SHED
        return AdmissionDecision.DEFER

    def describe(self) -> str:
        parts = [f"weighted-fair:quantum={self.quantum}"]
        if self.threshold is not None:
            parts.append(f"threshold={self.threshold:g}")
        if self.max_wait is not None:
            parts.append(f"max_wait={self.max_wait}")
        if self.weights:
            parts.append(f"weights={_weights_spec(self.weights)}")
        return ",".join(parts)


class CompositeAdmission(AdmissionPolicy):
    """Compose policies; the severest decision wins (SHED > DEFER > ADMIT)."""

    name = "composite"

    def __init__(self, policies: "Sequence[AdmissionPolicy]") -> None:
        if not policies:
            raise ValueError("composite admission needs at least one policy")
        self.policies = list(policies)

    def begin_round(self, candidates: "Sequence[Request]",
                    ctx: AdmissionContext) -> None:
        for policy in self.policies:
            policy.begin_round(candidates, ctx)

    def decide(self, request: "Request",
               ctx: AdmissionContext) -> AdmissionDecision:
        worst = AdmissionDecision.ADMIT
        for policy in self.policies:
            decision = policy.decide(request, ctx)
            if _SEVERITY[decision] > _SEVERITY[worst]:
                worst = decision
        return worst

    def describe(self) -> str:
        return " + ".join(p.describe() for p in self.policies)


# ----------------------------------------------------------------------
# Registry wiring
# ----------------------------------------------------------------------
@register("admission", "none", "admit-all",
          description="admit every arrival (no admission control)")
def _build_admit_all() -> AdmissionPolicy:
    return AdmitAll()


@register("admission", "kv-pressure",
          description="shed when projected cluster KV exceeds threshold * capacity")
def _build_kv_pressure(threshold: float = 0.85) -> AdmissionPolicy:
    return KVPressureAdmission(threshold=float(threshold))


@register("admission", "token-bucket",
          description="per-tenant token buckets over KV-token cost; "
                      "defer while refilling, shed past max_wait")
def _build_token_bucket(rate: float = 32.0, burst: float = 256.0,
                        max_wait: int | None = None,
                        weights: str | None = None) -> AdmissionPolicy:
    return TokenBucketAdmission(rate=float(rate), burst=float(burst),
                                max_wait=max_wait, weights=weights)


@register("admission", "weighted-fair",
          description="stride scheduling across tenants: quantum grants per "
                      "round by lowest virtual time, weighted KV shares")
def _build_weighted_fair(quantum: int = 4, weights: str | None = None,
                         max_wait: int | None = None,
                         threshold: float | None = None) -> AdmissionPolicy:
    return WeightedFairAdmission(quantum=quantum, weights=weights,
                                 max_wait=max_wait, threshold=threshold)


def resolve_admission(
        admission: "AdmissionPolicy | str | Sequence | None",
) -> AdmissionPolicy | None:
    """Build an admission policy from any accepted form.

    ``None`` disables admission control entirely (zero per-arrival
    overhead).  A sequence composes its members with
    severest-decision-wins.
    """
    if admission is None or isinstance(admission, AdmissionPolicy):
        return admission
    if isinstance(admission, (list, tuple)):
        parts = [resolve_admission(spec) for spec in admission]
        parts = [p for p in parts if p is not None]
        return (CompositeAdmission(parts) if len(parts) > 1
                else parts[0] if parts else None)
    return resolve("admission", admission)


__all__ = [
    "AdmissionContext",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmitAll",
    "CompositeAdmission",
    "KVPressureAdmission",
    "TokenBucketAdmission",
    "WeightedFairAdmission",
    "parse_weights",
    "resolve_admission",
]
