"""Multi-request serving engine on top of the :class:`EdgeSystem` simulator.

The seed reproduction evaluates one workload trace at a time (one prompt
length, one decode length, one batch).  Real edge serving is a *stream* of
requests arriving over time -- a multi-tenant traffic scenario the paper's
north star calls for.  :class:`ServingEngine` closes that gap:

* a :class:`Request` describes one serving job (arrival time, prompt length,
  decode length, priority class);
* the engine composes a model config, an :class:`EdgeSystem` (both resolvable
  from registry spec strings) and a *continuous-batching admission* model:
  the accelerator runs up to ``max_concurrency`` sequences at once (the
  running batch), and a waiting request is admitted the moment a running
  sequence completes -- sequences join and leave the batch at request
  boundaries, which is exactly the continuous-batching discipline at request
  granularity;
* each admitted request's service latency and energy come from the underlying
  single-request :meth:`EdgeSystem.simulate` call for its geometry, so
  per-request accounting matches the dedicated-system simulation exactly
  while the queueing model adds the admission delays on top.

:meth:`ServingEngine.run_functional` drives the same admission discipline at
token granularity against a real :class:`~repro.llm.model.DecoderLM`: it
opens a :class:`~repro.serve.session.FunctionalSession` (see
:mod:`repro.serve.session`), which wires the scheduler, KV manager and
executor, and drives it to completion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.accelerator.accelerator import EdgeSystem, SimulationResult
from repro.accelerator.energy import EnergyBreakdown
from repro.llm.config import ModelConfig
from repro.registry import resolve
from repro.serve.session import (
    FunctionalServingReport,
    FunctionalSession,
    LoadSnapshot,
    _percentiles_from_sorted,
)
from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.llm.model import DecoderLM
    from repro.workloads.generator import WorkloadTrace


@dataclass(frozen=True)
class Request:
    """One serving request: arrival time plus prompt/decode geometry.

    ``prompt_tokens`` optionally pins the actual prompt contents (the
    shared-prefix and multi-turn workload generators use this so requests
    really share token prefixes); when None the functional engine
    synthesises a random prompt of ``prompt_len`` tokens.  ``priority`` is
    the traffic class consumed by the ``"priority"`` scheduling policy
    (0 is the most important; FCFS ignores it).

    ``deadline_steps`` bounds how many session steps the request may spend
    live after (re)submission before it is expired to ``status="timeout"``
    (``None`` = no deadline); ``max_retries`` caps how many injected
    transient executor failures are retried before the request is given up
    as ``status="failed"``.  Both are step-based, never wall-clock, so
    timeout behaviour is deterministic.

    ``tenant`` names the paying traffic source the request belongs to; the
    cluster's ``admission:`` policies (token buckets, weighted-fair shares)
    and the per-tenant goodput breakdown in :class:`ClusterReport` key off
    it.  Distinct from ``priority``: tenant is *who*, priority is *how
    urgent within the batch*.
    """

    request_id: str
    arrival_time_s: float
    prompt_len: int
    decode_len: int
    prompt_tokens: tuple[int, ...] | None = None
    priority: int = 0
    deadline_steps: int | None = None
    max_retries: int = 8
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.arrival_time_s < 0:
            raise ValueError("arrival_time_s must be non-negative")
        if self.prompt_len <= 0 or self.decode_len <= 0:
            raise ValueError("prompt_len and decode_len must be positive")
        if self.priority < 0:
            raise ValueError("priority must be non-negative (0 is most important)")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if self.deadline_steps is not None and self.deadline_steps <= 0:
            raise ValueError("deadline_steps must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.prompt_tokens is not None:
            object.__setattr__(self, "prompt_tokens",
                               tuple(int(t) for t in self.prompt_tokens))
            if len(self.prompt_tokens) != self.prompt_len:
                raise ValueError(
                    f"prompt_tokens has {len(self.prompt_tokens)} tokens but "
                    f"prompt_len={self.prompt_len}")

    @property
    def arrival_time(self) -> float:
        """Alias for :attr:`arrival_time_s` (scheduler-policy naming)."""
        return self.arrival_time_s

    @property
    def tokens_generated(self) -> int:
        return self.decode_len

    def trace(self) -> "WorkloadTrace":
        """The single-sequence hardware trace equivalent to this request."""
        # Imported here (not at module level) to keep repro.serve and
        # repro.workloads free of an import cycle.
        from repro.workloads.generator import WorkloadTrace

        return WorkloadTrace(name=f"req-{self.request_id}", context_len=self.prompt_len,
                             decode_len=self.decode_len, batch_size=1)


def poisson_requests(n_requests: int, rate_rps: float, prompt_len: int = 512,
                     decode_len: int = 512, length_jitter: float = 0.5,
                     seed: int = 0) -> list[Request]:
    """A synthetic Poisson arrival trace with uniform length jitter.

    ``length_jitter`` is the +/- spread applied multiplicatively to both the
    prompt and decode lengths (0 disables it), giving the mixed-length traffic
    a production serving queue sees.
    """
    if n_requests <= 0:
        raise ValueError("n_requests must be positive")
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if not 0.0 <= length_jitter < 1.0:
        raise ValueError("length_jitter must lie in [0, 1)")
    rng = derive_rng(seed, "poisson-requests")
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=n_requests))
    requests = []
    for index, arrival in enumerate(arrivals):
        if length_jitter > 0:
            low, high = 1.0 - length_jitter, 1.0 + length_jitter
            prompt = max(1, int(round(prompt_len * rng.uniform(low, high))))
            decode = max(1, int(round(decode_len * rng.uniform(low, high))))
        else:
            prompt, decode = prompt_len, decode_len
        requests.append(Request(request_id=str(index), arrival_time_s=float(arrival),
                                prompt_len=prompt, decode_len=decode))
    return requests


@dataclass
class RequestResult:
    """Per-request serving outcome: admission, completion, latency and energy."""

    request: Request
    admitted_at_s: float
    finished_at_s: float
    prefill_latency_s: float
    decode_latency_s: float
    energy: EnergyBreakdown

    @property
    def queue_delay_s(self) -> float:
        return self.admitted_at_s - self.request.arrival_time_s

    @property
    def service_latency_s(self) -> float:
        return self.prefill_latency_s + self.decode_latency_s

    @property
    def total_latency_s(self) -> float:
        return self.finished_at_s - self.request.arrival_time_s

    @property
    def energy_j(self) -> float:
        return self.energy.total

    @property
    def tokens_generated(self) -> int:
        return self.request.decode_len

    @property
    def latency_per_token_s(self) -> float:
        return self.total_latency_s / self.tokens_generated

    @property
    def energy_per_token_j(self) -> float:
        return self.energy_j / self.tokens_generated


@dataclass
class ServingReport:
    """Aggregate outcome of one :meth:`ServingEngine.run` call."""

    system_name: str
    model_name: str
    max_concurrency: int
    results: list[RequestResult] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.results)

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion."""
        if not self.results:
            return 0.0
        start = min(r.request.arrival_time_s for r in self.results)
        end = max(r.finished_at_s for r in self.results)
        return end - start

    @property
    def total_tokens(self) -> int:
        return sum(r.tokens_generated for r in self.results)

    @property
    def total_energy_j(self) -> float:
        return sum(r.energy_j for r in self.results)

    @property
    def energy(self) -> EnergyBreakdown:
        merged = EnergyBreakdown()
        for result in self.results:
            merged = merged.merge(result.energy)
        return merged

    @property
    def throughput_tokens_per_s(self) -> float:
        makespan = self.makespan_s
        if makespan == 0:
            return 0.0
        return self.total_tokens / makespan

    @property
    def mean_queue_delay_s(self) -> float:
        if not self.results:
            return 0.0
        return float(np.mean([r.queue_delay_s for r in self.results]))

    def latency_percentile_s(self, percentile: float) -> float:
        """Total-latency percentile across requests (e.g. 95 for p95)."""
        if not self.results:
            return 0.0
        return float(np.percentile([r.total_latency_s for r in self.results], percentile))

    @property
    def peak_concurrency(self) -> int:
        """Maximum number of simultaneously running requests."""
        events: list[tuple[float, int]] = []
        for result in self.results:
            events.append((result.admitted_at_s, 1))
            events.append((result.finished_at_s, -1))
        events.sort(key=lambda item: (item[0], item[1]))
        level = peak = 0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        return peak

    def summary(self) -> str:
        """Human-readable multi-line summary of the run."""
        # One sort serves every latency statistic (mean and all percentiles).
        latencies = np.sort([r.total_latency_s for r in self.results])
        mean_latency = float(latencies.mean()) if latencies.size else 0.0
        (p95,) = _percentiles_from_sorted(latencies, (95,))
        lines = [
            f"ServingEngine report: {self.n_requests} requests on {self.system_name} "
            f"serving {self.model_name} (<= {self.max_concurrency} concurrent)",
            f"  makespan           {self.makespan_s:12.2f} s",
            f"  throughput         {self.throughput_tokens_per_s:12.1f} tok/s",
            f"  mean latency       {mean_latency:12.2f} s "
            f"(p95 {p95:.2f} s)",
            f"  mean queue delay   {self.mean_queue_delay_s:12.2f} s",
            f"  peak concurrency   {self.peak_concurrency:12d}",
            f"  total energy       {self.total_energy_j / 1e3:12.2f} kJ "
            f"({self.total_energy_j / max(self.total_tokens, 1) * 1e3:.2f} mJ/token)",
        ]
        return "\n".join(lines)




class ServingEngine:
    """Continuous-batching request-level serving simulator.

    ``system`` and ``model`` accept either built objects or registry spec
    strings (``"kelle+edram:kv_budget=1024"``, ``"llama2-7b"``).  The engine
    admits queued requests into at most ``max_concurrency`` running sequences;
    each sequence's service time and energy are the underlying single-request
    :meth:`EdgeSystem.simulate` results for its geometry.
    """

    def __init__(self, system: EdgeSystem | str = "kelle+edram",
                 model: ModelConfig | str = "llama2-7b",
                 max_concurrency: int = 8) -> None:
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        self.system: EdgeSystem = resolve("system", system)
        self.model: ModelConfig = resolve("model", model)
        self.max_concurrency = max_concurrency
        self._service_cache: dict[tuple[int, int], SimulationResult] = {}
        self._session: "FunctionalSession | None" = None

    # ------------------------------------------------------------------
    def service_simulation(self, request: Request) -> SimulationResult:
        """The dedicated single-request simulation for one geometry (memoised)."""
        key = (request.prompt_len, request.decode_len)
        if key not in self._service_cache:
            self._service_cache[key] = self.system.simulate(self.model, request.trace())
        return self._service_cache[key]

    def run(self, requests: list[Request]) -> ServingReport:
        """Serve ``requests`` and return the per-request/aggregate report."""
        if not requests:
            raise ValueError("requests must be non-empty")
        seen: set[str] = set()
        for request in requests:
            if request.request_id in seen:
                raise ValueError(f"duplicate request_id '{request.request_id}'")
            seen.add(request.request_id)
        ordered = sorted(requests, key=lambda r: (r.arrival_time_s, r.request_id))
        # One heap entry per continuous-batching slot: the time it frees up.
        slots = [0.0] * self.max_concurrency
        heapq.heapify(slots)
        report = ServingReport(system_name=self.system.name, model_name=self.model.name,
                               max_concurrency=self.max_concurrency)
        for request in ordered:
            free_at = heapq.heappop(slots)
            admitted = max(request.arrival_time_s, free_at)
            sim = self.service_simulation(request)
            finished = admitted + sim.total_latency_s
            heapq.heappush(slots, finished)
            report.results.append(RequestResult(
                request=request,
                admitted_at_s=admitted,
                finished_at_s=finished,
                prefill_latency_s=sim.prefill.latency_s,
                decode_latency_s=sim.decode.latency_s,
                energy=sim.prefill.energy.merge(sim.decode.energy),
            ))
        report.results.sort(key=lambda r: (r.request.arrival_time_s, r.request.request_id))
        return report

    # ------------------------------------------------------------------
    def run_functional(self, lm: "DecoderLM", requests: list[Request],
                       *args, **options) -> FunctionalServingReport:
        """Serve ``requests`` by *actually decoding tokens* with batched forwards.

        Exactly a :class:`~repro.serve.session.FunctionalSession` driven to
        completion: ``submit(requests); while step(): pass; finish()``.
        ``args`` and ``options`` are the session's, documented on
        :class:`~repro.serve.session.FunctionalSession`.
        """
        session = self.start_functional(lm, *args, **options)
        session.submit(requests)
        while session.step():
            pass
        return session.finish()

    def start_functional(self, lm: "DecoderLM", *args,
                         **options) -> FunctionalSession:
        """Open a step-at-a-time functional serving session.

        Same arguments as :meth:`run_functional`, but the caller drives the
        loop (the cluster layer drives many replicas in lockstep rounds).
        The new session becomes the one :meth:`cancel` and
        :meth:`load_snapshot` address.
        """
        self._session = FunctionalSession(lm, self.max_concurrency, *args,
                                          **options)
        return self._session

    def cancel(self, request_id: str) -> None:
        """Cancel one in-flight request of the active functional session.

        Delegates to :meth:`FunctionalSession.cancel`; before any session is
        open the flag is dropped.
        """
        if self._session is not None:
            self._session.cancel(request_id)

    def load_snapshot(self) -> LoadSnapshot:
        """Queue/batch/token-pressure snapshot of the active functional session.

        The cheap introspection surface cluster routers consume — an idle
        snapshot (all zeros, unbounded pool) when no session is running.
        """
        if self._session is None:
            return LoadSnapshot(n_queued=0, n_running=0, inflight_tokens=0)
        return self._session.load_snapshot()


def simulate(system: EdgeSystem | str = "kelle+edram", model: ModelConfig | str = "llama2-7b",
             trace: WorkloadTrace | str = "pg19") -> SimulationResult:
    """One-shot spec-driven simulation: ``simulate("kelle+edram", "llama2-7b", "pg19")``.

    Every argument accepts a registry spec string or an already-built object,
    so the whole design space is addressable without touching any factory.
    """
    return resolve("system", system).simulate(resolve("model", model), resolve("trace", trace))
