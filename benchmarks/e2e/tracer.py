"""Outside-in span tracer: wraps public methods of live serving objects.

No file under ``src/`` is edited.  A traced run replaces public methods with
timing wrappers — as instance attributes on the live session's layers
(scheduler, KV manager, radix index, executor), on the ``DecoderLM`` and on a
cluster's router and engines, and on the *classes* of the per-token cache
objects (``KVPagePool``, ``PagedKVCache``, ``AERPCache``), which are created
too often to patch one by one.  :meth:`Tracer.restore` undoes every patch;
callers run it in a ``finally``.

The tracer tolerates refactors: a wrap target that no longer exists is
logged in :attr:`Tracer.missing`, its span is listed in
:attr:`Tracer.missing_spans` and reports ``None`` — tracing never raises
because a method was renamed or removed.

Every span stores its name, start, end, parent span and the engine step it
ran in.  A layer's *self time* is its span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from typing import Any, Callable

#: ``(args, kwargs)`` before the wrapped call, outside the span.
BeforeHook = Callable[[tuple, dict], None]
#: ``(args, kwargs, result)`` after the wrapped call, outside the span.
AfterHook = Callable[[tuple, dict, Any], None]

_ABSENT = object()


class _Missing:
    """Stands for an object the tracer looked up and did not find."""


MISSING = _Missing()

#: Span the tracer records around its own per-step sampling, so that the
#: enclosing span's self time excludes it; not a reported metric.
SAMPLE_SPAN = "trace.sample"

#: The AERP statistics walk every cache entry: sample them this rarely.
AERP_SAMPLE_EVERY = 16


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        #: ``(name, start_s, end_s, parent_index, step)`` in start order.
        self.spans: "list[tuple[str, float, float, int, int]]" = []
        #: One line per wrap target that was not found.
        self.missing: "list[str]" = []
        #: Spans whose target was not found (they report ``None``).
        self.missing_spans: "set[str]" = set()
        #: Engine step the driver (or a cluster's round clock) is at.
        self.step = -1
        #: Sums and maxima gathered by the hooks, and the step each request
        #: was first admitted at.
        self.sums: "dict[str, float]" = {}
        self.peaks: "dict[str, float]" = {}
        self.admitted_at: "dict[str, int]" = {}
        self._stack: "list[int]" = []
        self._patches: "list[tuple[Any, str, Any]]" = []

    # -- wrapping --------------------------------------------------------
    def child(self, owner: Any, attr: str, what: str) -> Any:
        """``owner.attr`` for further wrapping, or :data:`MISSING` (logged
        once, against ``what``) when the attribute is gone."""
        if owner is None or owner is MISSING:
            return owner
        value = getattr(owner, attr, MISSING)
        if value is MISSING:
            self.missing.append(f"{what}: {_describe(owner)}.{attr} not found")
        return value

    def wrap(self, owner: Any, attr: str, span: str, *,
             before: "BeforeHook | None" = None,
             after: "AfterHook | None" = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording ``span``.

        ``owner`` is an instance (the wrapper becomes an instance attribute
        shadowing the method) or a class (the wrapper becomes the method).
        ``owner=None`` means the layer is configured off for this workload
        (no prefix cache, say): the span simply has zero calls.
        """
        if owner is None:
            return
        fn = None if owner is MISSING else getattr(owner, attr, None)
        if not callable(fn):
            self.missing_spans.add(span)
            if owner is not MISSING:
                self.missing.append(
                    f"{span}: {_describe(owner)}.{attr} not found")
            return
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot: spans stay in start order
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (span, start, end, parent, self.step)
            if after is not None:
                after(args, kwargs, result)
            return result

        if not self.patch(owner, attr, wrapper):
            self.missing_spans.add(span)
            self.missing.append(
                f"{span}: cannot patch {_describe(owner)}.{attr}")

    def patch(self, owner: Any, attr: str, value: Any) -> bool:
        """Set ``owner.attr = value`` and remember how to undo it."""
        original = getattr(owner, "__dict__", {}).get(attr, _ABSENT)
        try:
            setattr(owner, attr, value)
        except (AttributeError, TypeError):  # __slots__ or a read-only type
            return False
        self._patches.append((owner, attr, original))
        return True

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- counters --------------------------------------------------------
    def add(self, key: str, amount: float = 1.0) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.peaks.get(key, float("-inf")):
            self.peaks[key] = value

    # -- results ---------------------------------------------------------
    def calls_and_self_ms(self) -> "dict[str, tuple[int, float]]":
        """``span -> (calls, self time in ms)`` over the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _step in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: "dict[str, tuple[int, float]]" = {}
        for index, (name, start, end, _parent, _step) in enumerate(self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - child_time[index])
        return {name: (calls, self_s * 1e3)
                for name, (calls, self_s) in totals.items()}

    def durations_s(self, name: str) -> "list[float]":
        return [end - start
                for span, start, end, _p, _s in self.spans if span == name]

    def covered_s(self) -> float:
        """Wall time inside top-level spans (the tracer's own sampling aside)."""
        return sum(end - start for name, start, end, parent, _s in self.spans
                   if parent < 0 and name != SAMPLE_SPAN)

    def write_jsonl(self, path: str, origin_s: float) -> None:
        """One span per line; times in microseconds from ``origin_s``."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, step) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "step": step,
                    "start_us": round((start - origin_s) * 1e6, 1),
                    "end_us": round((end - origin_s) * 1e6, 1)}) + "\n")


def _describe(owner: Any) -> str:
    return owner.__name__ if isinstance(owner, type) else type(owner).__name__


# -- instrumenting the layers ----------------------------------------------
def instrument_model(tracer: Tracer, lm: Any) -> None:
    """``llm.model``: the batched forward entry points the executor calls."""
    def prefill_batch(args, _kwargs, _result):
        tracer.add("prefill_tokens", sum(len(seq) for seq in args[0]))

    def prefill_chunk(args, _kwargs, _result):
        tracer.add("prefill_tokens", len(args[0]))

    config = lm.config
    # K and V, fp32, every head, every layer, per cached token.
    bytes_per_token = 2 * config.n_heads * config.head_dim * 4 * config.n_layers

    def decode_step_batch(args, _kwargs, _result):
        tracer.add("decode_tokens", len(args[0]))
        # Computed from shapes (layer 0's cached length after the append,
        # times the layer count) — not measured memory traffic.
        cached = sum(caches[0].num_tokens for caches in args[2])
        tracer.add("decode_kv_bytes", cached * bytes_per_token)

    tracer.wrap(lm, "prefill_batch", "model.prefill_batch", after=prefill_batch)
    tracer.wrap(lm, "prefill_chunk", "model.prefill_chunk", after=prefill_chunk)
    tracer.wrap(lm, "decode_step_batch", "model.decode_step_batch",
                after=decode_step_batch)
    tracer.wrap(lm, "verify_chunk_batch", "model.verify_chunk_batch")


#: ``(module, class, span prefix, methods)`` of the per-token cache calls.
CACHE_CLASS_TARGETS = (
    ("repro.core.kv_pool", "KVPagePool", "kv_pool",
     ("scatter_tokens", "gather_pages", "alloc")),
    ("repro.core.kv_pool", "PagedKVCache", "kv_pool",
     ("fork", "append", "fetch")),
    ("repro.core.kv_cache", "AERPCache", "kv_cache",
     ("prefill", "append", "fetch", "observe_attention", "end_step")),
)


def instrument_cache_classes(tracer: Tracer) -> None:
    """``core.kv_pool`` and ``core.kv_cache``: patched on the class for the
    duration of the traced run."""
    for module_name, class_name, layer, methods in CACHE_CLASS_TARGETS:
        try:
            cls = getattr(importlib.import_module(module_name), class_name,
                          MISSING)
        except ImportError:
            cls = MISSING
        if cls is MISSING:
            tracer.missing.append(
                f"{layer}.*: {module_name}.{class_name} not found")
        for method in methods:
            tracer.wrap(cls, method, f"{layer}.{method}")


def instrument_session(tracer: Tracer, session: Any) -> None:
    """``serve.engine`` and the three layers under one ``FunctionalSession``."""
    scheduler = tracer.child(session, "scheduler", "scheduler.*")
    kv = tracer.child(session, "kv", "kv_manager.*")
    executor = tracer.child(session, "executor", "executor.*")
    index = tracer.child(kv, "index", "radix.*")

    def admitted(_args, _kwargs, states):
        for state in states or ():
            tracer.admitted_at.setdefault(state.request_id, tracer.step)

    def reserved(_args, _kwargs, granted):
        if granted is False:
            tracer.add("reserve_failed")

    for attr in ("plan", "decode_ready", "retire_finished", "preempt"):
        tracer.wrap(scheduler, attr, f"scheduler.{attr}")
    tracer.wrap(scheduler, "admit", "scheduler.admit", after=admitted)
    for attr in ("resolve_caches", "sync", "release", "reclaim", "snapshot",
                 "check_accounting"):
        tracer.wrap(kv, attr, f"kv_manager.{attr}")
    tracer.wrap(kv, "reserve", "kv_manager.reserve", after=reserved)
    for attr in ("match", "insert", "evict_lru"):
        tracer.wrap(index, attr, f"radix.{attr}")
    for attr in ("prefill_whole", "prefill_chunks", "decode_step"):
        tracer.wrap(executor, attr, f"executor.{attr}")

    steps_taken = [0]

    def pin_clock(_args, kwargs):
        # A cluster passes its round number as `clock`; a single-node driver
        # sets tracer.step itself before each step.
        if kwargs.get("clock") is not None:
            tracer.step = kwargs["clock"]

    def read_gauges():
        steps_taken[0] += 1
        try:
            _sample(tracer, scheduler, kv, index, steps_taken[0])
        except AttributeError as err:  # a gauge's source was renamed: say so once
            note = f"gauges: {err}"
            if note not in tracer.missing:
                tracer.missing.append(note)

    # Sampling is itself a span, so the enclosing span's self time excludes it.
    sampler = types.SimpleNamespace(sample=read_gauges)
    tracer.wrap(sampler, "sample", SAMPLE_SPAN)
    tracer.wrap(session, "submit", "engine.submit")
    tracer.wrap(session, "finish", "engine.finish")
    tracer.wrap(session, "step", "engine.step", before=pin_clock,
                after=lambda _args, _kwargs, _result: sampler.sample())


def _sample(tracer: Tracer, scheduler: Any, kv: Any, index: Any,
            steps_taken: int) -> None:
    """Per-step gauges read from public attributes of the live layers."""
    running = (list(scheduler.running.values())
               if scheduler is not MISSING else [])
    if kv is MISSING:
        return
    if kv.bounded:
        used = kv.used_tokens
        tracer.peak("used_tokens", used)
        if used > 0:
            tracer.add("reserved_samples")
            tracer.add("reserved_unused",
                       1.0 - sum(s.cached_tokens for s in running) / used)
    if index is not None and index is not MISSING:
        tracer.peak("radix_entries", index.n_entries)
        tracer.peak("radix_stored_tokens", index.stored_tokens)
    factory = kv.cache_factory
    pools = getattr(factory, "pools", None)
    if pools:
        # Keyed per factory: a cluster's replicas each own one, and their
        # peaks add up to what the cluster must provision.
        pages = factory.total_pages - factory.free_pages
        tracer.peak(f"pages@{id(factory)}", pages)
        tracer.peak(f"bytes@{id(factory)}", pages * pools[0].bytes_per_page)
    if steps_taken % AERP_SAMPLE_EVERY == 0:
        for state in running:
            cache = state.caches[0] if state.caches else None
            fraction = getattr(cache, "recompute_fraction", None)
            if fraction is not None:
                tracer.add("aerp_samples")
                tracer.add("aerp_recompute_fraction", fraction)
                tracer.add("aerp_tokens_kept", cache.num_tokens)


def instrument_cluster(tracer: Tracer, cluster: Any) -> None:
    """``serve.cluster``: the run, the router, and every replica session the
    cluster opens through its engines' public ``start_functional``."""
    tracer.wrap(cluster, "run", "cluster.run")
    tracer.wrap(tracer.child(cluster, "router", "cluster.route"), "route",
                "cluster.route")
    engines = tracer.child(cluster, "engines", "cluster.replica_step")
    if engines is MISSING:
        tracer.missing_spans.add("cluster.replica_step")
        return
    for engine in engines:
        start = getattr(engine, "start_functional", None)

        def start_traced(*args, _start=start, **kwargs):
            session = _start(*args, **kwargs)
            instrument_session(tracer, session)
            # The outer span is the cluster's call into the replica; the
            # engine.step span inside it is that replica's own step.
            tracer.wrap(session, "step", "cluster.replica_step")
            return session

        if not callable(start) or not tracer.patch(
                engine, "start_functional", start_traced):
            tracer.missing_spans.add("cluster.replica_step")
            tracer.missing.append("cluster.replica_step: "
                                  "ServingEngine.start_functional not found")
