"""Interpreter calls per generated token on two serving paths (exact).

Every speed-up on these paths has been Python/NumPy call amortisation, and a
call count — unlike wall time on a shared host — repeats to the digit.  Each
test rebuilds the first quarter of one ``benchmarks/e2e`` workload inline and
counts ``sys.setprofile`` ``call`` + ``c_call`` events per generated token
over a whole serving pass (the second pass of one process, so imports and
workspace growth are behind it; the same on every run).

**The AERP decode path** (``kelle-decode``): 8 requests, 160-token prompts
over the 128-slot budget, 64 decode steps, the 4-layer d=64 model,
``max_concurrency=16`` — submit, batched prefill, 63 decode steps, release.

* per-cache AERP pools (before the cross-sequence arena): 323.5 here; 334.9
  through the benchmark harness, whose token callback adds ~5 calls per
  token and which counts a cold process (310.5 on the full 32 requests);
* per-layer ``AERPArena`` group steps: 141.9 (97.2 on the full 32 requests,
  where a group holds 16 sequences instead of 8).

The bound sits between the two: one more interpreter call per cache per
layer-step costs 4 per token, so it takes seven of those — or a return to
per-cache ``append`` / ``fetch`` / ``observe_attention`` (about 180) — to trip
it.

**The paged control plane** (``small-requests``): 400 requests arriving 16
per engine step, 36-token prompts drawn Zipf-like from 1500 templates,
3-token decodes, ``token_budget=512``, a radix index of 16384 tokens over a
``paged:page_tokens=16`` pool bounded at ``capacity_tokens=32768`` — so
radix match-and-fork, snapshot forks, page allocation, CoW, release and
``check_accounting`` are amortised over 3 tokens per request.

* page accounting per layer (a pool, a page list, refcounts and a mirror in
  each of the 4 layers; every fork / alloc / CoW / release / gather / flush
  once per layer): 269.4;
* one page table per sequence over one pool with an arena per layer (each
  of those once per sequence, gathers and flushes one copy per page for all
  layers): 192.7.

The bound sits between the two: the per-layer bookkeeping saved is ~230
calls per request (~76 per generated token), so a return of half of it
trips the bound.
"""

from __future__ import annotations

import gc
import sys

import numpy as np

from repro.core.kv_pool import KVPagePool, PagedCacheFactory, PagedKVCache
from repro.llm import DecoderLM, tiny_config
from repro.serve import Request, ServingEngine

CACHE = "kelle:budget=128,sink_tokens=8,recent_window=32,refresh=none"
N_REQUESTS, PROMPT_LEN, DECODE_LEN, VOCAB = 8, 160, 64, 128
MAX_CALLS_PER_TOKEN = 170

SMALL_TEMPLATES, SMALL_PROMPT_LEN, SMALL_DECODE_LEN = 1500, 36, 3
SMALL_REQUESTS, SMALL_PER_STEP = 400, 16
SMALL_ENGINE = dict(cache="paged:page_tokens=16", seed=0, token_budget=512,
                    prefix_cache=True, radix_max_tokens=16384, capacity_tokens=32768)
MAX_SMALL_CALLS_PER_TOKEN = 230


def _model() -> DecoderLM:
    return DecoderLM(tiny_config("bench-e2e", n_layers=4, d_model=64, n_heads=4, d_ff=128,
                                 vocab_size=VOCAB, max_seq_len=640), seed=0)


def _serve(lm: DecoderLM, requests: list[Request]) -> int:
    """One serving pass; returns the number of generated tokens."""
    session = ServingEngine(max_concurrency=16).start_functional(lm, cache=CACHE, seed=0)
    session.submit(requests)
    while session.has_work():
        session.step()
    report = session.finish()
    assert all(result.status == "finished" for result in report.results)
    return sum(len(result.generated_tokens) for result in report.results)


def _count_calls(fn, *args) -> tuple[int, int]:
    """``(call + c_call events, fn's result)`` of one ``fn(*args)``."""
    events = 0

    def hook(_frame, event, _arg):
        nonlocal events
        if event == "call" or event == "c_call":
            events += 1

    # A collection in the counted region would run whatever finalizers
    # earlier tests left behind in reference cycles.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return events, result


def test_kelle_decode_calls_per_generated_token():
    lm = _model()
    rng = np.random.default_rng((0, 4))
    requests = [Request(request_id=f"r{i:05d}", arrival_time_s=i * 1e-6,
                        prompt_len=PROMPT_LEN, decode_len=DECODE_LEN,
                        prompt_tokens=tuple(rng.integers(0, VOCAB, size=PROMPT_LEN).tolist()))
                for i in range(N_REQUESTS)]
    _serve(lm, requests)  # lazy imports, mask tables, workspace growth
    first, tokens = _count_calls(_serve, lm, requests)
    second, _ = _count_calls(_serve, lm, requests)
    assert tokens == N_REQUESTS * DECODE_LEN
    assert first == second, "the count must repeat exactly"
    assert first / tokens <= MAX_CALLS_PER_TOKEN, first / tokens


def _small_requests() -> list[tuple[int, Request]]:
    """``(due engine step, request)`` of the first quarter of the arrivals."""
    rng = np.random.default_rng((0, 3))
    templates = [tuple(rng.integers(0, VOCAB, size=SMALL_PROMPT_LEN).tolist())
                 for _ in range(SMALL_TEMPLATES)]
    weights = np.arange(1, SMALL_TEMPLATES + 1, dtype=float) ** -0.3
    picks = np.random.default_rng((20250928, 3)).choice(
        SMALL_TEMPLATES, size=SMALL_REQUESTS * 4, p=weights / weights.sum())
    return [(i // SMALL_PER_STEP,
             Request(request_id=f"r{i:05d}", arrival_time_s=i // SMALL_PER_STEP + i * 1e-6,
                     prompt_len=SMALL_PROMPT_LEN, decode_len=SMALL_DECODE_LEN,
                     prompt_tokens=templates[int(t)]))
            for i, t in enumerate(picks[:SMALL_REQUESTS])]


def _serve_on_step_clock(lm: DecoderLM, arrivals: list[tuple[int, Request]]) -> int:
    """Submit each request at its due step, one engine step per tick."""
    session = ServingEngine(max_concurrency=32).start_functional(lm, **SMALL_ENGINE)
    sent, step = 0, 0
    while sent < len(arrivals) or session.has_work():
        if not session.has_work():
            step = max(step, arrivals[sent][0])
        due = []
        while sent < len(arrivals) and arrivals[sent][0] <= step:
            due.append(arrivals[sent][1])
            sent += 1
        if due:
            session.submit(due)
        session.step()
        step += 1
    report = session.finish()
    assert all(result.status == "finished" for result in report.results)
    return sum(len(result.generated_tokens) for result in report.results)


def test_small_requests_calls_per_generated_token():
    lm = _model()
    arrivals = _small_requests()
    _serve_on_step_clock(lm, arrivals)
    first, tokens = _count_calls(_serve_on_step_clock, lm, arrivals)
    second, _ = _count_calls(_serve_on_step_clock, lm, arrivals)
    assert tokens == SMALL_REQUESTS * SMALL_DECODE_LEN
    assert first == second, "the count must repeat exactly"
    assert first / tokens <= MAX_SMALL_CALLS_PER_TOKEN, first / tokens


def test_stack_operations_cost_one_table_operation(monkeypatch):
    """A 4-layer stack forks once, allocates / CoW-copies each page once and
    releases each page once — not once per layer."""
    calls = {"fork": 0, "alloc": 0, "release": 0}

    def spy(cls, name):
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    spy(PagedKVCache, "fork")
    spy(KVPagePool, "alloc")
    spy(KVPagePool, "release")
    factory = PagedCacheFactory(page_tokens=4)
    stack = factory.make_stack(4, 2, 4, 8)
    rng = np.random.default_rng(0)
    for cache in stack:  # 6 tokens: two pages, the second half full
        keys = rng.standard_normal((2, 6, 4)).astype(np.float32)
        cache.extend_chunk(keys, keys, None, np.arange(6))

    def delta(action):
        before = dict(calls)
        result = action()
        return result, {name: calls[name] - before[name] for name in calls}

    fork, cost = delta(lambda: stack[0].fork_stack(stack))
    assert cost == {"fork": 1, "alloc": 2, "release": 0}  # flush: 2 pages, once
    (page, offset), cost = delta(lambda: fork[0].reserve_stack_slot(fork))
    assert offset == 2 and page not in stack[0].pages
    assert cost == {"fork": 0, "alloc": 1, "release": 1}  # the shared tail, CoW'd once
    _, cost = delta(lambda: fork[0].truncate_stack(fork, 5))
    assert cost == {"fork": 0, "alloc": 0, "release": 0}  # both pages still covered
    _, cost = delta(lambda: fork[0].truncate_stack(fork, 3))
    assert cost == {"fork": 0, "alloc": 0, "release": 1}  # its own tail page
    _, cost = delta(lambda: fork[0].release_stack(fork))
    assert cost == {"fork": 0, "alloc": 0, "release": 1}  # the shared first page
    _, cost = delta(lambda: stack[0].release_stack(stack))
    assert cost == {"fork": 0, "alloc": 0, "release": 2}
    assert factory.referenced_pages == 0
    factory.check_accounting()
