"""Interpreter calls per generated token on five serving paths (exact),
and the peak temporary bytes of a ``kelle-decode`` step.

Every speed-up on these paths has been Python/NumPy call amortisation, and a
call count — unlike wall time on a shared host — repeats to the digit.  Each
test rebuilds the first quarter of one ``benchmarks/e2e`` workload inline and
counts ``sys.setprofile`` ``call`` + ``c_call`` events per generated token
over a whole serving pass (the second pass of one process, so imports and
workspace growth are behind it; the same on every run).  Each count is
printed with its parts: every event charged to the ``src/repro`` module of
the frame it is reported in (NumPy's Python helpers as one part, anything
else as ``other``); the parts must sum to the total exactly and repeat
exactly, so a change's table against its parent's names where calls moved.

**The AERP decode path** (``kelle-decode``): 8 requests, 160-token prompts
over the 128-slot budget, 64 decode steps, the 4-layer d=64 model,
``max_concurrency=16`` — submit, batched prefill, 63 decode steps, release.

* per-cache AERP pools (before the cross-sequence arena): 323.5 here; 334.9
  through the benchmark harness, whose token callback adds ~5 calls per
  token and which counts a cold process (310.5 on the full 32 requests);
* per-layer ``AERPArena`` group steps: 141.9 (97.2 on the full 32 requests,
  where a group holds 16 sequences instead of 8);
* without the contiguous fused-decode kind: 141.8 (72 578 calls for 512
  tokens, 64 fewer: the partition's ``dict.values()`` over contiguous groups
  once per decode step, and the session's ``isinstance`` on its cache spec).
* the persistent decode batch: 108.93 (55 772 calls for 512 tokens);
* the session's cancellation check inlined (one call fewer per step):
  108.81 (55 709 calls);
* one working K/V copy per paged sequence (the model keeps no plan for a
  batch without paged stacks and regroups it each step; the decode
  context buffer fetched once per step, not per layer): 107.66 (55 120
  calls).
* one decode attention kernel (``DecoderLM._attend``; a group's validity
  checked once, a lone stack's rows not rebuilt): 104.70 (53 608 calls).
* one fixed-width eviction slab per layer that evicts in place (no row
  pool, slot tables or compaction; a contiguous group's fetch is a slab
  view, not a ``take``; the loose rows grouped once per step instead of
  once per layer): 77.03 (39 441 calls; those made from
  ``core/kv_cache.py`` frames went from 33.4 to 21.1 per token).
* live-token counts read off the token records' refcounts instead of kept
  in counters, entry positions and token indices on the entries, and a
  group's slot range and header rows found in one call: 78.31 (40 095
  calls; 22.5 from ``core/kv_cache.py`` frames).
* one attention kernel for whole-prompt prefill, chunks and decode (the
  prefill's per-sequence ``softmax`` and ``moveaxis`` replaced by one
  ``_attend`` call, no validity mask fetched or checked): 76.63.
* a decode layer-step as one ``AERPArena.step`` (append and fetch on one
  group lookup, which the step's ``observe`` reuses along with the slots
  array), a new token's K/V kept as projected instead of recomputed from
  its ``x`` at the same step's fetch: 67.37 (34 495 calls; 20.2 from
  ``core/kv_cache.py`` frames), Python 3.11.7 and NumPy 2.4.6 on a 2-core
  Xeon.
* a group's step ended by its ``observe_group`` (one ``_STEP`` bump of the
  group's slots per layer), not by one ``end_step`` call per cache per
  layer after the step: 63.18, same host.
* a lone row's step ended the same way (``observe_group([cache], ...,
  end_step=True)`` in place of ``observe_attention``, which builds one
  more list per layer when a single sequence is left): 63.20 (63.21 with
  the sparse 2DRP sampler's tree).
* the victim choice kept across steps (a persistent protection and window
  ring, one ``argmin`` per layer-step plus a second as the tie check) and
  per-sequence live / x-format record counters in place of the masked
  ``first_lowest`` and the record scans: 62.46, same host.
* one loose-row decode path (every row no paged group covers steps through
  one ``step_group`` / ``_attend`` / ``observe_group`` call per group, with
  no cross-group K/V stacking, no ``_attend_loose_rows`` call per layer and
  no ``_attend_cache`` for the last sequence left): 58.64, same host.
* one decode-group protocol (the model steps every row through its
  group's ``step`` / ``observe``, the slab group's ``step`` reusing a lone
  cache's slots array and finding no per-layer cache list in the model):
  58.39, same host (``llm/model.py`` -0.61, ``core/kv_cache.py`` +0.37).

The bound sits 10 % above the last reading: a return of per-layer
grouping (~10 calls per token) or of the row-pool gather trips it; a
return of the same-step recompute is caught, exactly, by
``test_kelle_decode_recomputes_only_prompts``.  The same geometry with
``kelle``'s default 2DRP fault injection is
``test_kelle_2drp_calls_per_generated_token``, bounded at 3x this one.

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
  layers): 192.7;
* without the contiguous fused-decode kind: 192.4 (230 851 calls for 1200
  tokens, 365 fewer: the group buffers' ``all()`` over their members'
  verbatim-store flags, 112 buffers at one ``all`` and two generator steps
  each, and the partition's ``dict.values()`` over contiguous groups at each
  of 28 fused decode steps).
* the persistent decode batch: 178.61 (214 330 calls);
* the session's cancellation check inlined: 178.59 (214 302 calls);
* one working K/V copy per sequence (no mirror gathers and flushes, no
  group buffers keyed and pruned per step, a chunk's K/V stored with one
  write a layer): 150.61 (180 734 calls) as first recorded; 149.83
  (179 796 calls) with Python 3.11.7 and NumPy 2.4.6 on a 2-core Xeon;
* one decode attention kernel: 149.74 (179 684 calls), same host.
* one attention kernel for prefill, chunks and decode (each chunk group
  one ``_attend`` call over its members' stored rows): 144.09, same host;
  144.03 before the next change.
* one decode-group protocol (a group's first claim is its steady claim
  on the members' current lengths, no per-member ``reserve_stack_slot``;
  a lone paged stack claimed once for every layer and its plan kept):
  139.56, same host (``core/kv_pool.py`` -3.09, ``llm/model.py`` -1.37).

The bound sits 10 % above the last reading (~14 calls per generated
token): a return of a fifth of the per-layer bookkeeping the page tables
removed (~76 calls per generated token) trips it.

**The decode batch** (``decode-heavy``): 40 requests of 32-token prompts
and 64 decode tokens, ``max_concurrency=32``, a ``paged:page_tokens=16``
pool bounded at ``capacity_tokens=8192``, no token callback — so one wave of
32 rows decodes in lockstep, then the remaining 8.

* per-row serving bookkeeping (the scheduler rescanning the running set
  through property chains, one grant, ``argmax`` and ``sync`` per row, the
  model regrouping every row and re-keying every group buffer each step):
  92.15 (235 897 calls for 2560 tokens);
* the persistent decode batch (cached decode set, grants only where a
  reservation grows, one ``argmax`` per step, one group plan per
  membership with one slot claim per group, one RoPE per layer): 23.20
  (59 386 calls);
* the session's cancellation check inlined: 23.15 (59 260 calls);
* one working K/V copy per sequence: 22.56 (57 757 calls; 57 746 with
  Python 3.11.7 and NumPy 2.4.6 on a 2-core Xeon);
* one decode attention kernel (a paged group's slab rows written and
  returned by ``PagedGroup.write``): 22.36 (57 242 calls).
* one attention kernel for prefill, chunks and decode: 20.77.
* one decode-group protocol: 20.35 (``core/kv_pool.py`` -0.30,
  ``llm/model.py`` -0.12), Python 3.11.7 and NumPy 2.4.6 on a 2-core Xeon.

The bound sits 10 % above the last reading: a return of one call per row
per layer-step (4 per token) trips it, as per-row scheduling or grouping
does.

**The cluster round** (``cluster-zipf``): 50 requests of 256-token Zipf
templates plus 16-token suffixes and lognormal decodes (mean 24, at most
96), routed two per round by ``radix-affinity`` onto 4 replicas of
``max_concurrency=8`` with ``prefix_cache``, ``token_budget=128`` and a
``paged:page_tokens=16`` pool bounded at ``capacity_tokens=16384`` — so the
cluster's per-round bookkeeping is paid on every replica step.

* one 449-line ``ClusterEngine.run`` loop running every feature's
  per-round work whether configured or not: 161.07 (272 853 calls for
  1694 tokens over 141 rounds);
* a per-run phase object calling only the configured features' phases
  (here admission and the lockstep step) and skipping admission once the
  arrival queues are empty: 159.17 (269 628 calls);
* one working K/V copy per sequence (each replica's decode regroups its
  own rows, without per-layer group-buffer lookups): 128.66 (217 956
  calls) as first recorded; 127.97 (216 774 calls) with Python 3.11.7 and
  NumPy 2.4.6 on a 2-core Xeon;
* one decode attention kernel: 126.19 (213 766 calls), same host.
* one attention kernel for prefill, chunks and decode: 124.23 (210 443
  calls), same host; 124.64 (211 136 calls) before the next change.
* one loose-row decode path (a lone paged row written by its handle's
  ``step_group``, with nothing observed or ended, instead of ``append`` and
  ``_attend_cache``): 123.34 (208 931 calls), same host.
* one decode-group protocol (the steady claim as the first claim, a lone
  paged row claimed once for every layer and its plan kept): 117.71
  (199 409 calls), same host (``core/kv_pool.py`` -4.04,
  ``llm/model.py`` -1.59).

The bound sits 10 % above the last reading: it trips on cluster work of
~140 calls per round, such as views or load snapshots rebuilt per
replica step.

**The speculative path** (``bench_spec.py --quick``'s geometry): 6
requests per regime — ``repetitive`` (3 repeats of 16-token templates) and
``random`` (48-token Poisson prompts) — 24 decode tokens each, the 4-layer
d=64 model, ``paged:page_tokens=16``, ``max_concurrency=4``; once with
``ngram:k=4`` and once without a drafter (``plain``), the two sides of
CI's guarded ``speedup_ngram_vs_baseline`` ratio.  Python 3.11.7, NumPy
2.4.6, 2-core Xeon:

* one working K/V copy per sequence: ngram 105.29 (repetitive) / 115.08
  (random), plain 108.47 / 118.30;
* one decode attention kernel: ngram unchanged (a verify step attended
  through a chunk kernel of its own), plain 107.19 / 116.57.
* one attention kernel for prefill, chunks and decode (a verify step
  attends through ``_attend`` too): ngram 96.24 / 104.94, plain 103.21 /
  112.45; plain 103.17 / 112.65 before the next change.
* one loose-row decode path: ngram and plain repetitive unchanged, plain
  random 111.90.
* one decode-group protocol (a chunk writer per group of equal
  ``group_key``; plain decode's lone rows claimed once for every layer):
  ngram 95.99 / 104.69 (``llm/model.py`` -1.08 / -1.06, ``core/kv_pool.py``
  +0.83 / +0.82), plain 100.74 / 107.67 (``core/kv_pool.py`` -1.69 /
  -3.19, ``llm/model.py`` -0.74 / -1.04).

The bounds sit 10 % above the last readings.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import replace
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.kv_cache import AERPArena
from repro.core.kv_pool import KVPagePool, PagedCacheFactory, PagedKVCache, PageTable
from repro.llm import DecoderLM, tiny_config
from repro.serve import ClusterEngine, Request, ServingEngine, poisson_requests
from repro.workloads import repetitive_requests, zipf_shared_prefix_requests

CACHE = "kelle:budget=128,sink_tokens=8,recent_window=32,refresh=none"
N_REQUESTS, PROMPT_LEN, DECODE_LEN, VOCAB = 8, 160, 64, 128
MAX_CALLS_PER_TOKEN = 64.2
#: ``kelle-decode``'s group of 16 sequences, read at steady-state engine steps.
TEMP_REQUESTS, TEMP_STEPS = 16, range(10, 40)
MAX_STEP_TEMPORARY_BYTES = 188_233

SMALL_TEMPLATES, SMALL_PROMPT_LEN, SMALL_DECODE_LEN = 1500, 36, 3
SMALL_REQUESTS, SMALL_PER_STEP = 400, 16
SMALL_ENGINE = dict(cache="paged:page_tokens=16", seed=0, token_budget=512,
                    prefix_cache=True, radix_max_tokens=16384, capacity_tokens=32768)
MAX_SMALL_CALLS_PER_TOKEN = 153.5

DECODE_REQUESTS, DECODE_PROMPT_LEN, DECODE_HEAVY_LEN = 40, 32, 64
DECODE_ENGINE = dict(cache="paged:page_tokens=16", seed=0, capacity_tokens=8192)
MAX_DECODE_CALLS_PER_TOKEN = 22.38

CLUSTER_REQUESTS, CLUSTER_PREFIX_LEN, CLUSTER_SUFFIX_LEN = 50, 256, 16
CLUSTER_ENGINE = dict(cache="paged:page_tokens=16", max_concurrency=8, seed=0,
                      router="radix-affinity", prefix_cache=True, token_budget=128,
                      capacity_tokens=16384, arrivals_per_step=2)
MAX_CLUSTER_CALLS_PER_TOKEN = 129.4

#: ``table4_refresh.run()``: every sequence a batch of one with 2DRP.
MAX_TABLE4_CALLS_PER_RUN = 1_087_787

MAX_SPEC_CALLS_PER_TOKEN = {"ngram:k=4": {"repetitive": 105.5, "random": 115.1},
                            "plain": {"repetitive": 110.8, "random": 118.4}}


def _model() -> DecoderLM:
    return DecoderLM(tiny_config("bench-e2e", n_layers=4, d_model=64, n_heads=4, d_ff=128,
                                 vocab_size=VOCAB, max_seq_len=640), seed=0)


def _serve(lm: DecoderLM, requests: list[Request], cache: str = CACHE) -> int:
    """One serving pass; returns the number of generated tokens."""
    session = ServingEngine(max_concurrency=16).start_functional(lm, cache=cache, seed=0)
    session.submit(requests)
    while session.has_work():
        session.step()
    report = session.finish()
    assert all(result.status == "finished" for result in report.results)
    return sum(len(result.generated_tokens) for result in report.results)


def _serve_paged(lm: DecoderLM, requests: list[Request]) -> int:
    """One offline decode-heavy pass on the bounded paged pool."""
    session = ServingEngine(max_concurrency=32).start_functional(lm, **DECODE_ENGINE)
    session.submit(requests)
    while session.has_work():
        session.step()
    report = session.finish()
    assert all(result.status == "finished" for result in report.results)
    return sum(len(result.generated_tokens) for result in report.results)


def _module(filename: str) -> str:
    """The part a call is charged to: its ``src/repro`` module (``llm/model.py``),
    ``numpy`` for all of NumPy's Python helpers, ``other`` for the rest."""
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        return path.rsplit("/repro/", 1)[1]
    return "numpy" if "/numpy/" in path else "other"


def _count_calls(fn, *args) -> tuple[Counter, object]:
    """``(call + c_call events by part, fn's result)`` of one ``fn(*args)``.

    Each event is charged to the :func:`_module` of the frame it is reported
    in: a ``call`` to the function called, a ``c_call`` to its caller.  The
    parts must sum to the events counted.
    """
    events, by_file = 0, {}

    def hook(frame, event, _arg):
        nonlocal events
        if event == "call" or event == "c_call":
            events += 1
            name = frame.f_code.co_filename
            by_file[name] = by_file.get(name, 0) + 1

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
    calls = Counter()
    for name, count in by_file.items():
        calls[_module(name)] += count
    assert sum(calls.values()) == events, "the parts must sum to the total"
    return calls, result


def _print_calls(label: str, calls: Counter, tokens: int, unit: str = "generated token",
                 note: str = "") -> float:
    """Print the calls per ``unit`` and the table of their parts, largest
    first; returns the calls per ``unit``."""
    total = sum(calls.values()) / tokens
    print(f"{label}: {total:.2f} calls per {unit}{note}")
    for part, count in calls.most_common():
        print(f"    {count / tokens:10.2f}  {part}")
    return total


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
    assert first == second, "the count and its parts must repeat exactly"
    per_token = _print_calls("kelle-decode", first, tokens)
    assert per_token <= MAX_CALLS_PER_TOKEN, per_token


def test_kelle_2drp_calls_per_generated_token():
    """The geometry above with ``kelle``'s default refresh (2DRP fault
    injection), against the ``refresh=none`` reading of the same process.

    * 16 dense uniform draws per stored element of every token that came
      due, one ``KVFaultInjector.corrupt`` call per token (x) or per K and V
      block (kv), one ``inject_faults`` call per cache per layer-step:
      1660.56 (against 67.37 for ``refresh=none``), 24.6x;
    * one sparse sampler call per sequence per layer-step (a binomial
      failure count and the failed bits per (class, byte) group) on the
      fp16 block of every token that came due, one ``inject_faults`` call
      per group (classification, gather and scatter once for the group):
      168.66 (against 63.18), 2.67x, Python 3.11.7 and NumPy 2.4.6 on a
      2-core Xeon;
    * the same sampler drawing its failed bits from ``rng.random`` (not
      ``Generator.choice``), and ``inject_faults`` looping over the group's
      sequences, each classified, gathered and scattered on its own (~30
      calls a sequence per layer-step; the group-wide ``[G * T]``
      bookkeeping is gone): 183.67 (against 63.20), 2.91x, same host;
    * the victim choice kept across steps and per-sequence record counters
      (both paths lose the same calls): 182.93 (against 62.46), 2.93x;
    * one loose-row decode path (both paths lose the same calls), and the
      sampler's exactness check as one ``np.maximum.reduce`` plus a
      distinctness test only when a group fails more than one bit (most
      fail one): 170.58 (against 58.64), 2.91x;
    * one decode-group protocol (both paths lose the same calls): 170.34
      (against 58.39), 2.92x.

    The bound is 3x: a return of a loop over tokens, of a sampler call per
    token or of ~2 more calls per sequence-layer-step trips it.
    """
    lm, requests = _model(), _kelle_requests()
    cache = CACHE.replace(",refresh=none", "")
    _serve(lm, requests)
    _serve(lm, requests, cache)
    plain, tokens = _count_calls(_serve, lm, requests)
    first, _ = _count_calls(_serve, lm, requests, cache)
    second, _ = _count_calls(_serve, lm, requests, cache)
    assert tokens == N_REQUESTS * DECODE_LEN
    assert first == second, "the count and its parts must repeat exactly"
    plain = sum(plain.values())
    per_token = _print_calls("kelle-decode with 2DRP", first, tokens,
                             note=f" ({plain / tokens:.2f} with refresh=none)")
    assert per_token * tokens <= 3 * plain, (per_token, plain / tokens)


def test_table4_refresh_calls_per_run():
    """Calls of one default ``table4_refresh.run()`` (the 2-layer
    ``tiny-llama2-7b``, 2DRP and uniform refresh at three scales, every
    sequence a batch of one through ``decode_step_batch``), exact: the
    ``G = 1`` 2DRP path's counter.  The eval model is built first and a
    one-scale run warms imports and workspaces, so the count repeats.

    * a lone row's step as ``append`` + ``_attend_cache``: 1 043 981 (the
      first run of a fresh process reads 1 052 101);
    * one loose-row decode path (a lone row is a group of one through
      ``step_group``) and the sampler's lighter exactness check: 995 690
      (-4.6 %), the same in two processes, Python 3.11.7 and NumPy 2.4.6 on
      a 2-core Xeon;
    * one decode-group protocol (a lone row's slab group reuses its caches'
      slots arrays and is planned without keys): 988 898 (``core/kv_cache.py``
      and ``llm/model.py`` -3 396 each), same host.

    The bound sits 10 % above that reading.
    """
    from repro.eval.harness import get_eval_model
    from repro.experiments import table4_refresh

    get_eval_model("tiny-llama2-7b")
    table4_refresh.run(scales=table4_refresh.DEFAULT_SCALES[:1])
    first, table = _count_calls(table4_refresh.run)
    second, _ = _count_calls(table4_refresh.run)
    assert len(table.rows) == 2 * len(table4_refresh.DEFAULT_SCALES)
    assert first == second, "the count and its parts must repeat exactly"
    per_run = _print_calls("table4_refresh.run()", first, 1, unit="run")
    assert per_run <= MAX_TABLE4_CALLS_PER_RUN, per_run


def _kelle_requests(n_requests: int = N_REQUESTS) -> list[Request]:
    rng = np.random.default_rng((0, 4))
    return [Request(request_id=f"r{i:05d}", arrival_time_s=i * 1e-6,
                    prompt_len=PROMPT_LEN, decode_len=DECODE_LEN,
                    prompt_tokens=tuple(rng.integers(0, VOCAB, size=PROMPT_LEN).tolist()))
            for i in range(n_requests)]


def test_kelle_decode_step_temporary_bytes():
    """Peak temporary bytes of one steady-state decode step on
    ``kelle-decode``'s geometry, exact: 16 sequences of 160-token prompts
    decoding as one group (engine steps 10-39), traced by ``tracemalloc``
    from the start of the step.

    * the victim masks rebuilt over every ``[G, R, n]`` entry and the live
      counts over every ``[G, R * W]`` record at each layer-step: 280 145 B
      on every step, of which ``AERPArena.step`` ~232 KB;
    * the protection, window ring and record counters kept across steps:
      171 953 B, of which ``AERPArena.step`` ~77 KB (its one ``[G, R, n]``
      float64 victim key).  The step's peak is now ``DecoderLM._attend``'s
      ``scores *= scale``: float32 scores times a float64 scalar, cast
      through ~128 KB of ufunc buffers;
    * one loose-row decode path (no per-layer call and bucket dict of
      ``_attend_loose_rows``): 171 521 B;
    * one decode-group protocol: 171 121 B.

    The bound sits 10 % above the last reading.
    """
    lm, requests = _model(), _kelle_requests(TEMP_REQUESTS)
    _serve(lm, requests)  # lazy imports, mask tables, workspace growth
    session = ServingEngine(max_concurrency=16).start_functional(lm, cache=CACHE, seed=0)
    session.submit(requests)
    readings, step = [], 0
    while session.has_work():
        if step in TEMP_STEPS:
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                session.step()
                readings.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                gc.enable()
        else:
            session.step()
        step += 1
    session.finish()
    assert len(readings) == len(TEMP_STEPS)
    assert len(set(readings)) == 1, "the reading must repeat exactly"
    print(f"kelle-decode: {readings[0]} peak temporary bytes per decode step")
    assert readings[0] <= MAX_STEP_TEMPORARY_BYTES, readings[0]


def test_kelle_decode_recomputes_only_prompts(monkeypatch):
    """Rows handed to ``recompute_fn`` on the kelle geometry above
    (``refresh=none``, so no fault ever corrupts a stored ``x``), exact.

    Every call comes from a decode step's fetch.  Each prompt's x-format
    tokens are recomputed once, at the first fetch after the prefill
    stored them; a decoded token keeps the K/V its step projected, so no
    row is one of them.

    * every x-format token marked pending on append and recomputed by the
      same step's fetch: 1.95 decoded-token rows per generated token (996
      rows; 3.99 prompt-token rows, 2 044);
    * a new token's K/V kept as handed in: 0 (prompt-token rows unchanged).
    """
    rows = {"prompt": 0, "decoded": 0}
    recompute_fn, spies = DecoderLM.recompute_fn, {}

    def spied(self, layer):
        if layer not in spies:  # one object per layer: decode groups share it
            recompute = recompute_fn(self, layer)

            def spy(x, positions):
                decoded = int(np.count_nonzero(positions >= PROMPT_LEN))
                rows["decoded"] += decoded
                rows["prompt"] += positions.size - decoded
                return recompute(x, positions)

            spies[layer] = spy
        return spies[layer]

    monkeypatch.setattr(DecoderLM, "recompute_fn", spied)
    lm, requests = _model(), _kelle_requests()
    _serve(lm, requests)
    rows.update(prompt=0, decoded=0)
    tokens = _serve(lm, requests)
    print(f"kelle-decode: {rows['decoded'] / tokens:.2f} decoded-token and "
          f"{rows['prompt'] / tokens:.2f} prompt-token recompute rows per generated token")
    assert 0 < rows["prompt"] <= N_REQUESTS * lm.config.n_layers * 128  # once, within budget
    assert rows["decoded"] == 0, rows


def test_eviction_fetch_copies_per_generated_token(monkeypatch):
    """K/V bytes copied by eviction-cache fetches per generated token, exact,
    on the kelle geometry above: every K/V pair ``AERPArena._fetch`` returns
    (for a decode layer-step's ``step`` and a lone ``fetch`` alike) that is
    not a view of the arena's slab counts its bytes.

    * a row pool gathered into ``[G, H, n, d]`` by one ``take`` per K/V pool
      on every layer-step: 258 048 (63 decode steps x 4 layers x 2 x 8 x 4 x
      128 x 16 x 4 bytes over 512 tokens);
    * a fixed-width slab, a decode group's slots one contiguous range:
      ``slab[a:b, :, :n]`` views, 0.
    """
    copied, fetches = [0], [0]
    fetch = AERPArena._fetch

    def counted(self, *args):
        keys, values = fetch(self, *args)
        fetches[0] += 1
        for part, slab in ((keys, self._keys), (values, self._values)):
            if not np.may_share_memory(part, slab):
                copied[0] += part.nbytes
        return keys, values

    monkeypatch.setattr(AERPArena, "_fetch", counted)
    lm, requests = _model(), _kelle_requests()
    _serve(lm, requests)
    readings = []
    for _ in range(2):
        copied[0] = fetches[0] = 0
        tokens = _serve(lm, requests)
        readings.append(copied[0] / tokens)
        # Not vacuous: every decode layer-step's K/V went through the spy.
        assert fetches[0] >= lm.config.n_layers * (DECODE_LEN - 1), fetches[0]
    assert readings[0] == readings[1], "the count must repeat exactly"
    print(f"kelle-decode: {readings[0]:.0f} K/V bytes copied by fetches per generated token")
    assert readings[0] == 0, readings[0]


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
    assert first == second, "the count and its parts must repeat exactly"
    per_token = _print_calls("small-requests", first, tokens)
    assert per_token <= MAX_SMALL_CALLS_PER_TOKEN, per_token


def _decode_heavy() -> list[Request]:
    rng = np.random.default_rng((0, 1))
    return [Request(request_id=f"r{i:05d}", arrival_time_s=i * 1e-6,
                    prompt_len=DECODE_PROMPT_LEN, decode_len=DECODE_HEAVY_LEN,
                    prompt_tokens=tuple(rng.integers(0, VOCAB, size=DECODE_PROMPT_LEN)
                                        .tolist()))
            for i in range(DECODE_REQUESTS)]


def test_decode_heavy_calls_per_generated_token():
    lm = _model()
    requests = _decode_heavy()
    _serve_paged(lm, requests)
    first, tokens = _count_calls(_serve_paged, lm, requests)
    second, _ = _count_calls(_serve_paged, lm, requests)
    assert tokens == DECODE_REQUESTS * DECODE_HEAVY_LEN
    assert first == second, "the count and its parts must repeat exactly"
    per_token = _print_calls("decode-heavy", first, tokens)
    assert per_token <= MAX_DECODE_CALLS_PER_TOKEN, per_token


def _cluster_zipf() -> list[Request]:
    """The first quarter of the ``cluster-zipf`` arrivals, in arrival order."""
    shape = zipf_shared_prefix_requests(
        n_requests=4 * CLUSTER_REQUESTS, n_templates=16, prefix_len=CLUSTER_PREFIX_LEN,
        suffix_len=CLUSTER_SUFFIX_LEN, decode_len=24, vocab_size=VOCAB,
        decode_sigma=1.0, max_decode_len=96, seed=20250928)
    rng = np.random.default_rng((0, 5))
    templates: dict[str, tuple[int, ...]] = {}
    requests = []
    for request in shape[:CLUSTER_REQUESTS]:
        template = request.request_id.split("r")[0]
        if template not in templates:
            templates[template] = tuple(rng.integers(0, VOCAB, size=CLUSTER_PREFIX_LEN).tolist())
        suffix = tuple(rng.integers(0, VOCAB, size=CLUSTER_SUFFIX_LEN).tolist())
        requests.append(replace(request, prompt_tokens=templates[template] + suffix))
    return requests


def _serve_cluster(lm: DecoderLM, requests: list[Request]) -> int:
    """One pass through a fresh 4-replica cluster (fresh router digests)."""
    report = ClusterEngine(4, **CLUSTER_ENGINE).run(lm, requests)
    assert all(result.status == "finished" for result in report.results)
    return report.total_decode_tokens


def test_cluster_zipf_calls_per_generated_token():
    lm = _model()
    requests = _cluster_zipf()
    _serve_cluster(lm, requests)
    first, tokens = _count_calls(_serve_cluster, lm, requests)
    second, _ = _count_calls(_serve_cluster, lm, requests)
    assert tokens == sum(request.decode_len for request in requests)
    assert first == second, "the count and its parts must repeat exactly"
    per_token = _print_calls("cluster-zipf", first, tokens,
                             note=f" ({sum(first.values())} calls, {tokens} tokens)")
    assert per_token <= MAX_CLUSTER_CALLS_PER_TOKEN, per_token


def _spec_requests(regime: str) -> list[Request]:
    """``bench_spec.py --quick``'s traffic of one regime (seed 0)."""
    if regime == "repetitive":
        return repetitive_requests(n_requests=6, template_len=16, n_repeats=3,
                                   decode_len=24, vocab_size=VOCAB, seed=0)
    return poisson_requests(6, rate_rps=100.0, prompt_len=48, decode_len=24,
                            length_jitter=0.3, seed=0)


def _serve_spec(lm: DecoderLM, requests: list[Request], drafter: str | None) -> int:
    report = ServingEngine(max_concurrency=4).run_functional(
        lm, requests, cache="paged:page_tokens=16", drafter=drafter)
    assert all(result.status == "finished" for result in report.results)
    return report.total_decode_tokens


@pytest.mark.parametrize("drafter", sorted(MAX_SPEC_CALLS_PER_TOKEN))
@pytest.mark.parametrize("regime", ["repetitive", "random"])
def test_speculative_calls_per_generated_token(regime, drafter):
    """The speculative path on ``bench_spec.py --quick``'s geometry, with
    the n-gram drafter and without one (the two sides of the guarded
    ``speedup_ngram_vs_baseline`` ratio)."""
    lm = DecoderLM(tiny_config("bench-spec", n_layers=4, d_model=64, n_heads=4, d_ff=128,
                               vocab_size=VOCAB, max_seq_len=288), seed=0)
    requests = _spec_requests(regime)
    spec = None if drafter == "plain" else drafter
    _serve_spec(lm, requests, spec)
    first, tokens = _count_calls(_serve_spec, lm, requests, spec)
    second, _ = _count_calls(_serve_spec, lm, requests, spec)
    assert tokens == sum(request.decode_len for request in requests)
    assert first == second, "the count and its parts must repeat exactly"
    per_token = _print_calls(f"{regime} {drafter}", first, tokens)
    assert per_token <= MAX_SPEC_CALLS_PER_TOKEN[drafter][regime], per_token


#: Page-to-row copy bounds, layer-token-rows per generated token: a tenth of
#: the readings with table mirrors and group buffers (a fifth on cluster-zipf,
#: where a radix hit forks a 256-token prefix that must reach a row).
MAX_PAGE_ROWS_PER_TOKEN = {"small-requests": 13.4, "decode-heavy": 0.8,
                           "cluster-zipf": 51.0}


@pytest.mark.parametrize("name", sorted(MAX_PAGE_ROWS_PER_TOKEN))
def test_page_to_row_copies_per_generated_token(name, monkeypatch):
    """K/V copied from pool pages into working rows, exact, per generated
    token on three paged geometries above.

    Each :meth:`KVPagePool.gather_pages` call copies ``G x n``
    layer-token-rows into its ``[G, H, n, d]`` output (``n = pages x
    page_tokens`` for a whole-page restack) and, where it exists, the
    per-table page-to-mirror ``PageTable.gather`` copies ``layers x
    tokens``.  Row moves inside the decode slab (``KVPagePool._swap_rows``,
    two rows of ``layers x tokens`` each) are reported beside them, not
    bounded.

    * table mirrors gathered from pages, and fused-decode group buffers
      restacked from pages on every membership change: small-requests
      133.91 (``gather_pages`` on 112 of 112 decode layer-steps, 7 088 rows
      through ``PageTable.gather``), decode-heavy 8.00, cluster-zipf 255.27;
    * one working copy per table in a pool-level decode slab, written
      through to the pages, filled from them only for a fork or restored
      snapshot: small-requests 5.91 (slab moves 5.61), decode-heavy 0.00
      (0.80), cluster-zipf 21.16 (33.64).
    """
    copied = {"pages": 0, "slab": 0}

    def spy(cls, method, rows):
        original = getattr(cls, method, None)
        if original is None:
            return

        def counted(self, *args, **kwargs):
            copied["pages" if method != "_swap_rows" else "slab"] += rows(self, *args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)

    spy(KVPagePool, "gather_pages",
        lambda _pool, tables, out_keys, *_: tables.shape[0] * out_keys.shape[2])
    spy(PageTable, "gather",
        lambda _table, rows, layers, start, stop: (layers.stop - layers.start) * (stop - start))
    spy(KVPagePool, "_swap_rows", lambda pool, _a, _b, n: 2 * pool.n_layers * n)
    serve, inputs = {"small-requests": (_serve_on_step_clock, _small_requests),
                     "decode-heavy": (_serve_paged, _decode_heavy),
                     "cluster-zipf": (_serve_cluster, _cluster_zipf)}[name]
    lm, inputs = _model(), inputs()
    serve(lm, inputs)
    readings = []
    for _ in range(2):
        copied.update(pages=0, slab=0)
        tokens = serve(lm, inputs)
        readings.append((copied["pages"] / tokens, copied["slab"] / tokens))
    assert readings[0] == readings[1], "the count must repeat exactly"
    pages, slab = readings[0]
    print(f"{name}: {pages:.2f} page-to-row and {slab:.2f} slab-to-slab "
          f"layer-token-rows per generated token")
    assert pages <= MAX_PAGE_ROWS_PER_TOKEN[name], pages


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

    def delta(action):
        before = dict(calls)
        result = action()
        return result, {name: calls[name] - before[name] for name in calls}

    def extend():
        for cache in stack:  # 6 tokens: two pages, the second half full
            keys = rng.standard_normal((2, 6, 4)).astype(np.float32)
            cache.extend_chunk(keys, keys, None, np.arange(6))

    _, cost = delta(extend)
    assert cost == {"fork": 0, "alloc": 2, "release": 0}  # written through: 2 pages, once
    fork, cost = delta(lambda: stack[0].fork_stack(stack))
    assert cost == {"fork": 1, "alloc": 0, "release": 0}  # every token already paged
    group = fork[0].decode_group([fork])  # the decode's claim of a lone stack
    _, cost = delta(group.claim)
    (page,), (offset,) = group.pages.tolist(), group.offsets.tolist()
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
