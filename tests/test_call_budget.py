"""Interpreter calls per generated token on the AERP decode path (exact).

Every speed-up on this path has been Python/NumPy call amortisation, and a
call count — unlike wall time on a shared host — repeats to the digit.  This
rebuilds the first quarter of the ``kelle-decode`` benchmark workload inline
(8 requests, 160-token prompts over the 128-slot budget, 64 decode steps, the
4-layer d=64 model, ``max_concurrency=16``) and counts ``sys.setprofile``
``call`` + ``c_call`` events per generated token over a whole serving pass:
submit, batched prefill, 63 decode steps, release.

Readings (second pass of one process, so imports and workspace growth are
behind it; the same on every run):

* per-cache AERP pools (before the cross-sequence arena): 323.5 here; 334.9
  through the benchmark harness, whose token callback adds ~5 calls per
  token and which counts a cold process (310.5 on the full 32 requests);
* per-layer ``AERPArena`` group steps: 141.7 (97.1 on the full 32 requests,
  where a group holds 16 sequences instead of 8).

The bound sits between the two: one more interpreter call per cache per
layer-step costs 4 per token, so it takes seven of those — or a return to
per-cache ``append`` / ``fetch`` / ``observe_attention`` (about 180) — to trip
it.
"""

from __future__ import annotations

import gc
import sys

import numpy as np

from repro.llm import DecoderLM, tiny_config
from repro.serve import Request, ServingEngine

CACHE = "kelle:budget=128,sink_tokens=8,recent_window=32,refresh=none"
N_REQUESTS, PROMPT_LEN, DECODE_LEN, VOCAB = 8, 160, 64, 128
MAX_CALLS_PER_TOKEN = 170


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
    lm = DecoderLM(tiny_config("bench-e2e", n_layers=4, d_model=64, n_heads=4, d_ff=128,
                               vocab_size=VOCAB, max_seq_len=640), seed=0)
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
