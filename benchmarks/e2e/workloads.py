"""The five end-to-end workloads: fixed geometry, inputs drawn from ``--seed``.

Each workload is a traffic mix chosen to load one layer of the serving stack
and to bypass the others (``README.md`` has the full rationale and the
measured shares).  A workload is a list of :class:`Arrival` — a
:class:`repro.serve.Request` with pinned prompt tokens plus the *engine step*
it is due at — and the keyword arguments of the engine that serves it.

Arrivals are scheduled on the engine step clock, never on wall time: the
functional engine admits requests between steps and has no notion of wall
arrival, so a step-clock schedule offers the identical load on every commit
and host, and only the duration of a step varies.

``--seed`` draws the *token contents* of every prompt.  The *shape* of a
workload — due steps, popularity picks, decode lengths — is one fixed draw
(:data:`SHAPE_SEED`): a Poisson sample of this size has a p95 queueing delay
of its own that moves by a third from draw to draw, which would swamp any
change in the program, while token values change no timing.  So batch
composition, queueing, hits and evictions repeat exactly across seeds, and
the outputs (and their digest) differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from repro.llm import DecoderLM, tiny_config
from repro.serve import Request
from repro.workloads import zipf_shared_prefix_requests

#: The model every workload serves — the size every serving bench of this
#: repository uses, i.e. the regime in which the 2.1x-kernel / 1.34x-engine
#: gap was observed.
VOCAB = 128


def build_model() -> DecoderLM:
    config = tiny_config("bench-e2e", n_layers=4, d_model=64, n_heads=4,
                         d_ff=128, vocab_size=VOCAB, max_seq_len=640)
    return DecoderLM(config, seed=0)


class Arrival(NamedTuple):
    due_step: int
    request: Request


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for ``BENCHMARK.json``: what the workload loads and bypasses.
    why: str
    #: ``seed -> arrivals`` in due order (the full geometry).
    generate: "Callable[[int], list[Arrival]]"
    #: Cache spec string, resolved afresh for every run (fresh pools).
    cache: str
    max_concurrency: int
    #: Extra keyword arguments of ``ServingEngine.start_functional`` (or of
    #: ``ClusterEngine`` when ``replicas`` is set).
    engine_kwargs: dict = field(default_factory=dict)
    #: Number of cluster replicas; ``None`` serves on one ``FunctionalSession``.
    replicas: "int | None" = None


SHAPE_SEED = 20250928


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng((seed, salt))


def _request(index: int, due_step: int, prompt: "tuple[int, ...]",
             decode_len: int) -> Arrival:
    # arrival_time_s only orders requests inside the scheduler; the index
    # term keeps that order equal to generation order within one step.
    return Arrival(due_step, Request(
        request_id=f"r{index:05d}", arrival_time_s=due_step + index * 1e-6,
        prompt_len=len(prompt), decode_len=decode_len, prompt_tokens=prompt))


def _random_prompts(rng: np.random.Generator, n: int, length: int):
    return [tuple(rng.integers(0, VOCAB, size=length).tolist()) for _ in range(n)]


def _decode_heavy(seed: int) -> "list[Arrival]":
    prompts = _random_prompts(_rng(seed, 1), 5 * 32, 32)
    return [_request(i, 0, p, 192) for i, p in enumerate(prompts)]


def _prefill_heavy(seed: int) -> "list[Arrival]":
    n = 100
    # Poisson arrivals at 0.5 requests/step: 384 prompt tokens every 2 steps
    # is 75 % of the 256-token step budget, so the queue is stable.
    gaps = _rng(SHAPE_SEED, 2).exponential(2.0, size=n)
    due = np.floor(np.cumsum(gaps)).astype(int)
    prompts = _random_prompts(_rng(seed, 2), n, 384)
    return [_request(i, int(due[i]), p, 8) for i, p in enumerate(prompts)]


def _small_requests(seed: int) -> "list[Arrival]":
    n, n_templates = 1600, 1500
    templates = _random_prompts(_rng(seed, 3), n_templates, 36)
    weights = np.arange(1, n_templates + 1, dtype=float) ** -0.3
    picks = _rng(SHAPE_SEED, 3).choice(n_templates, size=n,
                                       p=weights / weights.sum())
    return [_request(i, i // 16, templates[int(t)], 3)
            for i, t in enumerate(picks)]


def _kelle_decode(seed: int) -> "list[Arrival]":
    prompts = _random_prompts(_rng(seed, 4), 2 * 16, 160)
    return [_request(i, 0, p, 64) for i, p in enumerate(prompts)]


CLUSTER_ARRIVALS_PER_STEP = 2


def zipf_template(request_id: str) -> str:
    """The template of a ``zipf_shared_prefix_requests`` request, whose ids
    read ``z<template>r<index>``."""
    return request_id.split("r")[0]


def _cluster_zipf(seed: int) -> "list[Arrival]":
    prefix_len, suffix_len = 256, 16
    shape = zipf_shared_prefix_requests(
        n_requests=200, n_templates=16, prefix_len=prefix_len,
        suffix_len=suffix_len, decode_len=24, vocab_size=VOCAB,
        decode_sigma=1.0, max_decode_len=96, seed=SHAPE_SEED)
    # Keep the generator's picks, decode lengths and order; redraw the
    # tokens from --seed.
    rng = _rng(seed, 5)
    templates: "dict[str, tuple[int, ...]]" = {}
    arrivals = []
    for i, request in enumerate(shape):
        template = zipf_template(request.request_id)
        if template not in templates:
            templates[template] = _random_prompts(rng, 1, prefix_len)[0]
        prompt = templates[template] + _random_prompts(rng, 1, suffix_len)[0]
        # ClusterEngine routes `arrivals_per_step` requests per round in
        # arrival order: that is the due round queue waits count from.
        arrivals.append(Arrival(i // CLUSTER_ARRIVALS_PER_STEP,
                                replace(request, prompt_tokens=prompt)))
    return arrivals


PAGED = "paged:page_tokens=16"

WORKLOADS: "dict[str, Workload]" = {w.name: w for w in (
    Workload(
        name="decode-heavy",
        why="offline batch of long decodes on the paged cache: fused "
            "decode_step_batch does ~70% of the work; radix, chunked prefill "
            "and the AERP cache are bypassed",
        generate=_decode_heavy, cache=PAGED, max_concurrency=32,
        engine_kwargs=dict(capacity_tokens=8192)),
    Workload(
        name="prefill-heavy",
        why="unshared 384-token prompts, 8-token decodes, Poisson arrivals at "
            "75% of the step token budget: chunked prefill dominates and the "
            "radix index is written but never hit",
        generate=_prefill_heavy, cache=PAGED, max_concurrency=16,
        engine_kwargs=dict(token_budget=256, prefix_cache=True,
                           capacity_tokens=16384)),
    Workload(
        name="small-requests",
        why="thousands of 36-token prompts with 3-token decodes churning a "
            "bounded radix index: scheduler, KV manager, radix insert+evict "
            "and page alloc are amortised over 3 tokens, not 192",
        generate=_small_requests, cache=PAGED, max_concurrency=32,
        engine_kwargs=dict(token_budget=512, prefix_cache=True,
                           radix_max_tokens=16384, capacity_tokens=32768)),
    Workload(
        name="kelle-decode",
        why="the paper's AERP cache with prompts over its budget: per-token "
            "append/fetch/observe_attention/evict and the per-sequence "
            "attention fallback; page pool, radix and fusion are bypassed",
        generate=_kelle_decode,
        cache="kelle:budget=128,sink_tokens=8,recent_window=32,refresh=none",
        max_concurrency=16),
    Workload(
        name="cluster-zipf",
        why="4 replicas behind the radix-affinity router on Zipf "
            "shared-prefix traffic: radix is read-mostly (~87% of prompt "
            "tokens reused) and it is the only workload running serve.cluster",
        generate=_cluster_zipf, cache=PAGED, max_concurrency=8, replicas=4,
        engine_kwargs=dict(router="radix-affinity", prefix_cache=True,
                           token_budget=128, capacity_tokens=16384,
                           arrivals_per_step=CLUSTER_ARRIVALS_PER_STEP)),
)}
