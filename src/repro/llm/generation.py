"""Prefill + auto-regressive decode drivers.

This is the serving loop of Figure 1 (a) of the paper: the context is
processed in parallel during pre-filling, then tokens are generated
auto-regressively, each step reading the KV cache managed by the active
policy.  The drivers run ``B`` independent sequences through
:meth:`DecoderLM.prefill_batch` / :meth:`DecoderLM.decode_step_batch`, each
with its own per-layer caches and generation RNG; one sequence is a batch of
one (:func:`generate`, :func:`forced_decode_logprobs`).  A sequence's tokens
do not depend on its batch company (batched BLAS reductions may reorder
float ops, so the last bits of a logit can differ; the equivalence suite pins
the tokens).

Both drivers accept a ``drafter`` (a :class:`repro.llm.speculate.Drafter` or
spec string such as ``"ngram:k=4"``): with greedy decoding and a
rollback-capable cache (``full``/``paged``), each decode round verifies every
sequence's proposed tokens in one :meth:`DecoderLM.verify_chunk_batch`
forward and emits the accepted prefix plus the first-mismatch token --
token-identical to plain greedy decoding, but with up to ``k + 1`` tokens per
forward pass.  Caches without rollback support silently run
non-speculatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.llm.cache import KVCacheFactory, LayerKVCache
from repro.llm.functional import log_softmax, softmax
from repro.llm.model import DecoderLM
from repro.llm.speculate import Drafter, accept_greedy, resolve_drafter
from repro.registry import resolve
from repro.utils.rng import derive_rng

#: Streaming hook for :func:`generate`: called with ``(token, index)`` the
#: moment each token is generated.  :func:`generate_batch` prepends the
#: sequence index: ``(seq_index, token, index)``.
OnGenToken = Callable[[int, int], None]
OnBatchToken = Callable[[int, int, int], None]


def _noop(*_args: int) -> None:
    return None


@dataclass
class GenerationResult:
    """Outcome of one prefill + decode run."""

    prompt_tokens: list[int]
    generated_tokens: list[int]
    logprobs: list[float] = field(default_factory=list)
    caches: list[LayerKVCache] = field(default_factory=list)
    #: Speculative-decoding counters (0/0 when no drafter was active).
    spec_proposed: int = 0
    spec_accepted: int = 0

    @property
    def total_tokens(self) -> int:
        return len(self.prompt_tokens) + len(self.generated_tokens)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of drafter-proposed tokens the target model accepted."""
        if self.spec_proposed == 0:
            return 0.0
        return self.spec_accepted / self.spec_proposed


def _select_from_logprobs(logp: np.ndarray, temperature: float,
                          rng: np.random.Generator) -> tuple[int, float]:
    """Pick the next token from a log-softmax row, returning (token, logprob).

    A single ``log_softmax`` serves both selection and scoring: softmax is
    shift-invariant, so ``softmax(logp / T) == softmax(logits / T)`` exactly,
    and the sampled token's log-probability is just ``logp[token]`` — no
    second full-vocabulary normalisation.
    """
    if temperature <= 0:
        token = int(np.argmax(logp))
    else:
        probs = softmax(logp / temperature)
        token = int(rng.choice(probs.size, p=probs))
    return token, float(logp[token])


def _speculation_enabled(model: DecoderLM, drafter: Drafter | None,
                         caches: list[LayerKVCache], temperature: float) -> bool:
    """Whether the speculative path can run for this (drafter, cache) pair.

    Speculation is greedy-only (acceptance compares argmax choices), so an
    active drafter with ``temperature > 0`` is an error; caches without
    rollback support silently disable it (the documented fallback).
    """
    if drafter is None or drafter.k <= 0:
        return False
    if temperature > 0:
        raise ValueError("speculative decoding requires greedy decoding "
                         "(temperature=0); drop the drafter to sample")
    if not all(c.supports_chunked_prefill and c.supports_rollback for c in caches):
        return False
    drafter.check_compatible(model.config)
    return True


def _decode_speculative(model: DecoderLM, drafter: Drafter,
                        caches_batch: Sequence[list[LayerKVCache]],
                        results: list[GenerationResult], logits: np.ndarray,
                        max_new_tokens: int, eos_id: int | None,
                        on_token: OnBatchToken = _noop) -> None:
    """Greedy speculative decode, one verify forward per round for the
    batch (mutates ``results``).

    Every active sequence contributes its chunk (``[next_input, *proposals]``,
    possibly proposal-free) to one :meth:`DecoderLM.verify_chunk_batch` call;
    each emits its accepted proposal prefix plus the first-mismatch/bonus
    token and rolls its caches back over the rejected positions.  Acceptance,
    rollback and EOS dropout are per sequence, exactly as ``B`` batches of
    one would run.
    """
    batch = len(results)
    sessions = [drafter.session() for _ in range(batch)]
    positions = [len(r.prompt_tokens) for r in results]
    logp = log_softmax(logits, axis=-1)
    active: list[int] = []
    for b, result in enumerate(results):
        token = int(np.argmax(logp[b]))
        result.generated_tokens.append(token)
        result.logprobs.append(float(logp[b, token]))
        on_token(b, token, len(result.generated_tokens) - 1)
        if max_new_tokens > 1 and not (eos_id is not None and token == eos_id):
            active.append(b)
    while active:
        chunks: list[list[int]] = []
        for b in active:
            result = results[b]
            remaining = max_new_tokens - len(result.generated_tokens)
            proposals = sessions[b].propose(
                result.prompt_tokens + result.generated_tokens,
                max_tokens=remaining - 1)
            chunks.append([result.generated_tokens[-1], *proposals])
        logits_list = model.verify_chunk_batch(
            chunks, [positions[b] for b in active], [caches_batch[b] for b in active])
        still_active: list[int] = []
        for row, b in enumerate(active):
            result = results[b]
            proposals = chunks[row][1:]
            accepted, emitted = accept_greedy(logits_list[row], proposals)
            result.spec_proposed += len(proposals)
            result.spec_accepted += accepted
            caches_batch[b][0].truncate_stack(caches_batch[b], positions[b] + 1 + accepted)
            positions[b] += 1 + accepted
            logp_rows = log_softmax(logits_list[row][:len(emitted)], axis=-1)
            stopped = False
            for j, tok in enumerate(emitted):
                result.generated_tokens.append(tok)
                result.logprobs.append(float(logp_rows[j, tok]))
                on_token(b, tok, len(result.generated_tokens) - 1)
                if eos_id is not None and tok == eos_id:
                    stopped = True
                    break
            if not stopped and len(result.generated_tokens) < max_new_tokens:
                still_active.append(b)
        active = still_active
    # Cache-state parity with the plain loop, which never feeds the final
    # token: drop any verified-but-unemitted tail (e.g. after a mid-chunk EOS).
    for result, caches in zip(results, caches_batch):
        caches[0].truncate_stack(
            caches, len(result.prompt_tokens) + len(result.generated_tokens) - 1)


def generate_batch(model: DecoderLM, prompts: Sequence[Sequence[int]], max_new_tokens: int,
                   cache_factory: KVCacheFactory | None = None, temperature: float = 0.0,
                   eos_id: int | None = None, seed: int = 0,
                   drafter: Drafter | str | None = None,
                   on_token: OnBatchToken | None = None) -> list[GenerationResult]:
    """Generate ``max_new_tokens`` continuation tokens for each of ``B``
    prompts with batched forward passes.

    ``cache_factory`` selects the KV-cache policy; each sequence gets its own
    per-layer caches (one :meth:`make_caches` call per prompt, all from one
    factory: ``None`` resolves one ``"full"`` pool for the call, so the rows
    fuse).  ``temperature`` 0 means greedy decoding; otherwise each sequence
    samples with its own RNG derived from ``seed`` alone, so its tokens do not
    depend on its batch company.  Sequences that emit ``eos_id`` drop out of
    the running batch; the rest continue.  ``max_new_tokens=0`` runs no
    forward and returns empty caches.

    ``drafter`` (a spec string such as ``"ngram:k=4"`` or a built
    :class:`~repro.llm.speculate.Drafter`) enables speculative decoding:
    token-identical to greedy decoding, but emitting up to ``k + 1`` tokens
    per forward pass when proposals are accepted, every sequence's proposal
    chunk verified in one batched forward per round.  Requires a
    rollback-capable cache (``full``/``paged``); other caches run
    non-speculatively.  ``on_token`` streams each generated token as
    ``(seq_index, token, index)`` the moment it is produced (the serving
    engine's :class:`~repro.serve.executor.TokenEvent` hook).

    Each result's ``caches`` hold their pool pages until released
    (``caches[0].release_stack(caches)``); a caller reusing one paged
    factory across calls releases them when done.
    """
    if max_new_tokens < 0:
        raise ValueError("max_new_tokens must be non-negative")
    prompt_lists = [list(int(t) for t in prompt) for prompt in prompts]
    if not prompt_lists or any(not prompt for prompt in prompt_lists):
        raise ValueError("prompts must be a non-empty list of non-empty sequences")
    drafter = resolve_drafter(drafter)
    batch = len(prompt_lists)
    rngs = [derive_rng(seed, "generate") for _ in range(batch)]
    factory = resolve("cache", "full" if cache_factory is None else cache_factory)
    caches_batch = [model.make_caches(factory) for _ in range(batch)]
    speculative = _speculation_enabled(model, drafter, caches_batch[0], temperature)
    results = [GenerationResult(prompt_tokens=prompt, generated_tokens=[], caches=caches)
               for prompt, caches in zip(prompt_lists, caches_batch)]
    if max_new_tokens == 0:
        return results
    emit = on_token or _noop
    logits = model.prefill_batch(prompt_lists, caches_batch)  # [B, vocab]
    if speculative:
        _decode_speculative(model, drafter, caches_batch, results, logits,
                            max_new_tokens, eos_id, on_token=emit)
        return results
    positions = [len(prompt) for prompt in prompt_lists]
    active = list(range(batch))
    for step in range(max_new_tokens):
        logp = log_softmax(logits, axis=-1)
        next_tokens: list[int] = []
        still_active: list[int] = []
        for row, b in enumerate(active):
            token, token_logp = _select_from_logprobs(logp[row], temperature, rngs[b])
            results[b].generated_tokens.append(token)
            results[b].logprobs.append(token_logp)
            emit(b, token, len(results[b].generated_tokens) - 1)
            if eos_id is not None and token == eos_id:
                continue
            next_tokens.append(token)
            still_active.append(b)
        active = still_active
        if not active or step == max_new_tokens - 1:
            break
        logits = model.decode_step_batch(next_tokens, [positions[b] for b in active],
                                         [caches_batch[b] for b in active])
        for b in active:
            positions[b] += 1
    return results


def generate(model: DecoderLM, prompt_tokens: Sequence[int], max_new_tokens: int,
             cache_factory: KVCacheFactory | None = None, temperature: float = 0.0,
             eos_id: int | None = None, seed: int = 0,
             drafter: Drafter | str | None = None,
             on_token: OnGenToken | None = None) -> GenerationResult:
    """:func:`generate_batch` of one: ``max_new_tokens`` continuation tokens
    for ``prompt_tokens``, ``on_token`` called as ``(token, index)``."""
    emit = None if on_token is None else (lambda _seq, token, index: on_token(token, index))
    return generate_batch(model, [prompt_tokens], max_new_tokens, cache_factory, temperature,
                          eos_id, seed, drafter, on_token=emit)[0]


def forced_decode_logprobs(model: DecoderLM, prompt_tokens: Sequence[int],
                           continuation_tokens: Sequence[int],
                           cache_factory: KVCacheFactory | None = None) -> list[float]:
    """:func:`forced_decode_logprobs_batch` of one: the log-probabilities
    of a forced continuation under a cache policy."""
    return forced_decode_logprobs_batch(model, [prompt_tokens], [continuation_tokens],
                                        cache_factory)[0]


def forced_decode_logprobs_batch(model: DecoderLM, prompts: Sequence[Sequence[int]],
                                 continuations: Sequence[Sequence[int]],
                                 cache_factory: KVCacheFactory | None = None,
                                 ) -> list[list[float]]:
    """Log-probabilities of ``B`` forced continuations under a cache policy.

    This is the primitive behind the cache-aware perplexity evaluation: each
    prompt is pre-filled, then each continuation token is scored with the
    logits produced while the *policy-managed* cache serves attention, and fed
    back as the next input (teacher forcing).  The pairs run as one batch, a
    sequence per lane (ragged prompt and continuation lengths are fine), every
    lane's caches from one factory (``None`` resolves one ``"full"`` pool for
    the call) and released before returning.
    """
    prompt_lists = [list(int(t) for t in prompt) for prompt in prompts]
    cont_lists = [list(int(t) for t in cont) for cont in continuations]
    if len(prompt_lists) != len(cont_lists):
        raise ValueError("prompts and continuations must have equal length")
    if not prompt_lists or any(not p for p in prompt_lists) or any(not c for c in cont_lists):
        raise ValueError("prompts and continuations must be non-empty")
    batch = len(prompt_lists)
    factory = resolve("cache", "full" if cache_factory is None else cache_factory)
    caches_batch = [model.make_caches(factory) for _ in range(batch)]
    logits = model.prefill_batch(prompt_lists, caches_batch)  # [B, vocab]
    positions = [len(prompt) for prompt in prompt_lists]
    cursors = [0] * batch
    logprobs: list[list[float]] = [[] for _ in range(batch)]
    active = list(range(batch))
    while active:
        logp = log_softmax(logits, axis=-1)
        feed_tokens: list[int] = []
        still_active: list[int] = []
        for row, b in enumerate(active):
            token = cont_lists[b][cursors[b]]
            logprobs[b].append(float(logp[row, token]))
            cursors[b] += 1
            if cursors[b] < len(cont_lists[b]):
                feed_tokens.append(token)
                still_active.append(b)
        active = still_active
        if not active:
            break
        logits = model.decode_step_batch(feed_tokens, [positions[b] for b in active],
                                         [caches_batch[b] for b in active])
        for b in active:
            positions[b] += 1
    for caches in caches_batch:
        caches[0].release_stack(caches)
    return logprobs
