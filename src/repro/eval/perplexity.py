"""Perplexity evaluation, with and without a policy-managed KV cache.

The paper reports WikiText-2 and PG19 perplexity under each KV-cache policy.
Because eviction and retention faults only affect the *decoding* path, the
cache-aware perplexity here scores the continuation tokens produced by
teacher-forced decoding through the policy-managed cache, after a normal
pre-filling pass over the prompt.
"""

from __future__ import annotations

import numpy as np

from repro.llm.cache import KVCacheFactory
from repro.llm.functional import cross_entropy
from repro.llm.generation import forced_decode_logprobs_batch
from repro.llm.model import DecoderLM


def perplexity_full(model: DecoderLM, tokens: np.ndarray) -> float:
    """Teacher-forced perplexity with full attention (no cache policy)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size < 2:
        raise ValueError("need at least two tokens")
    logits = model.forward_full(tokens[:-1])
    return float(np.exp(cross_entropy(logits, tokens[1:])))


def perplexity_with_cache(model: DecoderLM, tokens: np.ndarray, cache_factory: KVCacheFactory | None,
                          prefill_len: int) -> float:
    """Perplexity of the continuation under a policy-managed KV cache.

    ``tokens[:prefill_len]`` is the prompt processed during pre-filling;
    ``tokens[prefill_len:]`` is scored token by token while the cache policy
    (eviction, recomputation, fault injection) is active.
    """
    return perplexity_over_documents(model, [tokens], cache_factory, prefill_len)


def perplexity_over_documents(model: DecoderLM, documents: list[np.ndarray],
                              cache_factory: KVCacheFactory | None, prefill_len: int,
                              batch_size: int = 1) -> float:
    """Mean cache-aware perplexity over several documents (token-weighted).

    Documents are scored ``batch_size`` at a time through the batched
    forced-decode path (one forward pass per token step for the whole batch).
    A document's scores depend on its batch company in the last bits only:
    its rows' dense projections run inside ``M >= 2`` GEMMs in a batch and as
    ``M = 1`` products alone, so batch 4 and batch 1 agree to ~1e-8 relative
    on the perplexity, not bit for bit.
    """
    if not documents:
        raise ValueError("documents must be non-empty")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    docs = [np.asarray(doc, dtype=np.int64) for doc in documents]
    for doc in docs:
        if not 0 < prefill_len < doc.size:
            raise ValueError(
                "prefill_len must split every document into non-empty prompt and continuation")
    total_nll = 0.0
    total_tokens = 0
    for start in range(0, len(docs), batch_size):
        chunk = docs[start:start + batch_size]
        logprobs = forced_decode_logprobs_batch(
            model,
            [doc[:prefill_len] for doc in chunk],
            [doc[prefill_len:] for doc in chunk],
            cache_factory=cache_factory,
        )
        for doc_logprobs in logprobs:
            total_nll += -float(np.sum(doc_logprobs))
            total_tokens += len(doc_logprobs)
    return float(np.exp(total_nll / total_tokens))
