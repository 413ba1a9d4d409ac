"""Accuracy metrics: multiple choice, and ROUGE-1-style unigram overlap."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.llm.cache import KVCacheFactory
from repro.llm.generation import forced_decode_logprobs_batch, generate_batch
from repro.llm.model import DecoderLM
from repro.workloads.tasks import MultipleChoiceItem


def multiple_choice_accuracy(model: DecoderLM, items: Sequence[MultipleChoiceItem],
                             cache_factory: KVCacheFactory | None,
                             batch_size: int = 1) -> float:
    """Fraction of items whose correct choice receives the highest log-probability.

    The (item, choice) pairs are scored through the batched forced-decode
    path, ``batch_size`` lanes per forward pass.
    """
    if not items:
        raise ValueError("items must be non-empty")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    pairs = [(item_index, choice)
             for item_index, item in enumerate(items) for choice in item.choices]
    scores_by_item: list[list[float]] = [[] for _ in items]
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        logprobs = forced_decode_logprobs_batch(
            model,
            [items[item_index].prompt_tokens for item_index, _ in chunk],
            [choice for _, choice in chunk],
            cache_factory=cache_factory,
        )
        for (item_index, _), choice_logprobs in zip(chunk, logprobs):
            scores_by_item[item_index].append(float(np.sum(choice_logprobs)))
    correct = sum(
        1 for item, scores in zip(items, scores_by_item)
        if int(np.argmax(scores)) == item.correct_index
    )
    return correct / len(items)


def unigram_overlap_f1(generated: Sequence[int], reference: Sequence[int]) -> float:
    """ROUGE-1-style unigram F1 between generated and reference token bags."""
    if len(reference) == 0:
        raise ValueError("reference must be non-empty")
    if len(generated) == 0:
        return 0.0
    gen_counts = Counter(int(t) for t in generated)
    ref_counts = Counter(int(t) for t in reference)
    overlap = sum((gen_counts & ref_counts).values())
    precision = overlap / max(1, sum(gen_counts.values()))
    recall = overlap / sum(ref_counts.values())
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def summarization_overlap(model: DecoderLM, documents: Sequence[tuple[np.ndarray, np.ndarray]],
                          cache_factory: KVCacheFactory | None, summary_len: int = 32,
                          seed: int = 0, batch_size: int = 1) -> float:
    """Mean unigram-overlap score of generated continuations against references.

    Each document is paired with its salient reference tokens (see
    :func:`repro.workloads.tasks.make_summarization_items`); the model
    generates ``summary_len`` tokens after the document under the cache
    policy and the continuation is scored by unigram F1 against the
    reference.  Documents are generated ``batch_size`` at a time through
    :func:`generate_batch`.
    """
    if not documents:
        raise ValueError("documents must be non-empty")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    scores = []
    for start in range(0, len(documents), batch_size):
        chunk = documents[start:start + batch_size]
        results = generate_batch(model, [doc for doc, _ in chunk], summary_len,
                                 cache_factory=cache_factory, temperature=0.0, seed=seed)
        for result, (_, reference) in zip(results, chunk):
            scores.append(unigram_overlap_f1(result.generated_tokens, reference))
    return float(np.mean(scores))
