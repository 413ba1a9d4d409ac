"""One sequence is a batch of one.

The single-sequence entry points — ``DecoderLM.prefill`` / ``decode_step``,
``generate`` (plain and speculative), ``forced_decode_logprobs`` and the eval
functions at ``batch_size=1`` — have no forward or decode loop of their own:
a spy on the batched forwards counts exactly the calls, each of one
sequence, that the batched drivers issue.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.accuracy import multiple_choice_accuracy, summarization_overlap
from repro.eval.perplexity import perplexity_over_documents
from repro.llm.generation import forced_decode_logprobs, generate, generate_batch
from repro.llm.model import DecoderLM
from repro.registry import resolve
from repro.workloads.synthetic import SyntheticLanguage
from repro.workloads.tasks import make_multiple_choice_task, make_summarization_items

from cache_specs import ALL_CACHE_SPECS

BATCHED = ("prefill_batch", "decode_step_batch", "verify_chunk_batch")


def _counting(name: str, sizes: list[int]):
    method = getattr(DecoderLM, name)

    def counted(self, first, *args, **kwargs):
        sizes.append(len(first))  # sequences in the call
        return method(self, first, *args, **kwargs)

    return counted


@pytest.fixture
def spy(monkeypatch):
    """``{forward: [batch size of each call]}`` for the batched forwards."""
    calls: dict[str, list[int]] = {name: [] for name in BATCHED}
    for name, sizes in calls.items():
        monkeypatch.setattr(DecoderLM, name, _counting(name, sizes))
    return calls


def _counts(spy) -> dict[str, int]:
    return {name: len(sizes) for name, sizes in spy.items()}


def _batches_of_one(spy) -> bool:
    return all(size == 1 for sizes in spy.values() for size in sizes)


def _language() -> SyntheticLanguage:
    return SyntheticLanguage(n_keys=4, n_values=4, n_content=19, n_topics=4,
                             topic_vocab_size=5, seed=0)


def test_model_single_sequence_forwards_are_batches_of_one(small_model, spy):
    caches = small_model.make_caches()
    small_model.prefill([1, 2, 3], caches)
    small_model.decode_step(4, 3, caches)
    small_model.decode_step(5, 4, caches)
    assert _counts(spy) == {"prefill_batch": 1, "decode_step_batch": 2,
                            "verify_chunk_batch": 0}
    assert _batches_of_one(spy)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_generate_prefills_once_and_decodes_n_minus_one_steps(small_model, spy, n):
    result = generate(small_model, [3, 1, 4, 1, 5], n)
    assert len(result.generated_tokens) == n
    assert _counts(spy) == {"prefill_batch": 1, "decode_step_batch": n - 1,
                            "verify_chunk_batch": 0}
    assert _batches_of_one(spy)


def test_speculative_generate_verifies_chunks(small_model, spy):
    prompt = [3, 1, 4, 1, 5, 9, 2] * 4
    result = generate(small_model, prompt, 12, drafter="ngram:k=4")
    assert len(result.generated_tokens) == 12 and result.spec_proposed > 0
    counts = _counts(spy)
    assert counts["prefill_batch"] == 1 and counts["decode_step_batch"] == 0
    # Each round emits at least one token; the first came from the prefill.
    assert 1 <= counts["verify_chunk_batch"] <= 11
    assert _batches_of_one(spy)


def test_forced_decode_feeds_all_but_the_last_token(small_model, spy):
    logprobs = forced_decode_logprobs(small_model, [1, 2, 3, 4], [5, 6, 7, 8, 9])
    assert len(logprobs) == 5
    assert _counts(spy) == {"prefill_batch": 1, "decode_step_batch": 4,
                            "verify_chunk_batch": 0}
    assert _batches_of_one(spy)


def test_perplexity_at_batch_size_one_runs_batches_of_one(small_model, spy):
    rng = np.random.default_rng(0)
    docs = [rng.integers(0, small_model.config.vocab_size, size=14) for _ in range(3)]
    perplexity_over_documents(small_model, docs, None, prefill_len=8, batch_size=1)
    assert _counts(spy) == {"prefill_batch": 3, "decode_step_batch": 3 * 5,
                            "verify_chunk_batch": 0}
    assert _batches_of_one(spy)


def test_multiple_choice_at_batch_size_one_runs_batches_of_one(small_model, spy):
    items = make_multiple_choice_task(_language(), 2, 24, seed=0)
    multiple_choice_accuracy(small_model, items, None, batch_size=1)
    choices = [choice for item in items for choice in item.choices]
    assert _counts(spy) == {"prefill_batch": len(choices),
                            "decode_step_batch": sum(len(c) - 1 for c in choices),
                            "verify_chunk_batch": 0}
    assert _batches_of_one(spy)


def test_summarization_at_batch_size_one_runs_batches_of_one(small_model, spy):
    summaries = make_summarization_items(_language(), 2, 24, seed=0)
    summarization_overlap(small_model, summaries, None, summary_len=6, batch_size=1)
    assert _counts(spy) == {"prefill_batch": 2, "decode_step_batch": 2 * 5,
                            "verify_chunk_batch": 0}
    assert _batches_of_one(spy)


@pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
def test_zero_new_tokens_runs_no_forward(small_model, spy, spec):
    """``max_new_tokens=0`` means the same for both drivers: no forward,
    nothing generated, the caches empty."""
    factory = resolve("cache", spec)
    single = generate(small_model, [1, 2, 3], 0, cache_factory=factory)
    (batched,) = generate_batch(small_model, [[1, 2, 3]], 0, cache_factory=factory)
    assert single.generated_tokens == batched.generated_tokens == []
    assert [cache.num_tokens for cache in single.caches] \
        == [cache.num_tokens for cache in batched.caches] \
        == [0] * small_model.config.n_layers
    assert _counts(spy) == dict.fromkeys(BATCHED, 0)
