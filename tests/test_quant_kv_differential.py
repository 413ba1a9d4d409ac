"""The paged ``kivi`` / ``quarot`` caches against their contiguous oracle.

``kivi:bits=`` / ``quarot:bits=`` are the paged pool with a fake-quant write
codec; ``reference_quant_kv.py`` keeps the caches with storage of their own
they replaced.  On the conformance geometry the stored K/V are bit-identical.
On the batched-equivalence geometries the greedy tokens and the logits are
identical bit for bit: a row attending alone (a batch of one, ``fused=False``)
or in a fused paged group, which attends each length beside its equals only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.generation import forced_decode_logprobs_batch, generate, generate_batch
from repro.registry import resolve

from reference_quant_kv import reference_kivi_factory, reference_quarot_factory

#: Each paged spec beside the oracle factory it must match.
PAIRS = [
    ("kivi:bits=8", lambda: reference_kivi_factory(8)),
    ("quarot:bits=8", lambda: reference_quarot_factory(8)),
    ("kivi:bits=2", lambda: reference_kivi_factory(2)),
    ("quarot:bits=4", lambda: reference_quarot_factory(4)),
]


def _prompts(vocab_size, lengths, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, vocab_size, size=n).tolist() for n in lengths]


@pytest.mark.parametrize("spec, reference", PAIRS)
def test_stored_kv_bit_identical_on_the_conformance_geometry(spec, reference, rng):
    n_heads, head_dim, d_model = 2, 4, 8
    new = resolve("cache", spec)(0, n_heads, head_dim, d_model, None)
    old = reference()(0, n_heads, head_dim, d_model, None)
    keys = rng.standard_normal((n_heads, 13, head_dim)).astype(np.float32)
    values = rng.standard_normal((n_heads, 13, head_dim)).astype(np.float32)
    for cache in (new, old):
        cache.prefill(keys, values, None, None)
    for position in range(13, 18):
        key = rng.standard_normal((n_heads, head_dim)).astype(np.float32)
        value = rng.standard_normal((n_heads, head_dim)).astype(np.float32)
        for cache in (new, old):
            cache.append(key, value, None, position)
    assert new.num_tokens == old.num_tokens == 18
    assert new.stored_bytes() == old.stored_bytes()
    for got, want in zip(new.fetch(), old.fetch()):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("spec, reference", PAIRS)
def test_generation_matches_the_oracle(small_model, spec, reference):
    vocab = small_model.config.vocab_size
    prompts = _prompts(vocab, (7, 12, 9, 1), seed=3)
    new, old = resolve("cache", spec), reference()
    batched = [generate_batch(small_model, prompts, 6, cache_factory=factory, seed=0)
               for factory in (new, old)]
    for got, want in zip(*batched):
        assert got.generated_tokens == want.generated_tokens
        np.testing.assert_array_equal(got.logprobs, want.logprobs)
    for prompt in prompts:  # a batch of one
        got, want = (generate(small_model, prompt, 6, cache_factory=factory, seed=0)
                     for factory in (new, old))
        assert got.generated_tokens == want.generated_tokens
        np.testing.assert_array_equal(got.logprobs, want.logprobs)


@pytest.mark.parametrize("spec, reference", PAIRS)
def test_forced_decode_matches_the_oracle(small_model, spec, reference):
    vocab = small_model.config.vocab_size
    prompts = _prompts(vocab, (6, 13, 9), seed=7)
    continuations = _prompts(vocab, (5, 2, 7), seed=8)
    got, want = (forced_decode_logprobs_batch(small_model, prompts, continuations,
                                              cache_factory=factory)
                 for factory in (resolve("cache", spec), reference()))
    for got_row, want_row in zip(got, want):
        np.testing.assert_array_equal(got_row, want_row)


@pytest.mark.parametrize("spec, reference", PAIRS)
def test_prefill_stores_what_the_oracle_stores(small_model, spec, reference):
    prompts = _prompts(small_model.config.vocab_size, (5, 12, 8), seed=9)
    runs = []
    for factory in (resolve("cache", spec), reference()):
        caches_batch = [small_model.make_caches(factory) for _ in prompts]
        runs.append((small_model.prefill_batch(prompts, caches_batch), caches_batch))
    (got, new), (want, old) = runs
    np.testing.assert_array_equal(got, want)
    for new_caches, old_caches in zip(new, old):
        for new_cache, old_cache in zip(new_caches, old_caches):
            for part, oracle in zip(new_cache.fetch(), old_cache.fetch()):
                np.testing.assert_array_equal(part, oracle)


@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize("spec, reference", PAIRS)
def test_ragged_decode_matches_the_oracle(small_model, spec, reference, fused):
    """The stacked-attention suite's ragged rows: two equal prompts over
    the others, the rest short, one on a length of its own."""
    prompts = _prompts(small_model.config.vocab_size, (12, 12, 14, 3, 3, 5), seed=21)
    runs = []
    for factory in (resolve("cache", spec), reference()):
        caches_batch = [small_model.make_caches(factory) for _ in prompts]
        small_model.prefill_batch(prompts, caches_batch)
        tokens = [prompt[-1] for prompt in prompts]
        positions = [len(prompt) for prompt in prompts]
        trace = []
        for _ in range(8):
            logits = small_model.decode_step_batch(tokens, positions, caches_batch,
                                                   fused=fused)
            trace.append(logits)
            tokens = np.argmax(logits, axis=-1).tolist()
            positions = [p + 1 for p in positions]
        runs.append(np.stack(trace))
    np.testing.assert_array_equal(*runs)
