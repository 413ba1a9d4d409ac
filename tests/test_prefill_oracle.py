"""``prefill_batch`` (``forward_chunks`` at position 0) against the padded
whole-prompt forward it replaced (``tests/reference_prefill.py``).

Every cache spec on every tiny model and the e2e benchmark's model: the
prompt logits, each layer's fetched K/V and, for ``kelle``, the tokens each
head retains with their importance and stored inputs.  The two forwards
issue differently shaped GEMMs (one fused QKV GEMM over the concatenated
prompts against three over the padded block), whose last bits depend on
the BLAS build, and where ``1/sqrt(head_dim)`` is not a power of two the
chunk forward's float32 attention scale rounds differently from the
oracle's float64 one.  So they agree within ``ATOL`` with the same argmax,
and within one fp16 step where the pool rounds to fp16.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.config import TINY_CONFIGS, tiny_config
from repro.llm.model import DecoderLM
from repro.registry import resolve

from cache_specs import ALL_CACHE_SPECS
from reference_prefill import reference_prefill_batch

CONFIGS = {**TINY_CONFIGS,
           "bench-e2e": tiny_config("bench-e2e", n_layers=4, d_model=64, n_heads=4,
                                    d_ff=128, vocab_size=128, max_seq_len=640)}
#: Ragged prompts over the eviction budgets of ``ALL_CACHE_SPECS``; the two
#: of 17 tokens share one paged attention group.
PROMPT_LENS = (5, 17, 12, 17)
ATOL = 1e-6


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def lm(request) -> DecoderLM:
    return DecoderLM(CONFIGS[request.param], seed=0)


@pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
def test_prefill_batch_matches_the_padded_forward(lm, spec):
    head_dim = lm.config.head_dim
    if spec.startswith("quarot") and head_dim & (head_dim - 1):
        pytest.skip("quarot's Hadamard rotation needs a power-of-two head_dim")
    rng = np.random.default_rng(1)
    prompts = [rng.integers(0, lm.config.vocab_size, size=n).tolist() for n in PROMPT_LENS]
    factory, oracle_factory = resolve("cache", spec), resolve("cache", spec)
    got_caches = [lm.make_caches(factory) for _ in prompts]
    want_caches = [lm.make_caches(oracle_factory) for _ in prompts]
    got = lm.prefill_batch(prompts, got_caches)
    want = reference_prefill_batch(lm, prompts, want_caches)

    def check(mine, theirs, rtol=0.0):
        np.testing.assert_allclose(mine, theirs, rtol=rtol, atol=ATOL)

    check(got, want)
    np.testing.assert_array_equal(got.argmax(axis=-1), want.argmax(axis=-1))
    rtol = 2.0 ** -10 if "fp16" in spec else 0.0  # one fp16 rounding step
    for got_stack, want_stack in zip(got_caches, want_caches):
        for layer, (mine, theirs) in enumerate(zip(got_stack, want_stack)):
            assert mine.num_tokens == theirs.num_tokens, layer
            for mine_part, their_part in zip(mine.fetch(), theirs.fetch()):
                check(mine_part, their_part, rtol)
            if spec.startswith("kelle"):
                mine_entries, their_entries = mine.entries, theirs.entries
                assert mine_entries.keys() == their_entries.keys()
                for token, entry in mine_entries.items():
                    oracle = their_entries[token]
                    assert entry.retaining_heads == oracle.retaining_heads, (layer, token)
                    check(entry.importance, oracle.importance)
                    check(entry.x, oracle.x)
