"""Tests for the DecoderLM model: shapes, decode consistency, variants."""

from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest

from repro.core.kv_pool import PagedKVCache
from repro.llm import model as model_module
from repro.llm.config import FULL_SIZE_CONFIGS, ModelConfig, get_config, tiny_config
from repro.llm.model import DecoderLM


class TestModelConfig:
    def test_full_size_param_counts_in_expected_range(self):
        """Parameter counts of the shape configs should land near the model names."""
        expectations = {
            "llama2-7b": (6e9, 8e9),
            "llama2-13b": (12e9, 14.5e9),
            "llama3.2-3b": (2.5e9, 4e9),
            "mistral-7b": (6.5e9, 8e9),
            "opt-6.7b": (6e9, 7.5e9),
        }
        for name, (low, high) in expectations.items():
            params = FULL_SIZE_CONFIGS[name].total_params()
            assert low < params < high, f"{name}: {params:.2e}"

    def test_kv_bytes_per_token(self):
        config = get_config("llama2-7b")
        # 2 vectors x 4096 channels x 2 bytes x 32 layers = 1 MiB per token.
        assert config.kv_bytes_per_token(bits=16) == 2 * 4096 * 2 * 32
        assert config.kv_bytes_per_token_per_layer(bits=16) == 2 * 4096 * 2

    def test_gqa_reduces_kv_footprint(self):
        llama2 = get_config("llama2-7b")
        mistral = get_config("mistral-7b")
        assert mistral.kv_bytes_per_token_per_layer() < llama2.kv_bytes_per_token_per_layer()

    def test_decode_macs_grow_with_context(self):
        config = get_config("llama2-7b")
        assert config.decode_macs_per_token(4096) > config.decode_macs_per_token(128)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig("bad", 2, 30, 4, 64, 100)  # d_model not divisible by heads
        with pytest.raises(ValueError):
            ModelConfig("bad", 2, 32, 4, 64, 100, norm="weird")
        with pytest.raises(ValueError):
            ModelConfig("bad", 2, 32, 4, 64, 100, n_kv_heads=3)

    def test_get_config_lookup(self):
        assert get_config("tiny-llama2-7b").n_layers >= 2
        with pytest.raises(KeyError):
            get_config("nonexistent-model")


class TestDecoderLM:
    def test_parameter_shapes(self, small_model):
        config = small_model.config
        assert small_model.params["embed.weight"].shape == (config.vocab_size, config.d_model)
        assert small_model.params["layers.0.wq"].shape == (config.d_model, config.d_model)
        assert small_model.num_params() > 0

    def test_forward_full_shapes(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=12)
        logits = small_model.forward_full(tokens)
        assert logits.shape == (12, small_model.config.vocab_size)
        batched = small_model.forward_full(np.stack([tokens, tokens]))
        assert batched.shape == (2, 12, small_model.config.vocab_size)
        np.testing.assert_allclose(batched[0], logits, atol=1e-5)

    def test_prefill_matches_full_forward(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=10)
        caches = small_model.make_caches()
        logits = small_model.prefill(tokens, caches)
        reference = small_model.forward_full(tokens)[-1]
        np.testing.assert_allclose(logits, reference, atol=1e-4)

    def test_incremental_decode_matches_full_forward(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=16)
        caches = small_model.make_caches()
        logits = small_model.prefill(tokens[:6], caches)
        for position, token in enumerate(tokens[6:], start=6):
            logits = small_model.decode_step(int(token), position, caches)
        reference = small_model.forward_full(tokens)[-1]
        np.testing.assert_allclose(logits, reference, atol=1e-3)

    def test_opt_style_decode_matches_full_forward(self, opt_style_model, rng):
        tokens = rng.integers(0, opt_style_model.config.vocab_size, size=12)
        caches = opt_style_model.make_caches()
        logits = opt_style_model.prefill(tokens[:5], caches)
        for position, token in enumerate(tokens[5:], start=5):
            logits = opt_style_model.decode_step(int(token), position, caches)
        reference = opt_style_model.forward_full(tokens)[-1]
        np.testing.assert_allclose(logits, reference, atol=1e-3)

    def test_full_cache_tracks_tokens_and_bytes(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=8)
        caches = small_model.make_caches()
        small_model.prefill(tokens, caches)
        cache = caches[0]
        assert isinstance(cache, PagedKVCache)  # "full" is the paged store
        assert cache.num_tokens == 8
        # Page-granular: 8 tokens occupy one whole 16-token page.
        page_tokens = cache.pool.page_tokens
        expected = 2 * page_tokens * small_model.config.n_heads * small_model.config.head_dim * 2
        assert page_tokens == 16 and cache.stored_bytes(16) == expected

    def test_recompute_fn_matches_stored_projection(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=6)
        caches = small_model.make_caches()
        small_model.prefill(tokens, caches)
        # Recomputing the K/V of the last prefill position from the block input
        # must reproduce what the attention layer computed.
        config = small_model.config
        hidden = small_model._embed(np.asarray(tokens)[None, :])[0]
        normed = small_model._norm(hidden, "layers.0.attn_norm")
        recompute = small_model.recompute_fn(0)
        assert small_model.recompute_fn(0) is recompute  # one object per layer
        k, v = recompute(normed[3:4], np.array([3]))  # rows in, rows out: P = 1
        keys, values = small_model._project_kv(normed, 0, np.arange(6))
        np.testing.assert_allclose(k[0], keys[:, 3, :], atol=1e-5)
        np.testing.assert_allclose(v[0], values[:, 3, :], atol=1e-5)
        assert k.shape == v.shape == (1, config.n_heads, config.head_dim)
        # ... and, bit for bit, the one-token projection it stands in for.
        one_k, one_v = small_model._project_kv(normed[3:4], 0, np.array([3]))
        np.testing.assert_array_equal(k[0], one_k[:, 0, :])
        np.testing.assert_array_equal(v[0], one_v[:, 0, :])
        # P rows at once are P one-row calls (M=1 GEMMs), not one [P, C] GEMM.
        xs = rng.standard_normal((16, config.d_model)).astype(np.float32)
        positions = rng.integers(0, config.max_seq_len, size=16)
        many_k, many_v = recompute(xs, positions)
        assert many_k.shape == many_v.shape == (16, config.n_heads, config.head_dim)
        for i in range(16):
            one_k, one_v = recompute(xs[i:i + 1], positions[i:i + 1])
            np.testing.assert_array_equal(many_k[i], one_k[0])
            np.testing.assert_array_equal(many_v[i], one_v[0])

    def test_gqa_config_not_instantiable(self):
        with pytest.raises(ValueError):
            DecoderLM(get_config("mistral-7b"))

    def test_deterministic_initialisation(self):
        config = tiny_config("det", vocab_size=32)
        a = DecoderLM(config, seed=3)
        b = DecoderLM(config, seed=3)
        np.testing.assert_array_equal(a.params["layers.0.wq"], b.params["layers.0.wq"])
        c = DecoderLM(config, seed=4)
        assert not np.allclose(a.params["layers.0.wq"], c.params["layers.0.wq"])


def test_softmax_runs_in_the_three_forwards_and_the_two_attention_kernels():
    """Every cached attention -- decode, whole-prompt prefill and chunks --
    goes through ``DecoderLM._attend``; only the cache-free oracle
    ``forward_full`` has a softmax of its own: no other function of the
    model computes one (``softmax`` or its own ``np.exp``)."""
    softmaxing = set()
    for node in ast.walk(ast.parse(inspect.getsource(model_module))):
        if isinstance(node, ast.FunctionDef):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if ((isinstance(func, ast.Name) and func.id == "softmax")
                        or (isinstance(func, ast.Attribute) and func.attr == "exp"
                            and isinstance(func.value, ast.Name) and func.value.id == "np")):
                    softmaxing.add(node.name)
    assert softmaxing == {"forward_full", "_attend"}
