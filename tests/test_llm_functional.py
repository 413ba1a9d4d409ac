"""Tests for the numerical primitives in repro.llm.functional."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.functional import (
    apply_rope,
    causal_mask,
    cross_entropy,
    gelu,
    layer_norm,
    log_softmax,
    rms_norm,
    rope_frequencies,
    sigmoid,
    silu,
    softmax,
    softmax_blocks_,
)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((8, 16))
        np.testing.assert_allclose(softmax(x).sum(axis=-1), 1.0, rtol=1e-5)

    def test_stability_with_large_inputs(self):
        x = np.array([1e4, -1e4, 0.0])
        out = softmax(x)
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    def test_log_softmax_consistency(self, rng):
        x = rng.standard_normal((4, 10))
        np.testing.assert_allclose(np.exp(log_softmax(x)), softmax(x), atol=1e-5)

    @pytest.mark.parametrize("n_first", [0, 1, 7])
    def test_two_block_softmax_matches_the_concatenation(self, rng, n_first):
        first = rng.standard_normal((2, 3, 5, n_first)).astype(np.float32)
        second = rng.standard_normal((2, 3, 5, 4)).astype(np.float32)
        if n_first:
            first[0, 1] = -np.inf  # a fully masked first-block row
        want = softmax(np.concatenate([first, second], axis=-1))
        softmax_blocks_(first, second)
        assert first.dtype == second.dtype == np.float32
        np.testing.assert_allclose(np.concatenate([first, second], axis=-1), want,
                                   atol=1e-6)


class TestActivations:
    def test_sigmoid_range_and_symmetry(self, rng):
        x = rng.standard_normal(100) * 10
        s = sigmoid(x)
        assert np.all((s >= 0) & (s <= 1))
        np.testing.assert_allclose(sigmoid(-x), 1 - s, atol=1e-6)

    def test_sigmoid_matches_the_two_branch_formula_bit_for_bit(self, rng):
        """The where-free form must round exactly like evaluating each sign
        branch on its own (the formula it replaced, kept here as the oracle)."""

        def two_branch(x):
            x = np.asarray(x, dtype=np.float32)
            pos = x >= 0
            ex = np.exp(np.where(pos, -x, x))
            return np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))

        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30, -1e-30, 88.0, -88.0,
                            104.0, -104.0, 3e38, -3e38], dtype=np.float32)
        blocks = [special] + [(rng.standard_normal((55, 1000)) * scale).astype(np.float32)
                              for scale in (0.01, 0.1, 1.0, 10.0, 50.0, 200.0)]
        for x in blocks:
            got, want = sigmoid(x), two_branch(x)
            assert got.dtype == want.dtype == np.float32 and got.shape == x.shape
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        strided = blocks[3][::2, ::3]  # a non-contiguous view, as silu(x @ w1) never is
        np.testing.assert_array_equal(sigmoid(strided).view(np.uint32),
                                      two_branch(strided).view(np.uint32))

    def test_silu_and_gelu_near_identity_for_large_positive(self):
        x = np.array([10.0, 20.0])
        np.testing.assert_allclose(silu(x), x, rtol=1e-3)
        np.testing.assert_allclose(gelu(x), x, rtol=1e-3)

    def test_silu_and_gelu_vanish_for_large_negative(self):
        x = np.array([-20.0])
        assert abs(float(silu(x)[0])) < 1e-3
        assert abs(float(gelu(x)[0])) < 1e-3


class TestNorms:
    def test_rms_norm_unit_scale(self, rng):
        x = rng.standard_normal((6, 32)).astype(np.float32) * 5
        out = rms_norm(x, np.ones(32, dtype=np.float32))
        rms = np.sqrt(np.mean(out**2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-3)

    def test_layer_norm_zero_mean_unit_variance(self, rng):
        x = rng.standard_normal((6, 32)).astype(np.float32) * 3 + 7
        out = layer_norm(x, np.ones(32, dtype=np.float32), np.zeros(32, dtype=np.float32))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, rtol=1e-2)


class TestRope:
    def test_rotation_preserves_norm(self, rng):
        cos, sin = rope_frequencies(16, 64)
        x = rng.standard_normal((4, 10, 16)).astype(np.float32)
        rotated = apply_rope(x, np.arange(10), cos, sin)
        np.testing.assert_allclose(np.linalg.norm(rotated, axis=-1),
                                   np.linalg.norm(x, axis=-1), rtol=1e-4)

    def test_position_zero_is_identity(self, rng):
        cos, sin = rope_frequencies(8, 16)
        x = rng.standard_normal((2, 1, 8)).astype(np.float32)
        np.testing.assert_allclose(apply_rope(x, np.array([0]), cos, sin), x, atol=1e-6)

    def test_relative_rotation_property(self, rng):
        """The inner product of rotated q/k depends only on relative position."""
        cos, sin = rope_frequencies(16, 128)
        q = rng.standard_normal(16).astype(np.float32)
        k = rng.standard_normal(16).astype(np.float32)

        def score(pos_q, pos_k):
            qr = apply_rope(q[None, :], np.array([pos_q]), cos, sin)[0]
            kr = apply_rope(k[None, :], np.array([pos_k]), cos, sin)[0]
            return float(qr @ kr)

        assert score(10, 7) == pytest.approx(score(50, 47), rel=1e-3, abs=1e-3)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            rope_frequencies(7, 16)


class TestCrossEntropyAndMask:
    def test_cross_entropy_of_perfect_prediction_is_zero(self):
        logits = np.full((1, 4, 8), -100.0)
        targets = np.array([[1, 2, 3, 0]])
        for t_index, target in enumerate(targets[0]):
            logits[0, t_index, target] = 100.0
        assert cross_entropy(logits, targets) == pytest.approx(0.0, abs=1e-4)

    def test_cross_entropy_of_uniform_prediction(self):
        logits = np.zeros((2, 3, 10))
        targets = np.zeros((2, 3), dtype=int)
        assert cross_entropy(logits, targets) == pytest.approx(np.log(10), rel=1e-5)

    def test_causal_mask_shape_and_values(self):
        mask = causal_mask(4)
        assert mask.shape == (4, 4)
        assert np.all(mask[np.tril_indices(4)] == 0)
        assert np.all(np.isneginf(mask[np.triu_indices(4, k=1)]))


class TestFunctionalProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12))
    def test_softmax_invariant_to_constant_shift(self, seed, width):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(width)
        np.testing.assert_allclose(softmax(x), softmax(x + 123.4), atol=1e-5)
