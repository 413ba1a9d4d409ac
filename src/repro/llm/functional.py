"""Numerical primitives shared by the inference and training paths."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic sigmoid.

    Piecewise-stable form: the ``exp`` argument ``-|x|`` is never positive, so
    neither branch can overflow.  With ``ex = exp(-|x|)`` the result is
    ``1 / (1 + ex)`` where ``x >= 0`` and ``ex / (1 + ex)`` elsewhere; the
    numerator of both is ``maximum(ex, x >= 0)`` (``ex <= 1``), which selects
    the branch without a ``where`` pass and leaves each element the same
    float32 additions and division as evaluating its own branch.
    """
    x = np.asarray(x, dtype=np.float32)
    ex = np.empty_like(x)  # an array for 0-d input too, so ``out=`` works
    np.abs(x, out=ex)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)
    out = np.maximum(ex, x >= 0)
    ex += 1.0
    out /= ex
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation used by the gated MLP (LLaMA family)."""
    return x * sigmoid(x)


def gelu(x: np.ndarray) -> np.ndarray:
    """GeLU activation (tanh approximation) used by the standard MLP (OPT/GPT)."""
    x = np.asarray(x, dtype=np.float32)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square layer normalisation (LLaMA family).

    Same op sequence as ``x / sqrt(mean(x*x) + eps) * weight`` (pairwise
    reduce-sum then divide, exactly what ``np.mean`` performs) with the
    intermediate reductions done in place — the decode hot loop calls this
    twice per layer per step.
    """
    x = np.asarray(x, dtype=np.float32)
    sq = x * x
    ms = np.add.reduce(sq, axis=-1, keepdims=True)
    ms /= x.shape[-1]
    ms += eps
    np.sqrt(ms, out=ms)
    out = x / ms
    out *= weight
    return out


def layer_norm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Standard layer normalisation (OPT/GPT family)."""
    x = np.asarray(x, dtype=np.float32)
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * weight + bias


def rope_frequencies(head_dim: int, max_seq_len: int, base: float = 10000.0) -> tuple[np.ndarray, np.ndarray]:
    """Precompute the cosine/sine tables for rotary position embeddings."""
    if head_dim % 2 != 0:
        raise ValueError("head_dim must be even for RoPE")
    inv_freq = 1.0 / (base ** (np.arange(0, head_dim, 2, dtype=np.float32) / head_dim))
    positions = np.arange(max_seq_len, dtype=np.float32)
    angles = np.outer(positions, inv_freq)  # [T, head_dim/2]
    return np.cos(angles), np.sin(angles)


def apply_rope(x: np.ndarray, positions: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Apply rotary embeddings.

    ``x`` has shape ``[..., T, head_dim]`` (head dim last); ``positions`` has
    shape ``[T]`` giving the absolute position of each of the T vectors, or is
    an int ``T`` meaning positions ``0..T-1`` (served from a table *view*, so
    repeated prefills of common lengths allocate nothing).
    """
    x = np.asarray(x, dtype=np.float32)
    head_dim = x.shape[-1]
    half = head_dim // 2
    if isinstance(positions, (int, np.integer)):
        c = cos[:positions]  # [T, half] view, no copy
        s = sin[:positions]
    else:
        c = cos[positions]  # [T, half]
        s = sin[positions]
    x1 = x[..., :half]
    x2 = x[..., half:]
    # Same elementwise ops as (x1*c - x2*s | x2*c + x1*s) concatenated,
    # scheduled through one output array: the second half doubles as the
    # x2*s scratch before the subtraction, so the whole rotation allocates
    # two arrays instead of seven.
    out = np.empty(x.shape, dtype=np.float32)
    first = out[..., :half]
    second = out[..., half:]
    np.multiply(x1, c, out=first)
    np.multiply(x2, s, out=second)
    first -= second
    np.multiply(x2, c, out=second)
    second += x1 * s
    return out


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross entropy (nats) of ``targets`` under ``logits``.

    ``logits`` has shape ``[..., V]`` and ``targets`` the matching leading
    shape of integer class indices.
    """
    logp = log_softmax(logits, axis=-1)
    flat_logp = logp.reshape(-1, logp.shape[-1])
    flat_targets = np.asarray(targets).reshape(-1)
    picked = flat_logp[np.arange(flat_targets.size), flat_targets]
    return float(-np.mean(picked))


@lru_cache(maxsize=1)
def _causal_mask_table(capacity: int) -> np.ndarray:
    mask = np.zeros((capacity, capacity), dtype=np.float32)
    mask[np.triu_indices(capacity, k=1)] = -np.inf
    mask.flags.writeable = False
    return mask


_mask_capacity = 256  # high-water mark so alternating sizes never rebuild the table


def causal_mask(size: int) -> np.ndarray:
    """Additive causal mask of shape ``[size, size]`` (0 on/below diag, -inf above).

    All sizes are served as read-only views of one shared grow-only table
    (doubled when outgrown), so repeated prefills stop re-allocating ``[T, T]``
    arrays and at most one table is ever resident.
    """
    global _mask_capacity
    size = int(size)
    while _mask_capacity < size:
        _mask_capacity *= 2
    return _causal_mask_table(_mask_capacity)[:size, :size]
