"""The padded whole-prompt forward, kept as the oracle of ``prefill_batch``.

:meth:`repro.llm.model.DecoderLM.prefill_batch` runs its prompts through
:meth:`~repro.llm.model.DecoderLM.forward_chunks` at position 0.  This is
the forward it replaced: the prompts right-padded to ``[B, T_max]`` for the
dense projections (three separate Q / K / V GEMMs, RoPE from table views,
a float64 attention scale), attention per sequence over its unpadded
``t_b`` tokens, and every layer's caches loaded with ``prefill(k, v, x,
probs)`` — the paged caches included, which the new path writes through
their chunk writers instead.  ``tests/test_prefill_oracle.py`` holds the
two within 1e-6 with the same argmax: their differently shaped GEMMs may
round the last bits differently on another BLAS build.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.llm.cache import LayerKVCache
from repro.llm.functional import apply_rope
from repro.llm.model import DecoderLM


def _project_kv(lm: DecoderLM, x: np.ndarray, layer: int,
                positions: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-head K/V (with RoPE on K) of block input ``x`` at positions
    ``0..positions-1``."""
    prefix = f"layers.{layer}"
    keys = lm._split_heads(x @ lm.params[f"{prefix}.wk"])  # [H, B, T, d]
    values = lm._split_heads(x @ lm.params[f"{prefix}.wv"])
    if lm.config.positional == "rope":
        keys = apply_rope(keys, positions, lm._rope_cos, lm._rope_sin)
    return keys, values


def reference_prefill_batch(lm: DecoderLM, token_seqs: Sequence[Sequence[int]],
                            caches_batch: Sequence[list[LayerKVCache]]) -> np.ndarray:
    """Prefill ``B`` ragged prompts with the padded forward; returns each
    last real position's logits, ``[B, vocab]``."""
    seqs = [np.asarray(seq, dtype=np.int64) for seq in token_seqs]
    lengths = np.array([seq.size for seq in seqs])
    batch, seq_len = len(seqs), int(lengths.max())
    config = lm.config
    n_heads, head_dim, d_model = config.n_heads, config.head_dim, config.d_model
    tokens = np.zeros((batch, seq_len), dtype=np.int64)
    for b, seq in enumerate(seqs):
        tokens[b, :seq.size] = seq
    hidden = lm._embed(tokens)  # [B, T, C]
    scale = 1.0 / np.sqrt(head_dim)
    plans = [(b * seq_len + np.arange(n)[None], np.arange(n) > np.arange(n)[:, None])
             for b, n in enumerate(lengths.tolist())]
    context = np.zeros((batch, seq_len, d_model), dtype=np.float32)
    flat_context = context.reshape(batch * seq_len, d_model)
    for layer in range(config.n_layers):
        prefix = f"layers.{layer}"
        normed = lm._norm(hidden, f"{prefix}.attn_norm")  # [B, T, C]
        queries = lm._split_heads(normed @ lm.params[f"{prefix}.wq"])  # [H, B, T, d]
        if config.positional == "rope":
            queries = apply_rope(queries, seq_len, lm._rope_cos, lm._rope_sin)
        queries = queries.reshape(n_heads, batch * seq_len, head_dim)
        keys, values = _project_kv(lm, normed, layer, seq_len)  # [H, B, T, d]
        for b, (rows, causal) in enumerate(plans):
            n = rows.shape[1]
            k_b, v_b = keys[:, b, :n], values[:, b, :n]
            probs = lm._attend(queries, rows, k_b[None], v_b[None], causal,
                               flat_context, scale)
            caches_batch[b][layer].prefill(k_b, v_b, normed[b, :n], probs[0])
        hidden = hidden + context @ lm.params[f"{prefix}.wo"]
        normed = lm._norm(hidden, f"{prefix}.mlp_norm")
        hidden = hidden + lm._mlp(normed, layer)
    hidden = lm._norm(hidden, "final_norm")
    return lm._lm_head(hidden[np.arange(batch), lengths - 1])
