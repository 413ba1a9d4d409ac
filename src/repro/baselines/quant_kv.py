"""Quantized-KV baselines: KIVI-style 2-bit and QuaRot-style 4-bit caches.

Table 2 of the paper compares Kelle against QuaRot with 4-bit KV vectors at a
matched storage budget, and Table 6 studies Kelle's compatibility with
aggressive quantization.  These caches keep *every* token (no eviction) but
store the K/V vectors through a fake-quantization round trip, so the accuracy
impact of the reduced precision shows up in the functional path while the
storage accounting reflects the lower bit width.
"""

from __future__ import annotations

import numpy as np

from repro.llm.cache import ContiguousKVStore, KVCacheFactory, LayerKVCache, RecomputeFn
from repro.quant.hadamard import apply_hadamard, remove_hadamard
from repro.quant.integer import fake_quantize
from repro.registry import register


class QuantizedKVCache(LayerKVCache):
    """Full (non-evicting) KV cache with per-token fake-quantized storage.

    The dequantised vectors live in a :class:`ContiguousKVStore`, so prefill
    quantizes the whole context block in one vectorised round trip and
    ``fetch`` returns zero-copy views.  Storage is a pure token prefix, so in
    a batched decode the attention of rows holding equally many tokens is
    stacked (:meth:`~repro.llm.model.DecoderLM._attend_loose_rows`).
    """

    def __init__(self, n_heads: int, head_dim: int, d_model: int, bits: int,
                 use_hadamard: bool = False, symmetric: bool = True) -> None:
        super().__init__(n_heads, head_dim, d_model)
        if not 2 <= bits <= 16:
            raise ValueError("bits must lie in [2, 16]")
        if use_hadamard and head_dim & (head_dim - 1) != 0:
            raise ValueError("Hadamard rotation requires a power-of-two head dimension")
        self.bits = bits
        self.use_hadamard = use_hadamard
        self.symmetric = symmetric
        self._store = ContiguousKVStore(n_heads, head_dim)

    def _roundtrip(self, vector: np.ndarray) -> np.ndarray:
        """Quantize/dequantize one ``[H, d]`` per-head vector."""
        data = np.asarray(vector, dtype=np.float32)
        if self.use_hadamard:
            data = apply_hadamard(data, axis=-1)
        data = fake_quantize(data, bits=self.bits, axis=-1, symmetric=self.symmetric)
        if self.use_hadamard:
            data = remove_hadamard(data, axis=-1)
        return data.astype(np.float32)

    def _roundtrip_block(self, block: np.ndarray) -> np.ndarray:
        """Quantize/dequantize an ``[H, n, d]`` block with per-token scales.

        Keeping axes ``(1, 2)`` reduces over heads only, so each token's
        ``[n, d]`` scales match what the per-token :meth:`_roundtrip` computes.
        """
        data = np.asarray(block, dtype=np.float32)
        if self.use_hadamard:
            data = apply_hadamard(data, axis=-1)
        data = fake_quantize(data, bits=self.bits, axis=(1, 2), symmetric=self.symmetric)
        if self.use_hadamard:
            data = remove_hadamard(data, axis=-1)
        return data.astype(np.float32)

    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        del inputs, attn_probs
        self._store.extend(self._roundtrip_block(keys), self._roundtrip_block(values))

    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        del x, position
        self._store.append(self._roundtrip(key), self._roundtrip(value))

    def fetch(self) -> tuple[np.ndarray, np.ndarray]:
        return self._store.view()

    def observe_attention(self, probs: np.ndarray) -> None:
        del probs

    @property
    def num_tokens(self) -> int:
        return len(self._store)

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        del bits_per_element  # storage is at the cache's own quantized width
        elements = 2 * len(self._store) * self.n_heads * self.head_dim
        return elements * self.bits // 8


@register("cache", "kivi", description="KIVI-style asymmetric low-bit KV quantization")
def _build_kivi(bits: int = 2) -> KVCacheFactory:
    """KIVI-style asymmetric per-channel low-bit KV cache."""

    def factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                recompute_fn: RecomputeFn) -> LayerKVCache:
        del layer_index, recompute_fn
        return QuantizedKVCache(n_heads, head_dim, d_model, bits, use_hadamard=False,
                                symmetric=False)

    return factory


@register("cache", "quarot", description="QuaRot-style Hadamard-rotated KV quantization")
def _build_quarot(bits: int = 4) -> KVCacheFactory:
    """QuaRot-style Hadamard-rotated symmetric low-bit KV cache."""

    def factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                recompute_fn: RecomputeFn) -> LayerKVCache:
        del layer_index, recompute_fn
        return QuantizedKVCache(n_heads, head_dim, d_model, bits, use_hadamard=True,
                                symmetric=True)

    return factory
