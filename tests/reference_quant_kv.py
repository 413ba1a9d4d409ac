"""The quantized KV caches with storage of their own, kept as the oracle.

``kivi:bits=`` / ``quarot:bits=`` resolve to the paged pool with a fake-quant
write codec (``repro.baselines.quant_kv``).  Before that they were this
cache, moved here verbatim (only this docstring and the two factories are
new): every token round-tripped on its own as it was appended (a prompt as
one block with per-token scales) into a private :class:`ContiguousKVStore`.
``tests/test_quant_kv_differential.py`` holds the paged caches to it.
"""

from __future__ import annotations

import numpy as np

from repro.llm.cache import KVCacheFactory, LayerKVCache, RecomputeFn
from repro.quant.hadamard import apply_hadamard, remove_hadamard
from repro.quant.integer import fake_quantize

from contiguous_kv_store import ContiguousKVStore


class QuantizedKVCache(LayerKVCache):
    """Full (non-evicting) KV cache with per-token fake-quantized storage.

    The dequantised vectors live in a :class:`ContiguousKVStore`, so prefill
    quantizes the whole context block in one vectorised round trip and
    ``fetch`` returns zero-copy views.
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


def reference_kivi_factory(bits: int = 2) -> KVCacheFactory:
    """What ``kivi:bits=`` built: asymmetric, no rotation."""

    def factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                recompute_fn: RecomputeFn) -> LayerKVCache:
        del layer_index, recompute_fn
        return QuantizedKVCache(n_heads, head_dim, d_model, bits, use_hadamard=False,
                                symmetric=False)

    return factory


def reference_quarot_factory(bits: int = 4) -> KVCacheFactory:
    """What ``quarot:bits=`` built: symmetric, Hadamard-rotated."""

    def factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                recompute_fn: RecomputeFn) -> LayerKVCache:
        del layer_index, recompute_fn
        return QuantizedKVCache(n_heads, head_dim, d_model, bits, use_hadamard=True,
                                symmetric=True)

    return factory
