"""Quantized-KV baselines: KIVI-style 2-bit and QuaRot-style 4-bit caches.

Table 2 of the paper compares Kelle against QuaRot with 4-bit KV vectors at a
matched storage budget, and Table 6 studies Kelle's compatibility with
aggressive quantization.  These caches keep *every* token (no eviction) but
store the K/V vectors through a fake-quantization round trip, so the accuracy
impact of the reduced precision shows up in the functional path while the
storage accounting reflects the lower bit width.

The round trip is a write transform on stored K/V, so the caches are the
paged store of :mod:`repro.core.kv_pool` with a :class:`QuantCodec` as its
pool's :attr:`~repro.core.kv_pool.KVPagePool.codec`: every token is
quantized once, as it is written.  A stack's ``group_key`` is ``None``, so
a batched decode steps each row alone (a lone paged group a row), the path
a batch of one and ``fused=False`` take: a row's logits do not depend on
its company.  The codec is lossy, so a chunk (or a shared prefix) would
attend decoded K/V where a whole prompt attends its projections: the
handles support neither chunked prefill, rollback nor checkpoints.
"""

from __future__ import annotations

import numpy as np

from repro.core.kv_pool import KVPagePool, PagedCacheFactory, PagedKVCache
from repro.llm.cache import KVCacheFactory, LayerKVCache
from repro.quant.hadamard import apply_hadamard, remove_hadamard
from repro.quant.integer import fake_quantize
from repro.registry import register


class QuantCodec:
    """The fake-quant round trip of ``bits``-bit K/V, optionally in a
    Hadamard-rotated basis (QuaRot): a quantized pool's write transform.

    Each token is quantized on its own, with one scale (and, asymmetric, one
    zero point) per channel shared by the token's heads.
    """

    __slots__ = ("bits", "use_hadamard", "symmetric")

    def __init__(self, bits: int, use_hadamard: bool = False, symmetric: bool = True) -> None:
        if not 2 <= bits <= 16:
            raise ValueError("bits must lie in [2, 16]")
        self.bits = bits
        self.use_hadamard = use_hadamard
        self.symmetric = symmetric

    def __call__(self, tokens: np.ndarray, heads: int) -> np.ndarray:
        """The dequantised fp32 values of ``tokens``, whose head axis is
        ``heads`` and whose channels are last."""
        data = apply_hadamard(tokens, axis=-1) if self.use_hadamard else tokens
        kept = tuple(axis for axis in range(tokens.ndim) if axis != heads)
        data = fake_quantize(data, bits=self.bits, axis=kept, symmetric=self.symmetric)
        if self.use_hadamard:
            data = remove_hadamard(data, axis=-1)
        return data.astype(np.float32)


class QuantizedKVCache(PagedKVCache):
    """One layer's handle on a quantized pool: the full cache, every token
    stored through the pool's :class:`QuantCodec`."""

    supports_chunked_prefill = supports_rollback = supports_checkpoint = False
    group_key, extend_chunk, fork, truncate, truncate_stack = (
        LayerKVCache.group_key, LayerKVCache.extend_chunk, LayerKVCache.fork,
        LayerKVCache.truncate, LayerKVCache.truncate_stack)

    def __init__(self, pool: KVPagePool, n_heads: int, head_dim: int, d_model: int,
                 **table) -> None:
        if pool.codec.use_hadamard and head_dim & (head_dim - 1) != 0:
            raise ValueError("Hadamard rotation requires a power-of-two head dimension")
        super().__init__(pool, n_heads, head_dim, d_model, **table)

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        """Bytes of the tokens held, at the codec's bit width."""
        del bits_per_element
        return 2 * self._count * self.n_heads * self.head_dim * self.pool.codec.bits // 8


def quantized_cache_factory(codec: QuantCodec) -> KVCacheFactory:
    """A paged factory whose pools store every token through ``codec``."""
    factory = PagedCacheFactory()
    factory.handle, factory.codec = QuantizedKVCache, codec
    return factory


@register("cache", "kivi", description="KIVI-style asymmetric low-bit KV quantization")
def _build_kivi(bits: int = 2) -> KVCacheFactory:
    """KIVI-style asymmetric per-channel low-bit KV cache."""
    return quantized_cache_factory(QuantCodec(bits, use_hadamard=False, symmetric=False))


@register("cache", "quarot", description="QuaRot-style Hadamard-rotated KV quantization")
def _build_quarot(bits: int = 4) -> KVCacheFactory:
    """QuaRot-style Hadamard-rotated symmetric low-bit KV cache."""
    return quantized_cache_factory(QuantCodec(bits, use_hadamard=True, symmetric=True))
