"""The contiguous full cache, kept as the oracle of the paged ``full`` store.

``full`` / ``fp16`` resolve to a growable fp32 paged pool
(:class:`repro.core.kv_pool.PagedCacheFactory`).  Before that they were this
cache: every token's K/V in one private :class:`~contiguous_kv_store.
ContiguousKVStore`, prefill one bulk buffer write, ``fetch`` zero-copy views.
The differential tests hold the paged store to it token for token.
"""

from __future__ import annotations

import numpy as np

from repro.llm.cache import LayerKVCache, RecomputeFn

from contiguous_kv_store import ContiguousKVStore


class FullKVCache(LayerKVCache):
    """The unbounded baseline cache: every token's KV vectors are retained.

    Storage is one :class:`ContiguousKVStore`; prefill is a single bulk buffer
    write and ``fetch`` returns zero-copy views, so the decode hot loop does no
    per-token Python work at all.
    """

    supports_chunked_prefill = True
    supports_rollback = True

    def __init__(self, n_heads: int, head_dim: int, d_model: int) -> None:
        super().__init__(n_heads, head_dim, d_model)
        self._store = ContiguousKVStore(n_heads, head_dim)

    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        del inputs, attn_probs
        self._store.extend(np.asarray(keys, dtype=np.float32),
                           np.asarray(values, dtype=np.float32))

    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        del x, position
        self._store.append(key, value)

    def fetch(self) -> tuple[np.ndarray, np.ndarray]:
        return self._store.view()

    def observe_attention(self, probs: np.ndarray) -> None:
        del probs  # the full cache does not track importance

    def extend_chunk(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                     positions: np.ndarray) -> None:
        del inputs, positions
        self._store.extend(np.asarray(keys, dtype=np.float32),
                           np.asarray(values, dtype=np.float32))

    def fork(self, upto: int | None = None) -> "FullKVCache":
        """Fork by copying the prefix (the full cache has no shareable pages)."""
        upto = len(self._store) if upto is None else int(upto)
        if not 0 <= upto <= len(self._store):
            raise ValueError(f"fork upto={upto} out of range [0, {len(self._store)}]")
        child = FullKVCache(self.n_heads, self.head_dim, self.d_model)
        keys, values = self._store.view()
        child._store.extend(keys[:, :upto], values[:, :upto])
        return child

    def truncate(self, n: int) -> None:
        """Native rollback: shrink the contiguous view to ``n`` tokens."""
        self._store.truncate(n)
        self.write_epoch += 1

    @property
    def num_tokens(self) -> int:
        return len(self._store)

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        elements = 2 * len(self._store) * self.n_heads * self.head_dim
        return elements * bits_per_element // 8


def full_cache_factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                       recompute_fn: RecomputeFn) -> LayerKVCache:
    """Factory for the full-cache oracle (ignores the recompute callback)."""
    del layer_index, recompute_fn
    return FullKVCache(n_heads, head_dim, d_model)
