"""The contiguous per-head K/V store the test oracles keep their tokens in.

``repro`` once built its contiguous caches on this store (the ``full`` cache
before the paged pool, the eviction baselines before the eviction slab, and
the ``kivi`` / ``quarot`` caches before their codec moved onto the paged
pool).  The oracles of those caches (``reference_full_cache.py``,
``reference_eviction.py``, ``reference_quant_kv.py``) still hold it, verbatim.
"""

from __future__ import annotations

import numpy as np


class ContiguousKVStore:
    """Preallocated contiguous per-head K/V slot storage.

    Keys and values live in ``[n_heads, capacity, head_dim]`` float32 buffers;
    ``capacity`` doubles whenever an insert would overflow, so the amortised
    cost of ``append`` is O(head_dim) and ``view()`` is a zero-copy slice.
    Slots are ordered; :meth:`delete_slot` compacts the tail left by one
    position (a single vectorised memmove), preserving slot order for the
    eviction policies that rely on it.
    """

    __slots__ = ("n_heads", "head_dim", "_keys", "_values", "_count")

    def __init__(self, n_heads: int, head_dim: int, initial_capacity: int = 64) -> None:
        if n_heads <= 0 or head_dim <= 0 or initial_capacity <= 0:
            raise ValueError("n_heads, head_dim and initial_capacity must be positive")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self._keys = np.empty((n_heads, initial_capacity, head_dim), dtype=np.float32)
        self._values = np.empty((n_heads, initial_capacity, head_dim), dtype=np.float32)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return self._keys.shape[1]

    def reserve(self, extra: int) -> None:
        """Grow (by doubling) until ``extra`` more slots fit."""
        needed = self._count + extra
        capacity = self.capacity
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_keys", "_values"):
            old = getattr(self, name)
            grown = np.empty((self.n_heads, capacity, self.head_dim), dtype=np.float32)
            grown[:, :self._count] = old[:, :self._count]
            setattr(self, name, grown)

    def append(self, key: np.ndarray, value: np.ndarray) -> int:
        """Insert one ``[H, d]`` K/V pair, returning its slot index."""
        self.reserve(1)
        slot = self._count
        self._keys[:, slot] = key
        self._values[:, slot] = value
        self._count += 1
        return slot

    def extend(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Bulk-insert ``[H, n, d]`` K/V blocks in one buffer write."""
        n = keys.shape[1]
        if n == 0:
            return
        self.reserve(n)
        self._keys[:, self._count:self._count + n] = keys
        self._values[:, self._count:self._count + n] = values
        self._count += n

    def delete_slot(self, slot: int) -> None:
        """Remove one slot, shifting the tail left (slot order preserved)."""
        if not 0 <= slot < self._count:
            raise IndexError(f"slot {slot} out of range [0, {self._count})")
        if slot < self._count - 1:
            self._keys[:, slot:self._count - 1] = self._keys[:, slot + 1:self._count]
            self._values[:, slot:self._count - 1] = self._values[:, slot + 1:self._count]
        self._count -= 1

    def truncate(self, n: int) -> None:
        """Shrink to the first ``n`` slots (O(1): the view just gets shorter)."""
        if not 0 <= n <= self._count:
            raise ValueError(f"truncate to {n} out of range [0, {self._count}]")
        self._count = n

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``([H, n, d], [H, n, d])`` views of the live slots."""
        return self._keys[:, :self._count], self._values[:, :self._count]
