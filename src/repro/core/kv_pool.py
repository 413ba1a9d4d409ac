"""Paged KV memory pool: block-based arena, refcounted pages, CoW forks.

The serving path of the reproduction originally gave every request an
isolated, privately-grown KV cache, so two requests sharing a long system
prompt stored — and, worse, *recomputed* — the shared prefix twice.  This
module provides the vLLM/SGLang design point instead:

* :class:`KVPagePool` — a fixed-page-size arena per decoder layer.  Keys and
  values live in preallocated ``[n_pages, H, page_tokens, d]`` buffers;
  pages are handed out from a free list, reference-counted, and recycled the
  moment their refcount drops to zero.  The accounting invariant
  ``allocated = referenced + free`` is checkable at any time via
  :meth:`KVPagePool.check_accounting`.
* :class:`PagedKVCache` — a :class:`~repro.llm.cache.LayerKVCache` whose
  token storage is a list of pool pages.  Semantically it is the full
  (no-eviction) cache, but it supports :meth:`~PagedKVCache.fork`: a
  **zero-copy copy-on-write fork** that shares every page of a prefix with
  the parent.  Appending into a shared tail page triggers CoW — the writer
  copies the partial page into a fresh one and releases its reference — so
  forks can never observe each other's writes.
* :class:`PagedCacheFactory` — a :class:`~repro.llm.cache.KVCacheFactory`
  that owns one pool per decoder layer and shares it across every
  ``make_caches`` call, which is what lets *different requests* of a serving
  run share prefix pages.  It is registered as the ``"paged"`` cache spec.

The decode hot loop still needs contiguous ``[H, n, d]`` K/V views (the
attention path is a dense matmul over the whole cache).  Each cache therefore
keeps a per-sequence *mirror* — a :class:`~repro.llm.cache.ContiguousKVStore`
lazily synchronised from the pages inside :meth:`fetch` — so steady-state
fetches stay zero-copy and a freshly forked cache pays one bulk gather
(O(prefix) memory traffic) instead of re-running prefill (O(prefix²)
compute).  Pages remain the storage of record: all writes land in pages
first, and the mirror is only ever filled from page contents.
"""

from __future__ import annotations

import math
import mmap
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.llm.cache import ContiguousKVStore, KVCacheFactory, LayerKVCache, RecomputeFn
from repro.registry import register


class PoolExhausted(RuntimeError):
    """Raised when a non-growing :class:`KVPagePool` runs out of free pages."""


@dataclass(frozen=True)
class KVLayerCheckpoint:
    """Self-contained serialized KV state of one request in one layer.

    ``keys``/``values`` are ``[H, n_tokens, d]`` float32 *copies* gathered in
    page-table order (flushed pages first, then any unflushed mirror tail),
    so the checkpoint stays valid after the source cache — and even its whole
    pool — is released, and CoW pages shared with other requests are never
    aliased.  ``flushed_tokens`` records the source's mirror→page watermark;
    ``page_tokens`` its pool geometry, so :attr:`n_pages` prices what the
    checkpoint occupied at the source (a target pool with a different page
    size simply re-chunks on import).
    """

    keys: np.ndarray
    values: np.ndarray
    n_tokens: int
    flushed_tokens: int
    page_tokens: int

    @property
    def n_heads(self) -> int:
        return int(self.keys.shape[0])

    @property
    def head_dim(self) -> int:
        return int(self.keys.shape[2])

    @property
    def n_pages(self) -> int:
        """Pages this layer's tokens occupied at the source pool (ceil)."""
        return -(-self.n_tokens // self.page_tokens)

    @property
    def nbytes(self) -> int:
        return int(self.keys.nbytes + self.values.nbytes)


@dataclass(frozen=True)
class KVCheckpoint:
    """A request's full KV state across every decoder layer, self-contained.

    Produced by :meth:`KVSpaceManager.checkpoint
    <repro.serve.kv_manager.KVSpaceManager.checkpoint>` from per-layer
    :meth:`PagedKVCache.export_state` calls; restorable into *any* pool with
    matching head geometry via :meth:`KVPagePool.import_pages` /
    :meth:`PagedKVCache.import_state` with clean page accounting on both
    sides.  This is the KV-handoff primitive behind recompute-free failover
    and (later) disaggregated prefill/decode.
    """

    layers: tuple[KVLayerCheckpoint, ...]

    @property
    def n_tokens(self) -> int:
        return self.layers[0].n_tokens if self.layers else 0

    @property
    def n_heads(self) -> int:
        return self.layers[0].n_heads if self.layers else 0

    @property
    def head_dim(self) -> int:
        return self.layers[0].head_dim if self.layers else 0

    @property
    def n_pages(self) -> int:
        """Source-pool pages across all layers (the migration payload size)."""
        return sum(layer.n_pages for layer in self.layers)

    @property
    def nbytes(self) -> int:
        return sum(layer.nbytes for layer in self.layers)


#: Supported KV page storage dtypes: ``"fp32"`` is exact; ``"fp16"`` halves
#: pool bytes and rounds every stored K/V element to half precision (compute
#: stays fp32 — values are widened back on every read).
PAGE_DTYPES = {"fp32": np.dtype(np.float32), "fp16": np.dtype(np.float16)}


def _page_dtype(dtype: "str | np.dtype | type") -> np.dtype:
    if isinstance(dtype, str):
        try:
            return PAGE_DTYPES[dtype]
        except KeyError:
            raise ValueError(
                f"unknown KV page dtype {dtype!r}; expected one of "
                f"{sorted(PAGE_DTYPES)}") from None
    resolved = np.dtype(dtype)
    if resolved not in PAGE_DTYPES.values():
        raise ValueError(f"unsupported KV page dtype {resolved}; expected "
                         f"float32 or float16")
    return resolved


def _arena(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """An uninitialised page arena on its own anonymous memory mapping.

    Only the pages of the mapping that are written ever become resident,
    and the whole mapping goes back to the OS when the array dies — which
    is what lets a pool reserve its final size up front for free.
    ``np.empty`` gives neither guarantee: the allocator recycles freed
    arenas of earlier pools, so a sparsely used big arena pins everything
    its predecessors touched (measured: +25-45 % peak RSS on a 4-replica
    cluster).
    """
    nbytes = math.prod(shape) * dtype.itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


class KVPagePool:
    """A fixed-page-size KV arena with free-list allocation and refcounts.

    Storage is ``[n_pages, H, page_tokens, head_dim]`` for keys and values,
    so one page is a natively-shaped ``[H, page_tokens, d]`` block.
    ``grow=True`` (the default) doubles the page count when the free list
    runs dry — in place while it fits the ``reserve_pages`` the arena was
    mapped with, by moving to a bigger arena beyond that; ``grow=False``
    models a hard memory budget and raises :class:`PoolExhausted` instead.  ``dtype`` selects the page storage
    width: ``"fp32"`` (default, exact) or ``"fp16"`` (half the pool bytes;
    every stored element is rounded to half precision once at write time and
    widened back to fp32 for compute — the "stored half, computed full"
    design point of fp16 KV serving stacks).
    """

    __slots__ = ("n_heads", "head_dim", "page_tokens", "grow", "dtype",
                 "fault_gate", "_keys", "_values", "_refcounts", "_free")

    def __init__(self, n_heads: int, head_dim: int, page_tokens: int = 16,
                 initial_pages: int = 64, grow: bool = True,
                 dtype: "str | np.dtype | type" = "fp32",
                 reserve_pages: int = 0) -> None:
        if n_heads <= 0 or head_dim <= 0 or page_tokens <= 0 or initial_pages <= 0:
            raise ValueError("n_heads, head_dim, page_tokens and initial_pages "
                             "must be positive")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.page_tokens = page_tokens
        self.grow = grow
        self.dtype = _page_dtype(dtype)
        #: Chaos hook (``repro.serve.faults``): a zero-argument callable that
        #: makes :meth:`try_alloc` spuriously fail when it returns True.
        self.fault_gate = None
        # The arena may be mapped larger than the pages under accounting
        # (``reserve_pages``): growing into the reserve copies nothing.
        shape = (max(initial_pages, reserve_pages), n_heads, page_tokens, head_dim)
        self._keys = _arena(shape, self.dtype)
        self._values = _arena(shape, self.dtype)
        # Plain-list refcounts: scalar bumps in the decode hot path are much
        # cheaper than numpy element access.
        self._refcounts: list[int] = [0] * initial_pages
        # LIFO free list: recently-released pages are reused first (cache-warm).
        self._free: list[int] = list(range(initial_pages - 1, -1, -1))

    # -- capacity and accounting ----------------------------------------
    @property
    def n_pages(self) -> int:
        """Total pages under accounting (free + referenced)."""
        return len(self._refcounts)

    @property
    def n_free(self) -> int:
        return len(self._free)

    @property
    def n_referenced(self) -> int:
        """Pages with a non-zero reference count."""
        refcounts = self._refcounts
        referenced = len(refcounts) - refcounts.count(0)
        if min(refcounts) < 0:  # corrupted pool: negatives are not references
            referenced -= sum(1 for count in refcounts if count < 0)
        return referenced

    @property
    def bytes_per_page(self) -> int:
        return 2 * self.n_heads * self.page_tokens * self.head_dim * self.dtype.itemsize

    @property
    def capacity_tokens(self) -> int | None:
        """Hard token capacity of a non-growing pool (``None`` when growable).

        This is the bound the serving :class:`~repro.serve.kv_manager.
        KVSpaceManager` enforces by preemption: a bounded pool never grows,
        so exceeding it raises :class:`PoolExhausted` instead.
        """
        if self.grow:
            return None
        return self.n_pages * self.page_tokens

    def refcount(self, page: int) -> int:
        return self._refcounts[page]

    def check_accounting(self) -> None:
        """Assert the pool invariant ``allocated = referenced + free``.

        Failure messages carry the actual counts and the offending page ids
        so a broken invariant surfaced deep inside a chaos run is debuggable
        from the traceback alone.
        """
        # The passing case costs a few C-level sweeps (this runs after every
        # step of a bounded pool); page lists are built only to report.
        free, refcounts = self._free, self._refcounts
        if len(set(free)) != len(free):
            counts = Counter(free)
            duplicates = sorted(page for page, n in counts.items() if n > 1)
            raise AssertionError(
                f"free list contains duplicate pages {duplicates} "
                f"(free list has {len(free)} entries, "
                f"{len(counts)} distinct, of {self.n_pages} allocated)")
        n_referenced = self.n_referenced
        if self.n_pages != n_referenced + len(free):
            raise AssertionError(
                f"page accounting broken: {self.n_pages} allocated != "
                f"{n_referenced} referenced + {len(free)} free")
        if max(map(refcounts.__getitem__, free), default=0) > 0:
            both = sorted(page for page in free if refcounts[page] > 0)
            raise AssertionError(
                f"free list contains referenced pages {both} "
                f"(refcounts {[refcounts[p] for p in both]}; "
                f"{n_referenced} referenced + {len(free)} free "
                f"of {self.n_pages} allocated)")
        if min(refcounts) < 0:
            negative = [page for page, count in enumerate(refcounts) if count < 0]
            raise AssertionError(
                f"negative refcount on pages {negative} "
                f"(refcounts {[refcounts[p] for p in negative]})")

    # -- allocation -----------------------------------------------------
    def _grow(self) -> None:
        old = self.n_pages
        reserved = self._keys.shape[0]
        new = min(old * 2, reserved) if old < reserved else old * 2
        if new > reserved:
            for name in ("_keys", "_values"):
                buf = getattr(self, name)
                grown = _arena((new,) + buf.shape[1:], self.dtype)
                grown[:old] = buf
                setattr(self, name, grown)
        self._refcounts.extend([0] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def try_alloc(self, *, faultable: bool = True) -> int | None:
        """Non-raising :meth:`alloc`: ``None`` when a bounded pool is dry or
        the armed :attr:`fault_gate` injects spurious allocation pressure."""
        if faultable and self.fault_gate is not None and self.fault_gate():
            return None
        if not self._free:
            if not self.grow:
                return None
            self._grow()
        page = self._free.pop()
        self._refcounts[page] = 1
        return page

    def alloc(self) -> int:
        """Pop a free page (refcount 1), growing the arena if allowed.

        Bypasses the fault gate: internal flushes allocate pages for space
        the serving layer already *reserved*, and a granted reservation must
        always be honoured (pressure is injected at reservation time).
        """
        page = self.try_alloc(faultable=False)
        if page is None:
            raise PoolExhausted(
                f"pool exhausted: all {self.n_pages} pages "
                f"({self.n_pages * self.page_tokens} tokens) are referenced")
        return page

    def retain(self, page: int) -> None:
        """Add one reference to a live page."""
        if self._refcounts[page] <= 0:
            raise ValueError(f"cannot retain free page {page}")
        self._refcounts[page] += 1

    def release(self, page: int) -> None:
        """Drop one reference; a page at refcount zero returns to the free list."""
        if self._refcounts[page] <= 0:
            raise ValueError(f"cannot release free page {page}")
        self._refcounts[page] -= 1
        if self._refcounts[page] == 0:
            self._free.append(page)

    # -- page views -----------------------------------------------------
    def key_page(self, page: int) -> np.ndarray:
        """Writable ``[H, page_tokens, d]`` view of one page's keys."""
        return self._keys[page]

    def value_page(self, page: int) -> np.ndarray:
        return self._values[page]

    # -- fused-decode gather/scatter ------------------------------------
    def scatter_tokens(self, pages: np.ndarray, offsets: np.ndarray,
                       keys: np.ndarray, values: np.ndarray) -> None:
        """Write one ``[H, d]`` token into each ``(page, offset)`` slot.

        The fused batched append: every group member first claims its slot
        via :meth:`PagedKVCache.reserve_slot`, then the whole group's new
        K/V lands in two fancy-indexed scatters (an fp16 pool rounds in the
        assignment) instead of 2·G single-token writes.
        """
        self._keys[pages, :, offsets] = keys
        self._values[pages, :, offsets] = values

    def gather_pages(self, tables: np.ndarray, out_keys: np.ndarray,
                     out_values: np.ndarray) -> None:
        """Gather whole page-table rows into fp32 group workspaces.

        ``tables`` is a ``[G, p_max]`` integer array of page ids (ragged
        rows padded with any live page id — callers mask or zero the tail
        tokens themselves); ``out_keys``/``out_values`` are
        ``[G, H, p_max * page_tokens, d]`` fp32 arrays (contiguous or
        strided views) whose gathered region is fully overwritten.  This is
        the paged-attention *restack* of the fused decode path: one
        fancy-indexed assignment per page column — ``self._keys[tables[:,
        j]]`` is already ``[G, H, page_tokens, d]`` head-major, so there is
        no transposed temporary, fp16 page storage widens back to fp32 in
        the assignment itself, and strided destinations (a persistent group
        buffer's length-sliced view) are written in place.
        """
        pages_per_row = tables.shape[1]
        page_tokens = self.page_tokens
        for j in range(pages_per_row):
            column = tables[:, j]
            out_keys[:, :, j * page_tokens:(j + 1) * page_tokens] = self._keys[column]
            out_values[:, :, j * page_tokens:(j + 1) * page_tokens] = self._values[column]

    # -- checkpoint import ----------------------------------------------
    def import_pages(self, ckpt: KVLayerCheckpoint) -> list[int]:
        """Materialise a layer checkpoint as freshly-allocated pages here.

        The checkpoint's contiguous ``[H, n_tokens, d]`` arrays are
        re-chunked to *this* pool's ``page_tokens`` (the source's page size
        may differ), so a checkpoint is portable across pool geometries as
        long as head geometry matches.  All-or-nothing: if the pool runs dry
        mid-import every page allocated so far is released before
        :class:`PoolExhausted` propagates, leaving accounting clean.
        """
        if ckpt.n_heads != self.n_heads or ckpt.head_dim != self.head_dim:
            raise ValueError(
                f"checkpoint geometry [H={ckpt.n_heads}, d={ckpt.head_dim}] "
                f"does not match pool [H={self.n_heads}, d={self.head_dim}]")
        pages: list[int] = []
        done = 0
        try:
            while done < ckpt.n_tokens:
                page = self.alloc()
                pages.append(page)
                take = min(self.page_tokens, ckpt.n_tokens - done)
                self._keys[page, :, :take] = ckpt.keys[:, done:done + take]
                self._values[page, :, :take] = ckpt.values[:, done:done + take]
                done += take
        except PoolExhausted:
            for page in pages:
                self.release(page)
            raise
        return pages


class PagedKVCache(LayerKVCache):
    """Full-cache semantics on pool pages, with zero-copy copy-on-write forks.

    Pages are the *sharing substrate*: :meth:`fork` retains the pages
    covering a prefix (refcount bump, no data copied) and a shared partial
    tail page is CoW-copied by whichever side writes it next.  The *working
    storage* of a live sequence is its private contiguous mirror (a
    :class:`ContiguousKVStore`), which keeps the decode hot path identical
    to :class:`FullKVCache`: appends are single buffer writes and ``fetch``
    returns zero-copy views.  Tokens move between the two lazily:

    * **flush** (mirror → pages) happens only when :meth:`fork` needs to
      share tokens that are not yet paged — one bulk CoW-aware write;
    * **gather** (pages → mirror) happens on a fork's first read — one bulk
      copy, O(prefix) memory traffic instead of the O(prefix²) compute of
      re-prefilling it.
    """

    supports_chunked_prefill = True
    supports_rollback = True
    supports_checkpoint = True
    fused_kind = "paged"

    def __init__(self, pool: KVPagePool, n_heads: int, head_dim: int, d_model: int) -> None:
        super().__init__(n_heads, head_dim, d_model)
        if pool.n_heads != n_heads or pool.head_dim != head_dim:
            raise ValueError("pool geometry does not match the cache geometry")
        self.pool = pool
        self._pages: list[int] = []
        self._count = 0
        self._flushed = 0  # tokens persisted to pages; the rest live in the mirror
        self._mirror: ContiguousKVStore | None = None
        # Fast-path flag: True guarantees the tail page has refcount 1, so a
        # flush can skip the refcount lookup.  Cleared on fork (on whichever
        # sides share the tail), restored by CoW or fresh-page allocation.
        self._tail_owned = False

    # -- page bookkeeping -----------------------------------------------
    @property
    def pages(self) -> tuple[int, ...]:
        """The (read-only) page list backing this cache, in token order."""
        return tuple(self._pages)

    @property
    def flushed_tokens(self) -> int:
        """Tokens currently persisted to pool pages (≤ ``num_tokens``)."""
        return self._flushed

    def page_list(self) -> list[int]:
        """The live page-index list, in token order — **no copy**.

        Fused-decode hot-path accessor: callers read it to build group
        page-table arrays and must not mutate it (use :meth:`fork` /
        :meth:`truncate` / :meth:`release` for that).
        """
        return self._pages

    def _to_storage(self, array: np.ndarray) -> np.ndarray:
        """Round an fp32 array through the pool's storage dtype.

        Applied at every *mirror* write so the mirror and the pages always
        hold bit-identical values: without this, an fp16 pool would serve
        unrounded fp32 from the mirror until the first flush/gather cycle
        and rounded values afterwards, making results depend on fork/fetch
        timing (and the fused page path diverge from the per-sequence one).
        """
        array = np.asarray(array, dtype=np.float32)
        if self.pool.dtype == np.float16:
            return array.astype(np.float16).astype(np.float32)
        return array

    def _writable_tail(self) -> int:
        """The tail page, CoW-copied first if it is shared with a fork."""
        tail = self._pages[-1]
        if self.pool.refcount(tail) > 1:
            used = self._flushed - (len(self._pages) - 1) * self.pool.page_tokens
            fresh = self.pool.alloc()
            self.pool.key_page(fresh)[:, :used] = self.pool.key_page(tail)[:, :used]
            self.pool.value_page(fresh)[:, :used] = self.pool.value_page(tail)[:, :used]
            self.pool.release(tail)
            self._pages[-1] = fresh
            tail = fresh
        self._tail_owned = True
        return tail

    def _flush(self) -> None:
        """Persist mirror tokens beyond the page watermark (CoW-aware)."""
        if self._flushed == self._count:
            return
        mirror = self._sync_mirror()
        keys, values = mirror.view()
        pool = self.pool
        page_tokens = pool.page_tokens
        while self._flushed < self._count:
            offset = self._flushed % page_tokens
            if offset == 0:
                self._pages.append(pool.alloc())
                self._tail_owned = True
                page = self._pages[-1]
            elif self._tail_owned:
                page = self._pages[-1]
            else:
                page = self._writable_tail()
            take = min(page_tokens - offset, self._count - self._flushed)
            pool._keys[page, :, offset:offset + take] = \
                keys[:, self._flushed:self._flushed + take]
            pool._values[page, :, offset:offset + take] = \
                values[:, self._flushed:self._flushed + take]
            self._flushed += take

    def _sync_mirror(self) -> ContiguousKVStore:
        """Gather any paged tokens the mirror is missing (bulk, per page)."""
        if self._mirror is None:
            self._mirror = ContiguousKVStore(
                self.n_heads, self.head_dim,
                initial_capacity=max(64, self._count + self.pool.page_tokens))
        mirror = self._mirror
        page_tokens = self.pool.page_tokens
        done = len(mirror)
        # Invariant: tokens in [len(mirror), _flushed) are on pages; tokens
        # in [_flushed, _count) are already in the mirror by construction.
        while done < self._flushed:
            page = self._pages[done // page_tokens]
            offset = done % page_tokens
            take = min(page_tokens - offset, self._flushed - done)
            mirror.extend(self.pool.key_page(page)[:, offset:offset + take],
                          self.pool.value_page(page)[:, offset:offset + take])
            done += take
        return mirror

    # -- LayerKVCache interface -----------------------------------------
    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        del inputs, attn_probs
        mirror = self._mirror
        if mirror is None or len(mirror) != self._count:
            mirror = self._sync_mirror()
        mirror.extend(self._to_storage(keys), self._to_storage(values))
        self._count = len(mirror)

    def extend_chunk(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                     positions: np.ndarray) -> None:
        del inputs, positions
        self.prefill(keys, values, None, None)

    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        del x, position
        mirror = self._mirror
        if mirror is None or len(mirror) != self._count:
            mirror = self._sync_mirror()
        mirror.append(self._to_storage(key), self._to_storage(value))
        self._count += 1

    def append_page(self, key: np.ndarray, value: np.ndarray) -> None:
        """Append one token *directly* into pool pages, bypassing the mirror.

        The fused decode path's write primitive: any mirror-only tokens are
        flushed first (once, on the step a sequence enters the fused path),
        after which steady-state appends are a single slot write into the
        CoW-owned tail page and the page watermark tracks ``num_tokens``
        exactly — so the group page-table gather always sees every token
        without a mirror round-trip.  An fp16 pool rounds in the assignment
        itself.  The stale mirror is refilled lazily from pages if a
        per-sequence :meth:`fetch` ever needs it again.
        """
        page, offset = self.reserve_slot()
        self.pool._keys[page, :, offset] = key
        self.pool._values[page, :, offset] = value

    def reserve_slot(self) -> tuple[int, int]:
        """Claim the next token's ``(page, offset)`` without writing data.

        Identical bookkeeping to :meth:`append_page` (flush, page alloc, CoW
        tail ownership, count/watermark advance) — the fused decode path
        reserves one slot per group member and then lands the whole group's
        K/V with two batched pool scatters instead of 2·G single-token
        writes.  The caller *must* write the slot before any read.
        """
        self._flush()
        pool = self.pool
        offset = self._count % pool.page_tokens
        if offset == 0:
            self._pages.append(pool.alloc())
            self._tail_owned = True
            page = self._pages[-1]
        elif self._tail_owned:
            page = self._pages[-1]
        else:
            page = self._writable_tail()
        self._count += 1
        self._flushed = self._count
        return page, offset

    def tail_token(self) -> tuple[np.ndarray, np.ndarray]:
        """``[H, d]`` views of the newest token *as stored* in its page.

        Only valid right after :meth:`append_page` (which leaves every token
        flushed); the fused decode path reads this instead of the raw
        projection so an incremental group-buffer append captures the pool
        dtype's rounding (fp16 pages) exactly as a full re-gather would.
        """
        if self._flushed != self._count or self._count == 0:
            raise ValueError("tail_token requires a fully-flushed, non-empty cache")
        page = self._pages[-1]
        offset = (self._count - 1) % self.pool.page_tokens
        return (self.pool.key_page(page)[:, offset],
                self.pool.value_page(page)[:, offset])

    def fetch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mirror = self._mirror
        if mirror is None or len(mirror) != self._count:
            mirror = self._sync_mirror()
        keys, values = mirror.view()
        return keys, values, mirror.valid_view()

    def observe_attention(self, probs: np.ndarray) -> None:
        del probs  # paged cache keeps everything; no importance tracking

    @property
    def num_tokens(self) -> int:
        return self._count

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        """Bytes at *page* granularity: partially-filled pages count in full."""
        page_tokens = self.pool.page_tokens
        n_pages = -(-self._count // page_tokens)  # ceil: as if fully paged
        elements = 2 * n_pages * page_tokens * self.n_heads * self.head_dim
        return elements * bits_per_element // 8

    # -- forking and release --------------------------------------------
    def fork(self, upto: int | None = None) -> "PagedKVCache":
        """Zero-copy copy-on-write fork sharing the first ``upto`` tokens.

        Unpaged mirror tokens are flushed to pages first (one bulk CoW-aware
        write); then every page covering the prefix is retained — no K/V
        data is copied.  A partially-covered shared tail page is CoW-copied
        by whichever side flushes into it next.  The fork's own mirror is
        built lazily on first read, so forks that are never decoded from
        (e.g. radix-tree snapshots) cost O(pages) bookkeeping only.
        """
        upto = self._count if upto is None else int(upto)
        if not 0 <= upto <= self._count:
            raise ValueError(f"fork upto={upto} out of range [0, {self._count}]")
        self._flush()
        child = PagedKVCache(self.pool, self.n_heads, self.head_dim, self.d_model)
        n_pages = -(-upto // self.pool.page_tokens)  # ceil division
        child._pages = self._pages[:n_pages]
        for page in child._pages:
            self.pool.retain(page)
        child._count = child._flushed = upto
        if n_pages == len(self._pages) and n_pages > 0:
            self._tail_owned = False  # our tail page is now shared with the fork
        return child

    def truncate(self, n: int) -> None:
        """Native rollback: drop tokens beyond ``n``, freeing rolled-back pages.

        Pages wholly beyond the new length return their reference to the
        pool immediately (a page shared with a fork/radix snapshot just
        drops this cache's refcount).  A partially-kept tail page stays, but
        ownership is no longer assumed: the next flush into it re-checks the
        refcount and CoW-copies if a snapshot still shares it, so rollback
        can never corrupt forked prefixes.
        """
        if not 0 <= n <= self._count:
            raise ValueError(f"truncate to {n} out of range [0, {self._count}]")
        if n == self._count:
            return
        if self._flushed > n:
            keep = -(-n // self.pool.page_tokens)  # ceil: pages covering n tokens
            for page in self._pages[keep:]:
                self.pool.release(page)
            del self._pages[keep:]
            self._flushed = n
            self._tail_owned = False
        self._count = n
        if self._mirror is not None and len(self._mirror) > n:
            self._mirror.truncate(n)
        self.write_epoch += 1

    # -- checkpoint / restore -------------------------------------------
    def export_state(self) -> KVLayerCheckpoint:
        """Serialise this layer's KV state into a self-contained checkpoint.

        Read-only with respect to pool accounting: no pages are allocated,
        flushed, retained or released — a periodic checkpoint of a live
        request must not perturb it.  Data is gathered through the mirror
        (pages in page-table order, then the unflushed tail) and *copied*,
        so the checkpoint survives the source cache, its pool, and any CoW
        sharing with forks.
        """
        mirror = self._sync_mirror()
        keys, values = mirror.view()
        return KVLayerCheckpoint(
            keys=keys.copy(), values=values.copy(),
            n_tokens=self._count, flushed_tokens=self._flushed,
            page_tokens=self.pool.page_tokens)

    def import_state(self, ckpt: KVLayerCheckpoint) -> None:
        """Rebuild an exported layer state inside *this* cache's pool.

        Only an empty (freshly made) cache may import; the tokens land as
        fully-flushed private pages (refcount 1, so the restored request
        owns its tail) plus a rebuilt mirror, making the restored cache
        indistinguishable from one that decoded every token locally.
        """
        if self._count or self._pages:
            raise ValueError("import_state requires an empty cache")
        self._pages = self.pool.import_pages(ckpt)
        self._count = self._flushed = ckpt.n_tokens
        mirror = ContiguousKVStore(
            self.n_heads, self.head_dim,
            initial_capacity=max(64, ckpt.n_tokens + self.pool.page_tokens))
        # Round through the pool dtype so the rebuilt mirror matches the
        # imported pages bit-for-bit (an fp32 checkpoint restored into an
        # fp16 pool is rounded once, identically on both sides).
        mirror.extend(self._to_storage(ckpt.keys), self._to_storage(ckpt.values))
        self._mirror = mirror
        self._tail_owned = bool(self._pages)
        self.write_epoch += 1

    def release(self) -> None:
        """Drop every page reference and reset; idempotent."""
        for page in self._pages:
            self.pool.release(page)
        self._pages = []
        self._count = 0
        self._flushed = 0
        self._mirror = None
        self._tail_owned = False
        self.write_epoch += 1


class PagedCacheFactory:
    """A :class:`KVCacheFactory` whose caches draw from shared per-layer pools.

    One :class:`KVPagePool` is created per ``(layer, n_heads, head_dim)`` the
    first time a cache is requested for it, then shared by every subsequent
    ``make_caches`` call — so all sequences of a serving run allocate from
    (and can share prefix pages inside) the same arena.
    """

    def __init__(self, page_tokens: int = 16, initial_pages: int = 64,
                 grow: bool = True, dtype: "str | np.dtype | type" = "fp32") -> None:
        if page_tokens <= 0 or initial_pages <= 0:
            raise ValueError("page_tokens and initial_pages must be positive")
        self.page_tokens = page_tokens
        self.initial_pages = initial_pages
        self.grow = grow
        self.dtype = _page_dtype(dtype)
        #: Pages each future pool maps up front (see :meth:`reserve_capacity`).
        self.reserve_pages = 0
        #: Chaos hook propagated to every (existing and future) layer pool's
        #: :attr:`KVPagePool.fault_gate`.
        self.fault_gate = None
        self._pools: dict[tuple[int, int, int], KVPagePool] = {}

    def __call__(self, layer_index: int, n_heads: int, head_dim: int, d_model: int,
                 recompute_fn: RecomputeFn) -> PagedKVCache:
        del recompute_fn
        key = (layer_index, n_heads, head_dim)
        pool = self._pools.get(key)
        if pool is None:
            pool = KVPagePool(n_heads, head_dim, page_tokens=self.page_tokens,
                              initial_pages=self.initial_pages, grow=self.grow,
                              dtype=self.dtype, reserve_pages=self.reserve_pages)
            pool.fault_gate = self.fault_gate
            self._pools[key] = pool
        return PagedKVCache(pool, n_heads, head_dim, d_model)

    def reserve_capacity(self, capacity_tokens: int) -> None:
        """Map future pools once, at the size a serving capacity can fill.

        A :class:`~repro.serve.kv_manager.KVSpaceManager` enforcing
        ``capacity_tokens`` over a *growable* factory calls this, so each
        layer's arena is mapped at ``ceil(capacity / page_tokens)`` pages and
        the pool grows into it without copy-doubling through ever-larger
        arenas (reserved pages stay uncommitted until written, see
        :func:`_arena`; accounting still covers only the pages handed to the
        free list so far).  Growth beyond the reserve keeps working; a
        bounded factory's page count *is* its capacity and is left alone.
        """
        if self.grow:
            self.reserve_pages = max(self.reserve_pages,
                                     -(-capacity_tokens // self.page_tokens))

    def arm_fault_gate(self, gate) -> None:
        """Arm (or with ``None`` disarm) the allocation fault gate everywhere."""
        self.fault_gate = gate
        for pool in self._pools.values():
            pool.fault_gate = gate

    @property
    def pools(self) -> list[KVPagePool]:
        return list(self._pools.values())

    @property
    def total_pages(self) -> int:
        return sum(pool.n_pages for pool in self.pools)

    @property
    def free_pages(self) -> int:
        return sum(pool.n_free for pool in self.pools)

    @property
    def bounded(self) -> bool:
        """Whether this factory's pools enforce a hard page budget."""
        return not self.grow

    @property
    def capacity_tokens(self) -> int | None:
        """Per-layer token capacity of a bounded factory (``None`` if growable).

        Pools are created lazily per layer with identical geometry, so one
        layer's capacity is *the* serving capacity a
        :class:`~repro.serve.kv_manager.KVSpaceManager` budgets against.
        """
        if self.grow:
            return None
        return self.initial_pages * self.page_tokens

    @property
    def referenced_pages(self) -> int:
        return sum(pool.n_referenced for pool in self.pools)

    def check_accounting(self) -> None:
        """Assert ``allocated = referenced + free`` for every layer pool."""
        for pool in self.pools:
            pool.check_accounting()


@register("cache", "paged",
          description="paged KV pool (block allocation, refcounted CoW pages, "
                      "prefix sharing; dtype=fp16 halves page bytes)")
def _build_paged(page_tokens: int = 16, initial_pages: int = 64,
                 grow: bool = True, dtype: str = "fp32") -> KVCacheFactory:
    """Registry builder: ``resolve("cache", "paged:page_tokens=32")`` or
    ``resolve("cache", "paged:dtype=fp16")`` for half-precision page storage
    (stored half, computed fp32)."""
    return PagedCacheFactory(page_tokens=page_tokens, initial_pages=initial_pages,
                             grow=grow, dtype=dtype)
