"""Paged KV memory pool: one page table per sequence over per-layer arenas.

The serving path of the reproduction originally gave every request an
isolated, privately-grown KV cache, so two requests sharing a long system
prompt stored — and, worse, *recomputed* — the shared prefix twice.  This
module provides the vLLM/SGLang design point instead (PagedAttention's
per-sequence block table, Kwon et al., SOSP '23):

* :class:`KVPagePool` — **one accounting domain per cache factory**: one
  refcount list, one free list, one growth path and one fault gate, over a
  K/V arena per decoder layer (``[L, n_pages, H, page_tokens, d]``, reserved
  once).  A **page id names the same slot in every layer's arena**, so the
  page a sequence's token ``t`` lives on is one number for all ``L`` layers;
  :attr:`~KVPagePool.bytes_per_page` covers every layer's slice.  Pages are
  handed out from the free list, reference-counted, and recycled the moment
  their refcount drops to zero; ``allocated = referenced + free`` is
  checkable at any time via :meth:`KVPagePool.check_accounting`.
* :class:`PageTable` — **one per sequence**: its page list, whether it owns
  its tail page, and the handles' contiguous mirrors (one ``[L, H,
  capacity, d]`` buffer, a row per layer).  A page's refcount is the number
  of live tables that list it, whatever the number of layers.
* :class:`PagedKVCache` — the per-layer :class:`~repro.llm.cache.LayerKVCache`
  **handle** on a table: it keeps only what differs between layers — its
  token count, its flush watermark (tokens already written to pages) and
  how much of its mirror row is filled.  The ``L`` handles
  :meth:`PagedCacheFactory.make_stack` builds for one sequence share one
  table.  Semantically every handle is the
  full (no-eviction) cache with **zero-copy copy-on-write forks**: a fork
  shares the pages of a prefix with its parent, and writing into a shared
  page first copies it (every layer's slice at once) into a fresh page, so
  forks never observe each other's writes.
* :class:`PagedCacheFactory` — the ``"paged"`` cache spec, and at its default
  geometry the ``"full"`` / ``"fp16"`` baseline: one pool per head geometry,
  shared by every stack it builds, which is what lets *different requests*
  of a serving run share prefix pages.

**The stack protocol.**  ``fork_stack`` / ``truncate_stack`` /
``release_stack`` on a whole stack (every live handle of one table) are one
table operation each: pages are retained, allocated, CoW-copied and released
once per sequence, and while the layers are in step a gather (pages →
mirrors) or flush (mirrors → pages) is one copy per page for all of them;
the fused decode claims a sequence's next ``(page, offset)`` once per step
(:meth:`PagedKVCache.reserve_stack_slot`, or one :meth:`PagedGroup.claim`
for a whole decode group) and every layer writes its slice of that slot.
The per-handle :meth:`~PagedKVCache.fork`,
:meth:`~PagedKVCache.truncate` and :meth:`~PagedKVCache.release` stay
correct on their own: a per-handle fork gets a table of its own, a
per-handle truncate lowers only that handle's watermark, and a per-handle
release detaches the handle from its table.

**When a page is freed.**  A table keeps exactly the pages its
furthest-flushed live handle covers; it drops a page when its last live
handle stops covering it (truncate, release), and the pool frees the page
when the last table listing it drops it.

The decode hot loop of a single sequence still needs contiguous
``[H, n, d]`` K/V views, so each handle keeps a per-sequence *mirror* — its
row of the table's mirror buffer, lazily synchronised from the pages inside
:meth:`~PagedKVCache.fetch` — so steady-state fetches stay zero-copy and a
freshly forked cache pays one bulk gather (O(prefix) memory traffic) instead
of re-running prefill (O(prefix²) compute).  Chunk and single-token appends
land in the mirror and are flushed to pages when a fork, a checkpoint import
or the fused decode needs them there; the fused decode then writes pages
directly.
"""

from __future__ import annotations

import math
import mmap
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.llm.cache import KVCacheFactory, LayerKVCache, RecomputeFn
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
    matching head geometry via :meth:`PagedKVCache.import_state` with clean
    page accounting on both sides.  This is the KV-handoff primitive behind recompute-free failover
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
    """Fixed-size KV pages with free-list allocation and refcounts, every layer at once.

    Storage is ``[n_layers, n_pages, H, page_tokens, head_dim]`` for keys and
    values: one page id is a natively-shaped ``[H, page_tokens, d]`` block in
    each layer's arena, and the accounting (refcounts, free list, growth,
    fault gate) is per page id, not per layer.  ``grow=True`` (the default)
    doubles the page count when the free list runs dry — in place while it
    fits the ``reserve_pages`` the arenas were mapped with, by moving to
    bigger arenas beyond that; ``grow=False`` models a hard memory budget
    and raises :class:`PoolExhausted` instead.  ``dtype`` selects the page
    storage width: ``"fp32"`` (default, exact) or ``"fp16"`` (half the pool
    bytes; every stored element is rounded to half precision once at write
    time and widened back to fp32 for compute — the "stored half, computed
    full" design point of fp16 KV serving stacks).
    """

    __slots__ = ("n_heads", "head_dim", "page_tokens", "grow", "dtype",
                 "fault_gate", "_keys", "_values", "_refcounts", "_free")

    def __init__(self, n_heads: int, head_dim: int, page_tokens: int = 16,
                 initial_pages: int = 64, grow: bool = True,
                 dtype: "str | np.dtype | type" = "fp32",
                 reserve_pages: int = 0, n_layers: int = 1) -> None:
        if (n_heads <= 0 or head_dim <= 0 or page_tokens <= 0 or initial_pages <= 0
                or n_layers <= 0):
            raise ValueError("n_heads, head_dim, page_tokens, initial_pages and "
                             "n_layers must be positive")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.page_tokens = page_tokens
        self.grow = grow
        self.dtype = _page_dtype(dtype)
        #: Chaos hook (``repro.serve.faults``): a zero-argument callable that
        #: makes :meth:`try_alloc` spuriously fail when it returns True.
        self.fault_gate = None
        # The arenas may be mapped larger than the pages under accounting
        # (``reserve_pages``): growing into the reserve copies nothing.
        shape = (n_layers, max(initial_pages, reserve_pages), n_heads, page_tokens,
                 head_dim)
        self._keys = _arena(shape, self.dtype)
        self._values = _arena(shape, self.dtype)
        # Plain-list refcounts: scalar bumps in the decode hot path are much
        # cheaper than numpy element access.
        self._refcounts: list[int] = [0] * initial_pages
        # LIFO free list: recently-released pages are reused first (cache-warm).
        self._free: list[int] = list(range(initial_pages - 1, -1, -1))

    # -- capacity and accounting ----------------------------------------
    @property
    def n_layers(self) -> int:
        """Layers whose arenas share these page ids."""
        return self._keys.shape[0]

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
        """Bytes one page id holds: K and V, every layer."""
        return (2 * self.n_layers * self.n_heads * self.page_tokens * self.head_dim
                * self.dtype.itemsize)

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
    def _remap(self, n_layers: int, capacity: int) -> None:
        """Move to arenas of ``n_layers x capacity`` pages, keeping every page."""
        used = self.n_pages
        for name in ("_keys", "_values"):
            buf = getattr(self, name)
            grown = _arena((n_layers, capacity) + buf.shape[2:], self.dtype)
            grown[:buf.shape[0], :used] = buf[:, :used]
            setattr(self, name, grown)

    def _grow(self) -> None:
        old = self.n_pages
        reserved = self._keys.shape[1]
        new = min(old * 2, reserved) if old < reserved else old * 2
        if new > reserved:
            self._remap(self.n_layers, new)
        self._refcounts.extend([0] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def add_layers(self, n_layers: int) -> None:
        """Give every page a slice in at least ``n_layers`` layers' arenas."""
        if n_layers > self.n_layers:
            self._remap(n_layers, self._keys.shape[1])

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
        """Pop a free page (refcount 1), growing the arenas if allowed.

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
    def key_page(self, page: int, layer: int = 0) -> np.ndarray:
        """Writable ``[H, page_tokens, d]`` view of one page's keys in one layer."""
        return self._keys[layer, page]

    def value_page(self, page: int, layer: int = 0) -> np.ndarray:
        return self._values[layer, page]

    def copy_page(self, src: int, dst: int) -> None:
        """Copy page ``src`` into ``dst`` in every layer (the CoW copy)."""
        self._keys[:, dst] = self._keys[:, src]
        self._values[:, dst] = self._values[:, src]

    # -- fused-decode gather/scatter ------------------------------------
    def scatter_tokens(self, pages: np.ndarray, offsets: np.ndarray,
                       keys: np.ndarray, values: np.ndarray, layer: int = 0) -> None:
        """Write one ``[H, d]`` token into each ``(page, offset)`` slot of ``layer``.

        The fused batched append: every group member's slot is claimed once
        for all layers (:meth:`PagedKVCache.reserve_stack_slot`), then each
        layer lands the whole group's new K/V with two fancy-indexed scatters
        (an fp16 pool rounds in the assignment) instead of 2·G single-token
        writes.
        """
        self._keys[layer][pages, :, offsets] = keys
        self._values[layer][pages, :, offsets] = values

    def gather_pages(self, tables: np.ndarray, out_keys: np.ndarray,
                     out_values: np.ndarray, layer: int = 0) -> None:
        """Gather whole page-table rows of ``layer`` into fp32 group workspaces.

        ``tables`` is a ``[G, p_max]`` integer array of page ids (ragged
        rows padded with any page id — callers mask or zero the tail tokens
        themselves); ``out_keys``/``out_values`` are
        ``[G, H, p_max * page_tokens, d]`` fp32 arrays (contiguous or
        strided views) whose gathered region is fully overwritten.  This is
        the paged-attention *restack* of the fused decode path: one
        fancy-indexed assignment per page column — ``keys[tables[:, j]]`` is
        already ``[G, H, page_tokens, d]`` head-major, so there is no
        transposed temporary, fp16 page storage widens back to fp32 in the
        assignment itself, and strided destinations (a persistent group
        buffer's length-sliced view) are written in place.
        """
        keys, values = self._keys[layer], self._values[layer]
        page_tokens = self.page_tokens
        for j in range(tables.shape[1]):
            column = tables[:, j]
            out_keys[:, :, j * page_tokens:(j + 1) * page_tokens] = keys[column]
            out_values[:, :, j * page_tokens:(j + 1) * page_tokens] = values[column]


class PageTable:
    """One sequence's pages, shared by its per-layer :class:`PagedKVCache` handles.

    ``pages`` lists the page ids in token order; token ``t`` of every layer
    lives in slot ``t % page_tokens`` of page ``pages[t // page_tokens]``.
    ``tail_owned`` True guarantees the tail page has refcount 1, so a write
    into it can skip the refcount lookup; it is cleared when a fork shares
    the tail or the table shrinks onto an older page, and restored by CoW or
    a fresh allocation.

    The table refers to its handles weakly, in layer order (handle ``s``
    serves layer ``first layer + s``): handles keep their table alive, never
    the reverse, so a dropped stack (and the pool arenas it points at) is
    freed by reference counting alone.

    The handles' contiguous mirrors live here too, as one fp32
    ``[S, H, capacity, d]`` pair (:meth:`mirror`; ``mirror_keys[s]`` is
    handle ``s``'s), so a stack whose layers are in step gathers pages into
    its mirrors, and flushes them back, with one copy per page for every
    layer.
    """

    __slots__ = ("pool", "pages", "tail_owned", "_handles", "mirror_keys",
                 "mirror_values", "valid")

    def __init__(self, pool: KVPagePool, pages: "list[int] | None" = None) -> None:
        self.pool = pool
        self.pages: list[int] = [] if pages is None else pages
        self.tail_owned = False
        self._handles: list[weakref.ref] = []
        self.mirror_keys: "np.ndarray | None" = None
        self.mirror_values: "np.ndarray | None" = None
        #: All-true ``[H, capacity]`` validity shared by the mirror views.
        self.valid: "np.ndarray | None" = None

    def live_handles(self) -> "list[PagedKVCache] | None":
        """Every handle, in order, or ``None`` when one has been dropped."""
        handles = [ref() for ref in self._handles]
        return None if None in handles else handles

    def is_stack(self, caches: "Sequence[LayerKVCache]") -> bool:
        """Whether ``caches`` are exactly this table's handles, in order."""
        return self.live_handles() == list(caches)

    def mirror(self, n_tokens: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``[S, H, capacity, d]`` mirrors, with room for ``n_tokens`` in
        every handle's row (grown by doubling, contents kept)."""
        keys = self.mirror_keys
        n_slots = len(self._handles)
        if keys is None or keys.shape[2] < n_tokens or keys.shape[0] < n_slots:
            pool = self.pool
            if keys is None:
                capacity = max(64, n_tokens + pool.page_tokens)
            else:
                capacity = keys.shape[2]
                while capacity < n_tokens:
                    capacity *= 2
            shape = (n_slots, pool.n_heads, capacity, pool.head_dim)
            grown_keys = np.empty(shape, dtype=np.float32)
            grown_values = np.empty(shape, dtype=np.float32)
            if keys is not None:
                old_slots, _heads, old_capacity, _dim = keys.shape
                grown_keys[:old_slots, :, :old_capacity] = keys
                grown_values[:old_slots, :, :old_capacity] = self.mirror_values
            self.mirror_keys, self.mirror_values = grown_keys, grown_values
            self.valid = np.ones((pool.n_heads, capacity), dtype=bool)
        return self.mirror_keys, self.mirror_values

    def drop_mirror(self) -> None:
        """Free the mirrors once every handle is empty."""
        self.mirror_keys = self.mirror_values = self.valid = None

    def writable_page(self, index: int) -> int:
        """Page ``index``, ready for writing: allocated when it is one past
        the end, CoW-copied first when another table shares it."""
        pages = self.pages
        last = len(pages) - 1
        if index > last:
            page = self.pool.alloc()
            pages.append(page)
            self.tail_owned = True
            return page
        page = pages[index]
        if index == last and self.tail_owned:
            return page
        pool = self.pool
        if pool._refcounts[page] > 1:
            fresh = pool.alloc()
            pool.copy_page(page, fresh)
            pool.release(page)
            pages[index] = page = fresh
        if index == last:
            self.tail_owned = True
        return page

    def flush(self, rows: slice, layers: slice, start: int, stop: int) -> None:
        """Write tokens ``[start, stop)`` of mirror ``rows`` to the pages of
        ``layers`` (one copy per page for all of them), placing the pages."""
        pool = self.pool
        page_tokens = pool.page_tokens
        first = start // page_tokens
        pages = [self.writable_page(index)
                 for index in range(first, (stop - 1) // page_tokens + 1)]
        keys, values = self.mirror_keys, self.mirror_values
        done = start
        while done < stop:
            index, offset = divmod(done, page_tokens)
            page = pages[index - first]
            take = min(page_tokens - offset, stop - done)
            pool._keys[layers, page, :, offset:offset + take] = keys[rows, :, done:done + take]
            pool._values[layers, page, :, offset:offset + take] = \
                values[rows, :, done:done + take]
            done += take

    def gather(self, rows: slice, layers: slice, start: int, stop: int) -> None:
        """Copy paged tokens ``[start, stop)`` of ``layers`` into mirror
        ``rows`` (one copy per page for all of them)."""
        pool, pages = self.pool, self.pages
        page_tokens = pool.page_tokens
        keys, values = self.mirror_keys, self.mirror_values
        done = start
        while done < stop:
            index, offset = divmod(done, page_tokens)
            take = min(page_tokens - offset, stop - done)
            keys[rows, :, done:done + take] = pool._keys[layers, pages[index], :,
                                                         offset:offset + take]
            values[rows, :, done:done + take] = pool._values[layers, pages[index], :,
                                                             offset:offset + take]
            done += take

    def trim(self) -> None:
        """Drop the pages no live handle's flushed tokens reach any more."""
        covered = 0
        for ref in self._handles:
            handle = ref()
            if handle is not None and handle._flushed > covered:
                covered = handle._flushed
        pool = self.pool
        keep = -(-covered // pool.page_tokens)  # ceil: pages covering the tokens
        if keep < len(self.pages):
            for page in self.pages[keep:]:
                pool.release(page)
            del self.pages[keep:]
            self.tail_owned = False


class PagedKVCache(LayerKVCache):
    """One layer's handle on a sequence's :class:`PageTable`: full-cache
    semantics on pool pages, with zero-copy copy-on-write forks.

    Pages are the *sharing substrate*: a fork retains the pages covering a
    prefix (refcount bump, no data copied) and a shared partial tail page is
    CoW-copied by whichever side writes it next.  The *working storage* of a
    live sequence is the handle's contiguous mirror (its row of the table's
    :meth:`~PageTable.mirror`), which keeps the single-sequence decode hot
    path a contiguous one: appends are single buffer writes and ``fetch``
    returns zero-copy views.  Tokens move between the two lazily:

    * **flush** (mirror → pages) happens only when a fork, a checkpoint
      import or the fused decode needs tokens that are not yet paged — one
      bulk CoW-aware write;
    * **gather** (pages → mirror) happens on a fork's first read — one bulk
      copy, O(prefix) memory traffic instead of the O(prefix²) compute of
      re-prefilling it.

    Both move every layer of a stack at once while its handles are in step.

    ``PagedKVCache(pool, ...)`` makes a handle with a table of its own;
    :meth:`PagedCacheFactory.make_stack` makes the ``L`` handles of one
    sequence share one (``layer`` selects the arena; ``table`` is joined as
    its next layer).
    """

    supports_chunked_prefill = True
    supports_rollback = True
    supports_checkpoint = True
    paged_stack = True

    def __init__(self, pool: KVPagePool, n_heads: int, head_dim: int, d_model: int,
                 *, layer: int = 0, table: "PageTable | None" = None) -> None:
        super().__init__(n_heads, head_dim, d_model)
        if pool.n_heads != n_heads or pool.head_dim != head_dim:
            raise ValueError("pool geometry does not match the cache geometry")
        if not 0 <= layer < pool.n_layers:
            raise ValueError(f"layer {layer} out of range for a {pool.n_layers}-layer pool")
        self.pool = pool
        self.layer = layer
        self._table = PageTable(pool) if table is None else table
        self._slot = len(self._table._handles)  # this handle's mirror row
        self._table._handles.append(weakref.ref(self))
        self._count = 0
        self._flushed = 0  # tokens persisted to pages; the rest live in the mirror
        self._mirrored = 0  # tokens [0, _mirrored) are in the mirror

    # -- page bookkeeping -----------------------------------------------
    @property
    def pages(self) -> tuple[int, ...]:
        """The (read-only) page list of this handle's table, in token order."""
        return tuple(self._table.pages)

    @property
    def flushed_tokens(self) -> int:
        """Tokens currently persisted to pool pages (≤ ``num_tokens``)."""
        return self._flushed

    def page_list(self) -> list[int]:
        """The table's live page-index list, in token order — **no copy**.

        Fused-decode hot-path accessor: callers read it to build group
        page-table arrays and must not mutate it (use :meth:`fork` /
        :meth:`truncate` / :meth:`release` for that).
        """
        return self._table.pages

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

    def _rows(self) -> tuple[slice, slice]:
        """This handle's mirror row and arena layer, as table slices."""
        return slice(self._slot, self._slot + 1), slice(self.layer, self.layer + 1)

    def _in_step(self) -> "list[PagedKVCache] | None":
        """Every handle of the table, when all hold what this one holds
        (count, watermark, mirror) — they may move their tokens together."""
        handles = self._table.live_handles()
        if handles is not None:
            state = (self._count, self._flushed, self._mirrored)
            for handle in handles:
                if (handle._count, handle._flushed, handle._mirrored) != state:
                    return None
        return handles

    @staticmethod
    def _stack_rows(handles: "list[PagedKVCache]") -> tuple[slice, slice]:
        """Mirror rows and arena layers of a whole table's handles."""
        first = handles[0].layer
        return slice(0, len(handles)), slice(first, first + len(handles))

    def _flush(self) -> None:
        """Persist mirror tokens beyond the page watermark (CoW-aware)."""
        if self._flushed != self._count:
            self._table.flush(*self._rows(), self._flushed, self._count)
            self._flushed = self._count

    def _flush_stack(self, caches: "Sequence[PagedKVCache]") -> None:
        """:meth:`_flush` every handle of this table (``caches``, all of
        them), with one copy per page when they are in step."""
        start, stop = self._flushed, self._count
        dirty, in_step = False, True
        for cache in caches:
            dirty |= cache._flushed != cache._count
            in_step &= cache._flushed == start and cache._count == stop
        if not dirty:
            return
        if not in_step:
            for cache in caches:
                cache._flush()
            return
        self._table.flush(*self._stack_rows(caches), start, stop)
        for cache in caches:
            cache._flushed = stop

    def _sync_mirror(self) -> None:
        """Gather the paged tokens the mirror is missing (bulk, per page) —
        for every handle of the table at once when they are in step."""
        table = self._table
        table.mirror(self._count)
        # Invariant: tokens in [_mirrored, _flushed) are on pages; tokens in
        # [_flushed, _count) are already in the mirror by construction.
        start, stop = self._mirrored, self._flushed
        if start >= stop:
            return
        handles = self._in_step()
        if handles is None:
            table.gather(*self._rows(), start, stop)
            self._mirrored = stop
        else:
            table.gather(*self._stack_rows(handles), start, stop)
            for handle in handles:
                handle._mirrored = stop

    # -- LayerKVCache interface -----------------------------------------
    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        del inputs, attn_probs
        if self._mirrored != self._count:
            self._sync_mirror()
        count, n = self._count, keys.shape[1]
        mirror_keys, mirror_values = self._table.mirror(count + n)
        mirror_keys[self._slot, :, count:count + n] = self._to_storage(keys)
        mirror_values[self._slot, :, count:count + n] = self._to_storage(values)
        self._count = self._mirrored = count + n

    def extend_chunk(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                     positions: np.ndarray) -> None:
        del inputs, positions
        self.prefill(keys, values, None, None)

    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        del x, position
        self.prefill(np.asarray(key)[:, None], np.asarray(value)[:, None], None, None)

    def reserve_slot(self) -> tuple[int, int]:
        """Claim this layer's next token ``(page, offset)`` without writing data.

        Flushes mirror-only tokens, allocates or CoW-resolves the page in
        the table and advances count and watermark; the caller *must* write
        the slot (:meth:`KVPagePool.scatter_tokens` with this handle's
        ``layer``) before any read.  Another layer of the same table reusing
        the page finds it allocated and owned.
        """
        self._flush()
        index, offset = divmod(self._count, self.pool.page_tokens)
        page = self._table.writable_page(index)
        self._count += 1
        self._flushed = self._count
        return page, offset

    def whole_stack(self, caches: "Sequence[LayerKVCache]") -> bool:
        """Whether ``caches`` are every live handle of this handle's table,
        layer ``i`` at index ``i``, all at one length — a sequence whose next
        slot :meth:`reserve_stack_slot` can claim once for every layer.

        (A table's handles are in increasing layer order, so the two end
        layers pin every layer in between.)
        """
        refs, count = self._table._handles, self._count
        if (len(refs) != len(caches) or caches[0].layer != 0
                or caches[-1].layer != len(caches) - 1):
            return False
        for ref, cache in zip(refs, caches):
            if ref() is not cache or cache._count != count:
                return False
        return True

    def reserve_stack_slot(self, caches: "Sequence[PagedKVCache]") -> tuple[int, int]:
        """:meth:`reserve_slot` once for a :meth:`whole_stack`: every layer's
        count and watermark advance to the same ``(page, offset)``, which
        each layer then writes with its own scatter."""
        self._flush_stack(caches)
        page, offset = self.reserve_slot()
        for cache in caches:
            cache._count = cache._flushed = self._count
        return page, offset

    def fetch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._mirrored != self._count:
            self._sync_mirror()
        table, count = self._table, self._count
        mirror_keys, mirror_values = table.mirror(count)
        return (mirror_keys[self._slot, :, :count], mirror_values[self._slot, :, :count],
                table.valid[:, :count])

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

    # -- forking, truncation and release --------------------------------
    def fork(self, upto: int | None = None) -> "PagedKVCache":
        """Zero-copy copy-on-write fork sharing the first ``upto`` tokens.

        Unpaged mirror tokens are flushed to pages first (one bulk CoW-aware
        write); then every page covering the prefix is retained — no K/V
        data is copied — into the fork's own table.  A partially-covered
        shared tail page is CoW-copied by whichever side writes it next.
        The fork's mirror is built lazily on first read, so forks that are
        never decoded from (e.g. radix-tree snapshots) cost O(pages)
        bookkeeping only.
        """
        upto = self._count if upto is None else int(upto)
        if not 0 <= upto <= self._count:
            raise ValueError(f"fork upto={upto} out of range [0, {self._count}]")
        self._flush()
        table = self._table
        n_pages = -(-upto // self.pool.page_tokens)  # ceil division
        shared = table.pages[:n_pages]
        for page in shared:
            self.pool.retain(page)
        if n_pages == len(table.pages) and n_pages > 0:
            table.tail_owned = False  # our tail page is now shared with the fork
        return self._handle(PageTable(self.pool, shared), self.layer, upto)

    def _handle(self, table: PageTable, layer: int, n_tokens: int) -> "PagedKVCache":
        """A handle on ``table`` holding ``n_tokens`` tokens, all on pages:
        this handle's geometry, copied rather than validated again."""
        handle = object.__new__(PagedKVCache)
        handle.__dict__.update(self.__dict__)
        handle.write_epoch = handle._mirrored = 0
        handle.layer, handle._table, handle._slot = layer, table, len(table._handles)
        handle._count = handle._flushed = n_tokens
        table._handles.append(weakref.ref(handle))
        return handle

    def fork_stack(self, caches: "Sequence[LayerKVCache]",
                   upto: int | None = None) -> "list[LayerKVCache]":
        """Fork a whole stack with one table fork: the prefix pages are
        retained once for every layer (per-layer forks otherwise)."""
        if not self._table.is_stack(caches):
            return super().fork_stack(caches, upto)
        upto = self._count if upto is None else int(upto)
        for cache in caches:
            if not 0 <= upto <= cache._count:
                raise ValueError(f"fork upto={upto} out of range [0, {cache._count}]")
        self._flush_stack(caches)
        head = caches[0].fork(upto)
        return [head] + [head._handle(head._table, cache.layer, upto) for cache in caches[1:]]

    def _cut(self, n: int) -> bool:
        """Drop tokens beyond ``n`` from this handle (its table untouched);
        True when the watermark fell, i.e. the table may have pages to drop."""
        lowered = self._flushed > n
        if lowered:
            self._flushed = n
        self._count = n
        self._mirrored = min(self._mirrored, n)
        self.write_epoch += 1
        return lowered

    def truncate(self, n: int) -> None:
        """Native rollback: drop tokens beyond ``n``, freeing rolled-back pages.

        Pages no live handle of the table covers any more return their
        reference to the pool immediately (a page shared with a fork/radix
        snapshot just drops this table's refcount).  A partially-kept page
        stays, and the next write into it CoW-copies it first if a snapshot
        still shares it, so rollback can never corrupt forked prefixes.
        """
        if not 0 <= n <= self._count:
            raise ValueError(f"truncate to {n} out of range [0, {self._count}]")
        if n != self._count and self._cut(n):
            self._table.trim()

    def truncate_stack(self, caches: "Sequence[LayerKVCache]", n: int) -> None:
        """Truncate a whole stack with one table trim (per-layer otherwise)."""
        if not self._table.is_stack(caches):
            super().truncate_stack(caches, n)
            return
        for cache in caches:
            if not 0 <= n <= cache._count:
                raise ValueError(f"truncate to {n} out of range [0, {cache._count}]")
        lowered = False
        for cache in caches:
            if n != cache._count:
                lowered |= cache._cut(n)
        if lowered:
            self._table.trim()

    def _reset(self) -> None:
        self._count = self._flushed = self._mirrored = 0
        self.write_epoch += 1

    def release(self) -> None:
        """Empty this handle; the table drops the pages no other live handle
        covers (all of them when this was the last).  Idempotent; the handle
        stays usable."""
        self._reset()
        table = self._table
        table.trim()
        handles = [ref() for ref in table._handles]
        if not any(handle is not None and handle._count for handle in handles):
            table.drop_mirror()

    def release_stack(self, caches: "Sequence[LayerKVCache]") -> None:
        """Release a whole stack: every page once (per-layer otherwise)."""
        if not self._table.is_stack(caches):
            super().release_stack(caches)
            return
        for cache in caches:
            cache._reset()
        self._table.trim()
        self._table.drop_mirror()

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
        keys, values, _valid = self.fetch()
        return KVLayerCheckpoint(
            keys=keys.copy(), values=values.copy(),
            n_tokens=self._count, flushed_tokens=self._flushed,
            page_tokens=self.pool.page_tokens)

    def import_state(self, ckpt: KVLayerCheckpoint) -> None:
        """Rebuild an exported layer state inside *this* handle's pool.

        Only an empty (freshly made) handle may import.  The checkpoint is
        re-chunked to this pool's ``page_tokens`` (the source's page size
        may differ) and flushed onto the table's pages: the first layer of a
        stack to import allocates them, the others write their slices into
        the same pages, so the restored request owns its pages (refcount 1)
        and is indistinguishable from one that decoded every token locally.
        All-or-nothing: if the pool runs dry mid-import, the pages this
        import took are released before :class:`PoolExhausted` propagates.
        """
        if self._count:
            raise ValueError("import_state requires an empty cache")
        if ckpt.n_heads != self.n_heads or ckpt.head_dim != self.head_dim:
            raise ValueError(
                f"checkpoint geometry [H={ckpt.n_heads}, d={ckpt.head_dim}] "
                f"does not match pool [H={self.n_heads}, d={self.head_dim}]")
        # Round through the pool dtype so the rebuilt mirror matches the
        # pages bit-for-bit (an fp32 checkpoint restored into an fp16 pool
        # is rounded once, identically on both sides).
        n = ckpt.n_tokens
        mirror_keys, mirror_values = self._table.mirror(n)
        mirror_keys[self._slot, :, :n] = self._to_storage(ckpt.keys)
        mirror_values[self._slot, :, :n] = self._to_storage(ckpt.values)
        self._count = self._mirrored = n
        try:
            self._flush()
        except PoolExhausted:
            self.release()
            raise
        self.write_epoch += 1


class PagedGroup:
    """Whole stacks of one pool that decode together: one slot claim a step.

    The fused decode builds one per membership from
    :meth:`PagedKVCache.whole_stack` rows sharing a pool, and keeps it while
    :meth:`current` holds — every handle still at the count and
    :attr:`~repro.llm.cache.LayerKVCache.write_epoch` the last claim left it
    at, so nothing wrote, rolled back or released a member since.  The first
    claim goes through :meth:`PagedKVCache.reserve_stack_slot` per member
    (which flushes mirror-only tokens); later claims find every token on
    pages, so a member writing inside a tail page it owns takes that page as
    it is, and only members that open a page or write a shared tail go
    through :meth:`PageTable.writable_page`.
    """

    __slots__ = ("stacks", "lengths", "_tables", "_handles", "_counts", "_epochs")

    def __init__(self, stacks: "Sequence[Sequence[PagedKVCache]]") -> None:
        self.stacks = list(stacks)
        #: Tokens each member holds after the last claim (``None`` before it).
        self.lengths: "list[int] | None" = None
        self._tables = [caches[0]._table for caches in self.stacks]
        self._handles = [cache for caches in self.stacks for cache in caches]
        self._counts: "list[int] | None" = None
        self._epochs: "list[int] | None" = None

    def current(self) -> bool:
        """Whether every member holds exactly what the last claim left."""
        return (self._counts is not None
                and [cache._count for cache in self._handles] == self._counts
                and [cache.write_epoch for cache in self._handles] == self._epochs)

    def claim(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Claim each member's next ``(page, offset)`` for all of its layers.

        Returns ``(pages, offsets, lengths)``, the lengths counting the
        claimed token; the caller must write every slot before a read (see
        :meth:`PagedKVCache.reserve_slot`).
        """
        if self._counts is None:
            slots = [caches[0].reserve_stack_slot(caches) for caches in self.stacks]
            pages = [page for page, _offset in slots]
            offsets = [offset for _page, offset in slots]
            lengths = [caches[0]._count for caches in self.stacks]
            # Claims never touch stored tokens, so the epochs stay these.
            self._epochs = [cache.write_epoch for cache in self._handles]
        else:
            page_tokens = self._tables[0].pool.page_tokens
            held = self.lengths
            offsets = [n % page_tokens for n in held]
            pages = [table.pages[-1] if offset and table.tail_owned else -1
                     for table, offset in zip(self._tables, offsets)]
            if -1 in pages:
                for g, page in enumerate(pages):
                    if page < 0:
                        pages[g] = self._tables[g].writable_page(held[g] // page_tokens)
            lengths = [n + 1 for n in held]
            for caches, n in zip(self.stacks, lengths):
                for cache in caches:
                    cache._count = cache._flushed = n
        self.lengths = lengths
        self._counts = [n for caches, n in zip(self.stacks, lengths) for _cache in caches]
        return (np.array(pages, dtype=np.intp), np.array(offsets, dtype=np.intp),
                lengths)


class PagedCacheFactory:
    """A :class:`KVCacheFactory` whose caches draw from one shared pool.

    The pool (one per head geometry) is created the first time a cache is
    requested, with an arena per layer, then shared by every later stack —
    so all sequences of a serving run allocate from (and can share prefix
    pages inside) the same pages.  :meth:`make_stack` builds the ``L``
    handles of one sequence on one :class:`PageTable`; calling the factory
    for one layer builds a handle with a table of its own.
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
        #: Chaos hook propagated to every (existing and future) pool's
        #: :attr:`KVPagePool.fault_gate`.
        self.fault_gate = None
        self._pools: dict[tuple[int, int], KVPagePool] = {}

    def _pool(self, n_layers: int, n_heads: int, head_dim: int) -> KVPagePool:
        """The pool of this geometry, covering at least ``n_layers`` layers."""
        pool = self._pools.get((n_heads, head_dim))
        if pool is None:
            pool = KVPagePool(n_heads, head_dim, page_tokens=self.page_tokens,
                              initial_pages=self.initial_pages, grow=self.grow,
                              dtype=self.dtype, reserve_pages=self.reserve_pages,
                              n_layers=n_layers)
            pool.fault_gate = self.fault_gate
            self._pools[n_heads, head_dim] = pool
        else:
            pool.add_layers(n_layers)
        return pool

    def __call__(self, layer_index: int, n_heads: int, head_dim: int, d_model: int,
                 recompute_fn: RecomputeFn) -> PagedKVCache:
        del recompute_fn
        pool = self._pool(layer_index + 1, n_heads, head_dim)
        return PagedKVCache(pool, n_heads, head_dim, d_model, layer=layer_index)

    def make_stack(self, n_layers: int, n_heads: int, head_dim: int,
                   d_model: int) -> list[PagedKVCache]:
        """One sequence's handles, layer ``i`` at index ``i``, on one page table
        (the :meth:`~repro.llm.model.DecoderLM.make_caches` hook)."""
        pool = self._pool(n_layers, n_heads, head_dim)
        table = PageTable(pool)
        return [PagedKVCache(pool, n_heads, head_dim, d_model, layer=layer, table=table)
                for layer in range(n_layers)]

    def reserve_capacity(self, capacity_tokens: int) -> None:
        """Map future pools once, at the size a serving capacity can fill.

        A :class:`~repro.serve.kv_manager.KVSpaceManager` enforcing
        ``capacity_tokens`` over a *growable* factory calls this, so the
        arenas are mapped at ``ceil(capacity / page_tokens)`` pages and the
        pool grows into them without copy-doubling through ever-larger
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
        """Token capacity of a bounded factory (``None`` if growable): what
        a :class:`~repro.serve.kv_manager.KVSpaceManager` budgets against."""
        if self.grow:
            return None
        return self.initial_pages * self.page_tokens

    @property
    def referenced_pages(self) -> int:
        return sum(pool.n_referenced for pool in self.pools)

    def check_accounting(self) -> None:
        """Assert ``allocated = referenced + free`` for every pool."""
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


@register("cache", "full", "fp16",
          description="unbounded full KV cache (no eviction): the paged store at "
                      "its default geometry, a growable fp32 pool")
def _build_full() -> KVCacheFactory:
    """Registry builder for the full-cache baseline: ``resolve("cache", "full")``
    (alias ``fp16``, the paper's FP16 model) is ``resolve("cache", "paged")``."""
    return PagedCacheFactory()
