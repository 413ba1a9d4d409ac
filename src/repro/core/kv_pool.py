"""Paged KV memory pool: one page table per sequence over per-layer arenas,
and one working copy per sequence in a pool-level decode slab.

Every request of the serving path draws from shared, refcounted pages, so
requests sharing a prompt prefix store (and compute) it once — the
vLLM/SGLang design point (PagedAttention's per-sequence block table, Kwon
et al., SOSP '23, under vLLM V1's persistent decode batch):

* :class:`KVPagePool` — **one accounting domain per cache factory**: one
  refcount list, free list, growth path and fault gate over a K/V arena per
  decoder layer (``[L, n_pages, H, page_tokens, d]``), where a **page id
  names the same slot in every layer's arena** (``allocated = referenced +
  free``, :meth:`KVPagePool.check_accounting`); and the **decode slab**,
  fp32 ``[L, S, H, capacity, d]`` K and V, a row per live sequence.
* :class:`PageTable` — **one per sequence**: its page list, whether it owns
  its tail page, and its slab row.  A page's refcount is the number of live
  tables that list it, whatever the number of layers.
* :class:`PagedKVCache` — the per-layer :class:`~repro.llm.cache.LayerKVCache`
  **handle** on a table, keeping only its token count (the ``L`` handles of
  one sequence share one table): the full cache with **zero-copy
  copy-on-write forks** — a fork shares the pages of a prefix, and writing
  into a shared page first copies it, every layer at once.
* :class:`PagedGroup` / :class:`PagedChunks` — the paged handles' decode
  group and chunk writer (:meth:`~repro.llm.cache.LayerKVCache.decode_group`,
  :meth:`~repro.llm.cache.LayerKVCache.chunk_group`): whole stacks of one
  pool decoding a token / extending by a chunk together, slots claimed once
  for every layer, several decoding stacks placed in slab slots ``[0, G)``.
* :class:`PagedCacheFactory` — the ``"paged"`` cache spec, and at its default
  geometry the ``"full"`` / ``"fp16"`` baseline: one pool per head geometry.

**One working copy, written through.**  Like an eDRAM bank holding each KV
entry once and updating it in place, a live sequence has one working copy:
its table's slab row, where layer ``l``'s handle holds its tokens at
``slab[l, row, :, :count]``.  ``fetch`` returns views of it and the fused
decode attends ``slab[l, :G, :, :n]`` in place.  Every write lands in the
row and the pages in the same call, through the pool's write transform once
(:attr:`KVPagePool.codec`: an fp16 pool's rounding, a quantized cache's
fake-quant round trip); the pages
are the shared, checkpointable store.  A table takes its row on its first
read or write and keeps it until release; a fork or restored snapshot
copies its pages in through :meth:`KVPagePool.gather_pages`, the only
page-to-row copy.  V is zero past every handle's count (truncate and
release zero what they drop), so a ragged group read up to its longest
member multiplies zeros, never stale values, by masked-out probabilities.

**The stack protocol.**  ``fork_stack`` / ``truncate_stack`` /
``release_stack`` on a whole stack are one table operation each; the
per-handle ``fork`` / ``truncate`` / ``release`` stay correct on their own.
A table keeps exactly the pages its longest live handle covers; the pool
frees a page when the last table listing it drops it, and takes a row back
when its table is released or dies.
"""

from __future__ import annotations

import math
import mmap
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.llm.cache import KVCacheFactory, LayerKVCache, RecomputeFn
from repro.registry import register


class PoolExhausted(RuntimeError):
    """Raised when a non-growing :class:`KVPagePool` runs out of free pages."""


@dataclass(frozen=True)
class KVLayerCheckpoint:
    """Self-contained serialized KV state of one request in one layer.

    ``keys``/``values`` are ``[H, n_tokens, d]`` float32 *copies* of the
    source's working row, valid after the source (even its pool) is released.
    ``page_tokens`` records the source geometry, so :attr:`n_pages` prices
    what it occupied there (a target of another page size re-chunks).
    """

    keys: np.ndarray
    values: np.ndarray
    n_tokens: int
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
    matching head geometry via :meth:`PagedKVCache.import_state` — the KV
    handoff behind recompute-free failover.
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


def _to_half(tokens: np.ndarray, heads: int) -> np.ndarray:
    """The write transform of an fp16 pool: round to half precision."""
    del heads
    return tokens.astype(np.float16)


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


#: Mappings of dead arenas, oldest first, kept for the next arena of their
#: size while they total at most ``_SPARE_BYTES`` (a bigger one is unmapped).
_spares: list[mmap.mmap] = []
_SPARE_BYTES = 4 << 20


def _spare(mapping: mmap.mmap) -> None:
    """Keep a dead arena's mapping for reuse, dropping (so unmapping) the
    oldest beyond ``_SPARE_BYTES``."""
    _spares.append(mapping)
    while sum(map(len, _spares)) > _SPARE_BYTES:
        del _spares[0]


def _arena(shape: tuple[int, ...], dtype: np.dtype, *, zero: bool = False) -> np.ndarray:
    """An arena on an anonymous memory mapping: a spare one of its size
    (contents left, or zeroed when ``zero``) or a fresh one (all zero).

    Only written pages of a fresh mapping become resident, and a big one is
    unmapped when its array dies, so a pool reserves its final size for
    free (``np.empty`` arenas, recycled by the allocator, pinned what
    earlier pools touched: +25-45 % peak RSS on a 4-replica cluster).  Small
    mappings are kept (:func:`_spare`): each serving run builds its pools
    afresh, and reusing the last run's resident pages saves ~700 minor page
    faults on a quick speculative-decoding run.
    """
    nbytes = math.prod(shape) * dtype.itemsize
    for i in range(len(_spares) - 1, -1, -1):
        if len(_spares[i]) == nbytes:
            mapping = _spares.pop(i)
            flat = np.frombuffer(mapping, dtype=dtype)
            if zero:
                flat.fill(0)
            break
    else:
        mapping = mmap.mmap(-1, nbytes)
        flat = np.frombuffer(mapping, dtype=dtype)
    weakref.finalize(flat, _spare, mapping)
    return flat.reshape(shape)


#: Geometry of a pool's first decode slab; rows and capacity double from here.
_SLAB_ROWS, _SLAB_TOKENS = 8, 128


class KVPagePool:
    """Fixed-size KV pages with free-list allocation and refcounts, every layer at once.

    Storage is ``[n_layers, n_pages, H, page_tokens, head_dim]`` for keys and
    values; the accounting (refcounts, free list, growth, fault gate) is per
    page id.  ``grow=True`` doubles the page count when the free list runs
    dry (in place within ``reserve_pages``); ``grow=False`` models a hard
    memory budget and raises :class:`PoolExhausted`.  ``dtype="fp16"``
    halves the pool bytes: stored half, computed fp32.

    Every stored token goes through the pool's one write transform,
    :attr:`codec`, before it reaches its row and its pages: an fp16 pool's
    rounding, or a lossy ``codec`` an fp32 pool is given (the KIVI / QuaRot
    fake-quant round trip of :mod:`repro.baselines.quant_kv`).

    The decode slab (:attr:`slab_keys` / :attr:`slab_values`) has its own
    free list of rows and refers to each row's table weakly: a stack dropped
    without release is still freed by reference counting, and its table's
    death gives the row back (:meth:`_table_dropped`).  Nothing the pool
    holds refers back to it once its rows are free, so a finished run's pool
    is freed by reference counting too.
    """

    __slots__ = ("n_heads", "head_dim", "page_tokens", "grow", "dtype", "codec",
                 "fault_gate", "decode_plan", "slab_keys", "slab_values", "placements",
                 "_keys", "_values", "_refcounts", "_free", "_row_tables", "_free_rows",
                 "_reclaim", "__weakref__")

    def __init__(self, n_heads: int, head_dim: int, page_tokens: int = 16,
                 initial_pages: int = 64, grow: bool = True,
                 dtype: "str | np.dtype | type" = "fp32",
                 reserve_pages: int = 0, n_layers: int = 1,
                 codec: "Callable[[np.ndarray, int], np.ndarray] | None" = None) -> None:
        if (n_heads <= 0 or head_dim <= 0 or page_tokens <= 0 or initial_pages <= 0
                or n_layers <= 0):
            raise ValueError("n_heads, head_dim, page_tokens, initial_pages and "
                             "n_layers must be positive")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.page_tokens = page_tokens
        self.grow = grow
        self.dtype = _page_dtype(dtype)
        if codec is not None and self.dtype != np.float32:
            raise ValueError("a codec stores fp32 pages")
        #: The write transform, ``codec(tokens, heads)`` -> the values stored
        #: (``heads`` is the axis of the tokens' heads, channels are last);
        #: ``None`` stores fp32 tokens as handed in.
        self.codec = _to_half if self.dtype == np.float16 else codec
        #: Chaos hook (``repro.serve.faults``): a zero-argument callable that
        #: makes :meth:`try_alloc` spuriously fail when it returns True.
        self.fault_gate = None
        #: The decode plan of the last batch led by one of this pool's stacks
        #: (the handles' ``plan_home``), kept here until a row is freed.
        self.decode_plan = None
        #: The decode slab, ``[n_layers, S, H, capacity, head_dim]`` fp32
        #: (mapped on the first row taken), which fetch views slice.
        self.slab_keys = self.slab_values = None
        #: Bumped whenever :meth:`_place` moves rows between slots.
        self.placements = 0
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
        # Slab row -> weak reference to the table holding it (None: free).
        self._row_tables: list["weakref.ref | None"] = []
        self._free_rows: list[int] = []
        # Their callback reaches the pool weakly: it never refers to itself.
        pool = weakref.ref(self)
        self._reclaim = lambda ref: pool() is not None and pool()._table_dropped(ref)

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
        """Give every page (and slab row) a slice in at least ``n_layers`` layers."""
        if n_layers > self.n_layers:
            self._remap(n_layers, self._keys.shape[1])
            if self.slab_keys is not None:
                self._reserve_slab(0, 0)

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

        Bypasses the fault gate: page writes allocate pages for space the
        serving layer already *reserved*, and a granted reservation must
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

    # -- the decode slab ------------------------------------------------
    def _reserve_slab(self, n_rows: int, n_tokens: int) -> None:
        """Map a slab of at least ``n_rows`` rows of ``n_tokens`` tokens
        (doubling) and move the live rows' tokens into it."""
        old_keys, old_values = self.slab_keys, self.slab_values
        if old_keys is None:  # (capacity a whole number of pages, doubling)
            rows, old_rows = _SLAB_ROWS, 0
            capacity = -(-_SLAB_TOKENS // self.page_tokens) * self.page_tokens
        else:
            old_layers, old_rows, _heads, capacity, _dim = old_keys.shape
            if (old_rows >= n_rows and capacity >= n_tokens
                    and old_layers == self.n_layers):
                return
            rows = old_rows
        while rows < n_rows:
            rows *= 2
        while capacity < n_tokens:
            capacity *= 2
        shape = (self.n_layers, rows, self.n_heads, capacity, self.head_dim)
        keys = self.slab_keys = _arena(shape, np.dtype(np.float32), zero=True)
        values = self.slab_values = _arena(shape, np.dtype(np.float32), zero=True)
        for row, ref in enumerate(self._row_tables):
            table = None if ref is None else ref()
            if table is not None:  # only the tokens: the rest stays unmapped
                n = table.n_tokens
                keys[:old_layers, row, :, :n] = old_keys[:, row, :, :n]
                values[:old_layers, row, :, :n] = old_values[:, row, :, :n]
        self._row_tables.extend([None] * (rows - old_rows))
        self._free_rows[:0] = range(rows - 1, old_rows - 1, -1)

    def _alloc_row(self, table: "PageTable", n_tokens: int) -> int:
        """A free slab row for ``table``, with room for ``n_tokens`` tokens."""
        if not self._free_rows or n_tokens > self.slab_keys.shape[3]:
            self._reserve_slab(len(self._row_tables) + (not self._free_rows), n_tokens)
        row = self._free_rows.pop()
        self._row_tables[row] = weakref.ref(table, self._reclaim)
        return row

    def _free_row(self, row: int) -> None:
        """Take back ``row``, its V already zeroed, and drop the decode plan
        (which may name the row's table: a plan kept past its batch would
        make the pool, the plan and the batch's stacks a reference cycle)."""
        self._row_tables[row] = None
        self._free_rows.append(row)
        self.decode_plan = None

    def _table_dropped(self, ref: weakref.ref) -> None:
        """A table died holding a row without releasing it: zero the row's
        V and take it back (wherever :meth:`_place` had moved it)."""
        row = self._row_tables.index(ref)
        self.slab_values[:, row] = 0.0
        self._free_row(row)

    def _swap_rows(self, a: int, b: int, n_tokens: int) -> None:
        """Exchange the first ``n_tokens`` tokens of slab rows ``a`` and ``b``,
        every layer."""
        for slab in (self.slab_keys, self.slab_values):
            slab[:, [a, b], :, :n_tokens] = slab[:, [b, a], :, :n_tokens]

    def _place(self, tables: "Sequence[PageTable]") -> None:
        """Move the rows of ``tables`` (taking any missing) into slots
        ``[0, G)``: a member outside them trades places with the free row or
        other table in a slot no member holds."""
        for table in tables:
            if table.row < 0:
                table.take_row()
        n_slots = len(tables)
        outside = [table for table in tables if table.row >= n_slots]
        if not outside:
            return
        held = {table.row for table in tables}
        row_tables = self._row_tables
        for table, slot in zip(outside, [s for s in range(n_slots) if s not in held]):
            row, ref = table.row, row_tables[slot]
            n = table.n_tokens
            if ref is None:  # a free slot
                self._free_rows.remove(slot)
                self._free_rows.append(row)
            else:
                other = ref()
                n = max(n, other.n_tokens)
                other.row = row
            self._swap_rows(row, slot, n)
            row_tables[slot], row_tables[row] = row_tables[row], ref
            table.row = slot
        self.placements += 1

    # -- batched gather/scatter -----------------------------------------
    def scatter_tokens(self, pages: np.ndarray, offsets: np.ndarray,
                       keys: np.ndarray, values: np.ndarray, layer: int = 0) -> None:
        """Write one ``[H, d]`` token into each ``(page, offset)`` slot of ``layer``.

        The batched page write: every slot is claimed once for all layers
        (:class:`PagedGroup`, :class:`PagedChunks`), then each layer lands
        all the new K/V with two fancy-indexed scatters (an fp16 pool rounds
        in the assignment) instead of one write per token or page.
        """
        self._keys[layer][pages, :, offsets] = keys
        self._values[layer][pages, :, offsets] = values

    def write_slots(self, layer: int, pages: np.ndarray, offsets: np.ndarray,
                    rows: "np.ndarray | slice", positions: "np.ndarray | int",
                    keys: np.ndarray, values: np.ndarray) -> None:
        """Write ``[N, H, d]`` tokens through: into their claimed ``(page,
        offset)`` slots (:meth:`scatter_tokens`) and at ``slab[layer, rows,
        :, positions]``, their working rows, through the pool's
        :attr:`codec` once for both."""
        codec = self.codec
        if codec is not None:
            keys, values = codec(keys, 1), codec(values, 1)
        self.scatter_tokens(pages, offsets, keys, values, layer)
        self.slab_keys[layer][rows, :, positions] = keys
        self.slab_values[layer][rows, :, positions] = values

    def gather_pages(self, tables: np.ndarray, out_keys: np.ndarray,
                     out_values: np.ndarray, layer: int = 0) -> None:
        """Copy the first ``n`` tokens of the ``[G, p_max]`` page-table rows
        ``tables`` of ``layer`` into fp32 ``[G, H, n, d]`` outputs: the
        page-to-row copy filling a new slab row (:meth:`PageTable.take_row`),
        one gather for the whole pages and one for a partial tail page.
        """
        keys, values = self._keys[layer], self._values[layer]
        page_tokens, (n_rows, n_heads, n, head_dim) = self.page_tokens, out_keys.shape
        whole = n - n % page_tokens
        if whole:
            columns, shape = tables[:, :whole // page_tokens], (n_rows, n_heads, whole, head_dim)
            out_keys[:, :, :whole] = keys[columns].transpose(0, 2, 1, 3, 4).reshape(shape)
            out_values[:, :, :whole] = values[columns].transpose(0, 2, 1, 3, 4).reshape(shape)
        if whole < n:
            column = tables[:, whole // page_tokens]
            out_keys[:, :, whole:] = keys[column, :, :n - whole]
            out_values[:, :, whole:] = values[column, :, :n - whole]


class PageTable:
    """One sequence's pages and slab row, shared by its per-layer handles.

    ``pages`` lists the page ids in token order (token ``t`` is in slot
    ``t % page_tokens`` of ``pages[t // page_tokens]``).  ``tail_owned``
    guarantees the tail page has refcount 1, so a write into it skips the
    refcount lookup.  ``row`` is the table's slab row (``-1`` before the
    first read or write and after release): handle ``h`` holds there, at
    ``slab[h.layer, row, :, :count]``, bit for bit what its pages hold, and
    zeros in V past ``count``.  The table refers to its handles weakly, in
    layer order, so a dropped stack is freed by reference counting alone.
    """

    __slots__ = ("pool", "pages", "tail_owned", "row", "_handles", "__weakref__")

    def __init__(self, pool: KVPagePool, pages: "list[int] | None" = None) -> None:
        self.pool = pool
        self.pages: list[int] = [] if pages is None else pages
        self.tail_owned = False
        self.row = -1
        self._handles: list[weakref.ref] = []

    def live_handles(self) -> "list[PagedKVCache] | None":
        """Every handle, in order, or ``None`` when one has been dropped."""
        handles = [ref() for ref in self._handles]
        return None if None in handles else handles

    def is_stack(self, caches: "Sequence[LayerKVCache]") -> bool:
        """Whether ``caches`` are exactly this table's handles, in order."""
        return self.live_handles() == list(caches)

    @property
    def n_tokens(self) -> int:
        """Tokens the longest live handle holds."""
        longest = 0
        for ref in self._handles:
            handle = ref()
            if handle is not None and handle._count > longest:
                longest = handle._count
        return longest

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

    def take_row(self) -> int:
        """Take a slab row and copy every live handle's tokens into it from
        the pages, one :meth:`KVPagePool.gather_pages` per layer."""
        pool = self.pool
        n_tokens = self.n_tokens
        row = self.row = pool._alloc_row(self, n_tokens)
        if n_tokens:
            page_tokens = pool.page_tokens
            ids = np.array(self.pages, dtype=np.intp)[None]
            keys, values = pool.slab_keys, pool.slab_values
            for ref in self._handles:
                handle = ref()
                if handle is None or not handle._count:
                    continue
                count, layer = handle._count, handle.layer
                pool.gather_pages(ids[:, :-(-count // page_tokens)],
                                  keys[layer, row:row + 1, :, :count],
                                  values[layer, row:row + 1, :, :count], layer)
        return row

    def claim(self, start: int, stop: int) -> None:
        """Make tokens ``[start, stop)`` writable in every layer: the row
        taken and wide enough, their pages allocated or CoW-copied (so a dry
        pool raises before anything is written)."""
        pool = self.pool
        if self.row < 0:
            self.take_row()
        if stop > pool.slab_keys.shape[3]:
            pool._reserve_slab(0, stop)
        page_tokens = pool.page_tokens
        for index in range(start // page_tokens, -(-stop // page_tokens)):
            self.writable_page(index)

    def write(self, layer: int, start: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Write storage-rounded ``[H, n, d]`` tokens at ``start`` of ``layer``
        into the row, then copy the pages they fall in from the row, whole
        (a page's other slots get what the row holds there: the same tokens
        before ``start``, nothing any read reaches past the tokens)."""
        pool = self.pool
        stop = start + keys.shape[1]
        self.claim(start, stop)
        page_tokens, row = pool.page_tokens, self.row
        first, last = start // page_tokens, -(-stop // page_tokens)
        pages = self.pages[first:last]
        for slab, arena, tokens in ((pool.slab_keys, pool._keys, keys),
                                    (pool.slab_values, pool._values, values)):
            slab[layer, row, :, start:stop] = tokens
            n_heads, capacity, head_dim = slab.shape[2:]
            blocks = slab[layer, row].reshape(n_heads, capacity // page_tokens, page_tokens,
                                              head_dim)
            arena[layer, pages] = blocks[:, first:last].swapaxes(0, 1)

    def zero_values(self, first: int, stop: int, start: int, end: int) -> None:
        """Zero V of tokens ``[start, end)`` of layers ``[first, stop)`` in
        the row: tokens a truncate or release dropped."""
        if self.row >= 0 and start < end:
            self.pool.slab_values[first:stop, self.row, :, start:end] = 0.0

    def drop_row(self) -> None:
        """Zero the row's V and give the row back to the pool."""
        if self.row >= 0:
            self.pool.slab_values[:, self.row, :, :self.n_tokens] = 0.0
            self.pool._free_row(self.row)
            self.row = -1

    def trim(self) -> None:
        """Drop the pages no live handle's tokens reach any more."""
        covered = self.n_tokens
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

    The handle keeps only its token count.  Its tokens live on the table's
    pages, the *sharing substrate*, and in its slab row, the *working copy*
    (``fetch`` returns views of it); every write reaches both.
    ``PagedKVCache(pool, ...)`` makes a handle with a table of its own;
    :meth:`PagedCacheFactory.make_stack` makes one sequence's ``L`` share one.
    """

    supports_chunked_prefill = True
    supports_rollback = True
    supports_checkpoint = True

    def __init__(self, pool: KVPagePool, n_heads: int, head_dim: int, d_model: int,
                 *, layer: int = 0, table: "PageTable | None" = None) -> None:
        super().__init__(n_heads, head_dim, d_model)
        if pool.n_heads != n_heads or pool.head_dim != head_dim:
            raise ValueError("pool geometry does not match the cache geometry")
        if not 0 <= layer < pool.n_layers:
            raise ValueError(f"layer {layer} out of range for a {pool.n_layers}-layer pool")
        self.pool = self.plan_home = pool
        self.layer = layer
        self._table = PageTable(pool) if table is None else table
        self._table._handles.append(weakref.ref(self))
        self._count = 0

    # -- page bookkeeping -----------------------------------------------
    @property
    def pages(self) -> tuple[int, ...]:
        """The (read-only) page list of this handle's table, in token order."""
        return tuple(self._table.pages)

    def _to_storage(self, array: np.ndarray, heads: int = 0) -> np.ndarray:
        """An fp32 array through the pool's :attr:`~KVPagePool.codec` (its
        head axis ``heads``), so the row and the pages hold bit-identical
        values whatever reads them."""
        array = np.asarray(array, dtype=np.float32)
        codec = self.pool.codec
        return array if codec is None else codec(array, heads)

    # -- LayerKVCache interface -----------------------------------------
    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        del inputs, attn_probs
        count = self._count
        self._table.write(self.layer, count, self._to_storage(keys), self._to_storage(values))
        self._count = count + keys.shape[1]

    def extend_chunk(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                     positions: np.ndarray) -> None:
        del inputs, positions
        self.prefill(keys, values, None, None)

    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        del x, position
        self.prefill(np.asarray(key)[:, None], np.asarray(value)[:, None], None, None)

    def group_key(self, stack: "Sequence[LayerKVCache]") -> "KVPagePool | None":
        """The pool, when ``stack`` is every live handle of this handle's
        table, layer ``i`` at index ``i``, all at one length — a sequence
        whose slots are claimed once for every layer (a table's handles are
        in layer order, so the two end layers pin every layer in between);
        else ``None``."""
        refs, count = self._table._handles, self._count
        if (len(refs) != len(stack) or stack[0].layer != 0
                or stack[-1].layer != len(stack) - 1):
            return None
        for ref, cache in zip(refs, stack):
            if ref() is not cache or cache._count != count:
                return None
        return self.pool

    def decode_group(self, stacks: "Sequence[Sequence[LayerKVCache]]") -> "PagedGroup":
        """A :class:`PagedGroup`; a lone stack whose layers are out of step
        steps cache by cache."""
        if len(stacks) == 1 and PagedKVCache.group_key(self, stacks[0]) is None:
            return super().decode_group(stacks)
        return PagedGroup(stacks)

    def chunk_group(self, stacks: "Sequence[Sequence[LayerKVCache]]",
                    lengths: Sequence[int]) -> "PagedChunks":
        """A :class:`PagedChunks`; a lone stack whose layers are out of step
        extends cache by cache."""
        if len(stacks) == 1 and PagedKVCache.group_key(self, stacks[0]) is None:
            return super().chunk_group(stacks, lengths)
        return PagedChunks(stacks, lengths)

    def fetch(self) -> tuple[np.ndarray, np.ndarray]:
        table = self._table
        row = table.row if table.row >= 0 else table.take_row()
        pool, count = self.pool, self._count
        return (pool.slab_keys[self.layer, row, :, :count],
                pool.slab_values[self.layer, row, :, :count])

    def observe_attention(self, probs: np.ndarray) -> None:
        del probs  # paged cache keeps everything; no importance tracking

    @property
    def num_tokens(self) -> int:
        return self._count

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        """Bytes at *page* granularity: partially-filled pages count in full."""
        page_tokens = self.pool.page_tokens
        n_pages = -(-self._count // page_tokens)  # ceil: the pages it covers
        elements = 2 * n_pages * page_tokens * self.n_heads * self.head_dim
        return elements * bits_per_element // 8

    # -- forking, truncation and release --------------------------------
    def fork(self, upto: int | None = None) -> "PagedKVCache":
        """Zero-copy copy-on-write fork sharing the first ``upto`` tokens.

        Every page covering the prefix is retained into the fork's own
        table, which takes a row only on its first read or write, so forks
        never decoded from (radix snapshots) cost O(pages) bookkeeping.
        """
        upto = self._count if upto is None else int(upto)
        if not 0 <= upto <= self._count:
            raise ValueError(f"fork upto={upto} out of range [0, {self._count}]")
        table = self._table
        n_pages = -(-upto // self.pool.page_tokens)  # ceil division
        shared = table.pages[:n_pages]
        for page in shared:
            self.pool.retain(page)
        if n_pages == len(table.pages) and n_pages > 0:
            table.tail_owned = False  # our tail page is now shared with the fork
        return self._handle(PageTable(self.pool, shared), self.layer, upto)

    def _handle(self, table: PageTable, layer: int, n_tokens: int) -> "PagedKVCache":
        """A handle on ``table`` holding ``n_tokens`` tokens: this handle's
        geometry, copied rather than validated again."""
        handle = object.__new__(PagedKVCache)
        handle.__dict__.update(self.__dict__)
        handle.write_epoch = 0
        handle.layer, handle._table, handle._count = layer, table, n_tokens
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
        head = caches[0].fork(upto)
        return [head] + [head._handle(head._table, cache.layer, upto) for cache in caches[1:]]

    def truncate(self, n: int) -> None:
        """Native rollback: drop tokens beyond ``n``, freeing rolled-back pages.

        Pages no live handle covers any more return their reference at once;
        a partially-kept page stays, and the next write into it CoW-copies
        it first if a snapshot still shares it.
        """
        if not 0 <= n <= self._count:
            raise ValueError(f"truncate to {n} out of range [0, {self._count}]")
        if n != self._count:
            self._table.zero_values(self.layer, self.layer + 1, n, self._count)
            self._count = n
            self.write_epoch += 1
            self._table.trim()

    def truncate_stack(self, caches: "Sequence[LayerKVCache]", n: int) -> None:
        """Truncate a whole stack with one table trim (per-layer otherwise)."""
        if not self._table.is_stack(caches):
            super().truncate_stack(caches, n)
            return
        for cache in caches:
            if not 0 <= n <= cache._count:
                raise ValueError(f"truncate to {n} out of range [0, {cache._count}]")
        longest = n
        for cache in caches:
            if n != cache._count:
                if cache._count > longest:
                    longest = cache._count
                cache._count = n
                cache.write_epoch += 1
        if longest > n:
            self._table.zero_values(caches[0].layer, caches[-1].layer + 1, n, longest)
            self._table.trim()

    def release(self) -> None:
        """Empty this handle; the table drops the pages no other live handle
        covers (all of them, and its row, when this was the last).
        Idempotent; the handle stays usable."""
        table = self._table
        table.zero_values(self.layer, self.layer + 1, 0, self._count)
        self._count = 0
        self.write_epoch += 1
        table.trim()
        if not table.n_tokens:
            table.drop_row()

    def release_stack(self, caches: "Sequence[LayerKVCache]") -> None:
        """Release a whole stack: every page once (per-layer otherwise)."""
        if not self._table.is_stack(caches):
            super().release_stack(caches)
            return
        self._table.drop_row()
        for cache in caches:
            cache._count = 0
            cache.write_epoch += 1
        self._table.trim()

    # -- checkpoint / restore -------------------------------------------
    def export_state(self) -> KVLayerCheckpoint:
        """Serialise this layer's KV state into a self-contained checkpoint.

        No page is allocated, retained or released; the tokens are *copied*
        out of the row, so the checkpoint outlives the source and its pool.
        """
        keys, values = self.fetch()
        return KVLayerCheckpoint(keys=keys.copy(), values=values.copy(),
                                 n_tokens=self._count, page_tokens=self.pool.page_tokens)

    def import_state(self, ckpt: KVLayerCheckpoint) -> None:
        """Rebuild an exported layer state inside *this* handle's pool.

        Only an empty handle may import.  The checkpoint is written like a
        prefill (through the pool's codec, re-chunked to this pool's
        ``page_tokens``).  All-or-nothing: if the pool runs dry mid-import,
        the pages it took are released before :class:`PoolExhausted`
        propagates.
        """
        if self._count:
            raise ValueError("import_state requires an empty cache")
        if ckpt.n_heads != self.n_heads or ckpt.head_dim != self.head_dim:
            raise ValueError(
                f"checkpoint geometry [H={ckpt.n_heads}, d={ckpt.head_dim}] "
                f"does not match pool [H={self.n_heads}, d={self.head_dim}]")
        try:
            self.prefill(ckpt.keys, ckpt.values, None, None)
        except PoolExhausted:
            self.release()
            raise
        self.write_epoch += 1


class PagedGroup:
    """Whole stacks of one pool that decode together: one slot claim a step
    for every layer, one write and one slab view a layer.

    Several stacks are placed: building the group moves their rows into
    slab slots ``[0, G)`` and orders :attr:`stacks` by slot (:attr:`order`
    maps them back, ``None`` for a lone stack, which keeps its row), so a
    layer attends ``slab[layer, :G, :, :longest]`` as one view.  The group
    serves the steps of its stacks while :meth:`holds`; only members opening
    a page or writing a shared tail go through
    :meth:`PageTable.writable_page`.  It scores nothing (``observe`` is
    ``None``).
    """

    __slots__ = ("stacks", "order", "pool", "lengths", "longest", "pages", "offsets",
                 "rows", "positions", "masked", "_window", "_slots", "_tables", "_handles",
                 "_counts", "_epochs", "_placement")
    observe = None

    def __init__(self, stacks: "Sequence[Sequence[PagedKVCache]]") -> None:
        tables = [caches[0]._table for caches in stacks]
        pool = self.pool = tables[0].pool
        self.order = None
        if len(tables) > 1:
            pool._place(tables)
            #: Member ``g`` (slot ``g``) is ``stacks[order[g]]`` of the stacks given.
            self.order = sorted(range(len(tables)), key=lambda g: tables[g].row)
            stacks, tables = [stacks[g] for g in self.order], [tables[g] for g in self.order]
            self._slots = np.arange(len(tables))  # the rows of a ragged claim
        elif tables[0].row < 0:
            tables[0].take_row()
        first = tables[0].row if self.order is None else 0
        self._window = slice(first, first + len(tables))
        self.stacks, self._tables, self._placement = stacks, tables, pool.placements
        self._handles = [cache for caches in stacks for cache in caches]
        #: Tokens each member holds after the last claim.
        self.lengths = [caches[0]._count for caches in stacks]
        self.longest = max(self.lengths)
        self._counts = [cache._count for cache in self._handles]
        # Claims never touch stored tokens, so the epochs stay these.
        self._epochs = [cache.write_epoch for cache in self._handles]

    def holds(self) -> bool:
        """Whether every member holds exactly what the last claim left, in
        the row it had then."""
        return (self.pool.placements == self._placement
                and [cache._count for cache in self._handles] == self._counts
                and [cache.write_epoch for cache in self._handles] == self._epochs)

    def claim(self) -> None:
        """Claim each member's next ``(page, offset)`` for all of its layers.

        Sets what every layer of the step shares: the
        :meth:`KVPagePool.write_slots` targets (:attr:`pages`,
        :attr:`offsets`, :attr:`rows`, :attr:`positions`), the
        :attr:`lengths` counting the new tokens, :attr:`longest` and
        :attr:`masked` (``[G, 1, 1, longest]``, True past each member's
        length, so it masks ``[G, H, 1, longest]`` scores; ``None`` when all
        are equal).  Each layer must :meth:`step` before a read.
        """
        page_tokens, tables = self.pool.page_tokens, self._tables
        held = self.lengths
        offsets = [n % page_tokens for n in held]
        pages = [table.pages[-1] if offset and table.tail_owned else -1
                 for table, offset in zip(tables, offsets)]
        if -1 in pages:
            for g, page in enumerate(pages):
                if page < 0:
                    pages[g] = tables[g].writable_page(held[g] // page_tokens)
        lengths = self.lengths = [n + 1 for n in held]
        self.longest += 1
        if self.longest > self.pool.slab_keys.shape[3]:
            self.pool._reserve_slab(0, self.longest)
        for caches, n in zip(self.stacks, lengths):
            for cache in caches:
                cache._count = n
        self._counts = [n for caches, n in zip(self.stacks, lengths) for _cache in caches]
        self.pages = np.array(pages, dtype=np.intp)
        self.offsets = np.array(offsets, dtype=np.intp)
        if min(lengths) == self.longest:  # uniform: basic-indexed slab writes
            self.masked, self.rows, self.positions = None, self._window, self.longest - 1
        else:
            held = np.array(lengths)
            self.masked = np.arange(self.longest) >= held[:, None, None, None]
            self.rows, self.positions = self._slots, held - 1

    def step(self, layer: int, keys: np.ndarray, values: np.ndarray, xs: np.ndarray,
             positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, "np.ndarray | None"]:
        """Write ``layer``'s ``[G, H, d]`` new tokens (members in slot order)
        into the slots the last :meth:`claim` took; returns the members'
        ``[G, H, longest, d]`` K and V rows of the decode slab (views; V past
        a member's length is zero, K is whatever the row held) and
        :attr:`masked`."""
        del xs, positions
        pool, window = self.pool, self._window
        pool.write_slots(layer, self.pages, self.offsets, self.rows, self.positions,
                         keys, values)
        return (pool.slab_keys[layer, window, :, :self.longest],
                pool.slab_values[layer, window, :, :self.longest], self.masked)


class PagedChunks:
    """Whole stacks of one pool that each extend by a chunk in one forward
    (chunked prefill, speculative verify): building it claims every
    member's slots once for all layers (:meth:`PageTable.claim`), and each
    layer lands all members' tokens with one :meth:`write`.
    """

    __slots__ = ("pool", "stacks", "stops", "pages", "offsets", "rows", "positions")

    def __init__(self, stacks: "Sequence[Sequence[PagedKVCache]]",
                 lengths: Sequence[int]) -> None:
        pool = self.pool = stacks[0][0].pool
        page_tokens = pool.page_tokens
        self.stacks = stacks
        #: Tokens each member holds once a layer is written.
        self.stops: list[int] = []
        pages, rows, positions = [], [], []
        for caches, n in zip(stacks, lengths):
            table, start = caches[0]._table, caches[0]._count
            stop = start + n
            table.claim(start, stop)
            held = table.pages
            pages += [held[t // page_tokens] for t in range(start, stop)]
            rows += [table.row] * n
            positions += range(start, stop)
            self.stops.append(stop)
        self.pages = np.array(pages, dtype=np.intp)
        self.rows = np.array(rows, dtype=np.intp)
        self.positions = np.array(positions, dtype=np.intp)
        self.offsets = self.positions % page_tokens

    def write(self, layer: int, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
              positions: np.ndarray) -> None:
        """Write ``layer``'s ``[H, N, d]`` new tokens (members in order, each
        chunk in token order) and advance that layer's handles."""
        del inputs, positions
        self.pool.write_slots(layer, self.pages, self.offsets, self.rows, self.positions,
                              keys.swapaxes(0, 1), values.swapaxes(0, 1))
        for caches, stop in zip(self.stacks, self.stops):
            caches[layer]._count = stop


class PagedCacheFactory:
    """A :class:`KVCacheFactory` whose caches draw from one shared pool.

    The pool (one per head geometry) is created the first time a cache is
    requested, with an arena per layer, then shared by every later stack —
    so all sequences of a serving run allocate from (and can share prefix
    pages inside) the same pages.  :meth:`make_stack` builds the ``L``
    handles of one sequence on one :class:`PageTable`; calling the factory
    for one layer builds a handle with a table of its own.
    """

    #: The handle class built, and the write transform its pools get
    #: (:attr:`KVPagePool.codec`; ``None``: the page dtype's).
    handle = PagedKVCache
    codec = None

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
                              n_layers=n_layers, codec=self.codec)
            pool.fault_gate = self.fault_gate
            self._pools[n_heads, head_dim] = pool
        else:
            pool.add_layers(n_layers)
        return pool

    def __call__(self, layer_index: int, n_heads: int, head_dim: int, d_model: int,
                 recompute_fn: RecomputeFn) -> PagedKVCache:
        del recompute_fn
        pool = self._pool(layer_index + 1, n_heads, head_dim)
        return self.handle(pool, n_heads, head_dim, d_model, layer=layer_index)

    def make_stack(self, n_layers: int, n_heads: int, head_dim: int,
                   d_model: int) -> list[PagedKVCache]:
        """One sequence's handles, layer ``i`` at index ``i``, on one page table
        (the :meth:`~repro.llm.model.DecoderLM.make_caches` hook)."""
        pool = self._pool(n_layers, n_heads, head_dim)
        table = PageTable(pool)
        return [self.handle(pool, n_heads, head_dim, d_model, layer=layer, table=table)
                for layer in range(n_layers)]

    def reserve_capacity(self, capacity_tokens: int) -> None:
        """Map future pools once, at the size a serving capacity can fill.

        A :class:`~repro.serve.kv_manager.KVSpaceManager` enforcing
        ``capacity_tokens`` over a *growable* factory calls this, so a pool
        grows into its arenas without copy-doubling (reserved pages stay
        uncommitted until written, see :func:`_arena`).  A bounded
        factory's page count *is* its capacity and is left alone.
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
