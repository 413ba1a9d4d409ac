"""Decoder-only transformer language model on NumPy.

The model owns a flat parameter dictionary (name -> ``np.ndarray``) and
provides two inference paths:

* :meth:`DecoderLM.forward_full` -- full-sequence teacher-forced forward pass
  (used for training-data perplexity and as a reference for testing the
  incremental path);
* :meth:`DecoderLM.prefill` / :meth:`DecoderLM.forward_chunks` /
  :meth:`DecoderLM.decode_step` -- whole-prompt prefill, ragged chunks over
  existing caches (chunked prefill, speculative verify) and auto-regressive
  decode with a pluggable per-layer KV cache, where the paper's policies plug in.

Only configurations without grouped-query attention are instantiated
(``n_kv_heads is None``); the full-size GQA configs are used purely for shape
accounting by the performance model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.llm.cache import KVCacheFactory, LayerKVCache, full_cache_factory
from repro.llm.config import ModelConfig
from repro.llm.functional import (
    apply_rope,
    causal_mask,
    gelu,
    layer_norm,
    rms_norm,
    rope_frequencies,
    silu,
    softmax,
    softmax_blocks_,
)
from repro.llm.workspace import StepWorkspace
from repro.utils.rng import derive_rng


class _FusedGroupBuffer:
    """Persistent stacked K/V for one fused decode group at one layer.

    The fused decode path's steady state: ``keys``/``values`` hold the whole
    group's cache contents as ``[G, H, capacity, d]`` fp32 stacks, built once
    by a *restack* (page-table gather for paged groups, fetch-view copies for
    contiguous ones) and then extended by a single ``[H, d]`` token write per
    sequence per step — so a steady decode step touches O(G·H·d) bytes of
    bookkeeping plus the unavoidable attention reads, instead of re-copying
    the entire K/V history every step.

    A buffer is *current* only while every member cache advanced by exactly
    one appended token since the last sync and its :attr:`~repro.llm.cache.
    LayerKVCache.write_epoch` is unchanged (no truncate/release/import
    touched stored tokens); anything else — rollback, preemption, chunked
    prefill catch-up, capacity overflow — triggers a fresh restack.

    Invariant for paged (ragged) groups: ``values[g, :, lengths[g]:]`` is
    zero all the way to capacity, so the length-masked attention matmul can
    read past a short row's end without 0·NaN poisoning or stale-value
    leakage as ``n_max`` grows between restacks.
    """

    __slots__ = ("caches", "epochs", "lengths", "keys", "values", "last_used",
                 "store_identity")

    def __init__(self, caches: "list[LayerKVCache]") -> None:
        #: Strong references pin member identity: a live cache's ``id`` can
        #: never be recycled, so the state key (layer, cache ids) is sound.
        self.caches = list(caches)
        self.epochs = [-1] * len(caches)  # forces a restack on first use
        self.lengths = [-1] * len(caches)
        self.keys: "np.ndarray | None" = None
        self.values: "np.ndarray | None" = None
        self.last_used = 0
        #: Every member stores appended K/V verbatim, so incremental stack
        #: extension can scatter straight from the batched projections.
        self.store_identity = all(c.fused_store_identity for c in caches)


class _PagedRows:
    """One decode step of a paged group, shared by every layer.

    Each member's next ``(page, offset)`` is claimed once for all of its
    layers (one page table per sequence), so the members' lengths, the
    padding mask and — built by the first layer that restacks — the page
    tables and the positions beyond each row's length are the same for every
    layer too.
    """

    __slots__ = ("pages", "offsets", "lengths", "padmask", "_tables", "_beyond")

    def __init__(self, rows: list[int], caches_batch: Sequence[list[LayerKVCache]]) -> None:
        self.pages = np.empty(len(rows), dtype=np.intp)
        self.offsets = np.empty(len(rows), dtype=np.intp)
        for g, b in enumerate(rows):
            caches = caches_batch[b]
            self.pages[g], self.offsets[g] = caches[0].reserve_stack_slot(caches)
        self.lengths = [caches_batch[b][0].num_tokens for b in rows]
        n_max = max(self.lengths)
        #: ``[G, n_max]``, True past each row's length (``None`` when uniform).
        self.padmask = (None if min(self.lengths) == n_max else
                        np.arange(n_max) >= np.array(self.lengths)[:, None])
        self._tables: "np.ndarray | None" = None
        self._beyond: dict = {}

    def tables(self, caches: list[LayerKVCache], pages_max: int) -> np.ndarray:
        """``[G, pages_max]`` page ids of the members (``caches``, one layer's).

        Rows are padded with page 0, live or free: what it gathers lies
        beyond the row's length and is zeroed by the restack.
        """
        if self._tables is None:
            self._tables = np.zeros((len(caches), pages_max), dtype=np.intp)
            for g, cache in enumerate(caches):
                row_pages = cache.page_list()
                self._tables[g, :len(row_pages)] = row_pages
        return self._tables

    def beyond(self, capacity: int) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, tokens)`` of every position at or past a row's length,
        below ``capacity``."""
        index = self._beyond.get(capacity)
        if index is None:
            index = self._beyond[capacity] = np.nonzero(
                np.arange(capacity) >= np.array(self.lengths)[:, None])
        return index


class DecoderLM:
    """A decoder-only transformer LM with explicit NumPy parameters."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None,
                 seed: int = 0) -> None:
        if config.n_kv_heads is not None:
            raise ValueError("DecoderLM does not instantiate grouped-query configurations")
        self.config = config
        # Reusable scratch buffers for the batched hot paths (padded token
        # blocks, context accumulators, fused-attention gather workspaces):
        # steady-state decode steps perform zero scratch allocations.
        self._ws = StepWorkspace()
        # Persistent fused-decode group buffers, keyed by
        # (layer, tuple(id(cache) for cache in group)); see _FusedGroupBuffer.
        self._fused_states: dict = {}
        self._fused_clock = 0
        # Lazily-built concatenated [C, 3C] QKV weights per layer so the
        # decode hot paths issue one projection GEMM instead of three.
        # Keyed by the identity of the source arrays: replacing a params
        # entry (e.g. copy_with_params, checkpoint load) rebuilds the
        # concat; nothing in the repo mutates weight arrays in place while
        # also running inference on the same model object.
        self._qkv_cache: dict[int, tuple[tuple[int, int, int], np.ndarray]] = {}
        self._recompute_fns: dict = {}  # layer -> closure, see recompute_fn
        self.params = params if params is not None else self._init_params(config, seed)
        if config.positional == "rope":
            self._rope_cos, self._rope_sin = rope_frequencies(config.head_dim, config.max_seq_len)
        else:
            self._rope_cos = self._rope_sin = None

    # ------------------------------------------------------------------
    # Parameter initialisation
    # ------------------------------------------------------------------
    @staticmethod
    def _init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
        rng = derive_rng(seed, "init", config.name)
        params: dict[str, np.ndarray] = {}
        scale = 0.02

        def normal(shape: tuple[int, ...]) -> np.ndarray:
            return (rng.standard_normal(shape) * scale).astype(np.float32)

        params["embed.weight"] = normal((config.vocab_size, config.d_model))
        if config.positional == "learned":
            params["pos_embed.weight"] = normal((config.max_seq_len, config.d_model))
        for i in range(config.n_layers):
            prefix = f"layers.{i}"
            params[f"{prefix}.attn_norm.weight"] = np.ones(config.d_model, dtype=np.float32)
            params[f"{prefix}.mlp_norm.weight"] = np.ones(config.d_model, dtype=np.float32)
            if config.norm == "layer":
                params[f"{prefix}.attn_norm.bias"] = np.zeros(config.d_model, dtype=np.float32)
                params[f"{prefix}.mlp_norm.bias"] = np.zeros(config.d_model, dtype=np.float32)
            for proj in ("wq", "wk", "wv", "wo"):
                params[f"{prefix}.{proj}"] = normal((config.d_model, config.d_model))
            if config.mlp == "gated":
                params[f"{prefix}.w1"] = normal((config.d_model, config.d_ff))
                params[f"{prefix}.w3"] = normal((config.d_model, config.d_ff))
                params[f"{prefix}.w2"] = normal((config.d_ff, config.d_model))
            else:
                params[f"{prefix}.w1"] = normal((config.d_model, config.d_ff))
                params[f"{prefix}.w2"] = normal((config.d_ff, config.d_model))
        params["final_norm.weight"] = np.ones(config.d_model, dtype=np.float32)
        if config.norm == "layer":
            params["final_norm.bias"] = np.zeros(config.d_model, dtype=np.float32)
        if not config.tie_embeddings:
            params["lm_head.weight"] = normal((config.vocab_size, config.d_model))
        return params

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _norm(self, x: np.ndarray, prefix: str) -> np.ndarray:
        weight = self.params[f"{prefix}.weight"]
        if self.config.norm == "rms":
            return rms_norm(x, weight)
        return layer_norm(x, weight, self.params[f"{prefix}.bias"])

    def _mlp(self, x: np.ndarray, layer: int) -> np.ndarray:
        prefix = f"layers.{layer}"
        if self.config.mlp == "gated":
            gate = silu(x @ self.params[f"{prefix}.w1"])
            up = x @ self.params[f"{prefix}.w3"]
            return (gate * up) @ self.params[f"{prefix}.w2"]
        hidden = gelu(x @ self.params[f"{prefix}.w1"])
        return hidden @ self.params[f"{prefix}.w2"]

    def _embed(self, tokens: np.ndarray) -> np.ndarray:
        hidden = self.params["embed.weight"][tokens]
        if self.config.positional == "learned":
            positions = np.arange(tokens.shape[-1])
            hidden = hidden + self.params["pos_embed.weight"][positions]
        return hidden.astype(np.float32)

    def _lm_head(self, hidden: np.ndarray) -> np.ndarray:
        weight = self.params["embed.weight"] if self.config.tie_embeddings else self.params[
            "lm_head.weight"
        ]
        return hidden @ weight.T

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """[..., C] -> [..., H, d] -> moved to [H, ..., d]."""
        new_shape = x.shape[:-1] + (self.config.n_heads, self.config.head_dim)
        y = x.reshape(new_shape)
        nd = y.ndim  # axis -2 to the front (transpose view, no moveaxis overhead)
        return y.transpose((nd - 2,) + tuple(range(nd - 2)) + (nd - 1,))

    def _project_kv(self, x: np.ndarray, layer: int,
                    positions: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        """Compute per-head K/V (with RoPE on K) for block input ``x`` ``[T, C]``.

        ``positions`` is either an explicit position array or an int ``T``
        meaning positions ``0..T-1`` (served from RoPE table views).
        """
        prefix = f"layers.{layer}"
        keys = self._split_heads(x @ self.params[f"{prefix}.wk"])  # [H, T, d]
        values = self._split_heads(x @ self.params[f"{prefix}.wv"])
        if self.config.positional == "rope":
            keys = apply_rope(keys, positions, self._rope_cos, self._rope_sin)
        return keys, values

    def _qkv_weight(self, layer: int) -> np.ndarray:
        """Concatenated ``[C, 3C]`` Q|K|V projection weight for ``layer``.

        One GEMM against this replaces three separate projections in the
        decode loops; the slices of the result are the exact BLAS outputs
        of a wider matmul, within float tolerance of the split GEMMs.
        """
        prefix = f"layers.{layer}"
        wq = self.params[f"{prefix}.wq"]
        wk = self.params[f"{prefix}.wk"]
        wv = self.params[f"{prefix}.wv"]
        key = (id(wq), id(wk), id(wv))
        entry = self._qkv_cache.get(layer)
        if entry is None or entry[0] != key:
            entry = (key, np.concatenate([wq, wk, wv], axis=1))
            self._qkv_cache[layer] = entry
        return entry[1]

    def recompute_fn(self, layer: int):
        """The recompute callback the AERP cache uses for this layer.

        One object per layer, so the caches of a decode group share it (and
        with it one recompute call per step).
        """
        recompute = self._recompute_fns.get(layer)
        if recompute is not None:
            return recompute
        wk, wv = f"layers.{layer}.wk", f"layers.{layer}.wv"
        n_heads, head_dim = self.config.n_heads, self.config.head_dim
        # The closure is kept on the model, so it holds the parameter dict
        # and the RoPE tables rather than the model (no reference cycle).
        params, rope_cos, rope_sin = self.params, self._rope_cos, self._rope_sin

        def recompute(x: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # :meth:`_project_kv` of each of the ``P`` rows on its own: the
            # stacked ``[P, 1, C] @ [C, C]`` matmul runs as P independent M=1
            # GEMMs and RoPE is elementwise, hence the bits ``decode_step``
            # stored for the token (one ``[P, C]`` GEMM would differ).
            rows = x[:, None, :]
            keys = (rows @ params[wk]).reshape(-1, n_heads, head_dim)
            values = (rows @ params[wv]).reshape(-1, n_heads, head_dim)
            if rope_cos is not None:
                keys = apply_rope(keys.swapaxes(0, 1), positions, rope_cos,
                                  rope_sin).swapaxes(0, 1)
            return keys, values  # [P, H, d] each

        self._recompute_fns[layer] = recompute
        return recompute

    # ------------------------------------------------------------------
    # Full-sequence forward (no cache)
    # ------------------------------------------------------------------
    def forward_full(self, tokens: np.ndarray) -> np.ndarray:
        """Teacher-forced forward pass.

        ``tokens`` has shape ``[T]`` or ``[B, T]``; returns logits of shape
        ``[..., T, vocab]``.
        """
        tokens = np.asarray(tokens)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None, :]
        batch, seq_len = tokens.shape
        hidden = self._embed(tokens)  # [B, T, C]
        positions = seq_len  # int form: RoPE tables are sliced, not gathered
        mask = causal_mask(seq_len)
        scale = 1.0 / np.sqrt(self.config.head_dim)
        for layer in range(self.config.n_layers):
            prefix = f"layers.{layer}"
            normed = self._norm(hidden, f"{prefix}.attn_norm")
            queries = self._split_heads(normed @ self.params[f"{prefix}.wq"])  # [H, B, T, d]
            keys = self._split_heads(normed @ self.params[f"{prefix}.wk"])
            values = self._split_heads(normed @ self.params[f"{prefix}.wv"])
            if self.config.positional == "rope":
                queries = apply_rope(queries, positions, self._rope_cos, self._rope_sin)
                keys = apply_rope(keys, positions, self._rope_cos, self._rope_sin)
            scores = queries @ keys.swapaxes(-1, -2) * scale + mask  # [H, B, T, T]
            probs = softmax(scores, axis=-1)
            context = probs @ values  # [H, B, T, d]
            context = np.moveaxis(context, 0, -2).reshape(batch, seq_len, self.config.d_model)
            hidden = hidden + context @ self.params[f"{prefix}.wo"]
            normed = self._norm(hidden, f"{prefix}.mlp_norm")
            hidden = hidden + self._mlp(normed, layer)
        hidden = self._norm(hidden, "final_norm")
        logits = self._lm_head(hidden)
        return logits[0] if squeeze else logits

    # ------------------------------------------------------------------
    # Prefill + decode path with pluggable KV caches
    # ------------------------------------------------------------------
    def make_caches(self, factory: KVCacheFactory | None = None) -> list[LayerKVCache]:
        """Build one cache per layer using ``factory`` (full cache by default),
        through its ``make_stack`` hook when it has one."""
        factory = factory or full_cache_factory
        config = self.config
        make_stack = getattr(factory, "make_stack", None)
        if make_stack is not None:
            return make_stack(config.n_layers, config.n_heads, config.head_dim,
                              config.d_model)
        return [factory(layer, config.n_heads, config.head_dim, config.d_model,
                        self.recompute_fn(layer))
                for layer in range(config.n_layers)]

    def prefill(self, tokens: Sequence[int], caches: list[LayerKVCache]) -> np.ndarray:
        """Process the context tokens in parallel, filling the caches.

        Returns the logits of the last context position (shape ``[vocab]``).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError("prefill expects a non-empty 1-D token sequence")
        seq_len = tokens.shape[0]
        hidden = self._embed(tokens[None, :])[0]  # [T, C]
        positions = seq_len  # int form: RoPE tables are sliced, not gathered
        mask = causal_mask(seq_len)
        scale = 1.0 / np.sqrt(self.config.head_dim)
        for layer in range(self.config.n_layers):
            prefix = f"layers.{layer}"
            normed = self._norm(hidden, f"{prefix}.attn_norm")  # [T, C]
            queries = self._split_heads(normed @ self.params[f"{prefix}.wq"])  # [H, T, d]
            if self.config.positional == "rope":
                queries = apply_rope(queries, positions, self._rope_cos, self._rope_sin)
            keys, values = self._project_kv(normed, layer, positions)
            scores = queries @ keys.swapaxes(-1, -2) * scale + mask  # [H, T, T]
            probs = softmax(scores, axis=-1)  # [H, T, T]
            caches[layer].prefill(keys, values, normed, probs)
            context = probs @ values  # [H, T, d]
            context = np.moveaxis(context, 0, -2).reshape(seq_len, self.config.d_model)
            hidden = hidden + context @ self.params[f"{prefix}.wo"]
            normed = self._norm(hidden, f"{prefix}.mlp_norm")
            hidden = hidden + self._mlp(normed, layer)
        hidden = self._norm(hidden, "final_norm")
        return self._lm_head(hidden[-1])

    # ------------------------------------------------------------------
    # The ragged-chunk forward: chunked prefill and speculative verify
    # ------------------------------------------------------------------
    def _attend_chunk_group(self, caches: list[LayerKVCache], idx: np.ndarray,
                            queries: np.ndarray, keys_new: np.ndarray,
                            values_new: np.ndarray, context: np.ndarray) -> None:
        """Causal chunk attention for ``G`` sequences of one ``(cached, chunk)`` shape.

        ``idx`` ``[G, c]`` holds each member's rows of the step's flat token
        axis, ``queries``/``keys_new``/``values_new`` are the step's
        ``[H, N, d]`` projections, ``caches`` the members' equally long caches
        at this layer.  Each query attends to its own cache and causally
        within its chunk as stacked ``[G, H, c, ·]`` matmuls over two float32
        score blocks (cached | new) normalised together, so nothing is
        concatenated.  Writes ``context[idx]``; the caller extends the caches.
        """
        ws = self._ws
        n_groups, chunk = idx.shape
        n_heads, head_dim = self.config.n_heads, self.config.head_dim
        scale = np.float32(1.0 / np.sqrt(head_dim))
        fetched = [cache.fetch() for cache in caches]  # ([H, n, d] views, valid)
        n_old = fetched[0][0].shape[1]
        if n_groups == 1:
            k_old, v_old = fetched[0][0][None], fetched[0][1][None]
        else:
            k_old = ws.get("chunk.k_old", (n_groups, n_heads, n_old, head_dim))
            v_old = ws.get("chunk.v_old", (n_groups, n_heads, n_old, head_dim))
            for g, (keys_g, values_g, _valid) in enumerate(fetched):
                k_old[g] = keys_g
                v_old[g] = values_g
        q = queries[:, idx].swapaxes(0, 1)  # [G, H, c, d]
        s_old = np.matmul(q, k_old.swapaxes(-1, -2),
                          out=ws.get("chunk.s_old", (n_groups, n_heads, chunk, n_old)))
        s_old *= scale
        for g, (_keys, _values, valid) in enumerate(fetched):
            if not valid.all():
                np.copyto(s_old[g], -np.inf, where=~valid[:, None, :])
        s_new = np.matmul(q, keys_new[:, idx].swapaxes(0, 1).swapaxes(-1, -2),
                          out=ws.get("chunk.s_new", (n_groups, n_heads, chunk, chunk)))
        s_new *= scale
        s_new += causal_mask(chunk)
        softmax_blocks_(s_old, s_new)  # the new block's diagonal is never masked
        ctx = s_old @ v_old
        ctx += s_new @ values_new[:, idx].swapaxes(0, 1)  # [G, H, c, d]
        context[idx] = ctx.transpose(0, 2, 1, 3).reshape(n_groups, chunk, -1)

    def forward_chunks(self, token_chunks: Sequence[Sequence[int]],
                       positions: Sequence[int],
                       caches_batch: Sequence[list[LayerKVCache]], *,
                       logits: str = "last") -> "np.ndarray | list[np.ndarray]":
        """Run one chunk of ``n_b >= 1`` tokens per sequence in ONE forward.

        ``token_chunks[b]`` starts at absolute position ``positions[b]`` and
        ``caches_batch[b]`` (per-layer caches with chunked-prefill support:
        ``full``/``paged``) must hold exactly that many tokens.  Each chunk
        attends causally to everything already cached plus itself, exactly
        as the corresponding rows of :meth:`forward_full` — which lets the
        serving engine split prompts into token-budgeted pieces, resume
        after a radix-restored prefix, and verify speculative proposals.
        Embedding, norms, the fused QKV GEMM, RoPE, output projection and
        MLP run once over the ``N = sum(n_b)`` concatenated tokens (no
        padding); attention runs once per layer per group of sequences with
        equal ``(cached_len, chunk_len)``.  Every cache is extended with its
        whole chunk.

        ``logits="last"`` returns ``[B, vocab]``: each chunk's final row, the
        LM head running on those ``B`` rows only.  ``logits="all"`` returns
        one ``[n_b, vocab]`` array per sequence; row ``i`` is what sequential
        :meth:`decode_step` calls feeding ``token_chunks[b][:i + 1]`` give.
        """
        if logits not in ("last", "all"):
            raise ValueError("logits must be 'last' or 'all'")
        if len(token_chunks) == 0:
            raise ValueError("forward_chunks expects at least one chunk")
        if not len(token_chunks) == len(positions) == len(caches_batch):
            raise ValueError("token_chunks, positions and caches_batch must have "
                             "equal length")
        chunks = [np.asarray(chunk, dtype=np.int64) for chunk in token_chunks]
        groups: dict[tuple[int, int], list[int]] = {}
        for b, (chunk, caches) in enumerate(zip(chunks, caches_batch)):
            if chunk.ndim != 1 or chunk.size == 0:
                raise ValueError("forward_chunks expects non-empty 1-D chunks")
            if not all(cache.supports_chunked_prefill for cache in caches):
                raise ValueError("forward_chunks requires caches with chunked-prefill "
                                 "support (e.g. 'full' or 'paged')")
            if any(cache.num_tokens != positions[b] for cache in caches):
                raise ValueError(
                    f"sequence {b}: caches hold {caches[0].num_tokens} tokens but "
                    f"the chunk starts at position {positions[b]}")
            groups.setdefault((int(positions[b]), chunk.size), []).append(b)
        lengths = np.array([chunk.size for chunk in chunks])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        total = int(ends[-1])
        flat_pos = np.arange(total) + np.repeat(np.asarray(positions) - starts, lengths)
        # Per group: member sequences and their [G, c] rows of the flat axis.
        plans = [(rows, starts[rows][:, None] + np.arange(size))
                 for (_position, size), rows in groups.items()]
        hidden = self.params["embed.weight"][np.concatenate(chunks)].astype(np.float32)
        if self.config.positional == "learned":
            hidden = hidden + self.params["pos_embed.weight"][flat_pos]  # [N, C]
        n_heads = self.config.n_heads
        context = self._ws.get("chunk.context", (total, self.config.d_model))
        for layer in range(self.config.n_layers):
            prefix = f"layers.{layer}"
            normed = self._norm(hidden, f"{prefix}.attn_norm")  # [N, C]
            # One GEMM, viewed head-major: [3H, N, d] = queries | keys | values.
            qkv = (normed @ self._qkv_weight(layer)).reshape(
                total, 3 * n_heads, self.config.head_dim).transpose(1, 0, 2)
            values_new = qkv[2 * n_heads:]
            if self.config.positional == "rope":
                qkv = apply_rope(qkv[:2 * n_heads], flat_pos, self._rope_cos, self._rope_sin)
            queries, keys_new = qkv[:n_heads], qkv[n_heads:2 * n_heads]
            for rows, idx in plans:
                self._attend_chunk_group([caches_batch[b][layer] for b in rows], idx,
                                         queries, keys_new, values_new, context)
                for b in rows:
                    sl = slice(starts[b], ends[b])
                    caches_batch[b][layer].extend_chunk(
                        keys_new[:, sl], values_new[:, sl], normed[sl], flat_pos[sl])
            hidden = hidden + context @ self.params[f"{prefix}.wo"]
            normed = self._norm(hidden, f"{prefix}.mlp_norm")
            hidden = hidden + self._mlp(normed, layer)
        if logits == "last":
            return self._lm_head(self._norm(hidden[ends - 1], "final_norm"))  # [B, vocab]
        full = self._lm_head(self._norm(hidden, "final_norm"))  # [N, vocab]
        return [full[start:end] for start, end in zip(starts, ends)]

    def prefill_chunk(self, tokens: Sequence[int], position: int,
                      caches: list[LayerKVCache]) -> np.ndarray:
        """Single-sequence :meth:`forward_chunks` for a chunk of context at
        absolute ``position``; returns its last position's logits ``[vocab]``."""
        return self.forward_chunks([tokens], [position], [caches])[0]

    def verify_chunk(self, tokens: Sequence[int], position: int,
                     caches: list[LayerKVCache]) -> np.ndarray:
        """Score a chunk of proposed tokens in ONE forward pass.

        ``tokens`` is the next input token followed by the drafter's proposed
        continuation, starting at absolute ``position``.  Returns the logits
        of **every** chunk position (``[len(tokens), vocab]``, see
        :meth:`forward_chunks`) so the caller can find the longest accepted
        proposal prefix; the caches hold the whole chunk afterwards and the
        caller rolls rejected positions back via ``LayerKVCache.truncate``.
        """
        return self.forward_chunks([tokens], [position], [caches], logits="all")[0]

    def verify_chunk_batch(self, token_chunks: Sequence[Sequence[int]],
                           positions: Sequence[int],
                           caches_batch: Sequence[list[LayerKVCache]],
                           ) -> list[np.ndarray]:
        """Verify ``B`` ragged speculation chunks in one batched forward.

        Returns one ``[len(chunk_b), vocab]`` logits array per sequence
        (:meth:`forward_chunks` with ``logits="all"``).
        """
        return self.forward_chunks(token_chunks, positions, caches_batch, logits="all")

    def decode_step(self, token: int, position: int, caches: list[LayerKVCache]) -> np.ndarray:
        """Decode one token at absolute ``position`` using the caches.

        Returns the next-token logits (shape ``[vocab]``).
        """
        hidden = self.params["embed.weight"][token].astype(np.float32)
        if self.config.positional == "learned":
            hidden = hidden + self.params["pos_embed.weight"][position]
        scale = 1.0 / np.sqrt(self.config.head_dim)
        position_arr = np.array([position])
        for layer in range(self.config.n_layers):
            prefix = f"layers.{layer}"
            normed = self._norm(hidden, f"{prefix}.attn_norm")  # [C]
            d_model = self.config.d_model
            qkv = normed[None, :] @ self._qkv_weight(layer)  # [1, 3C], one GEMM
            query = self._split_heads(qkv[:, :d_model])  # [H, 1, d]
            keys_new = self._split_heads(qkv[:, d_model:2 * d_model])
            values_new = self._split_heads(qkv[:, 2 * d_model:])
            if self.config.positional == "rope":
                query = apply_rope(query, position_arr, self._rope_cos, self._rope_sin)
                keys_new = apply_rope(keys_new, position_arr, self._rope_cos, self._rope_sin)
            query = query[:, 0, :]  # [H, d]
            cache = caches[layer]
            cache.append(keys_new[:, 0, :], values_new[:, 0, :], normed, position)
            context = self._attend_fetched(cache, cache.fetch(), query, scale)
            hidden = hidden + context @ self.params[f"{prefix}.wo"]
            normed = self._norm(hidden, f"{prefix}.mlp_norm")
            hidden = hidden + self._mlp(normed, layer)
        for cache in caches:
            cache.end_step()
        hidden = self._norm(hidden, "final_norm")
        return self._lm_head(hidden)

    # ------------------------------------------------------------------
    # Batched prefill + decode (ragged sequences, per-sequence caches)
    # ------------------------------------------------------------------
    def prefill_batch(self, token_seqs: Sequence[Sequence[int]],
                      caches_batch: Sequence[list[LayerKVCache]]) -> np.ndarray:
        """Prefill ``B`` ragged sequences in one batched forward pass.

        ``token_seqs`` holds per-sequence prompts (possibly different lengths);
        ``caches_batch[b]`` is sequence ``b``'s per-layer cache list (as built
        by :meth:`make_caches`, one call per sequence).  Sequences are
        right-padded to the longest prompt for the dense projections; the
        attention block runs per sequence on the unpadded ``[H, t_b, d]``
        slices (ragged lengths cost no padded ``T x T`` score work), so every
        sequence's logits and cache contents match what the single-sequence
        :meth:`prefill` would produce.

        Returns the last real position's logits for each sequence,
        shape ``[B, vocab]``.
        """
        if len(token_seqs) == 0:
            raise ValueError("prefill_batch expects at least one sequence")
        if len(token_seqs) != len(caches_batch):
            raise ValueError("token_seqs and caches_batch must have equal length")
        seqs = [np.asarray(seq, dtype=np.int64) for seq in token_seqs]
        for seq in seqs:
            if seq.ndim != 1 or seq.size == 0:
                raise ValueError("prefill_batch expects non-empty 1-D token sequences")
        lengths = np.array([seq.size for seq in seqs])
        batch, seq_len = len(seqs), int(lengths.max())
        tokens = self._ws.get("prefill.tokens", (batch, seq_len), np.int64, zero=True)
        for b, seq in enumerate(seqs):
            tokens[b, :seq.size] = seq
        hidden = self._embed(tokens)  # [B, T, C]
        positions = seq_len
        scale = 1.0 / np.sqrt(self.config.head_dim)
        # One reusable context buffer for every layer: padding rows are
        # zeroed once and never written; real rows are fully overwritten on
        # each layer, so no per-layer np.zeros is needed.
        context = self._ws.get("prefill.context", (batch, seq_len, self.config.d_model),
                               zero=True)
        for layer in range(self.config.n_layers):
            prefix = f"layers.{layer}"
            normed = self._norm(hidden, f"{prefix}.attn_norm")  # [B, T, C]
            queries = self._split_heads(normed @ self.params[f"{prefix}.wq"])  # [H, B, T, d]
            if self.config.positional == "rope":
                queries = apply_rope(queries, positions, self._rope_cos, self._rope_sin)
            keys, values = self._project_kv(normed, layer, positions)  # [H, B, T, d]
            for b, n in enumerate(lengths):
                k_b = keys[:, b, :n, :]
                v_b = values[:, b, :n, :]
                scores = queries[:, b, :n, :] @ k_b.swapaxes(-1, -2) * scale  # [H, n, n]
                scores = scores + causal_mask(int(n))
                probs = softmax(scores, axis=-1)
                caches_batch[b][layer].prefill(k_b, v_b, normed[b, :n], probs)
                ctx = probs @ v_b  # [H, n, d]
                context[b, :n] = np.moveaxis(ctx, 0, -2).reshape(int(n), self.config.d_model)
            hidden = hidden + context @ self.params[f"{prefix}.wo"]
            normed = self._norm(hidden, f"{prefix}.mlp_norm")
            hidden = hidden + self._mlp(normed, layer)
        hidden = self._norm(hidden, "final_norm")
        last = hidden[np.arange(batch), lengths - 1]  # [B, C]
        return self._lm_head(last)

    def _fused_decode_groups(self, caches_batch: Sequence[list[LayerKVCache]],
                             ) -> tuple[list[list[int]], list[list[int]], list[int]]:
        """Partition sequence indices into fused-attention groups by layout.

        Returns ``(paged_groups, contig_groups, loose)``.  A *paged* group
        shares one :class:`~repro.core.kv_pool.KVPagePool`, each member a
        whole stack on one page table (its next slot is claimed once for
        every layer), so one page-table gather plus one length-masked BLAS
        matmul per layer serves the whole (possibly ragged) group.  A
        *contig* group holds equal-length full-prefix caches (``fused_kind
        == "contig"``) whose fetch views stack without padding, keeping
        every BLAS slice bit-identical to the per-sequence path.  Everything else — eviction
        policies that consume ``observe_attention``, mixed per-layer kinds —
        stays on the per-sequence fallback (``loose``), as do singleton
        groups, for which the gather copy buys nothing.
        """
        paged: dict[int, list[int]] = {}
        contig: dict[int, list[int]] = {}
        loose: list[int] = []
        for b, caches in enumerate(caches_batch):
            kind = caches[0].fused_kind if caches else None
            if kind == "paged":
                if caches[0].whole_stack(caches):
                    paged.setdefault(id(caches[0].pool), []).append(b)
                else:
                    loose.append(b)
                continue
            if kind is not None and any(c.fused_kind != kind for c in caches):
                kind = None
            if kind == "contig":
                n_tokens = caches[0].num_tokens
                if any(c.num_tokens != n_tokens for c in caches):
                    loose.append(b)  # uneven layers: not stackable this step
                else:
                    contig.setdefault(n_tokens, []).append(b)
            else:
                loose.append(b)
        paged_groups: list[list[int]] = []
        contig_groups: list[list[int]] = []
        for rows in paged.values():
            if len(rows) > 1:
                paged_groups.append(rows)
            else:
                loose.extend(rows)
        for rows in contig.values():
            if len(rows) > 1:
                contig_groups.append(rows)
            else:
                loose.extend(rows)
        return paged_groups, contig_groups, loose

    def _fused_state(self, layer: int, caches: list[LayerKVCache]) -> _FusedGroupBuffer:
        """The persistent group buffer for this exact (layer, member) tuple."""
        key = (layer, tuple(id(cache) for cache in caches))
        state = self._fused_states.get(key)
        if state is None:
            state = _FusedGroupBuffer(caches)
            self._fused_states[key] = state
        state.last_used = self._fused_clock
        return state

    @staticmethod
    def _buffer_current(state: _FusedGroupBuffer, caches: list[LayerKVCache],
                        n_max: int) -> bool:
        """True iff every member advanced by exactly one appended token.

        ``write_epoch`` catches mutations of already-stored tokens (rollback,
        release, checkpoint import); the exact ``+1`` length check catches
        multi-token catch-up (chunked prefill, a step spent on the loose
        path) and group-membership drift across an absence.  Capacity
        overflow also restacks — into freshly doubled buffers.
        """
        if state.keys is None or state.keys.shape[2] < n_max:
            return False
        epochs, lengths = state.epochs, state.lengths
        for g, cache in enumerate(caches):
            if cache.write_epoch != epochs[g] or cache.num_tokens != lengths[g] + 1:
                return False
        return True

    @staticmethod
    def _softmax_inplace(scores: np.ndarray) -> np.ndarray:
        """Softmax over the last axis, in place in a workspace buffer.

        The exact op sequence of :func:`~repro.llm.functional.softmax`
        (subtract row-max, exp, divide by row-sum) so fused logits stay
        bit-identical to the per-sequence path — just without allocating
        the three score-sized temporaries every step.
        """
        m = np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.subtract(scores, m, out=scores)
        np.exp(scores, out=scores)
        s = np.add.reduce(scores, axis=-1, keepdims=True)
        np.divide(scores, s, out=scores)
        return scores

    def _grow_buffers(self, state: _FusedGroupBuffer, n_groups: int,
                      n_needed: int) -> None:
        """(Re)allocate group stacks to a power-of-two token capacity."""
        n_heads, head_dim = self.config.n_heads, self.config.head_dim
        capacity = 64
        while capacity < n_needed:
            capacity *= 2
        state.keys = np.empty((n_groups, n_heads, capacity, head_dim), dtype=np.float32)
        state.values = np.zeros((n_groups, n_heads, capacity, head_dim), dtype=np.float32)

    def _attend_paged_group(self, rows: list[int], layer: int,
                            caches_batch: Sequence[list[LayerKVCache]],
                            step: _PagedRows,
                            query: np.ndarray, keys_new: np.ndarray,
                            values_new: np.ndarray, context: np.ndarray,
                            scale: float) -> None:
        """Paged-attention for one group: incremental stacks, mask, matmul.

        Writes every row's new K/V straight into this layer's slice of the
        pool pages ``step`` claimed for it, then extends
        the group's persistent ``[G, H, cap, d]`` stacks with one ``[H, d]``
        write per row — read back from the tail page slot so fp16 pools
        contribute their *stored* (rounded) values, exactly as a full
        re-gather would.  Only when the buffer went stale (rollback,
        preemption, first use, capacity) does the page-table gather rebuild
        it.  Attention then runs as one batched BLAS matmul per projection
        with a shared length mask replacing per-sequence ``-inf`` patching.
        """
        ws = self._ws
        n_groups = len(rows)
        n_heads, head_dim = self.config.n_heads, self.config.head_dim
        caches = [caches_batch[b][layer] for b in rows]
        state = self._fused_state(layer, caches)
        pool = caches[0].pool
        # Group-major [G, H, d] slices of the new projections: a zero-copy
        # transpose view when the group is the whole batch (the common
        # decode-wave case), a single fancy-indexed copy otherwise.
        if n_groups == query.shape[1]:
            k_rows = keys_new.swapaxes(0, 1)
            v_rows = values_new.swapaxes(0, 1)
            q_rows = query.swapaxes(0, 1)
        else:
            k_rows = keys_new[:, rows].swapaxes(0, 1)
            v_rows = values_new[:, rows].swapaxes(0, 1)
            q_rows = query[:, rows].swapaxes(0, 1)
        # The slots were claimed for every layer before the first: land the
        # whole group's new K/V with two batched pool scatters.
        pool.scatter_tokens(step.pages, step.offsets, k_rows, v_rows, layer)
        lengths = step.lengths
        n_max = max(lengths)
        n_min = min(lengths)
        if pool.dtype == np.float32:
            k_stored, v_stored = k_rows, v_rows
        else:
            # Round-trip through the pool dtype: the stacks must hold what
            # the pages hold (same cast the scatter assignment applied).
            k_stored = k_rows.astype(pool.dtype).astype(np.float32)
            v_stored = v_rows.astype(pool.dtype).astype(np.float32)
        if self._buffer_current(state, caches, n_max):
            skeys, svalues = state.keys, state.values
            if n_min == n_max:  # uniform: one slice assignment per stack
                skeys[:, :, n_max - 1] = k_stored
                svalues[:, :, n_max - 1] = v_stored
            else:
                rows_idx = np.arange(n_groups)
                tails = np.array(lengths, dtype=np.intp) - 1
                skeys[rows_idx, :, tails] = k_stored
                svalues[rows_idx, :, tails] = v_stored
            state.lengths = list(lengths)
        else:
            page_tokens = pool.page_tokens
            pages_max = -(-n_max // page_tokens)  # ceil
            n_gather = pages_max * page_tokens
            if state.keys is None or state.keys.shape[2] < n_gather:
                self._grow_buffers(state, n_groups, n_gather)
            skeys, svalues = state.keys, state.values
            pool.gather_pages(step.tables(caches, pages_max), skeys[:, :, :n_gather],
                              svalues[:, :, :n_gather], layer)
            # Restore the zero-beyond-length invariant to full capacity:
            # page-granular gather garbage and stale pre-restack values must
            # never reach the V matmul (0·NaN poisons real outputs) and zero
            # K keeps the masked score matmul NaN-free.
            beyond_rows, beyond_tokens = step.beyond(skeys.shape[2])
            skeys[beyond_rows, :, beyond_tokens] = 0.0
            svalues[beyond_rows, :, beyond_tokens] = 0.0
            state.epochs = [cache.write_epoch for cache in caches]
            state.lengths = list(lengths)
        keys = skeys[:, :, :n_max]
        values = svalues[:, :, :n_max]
        scores = np.matmul(
            keys, q_rows[:, :, :, None],
            out=ws.get("fused.scores", (n_groups, n_heads, n_max, 1)))[..., 0]
        scores *= scale  # [G, H, n_max]
        if n_min != n_max:
            # Overwrite (not add): garbage-K scores may be NaN/inf.
            np.copyto(scores, -np.inf, where=step.padmask[:, None, :])
        probs = self._softmax_inplace(scores)  # padding rows -> exactly 0
        ctx = np.matmul(probs[:, :, None, :], values,
                        out=ws.get("fused.ctx", (n_groups, n_heads, 1, head_dim)))
        context[rows] = ctx.reshape(n_groups, n_heads * head_dim)

    def _attend_contig_group(self, rows: list[int], layer: int,
                             caches_batch: Sequence[list[LayerKVCache]],
                             query: np.ndarray, keys_new: np.ndarray,
                             values_new: np.ndarray, normed: np.ndarray,
                             positions: np.ndarray, context: np.ndarray,
                             scale: float) -> None:
        """Stacked attention for an equal-length contiguous-cache group.

        Appends through each cache's own ``append`` (so e.g. quantized
        caches still apply their storage transform), then extends the
        persistent group stacks with each cache's newest *stored* token —
        read back from its zero-copy fetch view, so quantization round-trips
        land in the stacks bit-for-bit.  A stale buffer is restacked from
        whole fetch views.  No padding exists (the group is equal-length by
        construction), so every BLAS slice is the same op the per-sequence
        path would issue — results are bit-identical.
        """
        ws = self._ws
        n_groups = len(rows)
        n_heads, head_dim = self.config.n_heads, self.config.head_dim
        caches = [caches_batch[b][layer] for b in rows]
        state = self._fused_state(layer, caches)
        for g, b in enumerate(rows):
            caches[g].append(keys_new[:, b, :], values_new[:, b, :], normed[b],
                             int(positions[b]))
        n_tokens = caches[0].num_tokens
        if n_groups == query.shape[1]:
            q_rows = query.swapaxes(0, 1)  # zero-copy whole-batch view
        else:
            q_rows = query[:, rows].swapaxes(0, 1)
        if self._buffer_current(state, caches, n_tokens):
            skeys, svalues = state.keys, state.values
            if state.store_identity:
                # Verbatim storage: extend the stacks straight from the
                # batched projections — one slice assignment per stack.
                if n_groups == query.shape[1]:
                    skeys[:, :, n_tokens - 1] = keys_new.swapaxes(0, 1)
                    svalues[:, :, n_tokens - 1] = values_new.swapaxes(0, 1)
                else:
                    skeys[:, :, n_tokens - 1] = keys_new[:, rows].swapaxes(0, 1)
                    svalues[:, :, n_tokens - 1] = values_new[:, rows].swapaxes(0, 1)
            else:
                # Quantizing members: read each newly *stored* token back so
                # the stacks hold the round-tripped values bit-for-bit.
                for g, cache in enumerate(caches):
                    keys_g, values_g, _valid = cache.fetch()  # zero-copy views
                    skeys[g, :, n_tokens - 1] = keys_g[:, n_tokens - 1]
                    svalues[g, :, n_tokens - 1] = values_g[:, n_tokens - 1]
            state.lengths = [n_tokens] * n_groups
        else:
            if state.keys is None or state.keys.shape[2] < n_tokens:
                self._grow_buffers(state, n_groups, n_tokens)
            skeys, svalues = state.keys, state.values
            for g, cache in enumerate(caches):
                keys_g, values_g, _valid = cache.fetch()  # all-valid by contract
                skeys[g, :, :n_tokens] = keys_g
                svalues[g, :, :n_tokens] = values_g
            state.epochs = [cache.write_epoch for cache in caches]
            state.lengths = [n_tokens] * n_groups
        scores = np.matmul(
            skeys[:, :, :n_tokens], q_rows[:, :, :, None],
            out=ws.get("fused.scores", (n_groups, n_heads, n_tokens, 1)))[..., 0]
        scores *= scale  # [G, H, n]
        probs = self._softmax_inplace(scores)
        ctx = np.matmul(probs[:, :, None, :], svalues[:, :, :n_tokens],
                        out=ws.get("fused.ctx", (n_groups, n_heads, 1, head_dim)))
        context[rows] = ctx.reshape(n_groups, n_heads * head_dim)

    def _attend_fetched(self, cache: LayerKVCache,
                        fetched: tuple[np.ndarray, np.ndarray, np.ndarray],
                        query: np.ndarray, scale: float) -> np.ndarray:
        """One sequence's decode attention over its just-``fetch``-ed K/V.

        ``query`` is ``[H, d]``; feeds the probabilities back through
        ``observe_attention`` and returns the ``[d_model]`` context row.
        """
        keys, values, valid = fetched  # zero-copy views or gathers, ragged n_b
        scores = (keys @ query[:, :, None])[:, :, 0] * scale  # [H, n_b]
        if not valid.all():
            scores = np.where(valid, scores, -np.inf)
        probs = softmax(scores, axis=-1)
        cache.observe_attention(probs)
        return (probs[:, None, :] @ values)[:, 0, :].reshape(self.config.d_model)

    def _attend_loose_rows(self, rows: list[int], layer: int,
                           caches_batch: Sequence[list[LayerKVCache]],
                           query: np.ndarray, keys_new: np.ndarray,
                           values_new: np.ndarray, normed: np.ndarray,
                           positions: np.ndarray, context: np.ndarray,
                           scale: float) -> None:
        """Attention for the sequences no fused layout covers, stacked by shape.

        Caches that share a :meth:`~repro.llm.cache.LayerKVCache.group_key`
        (AERP caches of one arena and slot count) take the step through one
        ``step_group`` / ``observe_group`` call; every other cache runs its
        own ``append`` -> ``fetch`` -> ``observe_attention`` behind the same
        calls (eviction policies keep their storage transform and their
        importance feedback).  Rows whose fetched K/V have equal length and an
        all-true mask — every eviction cache sitting at its budget — then
        share one :meth:`_attend_stacked_group` call; rows with a partial mask
        or a length of their own take the per-row path.
        """
        groups: dict = {}
        for b in rows:
            cache = caches_batch[b][layer]
            key = cache.group_key()
            groups.setdefault(cache if key is None else key, []).append(b)  # None: alone
        stackable: dict[int, list[tuple[list[int], list[LayerKVCache], tuple]]] = {}
        alone: list[tuple[int, LayerKVCache, tuple]] = []
        for members in groups.values():
            caches = [caches_batch[b][layer] for b in members]
            fetched = caches[0].step_group(
                caches, keys_new[:, members].swapaxes(0, 1),
                values_new[:, members].swapaxes(0, 1), normed[members], positions[members])
            if fetched[2].all():
                stackable.setdefault(fetched[0].shape[2], []).append((members, caches, fetched))
            else:
                alone.extend((b, cache, tuple(part[g] for part in fetched))
                             for g, (b, cache) in enumerate(zip(members, caches)))
        for units in stackable.values():
            if len(units) > 1 or len(units[0][0]) > 1:
                self._attend_stacked_group(units, query, context, scale)
            else:
                (b,), (cache,), fetched = units[0]
                alone.append((b, cache, tuple(part[0] for part in fetched)))
        for b, cache, fetched in alone:
            context[b] = self._attend_fetched(cache, fetched, query[:, b], scale)

    def _attend_stacked_group(self, units: list[tuple[list[int], list[LayerKVCache], tuple]],
                              query: np.ndarray, context: np.ndarray,
                              scale: float) -> None:
        """``scores -> softmax -> context`` once for ``G`` equal-shape rows.

        ``units`` holds ``(batch rows, caches, fetched)`` per ``step_group``
        call, with all-valid ``[g, H, n, d]`` K/V of one ``n``.  A single unit
        is attended where its cache stacked it; several are copied into
        ``[G, H, n, d]`` stacks in the shared workspace (nothing persists
        between steps).  The batched BLAS calls are those of
        :meth:`_attend_contig_group`; each slice is the op
        :meth:`_attend_fetched` issues for one row, so results are
        bit-identical to the per-row path.
        """
        ws = self._ws
        n_heads, head_dim = self.config.n_heads, self.config.head_dim
        rows = [b for members, _caches, _fetched in units for b in members]
        n_groups = len(rows)
        skeys, svalues, _valid = units[0][2]
        n_tokens = skeys.shape[2]
        if len(units) > 1:
            skeys = ws.get("loose.keys", (n_groups, n_heads, n_tokens, head_dim))
            svalues = ws.get("loose.values", (n_groups, n_heads, n_tokens, head_dim))
            start = 0
            for members, _caches, (keys, values, _valid) in units:
                skeys[start:start + len(members)] = keys
                svalues[start:start + len(members)] = values
                start += len(members)
        q_rows = query[:, rows].swapaxes(0, 1)  # [G, H, d]
        scores = np.matmul(
            skeys, q_rows[:, :, :, None],
            out=ws.get("loose.scores", (n_groups, n_heads, n_tokens, 1)))[..., 0]
        scores *= scale  # [G, H, n]
        probs = self._softmax_inplace(scores)
        start = 0
        for members, caches, _fetched in units:
            caches[0].observe_group(caches, probs[start:start + len(members)])
            start += len(members)
        ctx = np.matmul(probs[:, :, None, :], svalues,
                        out=ws.get("loose.ctx", (n_groups, n_heads, 1, head_dim)))
        context[rows] = ctx.reshape(n_groups, n_heads * head_dim)

    def decode_step_batch(self, tokens: Sequence[int], positions: Sequence[int],
                          caches_batch: Sequence[list[LayerKVCache]],
                          fused: bool = True) -> np.ndarray:
        """Decode one token for each of ``B`` sequences in one forward pass.

        ``tokens[b]`` is sequence ``b``'s newest token at absolute position
        ``positions[b]``; ``caches_batch[b]`` its per-layer caches.  The dense
        projections (QKV, output, MLP, LM head) run batched over ``B``.

        With ``fused=True`` (the default) the attention reads are batched
        too: sequences whose caches expose a fused layout (paged stacks
        sharing one pool; equal-length contiguous full caches) are
        grouped by :meth:`_fused_decode_groups` and each group runs as one
        gathered, length-masked BLAS attention call per layer — paged-
        attention style — instead of per-sequence GEMVs.  Sequences whose
        caches need per-token attention feedback (``observe_attention``-
        driven eviction policies) are appended, fetched and fed back through
        the caches' group protocol — one call per group for AERP caches
        sharing an arena, one cache at a time otherwise — with the attention
        arithmetic stacked per group of equal fetched shape
        (:meth:`_attend_loose_rows`).
        ``fused=False`` forces per-sequence attention for everything — the
        pre-fusion reference path used by equivalence tests and benchmarks.
        Either way each sequence's logits match the single-sequence
        :meth:`decode_step`.

        Returns logits of shape ``[B, vocab]``.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0 or tokens.shape != positions.shape:
            raise ValueError("tokens and positions must be equal-length non-empty 1-D")
        if len(caches_batch) != tokens.size:
            raise ValueError("caches_batch must hold one cache list per sequence")
        batch = tokens.size
        hidden = self.params["embed.weight"][tokens].astype(np.float32)  # [B, C]
        if self.config.positional == "learned":
            hidden = hidden + self.params["pos_embed.weight"][positions]
        scale = 1.0 / np.sqrt(self.config.head_dim)
        if fused and batch > 1:
            self._fused_clock += 1
            paged_groups, contig_groups, loose = self._fused_decode_groups(caches_batch)
        else:
            paged_groups, contig_groups = [], []
            loose = list(range(batch))
        paged_steps = [_PagedRows(rows, caches_batch) for rows in paged_groups]
        for layer in range(self.config.n_layers):
            prefix = f"layers.{layer}"
            normed = self._norm(hidden, f"{prefix}.attn_norm")  # [B, C]
            d_model = self.config.d_model
            qkv = normed @ self._qkv_weight(layer)  # [B, 3C], one GEMM
            query = self._split_heads(qkv[:, :d_model])  # [H, B, d] view-reshape
            keys_new = self._split_heads(qkv[:, d_model:2 * d_model])
            values_new = self._split_heads(qkv[:, 2 * d_model:])
            if self.config.positional == "rope":
                query = apply_rope(query, positions, self._rope_cos, self._rope_sin)
                keys_new = apply_rope(keys_new, positions, self._rope_cos, self._rope_sin)
            context = self._ws.get("decode.context", (batch, self.config.d_model))
            for rows in contig_groups:
                self._attend_contig_group(rows, layer, caches_batch, query, keys_new,
                                          values_new, normed, positions, context, scale)
            for rows, step in zip(paged_groups, paged_steps):
                self._attend_paged_group(rows, layer, caches_batch, step, query,
                                         keys_new, values_new, context, scale)
            if fused and len(loose) > 1:
                self._attend_loose_rows(loose, layer, caches_batch, query, keys_new,
                                        values_new, normed, positions, context, scale)
            else:
                for b in loose:
                    cache = caches_batch[b][layer]
                    cache.append(keys_new[:, b, :], values_new[:, b, :], normed[b],
                                 int(positions[b]))
                    context[b] = self._attend_fetched(cache, cache.fetch(),
                                                      query[:, b], scale)
            hidden = hidden + context @ self.params[f"{prefix}.wo"]
            normed = self._norm(hidden, f"{prefix}.mlp_norm")
            hidden = hidden + self._mlp(normed, layer)
        for caches in caches_batch:
            for cache in caches:
                cache.end_step()
        if self._fused_states:
            # Drop group buffers whose exact membership has not decoded for a
            # few steps (a member finished or was preempted, so the key will
            # never recur) — they pin released caches and big K/V stacks.
            clock = self._fused_clock
            stale = [key for key, state in self._fused_states.items()
                     if clock - state.last_used > 4]
            for key in stale:
                del self._fused_states[key]
        hidden = self._norm(hidden, "final_norm")
        return self._lm_head(hidden)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def num_params(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.params.values()))

    def copy_with_params(self, params: dict[str, np.ndarray]) -> "DecoderLM":
        """Return a model sharing this config with replacement parameters."""
        return DecoderLM(self.config, params=params)
