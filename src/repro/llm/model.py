"""Decoder-only transformer language model on NumPy.

The model owns a flat parameter dictionary (name -> ``np.ndarray``) and
three forwards:

* :meth:`DecoderLM.forward_full` -- full-sequence teacher-forced forward pass
  without caches, the oracle of the two cached forwards;
* :meth:`DecoderLM.forward_chunks` -- one ragged chunk per sequence over its
  caches: a whole prompt at position 0 (:meth:`DecoderLM.prefill_batch`),
  chunked prefill and speculative verify
  (:meth:`DecoderLM.verify_chunk_batch`);
* :meth:`DecoderLM.decode_step_batch` -- one auto-regressive token for each
  of ``B`` sequences.

Each sequence has a pluggable per-layer KV cache, where the paper's policies
plug in.  One sequence is a batch of one: :meth:`DecoderLM.prefill`,
:meth:`DecoderLM.prefill_chunk` and :meth:`DecoderLM.decode_step` call the
batched forwards.

Every cached attention runs through one kernel, :meth:`DecoderLM._attend`,
with ``c >= 1`` queries per row: a decode step (``c = 1``) of a group of
rows and, causally masked, a prompt over its own projections or a chunk
over its cache.  Only the cache-free oracle :meth:`DecoderLM.forward_full`
has a softmax of its own.

The model reaches every store through the caches' group protocol
(:mod:`repro.llm.cache`): a decode step groups the rows by their stacks'
``group_key`` and steps each group one way, whatever store it is on, and a
chunk forward writes each group through its ``chunk_group``.

Only configurations without grouped-query attention are instantiated
(``n_kv_heads is None``); the full-size GQA configs are used purely for shape
accounting by the performance model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.llm.cache import KVCacheFactory, LayerKVCache
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
)
from repro.llm.workspace import StepWorkspace
from repro.registry import resolve
from repro.utils.rng import derive_rng

#: The scores one chunk attention group may hold (``G * H * c * n``, 1 MiB
#: of float32): equal-length prompts of a large batch attend in several
#: groups, not in one block that the workspace would then keep.
_GROUP_SCORES = 1 << 18


class _DecodePlan:
    """A decode batch's groups: its rows grouped by their stacks'
    ``group_key`` (each row alone with ``fused=False``), each group the
    ``decode_group`` of its stacks.

    ``stacks`` are the batch's cache lists (their identity is the
    membership); ``groups`` holds ``(rows, group)``, the group's batch rows
    in its member order (a slice when they are the whole batch in order).
    A plan is kept at the first stack's ``plan_home`` (never on the model)
    and serves the next step of its membership while :meth:`holds`; a batch
    led by a cache without a home, or stepped with ``fused=False``, is
    planned every step.
    """

    __slots__ = ("stacks", "groups")

    def __init__(self, stacks: list[list[LayerKVCache]], fused: bool = True) -> None:
        self.stacks = stacks
        if not fused or len(stacks) == 1:  # every row alone
            self.groups = [([b], stack[0].decode_group([stack])) for b, stack in enumerate(stacks)]
            return
        keyed: dict = {}
        for b, stack in enumerate(stacks):
            key = stack[0].group_key(stack)
            keyed.setdefault(stack[0] if key is None else key, []).append(b)
        self.groups = []
        for rows in keyed.values():
            group = stacks[rows[0]][0].decode_group([stacks[b] for b in rows])
            if group.order is not None:
                rows = [rows[g] for g in group.order]
                if rows == list(range(len(stacks))):
                    rows = slice(None)
            self.groups.append((rows, group))

    def holds(self) -> bool:
        """Whether every group still holds."""
        for _rows, group in self.groups:
            if not group.holds():
                return False
        return True


class DecoderLM:
    """A decoder-only transformer LM with explicit NumPy parameters."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None,
                 seed: int = 0) -> None:
        if config.n_kv_heads is not None:
            raise ValueError("DecoderLM does not instantiate grouped-query configurations")
        self.config = config
        # Reusable scratch buffers for the batched hot paths (context
        # accumulators, stacked chunk K/V, attention scores): steady-state
        # decode steps perform zero scratch allocations.
        self._ws = StepWorkspace()
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
            params[f"{prefix}.w1"] = normal((config.d_model, config.d_ff))
            if config.mlp == "gated":
                params[f"{prefix}.w3"] = normal((config.d_model, config.d_ff))
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
        weight = self.params["embed.weight" if self.config.tie_embeddings else "lm_head.weight"]
        return hidden @ weight.T

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """[..., C] -> [..., H, d] -> moved to [H, ..., d]."""
        new_shape = x.shape[:-1] + (self.config.n_heads, self.config.head_dim)
        y = x.reshape(new_shape)
        nd = y.ndim  # axis -2 to the front (transpose view, no moveaxis overhead)
        return y.transpose((nd - 2,) + tuple(range(nd - 2)) + (nd - 1,))

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
            # Each of the ``P`` rows projected on its own: the stacked
            # ``[P, 1, C] @ [C, C]`` matmul runs as P independent M=1 GEMMs
            # and RoPE is elementwise, hence the bits a batch-of-one decode
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
        """Build one cache per layer using ``factory``, through its
        ``make_stack`` hook when it has one.  ``None`` resolves a fresh
        ``"full"`` factory, so the stack gets a pool of its own."""
        factory = resolve("cache", "full") if factory is None else factory
        config = self.config
        make_stack = getattr(factory, "make_stack", None)
        if make_stack is not None:
            return make_stack(config.n_layers, config.n_heads, config.head_dim,
                              config.d_model)
        return [factory(layer, config.n_heads, config.head_dim, config.d_model,
                        self.recompute_fn(layer))
                for layer in range(config.n_layers)]

    def prefill_batch(self, token_seqs: Sequence[Sequence[int]],
                      caches_batch: Sequence[list[LayerKVCache]]) -> np.ndarray:
        """Prefill ``B`` ragged prompts into empty caches in one forward:
        :meth:`forward_chunks` with every chunk at position 0.  Returns each
        prompt's last-position logits, ``[B, vocab]``."""
        return self.forward_chunks(token_seqs, [0] * len(token_seqs), caches_batch)

    def prefill(self, tokens: Sequence[int], caches: list[LayerKVCache]) -> np.ndarray:
        """:meth:`prefill_batch` of one: process the context tokens, filling
        the caches; returns the last context position's logits ``[vocab]``."""
        return self.prefill_batch([tokens], [caches])[0]

    # ------------------------------------------------------------------
    # The ragged-chunk forward: prompts, chunked prefill, speculative verify
    # ------------------------------------------------------------------
    def forward_chunks(self, token_chunks: Sequence[Sequence[int]],
                       positions: Sequence[int],
                       caches_batch: Sequence[list[LayerKVCache]], *,
                       logits: str = "last") -> "np.ndarray | list[np.ndarray]":
        """Run one chunk of ``n_b >= 1`` tokens per sequence in ONE forward.

        ``token_chunks[b]`` starts at absolute position ``positions[b]`` and
        ``caches_batch[b]`` (its per-layer caches) must hold exactly that
        many tokens.  A chunk at position 0 is a whole prompt, on any cache;
        a later one (chunked prefill, resuming after a radix hit,
        speculative verify) needs caches with chunked-prefill support.  Each
        chunk attends causally to everything cached plus itself, exactly as
        the corresponding rows of :meth:`forward_full`.  The dense work runs
        once over the ``N = sum(n_b)`` concatenated tokens.  Each layer
        first stores the chunks, one write per group of equal ``group_key``
        (its ``chunk_group``), then attends once per group of equal
        ``(position, chunk_len)``, split where its scores would pass
        ``_GROUP_SCORES``: one causally masked :meth:`_attend` over the
        members' ``fetch()`` rows, or, for prompts, over their own fresh
        projections.  A prompt whose caches cannot take chunks (the eviction
        caches score a prompt by the attention it pays as a whole, the
        quantized ones code it as one) attends alone, and each of its caches
        then stores it with ``prefill(k, v, x, probs)``.

        ``logits="last"`` returns ``[B, vocab]``: each chunk's final row, the
        LM head running on those ``B`` rows only.  ``logits="all"`` returns
        one ``[n_b, vocab]`` array per sequence; row ``i`` is what sequential
        :meth:`decode_step_batch` calls feeding ``token_chunks[b][:i + 1]`` give.
        """
        if logits not in ("last", "all"):
            raise ValueError("logits must be 'last' or 'all'")
        if len(token_chunks) == 0:
            raise ValueError("forward_chunks expects at least one chunk")
        if not len(token_chunks) == len(positions) == len(caches_batch):
            raise ValueError("token_chunks, positions and caches_batch must have "
                             "equal length")
        chunks = [np.asarray(chunk, dtype=np.int64) for chunk in token_chunks]
        groups: dict[tuple[int, int, int | None], list[int]] = {}
        keyed: dict = {}  # a lone chunk's writer checks its stack itself
        grouped = len(chunks) > 1
        for b, (chunk, caches) in enumerate(zip(chunks, caches_batch)):
            if chunk.ndim != 1 or chunk.size == 0:
                raise ValueError("forward_chunks expects non-empty 1-D chunks")
            position = int(positions[b])
            chunkable = caches[0].supports_chunked_prefill  # one factory per stack
            if position and not chunkable:
                raise ValueError(f"sequence {b}: caches without chunked-prefill support "
                                 "(e.g. 'kelle', 'kivi') take whole prompts only")
            if any(cache.num_tokens != position for cache in caches):
                raise ValueError(
                    f"sequence {b}: caches hold {caches[0].num_tokens} tokens but "
                    f"the chunk starts at position {position}")
            # Chunks of equal (position, size) attend as one group; a prompt
            # its caches take only whole attends alone, keyed by its row.
            groups.setdefault((position, chunk.size, None if chunkable else b),
                              []).append(b)
            if not chunkable:
                continue
            key = caches[0].group_key(caches) if grouped else None
            keyed.setdefault(caches[0] if key is None else key, []).append(b)
        lengths = np.array([chunk.size for chunk in chunks])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        total = int(ends[-1])
        flat_pos = np.arange(total) + np.repeat(np.asarray(positions) - starts, lengths)
        # Per group: member sequences, their [G, c] rows of the flat axis, the
        # causal mask of c queries over the cached tokens plus the chunk, a
        # prompt's index of its own [G, H, c, d] K/V in the [H, N, d]
        # projections (None past position 0), and whether its caches take it
        # whole.  The workspace keeps the [G, H, c, n] score block at its
        # largest, so a group holds at most _GROUP_SCORES scores unless one
        # member alone needs more.
        n_heads, plans = self.config.n_heads, []
        for (position, size, alone), members in groups.items():
            causal = np.arange(position + size) > position + np.arange(size)[:, None]
            per_group = _GROUP_SCORES // (n_heads * size * (position + size)) or 1
            while members:
                rows, members = members[:per_group], members[per_group:]
                idx = starts[rows][:, None] + np.arange(size)
                if position:
                    own = None
                elif len(rows) == 1:  # a view
                    own = (None, slice(None), slice(starts[rows[0]], ends[rows[0]]))
                else:  # a gather
                    own = (np.arange(n_heads)[:, None], idx[:, None])
                plans.append((rows, idx, causal, own, alone is not None))
        # Per group of equal keys: its writer and its members' rows of the flat axis.
        writers = [(caches_batch[rows[0]][0].chunk_group([caches_batch[b] for b in rows],
                                                         lengths[rows].tolist()),
                    slice(None) if len(rows) == len(chunks) else
                    np.concatenate([np.arange(starts[b], ends[b]) for b in rows]))
                   for rows in map(np.array, keyed.values())]
        hidden = self.params["embed.weight"][np.concatenate(chunks)].astype(np.float32)
        if self.config.positional == "learned":
            hidden = hidden + self.params["pos_embed.weight"][flat_pos]  # [N, C]
        ws = self._ws
        # A float32 scale keeps the scaling of the [c, n] score blocks in
        # float32; a float64 one (decode's, whose bits it fixes) casts every
        # score through float64, several times slower.
        scale = np.float32(1.0 / np.sqrt(self.config.head_dim))
        context = ws.get("chunk.context", (total, self.config.d_model))
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
            for writer, tokens in writers:
                writer.write(layer, keys_new[:, tokens], values_new[:, tokens],
                             normed[tokens], flat_pos[tokens])
            for rows, idx, causal, prompt, whole in plans:
                if prompt is not None:  # its own projections: nothing to fetch
                    keys, values = keys_new[prompt], values_new[prompt]  # [G, H, c, d]
                elif len(rows) == 1:
                    keys, values = caches_batch[rows[0]][layer].fetch()  # [H, n, d] views
                    keys, values = keys[None], values[None]
                else:
                    fetched = [caches_batch[b][layer].fetch() for b in rows]
                    shape = (len(rows),) + fetched[0][0].shape
                    keys, values = ws.get("chunk.keys", shape), ws.get("chunk.values", shape)
                    for g, (keys_g, values_g) in enumerate(fetched):
                        keys[g] = keys_g
                        values[g] = values_g
                probs = self._attend(queries, idx, keys, values, causal, context, scale)
                if whole:  # stored after its attention, which it is scored by
                    caches_batch[rows[0]][layer].prefill(keys[0], values[0], normed[idx[0]],
                                                         probs[0])
            # The layer's largest arrays, freed before the MLP allocates its own.
            del qkv, queries, keys_new, values_new, keys, values
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
        """:meth:`decode_step_batch` of one: decode ``token`` at absolute
        ``position`` using the caches; returns the next-token logits
        ``[vocab]``."""
        return self.decode_step_batch([token], [position], [caches])[0]

    def _attend(self, query: np.ndarray, rows: "list[int] | slice | np.ndarray",
                keys: np.ndarray, values: np.ndarray, masked: "np.ndarray | None",
                context: np.ndarray, scale: float) -> np.ndarray:
        """The attention ``softmax(q Kᵀ) V`` of ``G`` rows, ``c`` queries each.

        ``query`` holds the step's ``[H, N, d]`` queries and ``rows`` the
        attending rows of its token axis in the order of ``keys`` /
        ``values``, their ``[G, H, n, d]`` K/V (slab views, a cache's group
        gather or stacked copies): ``G`` rows of one query each (a decode
        step, ``c = 1``) or ``[G, c]`` rows (chunks of ``c`` queries).
        ``masked``, broadcast to the ``[G, H, c, n]`` scores, marks the slots
        whose score is overwritten with ``-inf`` (K there may be anything;
        every query must keep one slot); ``None`` masks nothing.  Writes
        ``context[rows]`` and returns the ``[G, H, c, n]`` probabilities, a
        workspace view valid until the next call.  Each slice of the batched
        BLAS calls is the call a row alone makes (at ``c = 1`` NumPy issues
        ``q Kᵀ`` as the matrix-vector product ``K q``) and the softmax is
        :func:`~repro.llm.functional.softmax`'s op sequence in place along
        the contiguous key axis, so a row's bits do not depend on its
        company.
        """
        ws = self._ws
        n_rows, n_heads, n_tokens, head_dim = keys.shape
        queries = query[:, rows].swapaxes(0, 1)  # [G, H, d] or [G, H, c, d]
        shape = queries.shape[:1] + queries.shape[2:-1] + (n_heads * head_dim,)  # context[rows]
        if queries.ndim == 3:
            queries = queries[:, :, None]
        chunk = queries.shape[2]
        scores = np.matmul(queries, keys.mT,
                           out=ws.get("attend.scores", (n_rows, n_heads, chunk, n_tokens)))
        scores *= scale  # [G, H, c, n]
        if masked is not None:
            np.copyto(scores, -np.inf, where=masked)
        np.subtract(scores, np.maximum.reduce(scores, axis=-1, keepdims=True), out=scores)
        np.exp(scores, out=scores)  # masked slots -> exactly 0
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        ctx = np.matmul(scores, values,
                        out=ws.get("attend.ctx", (n_rows, n_heads, chunk, head_dim)))
        context[rows] = ctx.swapaxes(1, 2).reshape(shape)
        return scores

    def decode_step_batch(self, tokens: Sequence[int], positions: Sequence[int],
                          caches_batch: Sequence[list[LayerKVCache]],
                          fused: bool = True) -> np.ndarray:
        """Decode one token for each of ``B`` sequences in one forward pass.

        ``tokens[b]`` is sequence ``b``'s newest token at absolute position
        ``positions[b]``; ``caches_batch[b]`` its per-layer caches.  The dense
        projections (QKV, output, MLP, LM head) run batched over ``B``.

        The rows are grouped by their stacks' ``group_key`` and each group
        takes the step one way, whatever its store: its ``claim()`` before
        any layer writes, then per layer ``step`` -> :meth:`_attend` ->
        ``observe`` (see :mod:`repro.llm.cache`).  A paged group writes its
        new K/V through to its pages and attends its members' decode-slab
        rows, no K/V copied per step, masked past each member's length when
        they differ; an eviction-slab group (``kelle`` and the eviction
        baselines) is one arena call per layer.  The grouping is planned
        once per membership and kept as a :class:`_DecodePlan` while its
        groups hold.  ``fused=False`` makes every row a group of one
        (:meth:`_attend` with ``G = 1``) — the reference path of the
        equivalence tests.  Either way each sequence's logits match its
        batch of one.

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
        stacks = list(caches_batch)
        home = stacks[0][0].plan_home if fused else None
        plan = None if home is None else home.decode_plan
        if plan is None or plan.stacks != stacks or not plan.holds():
            plan = _DecodePlan(stacks, fused)
            if home is not None:
                home.decode_plan = plan
        groups = plan.groups
        for _rows, group in groups:  # every claim before any write
            if group.claim is not None:
                group.claim()
        n_heads = self.config.n_heads
        # Every layer overwrites every row of the one context buffer.
        context = self._ws.get("decode.context", (batch, self.config.d_model))
        for layer in range(self.config.n_layers):
            prefix = f"layers.{layer}"
            normed = self._norm(hidden, f"{prefix}.attn_norm")  # [B, C]
            # One GEMM, viewed head-major: [3H, B, d] = queries | keys | values.
            qkv = (normed @ self._qkv_weight(layer)).reshape(
                batch, 3 * n_heads, self.config.head_dim).transpose(1, 0, 2)
            values_new = qkv[2 * n_heads:].swapaxes(0, 1)  # [B, H, d]
            if self.config.positional == "rope":
                # One rotation of the stacked Q|K heads (RoPE is elementwise).
                qkv = apply_rope(qkv[:2 * n_heads], positions, self._rope_cos,
                                 self._rope_sin)
            query, keys_new = qkv[:n_heads], qkv[n_heads:2 * n_heads].swapaxes(0, 1)
            for rows, group in groups:
                keys, values, masked = group.step(layer, keys_new[rows], values_new[rows],
                                                  normed[rows], positions[rows])
                probs = self._attend(query, rows, keys, values, masked, context, scale)
                if group.observe is not None:
                    group.observe(layer, probs[:, :, 0])
            hidden = hidden + context @ self.params[f"{prefix}.wo"]
            normed = self._norm(hidden, f"{prefix}.mlp_norm")
            hidden = hidden + self._mlp(normed, layer)
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
