"""Algorithmic KV-cache eviction baselines: StreamingLLM, H2O and random.

These are the methods Kelle is compared against in Table 2 of the paper:

* **StreamingLLM** keeps the attention-sink tokens at the start of the
  sequence plus a window of the most recent tokens; everything else is
  dropped as soon as it leaves the window.
* **H2O** keeps "heavy hitter" tokens with the highest accumulated attention
  scores plus the recent window.  Unlike AERP it evicts the *same* token from
  every head (scores are summed over heads) and never recomputes.
* **Random eviction** is a sanity-check baseline that evicts a uniformly
  random unprotected token; it lower-bounds what an importance-aware policy
  should achieve.

Each baseline is a handle on ``kelle``'s fixed-width eviction slab
(:class:`~repro.core.kv_cache.AERPArena`, one per layer and factory) with one
policy row per sequence: entry ``j`` holds one token in every head, scored
by the float64 sum over heads of its attention.  The shared row keeps no
token records (no ``x``): the baselines never recompute or inject faults.
A full sequence overwrites one eligible entry in place, chosen by the
policy's victim function: ``streaming_llm`` the lowest position, ``h2o``
the lowest score (ties to the lowest position), ``random`` one draw of the
cache's generator over the eligible entries in position order.  The
per-cache stores these replaced are the test oracle
(``tests/reference_eviction.py``): victims, positions, scores, eviction
counts and ``fetch()`` sorted by position equal it whenever each fetch is
observed before the next append.
"""

from __future__ import annotations

import numpy as np

from repro.core.aerp import AERPConfig
from repro.core.kv_cache import AERPArena, SlabCache, Victims, first_lowest, lowest_importance
from repro.llm.cache import KVCacheFactory, LayerKVCache, RecomputeFn
from repro.registry import register
from repro.utils.rng import derive_rng


def lowest_position(arena: AERPArena, slots: np.ndarray, eligible: np.ndarray,
                    positions: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """StreamingLLM: the oldest eligible token."""
    return first_lowest(positions, eligible, tokens)


lowest_position.key = "_position"  # the arena's persistent victim key


def random_victims(arena: AERPArena, slots: np.ndarray, eligible: np.ndarray,
                   positions: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """One draw of each sequence's generator over its eligible entries in
    token (position) order."""
    victims = np.empty(eligible.shape[:2], dtype=np.int64)
    for g, slot in enumerate(slots.tolist()):
        entries = np.flatnonzero(eligible[g, 0])
        victims[g, 0] = arena.rngs[slot].choice(entries[np.argsort(tokens[g, 0, entries])])
    return victims


class _SharedTokenCache(SlabCache):
    """A baseline handle: one token set for all heads, no recomputation."""

    victims: Victims = staticmethod(lowest_importance)

    def __init__(self, n_heads: int, head_dim: int, d_model: int, budget: int,
                 sink_tokens: int, recent_window: int, *, arena: AERPArena | None = None) -> None:
        if arena is None:
            arena = self.make_arena(n_heads, head_dim, d_model, budget, sink_tokens, recent_window)
        super().__init__(n_heads, head_dim, d_model, arena)
        self.budget = budget
        self.sink_tokens = sink_tokens
        self.recent_window = recent_window

    @classmethod
    def make_arena(cls, n_heads: int, head_dim: int, d_model: int, budget: int,
                   sink_tokens: int, recent_window: int) -> AERPArena:
        """A slab for caches of this policy (one per layer and factory)."""
        config = AERPConfig(budget=budget, sink_tokens=sink_tokens,
                            recent_window=recent_window, recompute_enabled=False)
        return AERPArena(n_heads, head_dim, d_model, config, victims=cls.victims, shared=True)

    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        keys, values, inputs = (np.asarray(a, dtype=np.float32) for a in (keys, values, inputs))
        n_ctx = keys.shape[1]
        importance = np.asarray(attn_probs, dtype=np.float64).sum(axis=(0, 1))  # [N]
        # One block up to the budget, then one eviction per token, in order.
        fill = max(0, min(n_ctx, self.budget - self.num_tokens))
        retained = np.zeros((1, n_ctx), dtype=bool)
        retained[0, :fill] = True
        self._arena.load(self._slot, keys, values, inputs, importance[None], retained)
        for position in range(fill, n_ctx):
            self._arena.append(self._slots, keys[None, :, position], values[None, :, position],
                               inputs[None, position], np.array([position]),
                               scores=importance[position])

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        elements = 2 * self.num_tokens * self.n_heads * self.head_dim
        return elements * bits_per_element // 8


class StreamingLLMCache(_SharedTokenCache):
    """Sink + recent-window policy (StreamingLLM).  Evicts the oldest non-sink token."""

    victims = staticmethod(lowest_position)


class H2OCache(_SharedTokenCache):
    """Heavy-hitter oracle: evicts the token with the lowest accumulated score."""


class RandomEvictionCache(_SharedTokenCache):
    """Evicts a uniformly random unprotected token (sanity-check baseline)."""

    victims = staticmethod(random_victims)

    def __init__(self, n_heads: int, head_dim: int, d_model: int, budget: int,
                 sink_tokens: int, recent_window: int, seed: int = 0, *,
                 arena: AERPArena | None = None) -> None:
        super().__init__(n_heads, head_dim, d_model, budget, sink_tokens, recent_window,
                         arena=arena)
        self._arena.rngs[self._slot] = derive_rng(seed, "random-eviction")


def _factory(cls: type, budget: int, sink_tokens: int, recent_window: int,
             seed: int | None = None) -> KVCacheFactory:
    """``cls`` handles on one arena per layer (``seed``: layer 0's, if drawing)."""
    arenas: dict[tuple[int, int, int, int], AERPArena] = {}

    def factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                recompute_fn: RecomputeFn) -> LayerKVCache:
        del recompute_fn
        key = (layer_index, n_heads, head_dim, d_model)
        if key not in arenas:
            arenas[key] = cls.make_arena(n_heads, head_dim, d_model, budget, sink_tokens,
                                         recent_window)
        extra = {} if seed is None else {"seed": seed + layer_index}
        return cls(n_heads, head_dim, d_model, budget, sink_tokens, recent_window,
                   arena=arenas[key], **extra)

    return factory


@register("cache", "streaming_llm", "streaming-llm", "slm",
          description="attention sinks + recent window (StreamingLLM)")
def _build_streaming_llm(budget: int = 512, sink_tokens: int = 10,
                         recent_window: int | None = None) -> KVCacheFactory:
    """StreamingLLM factory; by default the window fills the whole budget."""
    window = recent_window if recent_window is not None else max(1, budget - sink_tokens)
    return _factory(StreamingLLMCache, budget, sink_tokens, window)


@register("cache", "h2o", description="heavy-hitter oracle eviction (H2O)")
def _build_h2o(budget: int = 512, sink_tokens: int = 10,
               recent_window: int = 64) -> KVCacheFactory:
    """H2O heavy-hitter factory."""
    return _factory(H2OCache, budget, sink_tokens, recent_window)


@register("cache", "random", description="uniform random eviction (sanity baseline)")
def _build_random(budget: int = 512, sink_tokens: int = 10, recent_window: int = 64,
                  seed: int = 0) -> KVCacheFactory:
    """Random-eviction factory (per-layer derived seeds)."""
    return _factory(RandomEvictionCache, budget, sink_tokens, recent_window, seed=seed)
