"""AERP configuration and cache factories.

The attention-based eviction and recomputation policy (AERP) is configured by
:class:`AERPConfig`; :func:`aerp_cache_factory` adapts it to the cache-factory
interface expected by :meth:`repro.llm.model.DecoderLM.make_caches`.
:func:`budget_for_dataset` reproduces the per-dataset settings of Section 7.1
of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.kv_cache import AERPArena, AERPCache
from repro.core.refresh import KVFaultInjector
from repro.llm.cache import KVCacheFactory, LayerKVCache, RecomputeFn


@dataclass(frozen=True)
class AERPConfig:
    """Parameters of the attention-based eviction and recomputation policy.

    Parameters
    ----------
    budget:
        Maximum number of tokens retained per attention head (the paper's
        ``N'``).
    sink_tokens:
        Number of initial tokens always preserved (the paper keeps 10).
    recent_window:
        Number of most recent tokens protected from eviction.
    popularity_threshold:
        Minimum fraction of heads that must retain a token for it to be stored
        in recomputation (input-vector) format; the paper uses theta > 50%.
    recompute_enabled:
        Disable to obtain the eviction-only policy (the paper's "AEP").
    max_recompute_fraction:
        Upper bound on the fraction of cache entries held in recomputation
        format, preventing the "Over Recomp" regime of Figure 16 (a) where
        the systolic array becomes the bottleneck.
    """

    budget: int = 128
    sink_tokens: int = 10
    recent_window: int = 64
    popularity_threshold: float = 0.5
    recompute_enabled: bool = True
    max_recompute_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.sink_tokens < 0 or self.recent_window < 0:
            raise ValueError("sink_tokens and recent_window must be non-negative")
        if not 0.0 < self.popularity_threshold <= 1.0:
            raise ValueError("popularity_threshold must lie in (0, 1]")
        if not 0.0 <= self.max_recompute_fraction <= 1.0:
            raise ValueError("max_recompute_fraction must lie in [0, 1]")
        if self.budget < self.sink_tokens + 1:
            raise ValueError("budget must exceed the number of sink tokens")

    def without_recomputation(self) -> "AERPConfig":
        """The eviction-only variant (the paper's AEP baseline)."""
        return replace(self, recompute_enabled=False)

    def with_budget(self, budget: int) -> "AERPConfig":
        """Copy with a different per-head token budget."""
        return replace(self, budget=budget)


#: Section 7.1 cache budgets: dataset regime -> (budget N', recent window).
_DATASET_BUDGETS: dict[str, tuple[int, int]] = {
    "piqa": (128, 64),
    "lambada": (128, 64),
    "arc-easy": (128, 64),
    "arc-challenge": (128, 64),
    "wikitext2": (512, 256),
    "triviaqa": (1024, 512),
    "qasper": (1024, 512),
    "pg19": (2048, 1024),
    "cnn-dailymail": (512, 256),
    "truthfulqa": (128, 64),
    "bbq": (128, 64),
}


def budget_for_dataset(dataset: str, scale: float = 1.0) -> AERPConfig:
    """AERP configuration matching the paper's per-dataset settings.

    ``scale`` uniformly shrinks the budget and recent window, which is how the
    tiny-model experiments keep the *ratio* of budget to sequence length
    comparable to the paper while operating on shorter synthetic sequences.
    """
    key = dataset.lower()
    if key not in _DATASET_BUDGETS:
        raise KeyError(f"unknown dataset '{dataset}'; known: {sorted(_DATASET_BUDGETS)}")
    budget, recent = _DATASET_BUDGETS[key]
    scaled_budget = max(12, int(round(budget * scale)))
    scaled_recent = max(4, int(round(recent * scale)))
    sink = 10 if scaled_budget > 20 else 2
    return AERPConfig(budget=scaled_budget, sink_tokens=sink, recent_window=scaled_recent)


def aerp_cache_factory(config: AERPConfig, injector: KVFaultInjector | None = None,
                       seed: int = 0) -> KVCacheFactory:
    """Build a cache factory that creates one :class:`AERPCache` per layer.

    The factory owns one :class:`AERPArena` per layer (created with the first
    cache of that layer and geometry); every cache it builds is a sequence
    slot of it, which is what lets a decode group be stepped as one.
    """
    arenas: dict[tuple[int, int, int, int], AERPArena] = {}

    def factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                recompute_fn: RecomputeFn) -> LayerKVCache:
        key = (layer_index, n_heads, head_dim, d_model)
        if key not in arenas:
            arenas[key] = AERPArena(n_heads, head_dim, d_model, config)
        return AERPCache(
            n_heads=n_heads,
            head_dim=head_dim,
            d_model=d_model,
            config=config,
            recompute_fn=recompute_fn,
            injector=injector,
            seed=seed,
            layer_index=layer_index,
            arena=arenas[key],
        )

    return factory
