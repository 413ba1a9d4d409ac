"""Differential test: the array-native AERPCache against the reference oracle.

Random call sequences are driven through ``repro.core.kv_cache.AERPCache`` and
``tests/reference_aerp.py`` (the dict / list / set implementation it replaced);
after every operation all observable state must agree, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_aerp
from repro.core.aerp import AERPConfig
from repro.core.kv_cache import AERPCache
from repro.core.refresh import KVFaultInjector
from repro.llm.functional import softmax

HEAD_DIM = 4
INJECTORS = {
    "none": KVFaultInjector(),
    "decay": KVFaultInjector(0.05, 0.2, 0.1, 0.4),
    "flip": KVFaultInjector(0.02, 0.2, 0.05, 0.3, mode="flip"),
}


def _recompute(n_heads: int, d_model: int):
    projection = np.random.default_rng(99).standard_normal(
        (d_model, 2 * n_heads * HEAD_DIM)).astype(np.float32)

    def recompute(x: np.ndarray, position: int):
        kv = (x[None, :] @ projection)[0] + np.float32(position)
        kv = kv.reshape(2, n_heads, HEAD_DIM)
        return kv[0], kv[1]

    return recompute


def _pair(n_heads: int, config: AERPConfig, injector: str):
    d_model = n_heads * HEAD_DIM
    recompute = _recompute(n_heads, d_model)
    return tuple(cls(n_heads, HEAD_DIM, d_model, config, recompute,
                     injector=INJECTORS[injector], seed=3, layer_index=1)
                 for cls in (AERPCache, reference_aerp.AERPCache))


def _assert_same_state(new: AERPCache, ref: "reference_aerp.AERPCache") -> None:
    assert new.num_tokens == ref.num_tokens
    assert new.eviction_count == ref.eviction_count
    assert new.recompute_count == ref.recompute_count
    assert new.recompute_fraction == ref.recompute_fraction
    assert new.stored_bytes() == ref.stored_bytes()
    for head in range(new.n_heads):
        assert new.tokens_for_head(head) == ref.tokens_for_head(head)
    new_entries, ref_entries = new.entries, ref.entries
    assert list(new_entries) == list(ref_entries)
    # The vectorised HST/LST input must round like the per-entry np.mean.
    np.testing.assert_array_equal(
        new._mean_importance(new._live_rows()),
        np.array([entry.mean_importance() for entry in ref_entries.values()]))
    for token_index, expected in ref_entries.items():
        entry = new_entries[token_index]
        heads = sorted(expected.retaining_heads)
        assert entry.retaining_heads == expected.retaining_heads
        assert new.popularity(token_index) == ref.popularity(token_index)
        for field in ("position", "storage_format", "is_sink", "corrupted",
                      "created_step", "observation_count"):
            assert getattr(entry, field) == getattr(expected, field), field
        np.testing.assert_array_equal(entry.importance[heads], expected.importance[heads])
        assert entry.importance_rate() == expected.importance_rate()
        np.testing.assert_array_equal(entry.x, expected.x)
        np.testing.assert_array_equal(entry.keys, expected.keys)
        np.testing.assert_array_equal(entry.values, expected.values)


def _fetch_both(new, ref):
    fetched_new, fetched_ref = new.fetch(), ref.fetch()
    for got, expected in zip(fetched_new, fetched_ref):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
    return fetched_ref[2]


class _Driver:
    """Applies one operation to both caches, keeping their inputs identical."""

    def __init__(self, new, ref, seed: int) -> None:
        self.new, self.ref = new, ref
        self.rng = np.random.default_rng(seed)
        self.position = 0
        self.fetched: "tuple[int, int] | None" = None  # fetched [H, n] shape

    def _both(self, method: str, *args) -> None:
        for cache in (self.new, self.ref):
            getattr(cache, method)(*(np.copy(a) if isinstance(a, np.ndarray) else a
                                     for a in args))

    def prefill(self, n_ctx: int) -> None:
        h, d, c = self.new.n_heads, self.new.head_dim, self.new.d_model
        keys = self.rng.standard_normal((h, n_ctx, d)).astype(np.float32)
        values = self.rng.standard_normal((h, n_ctx, d)).astype(np.float32)
        inputs = self.rng.standard_normal((n_ctx, c)).astype(np.float32)
        scores = self.rng.standard_normal((h, n_ctx, n_ctx)).astype(np.float32)
        scores += np.triu(np.full((n_ctx, n_ctx), -np.inf, dtype=np.float32), k=1)
        # Coarse probabilities: ties between tokens exercise the tie-breaks.
        probs = np.round(softmax(scores, axis=-1), 1)
        self._both("prefill", keys, values, inputs, probs)
        self.position = n_ctx

    def append(self) -> None:
        h, d, c = self.new.n_heads, self.new.head_dim, self.new.d_model
        key = self.rng.standard_normal((h, d)).astype(np.float32)
        value = self.rng.standard_normal((h, d)).astype(np.float32)
        x = self.rng.standard_normal(c).astype(np.float32)
        self._both("append", key, value, x, self.position)
        self.position += 1

    def fetch(self) -> None:
        self.fetched = _fetch_both(self.new, self.ref).shape

    def observe(self) -> None:
        if self.fetched is None:
            for cache in (self.new, self.ref):
                with pytest.raises(RuntimeError):
                    cache.observe_attention(np.zeros((cache.n_heads, 1)))
            return
        probs = self.rng.random(self.fetched)  # float64: summation order shows
        if self.rng.random() < 0.5:
            probs = np.round(probs, 1).astype(np.float32)  # coarse: ties
        self._both("observe_attention", probs)
        self.fetched = None

    def end_step(self) -> None:
        self._both("end_step")

    def decode_step(self) -> None:
        for op in (self.append, self.fetch, self.observe, self.end_step):
            op()
            _assert_same_state(self.new, self.ref)


OPS = ("append", "fetch", "observe", "end_step", "decode_step", "decode_step", "prefill")


@st.composite
def scenarios(draw):
    budget = draw(st.integers(min_value=2, max_value=10))
    sink = draw(st.integers(min_value=0, max_value=min(3, budget - 1)))
    config = AERPConfig(
        budget=budget, sink_tokens=sink,
        recent_window=draw(st.integers(min_value=0, max_value=budget + 2)),
        popularity_threshold=draw(st.sampled_from([0.25, 0.5, 1.0])),
        recompute_enabled=draw(st.booleans()),
        max_recompute_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])))
    return dict(
        config=config,
        n_heads=draw(st.sampled_from([1, 3, 8])),
        injector=draw(st.sampled_from(sorted(INJECTORS))),
        first_prefill=draw(st.sampled_from([None, budget - 1, budget, budget + 1,
                                            3 * budget + 7])),
        ops=draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=30)),
        seed=draw(st.integers(min_value=0, max_value=2 ** 16)))


def _run(config, n_heads, injector, first_prefill, ops, seed) -> AERPCache:
    new, ref = _pair(n_heads, config, injector)
    driver = _Driver(new, ref, seed)
    if first_prefill:
        driver.prefill(first_prefill)
        _assert_same_state(new, ref)
    for op in ops:
        if op == "prefill":  # a later prefill adds a short block to a live cache
            driver.prefill(int(driver.rng.integers(1, config.budget + 3)))
        else:
            getattr(driver, op)()
        _assert_same_state(new, ref)
    _fetch_both(new, ref)
    _assert_same_state(new, ref)
    return new


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_random_call_sequences_match_reference(scenario):
    _run(**scenario)


@pytest.mark.parametrize("injector", sorted(INJECTORS))
def test_stale_fetch_slow_path_matches_reference(injector):
    """fetch -> append (evicting) -> observe credits only what is still retained."""
    config = AERPConfig(budget=5, sink_tokens=1, recent_window=1, max_recompute_fraction=0.5)
    new, ref = _pair(3, config, injector)
    driver = _Driver(new, ref, seed=5)
    driver.prefill(9)
    for _ in range(6):
        driver.decode_step()
    for _ in range(4):
        driver.fetch()
        driver.append()
        driver.append()
        _assert_same_state(new, ref)
        driver.observe()
        driver.end_step()
        _assert_same_state(new, ref)
    _fetch_both(new, ref)
    assert new.eviction_count > 0


def test_pools_grow_past_initial_capacity():
    """Per-head eviction lets the live-token union outgrow the initial pool."""
    config = AERPConfig(budget=20, sink_tokens=0, recent_window=0, max_recompute_fraction=0.5)
    new, ref = _pair(8, config, "decay")
    driver = _Driver(new, ref, seed=11)
    initial_capacity = new._keys.shape[0]
    # Prompt over the budget: each head keeps its own top-20 of 120 tokens.
    driver.prefill(120)
    _assert_same_state(new, ref)
    for _ in range(12):
        driver.decode_step()
    assert new._keys.shape[0] > initial_capacity
    assert len(new.entries) > initial_capacity


def test_forced_tokens_over_budget():
    """sink + recent window wider than the budget: heads sit above ``budget``."""
    config = AERPConfig(budget=4, sink_tokens=2, recent_window=6)
    new, ref = _pair(3, config, "none")
    driver = _Driver(new, ref, seed=2)
    driver.prefill(12)
    _assert_same_state(new, ref)
    assert new.num_tokens == 8
    for _ in range(5):
        driver.decode_step()
    assert new.num_tokens == 8
