"""Tests for the AERP cache: eviction, protection, recomputation, faults."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aerp import AERPConfig, aerp_cache_factory, budget_for_dataset
from repro.core.importance import ImportanceTracker
from repro.core.kv_cache import AERPCache
from repro.core.refresh import KVFaultInjector
from repro.llm.generation import generate
from repro.llm.functional import softmax


def _make_cache(n_heads=2, head_dim=4, d_model=8, **config_kwargs):
    config = AERPConfig(**{"budget": 6, "sink_tokens": 1, "recent_window": 2,
                           "recompute_enabled": True, **config_kwargs})

    def recompute(x, positions):
        # A deterministic stand-in projection (rows in, rows out): split each
        # x into per-head slices.
        k = np.stack([x[:, :head_dim] * (h + 1) for h in range(n_heads)], axis=1)
        v = np.stack([x[:, head_dim:2 * head_dim] * (h + 1) for h in range(n_heads)], axis=1)
        return k.astype(np.float32), v.astype(np.float32)

    return AERPCache(n_heads, head_dim, d_model, config, recompute, seed=0)


def _append_token(cache, position, rng, scale=1.0):
    key = rng.standard_normal((cache.n_heads, cache.head_dim)).astype(np.float32) * scale
    value = rng.standard_normal((cache.n_heads, cache.head_dim)).astype(np.float32) * scale
    x = rng.standard_normal(cache.d_model).astype(np.float32)
    cache.append(key, value, x, position)
    return key, value


def _observe_uniform(cache):
    keys, values, valid = cache.fetch()
    probs = valid.astype(np.float64)
    probs /= probs.sum(axis=1, keepdims=True)
    cache.observe_attention(probs)
    cache.end_step()
    return keys, values, valid


class TestAERPConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AERPConfig(budget=0)
        with pytest.raises(ValueError):
            AERPConfig(budget=4, sink_tokens=4)
        with pytest.raises(ValueError):
            AERPConfig(popularity_threshold=0.0)

    def test_variants(self):
        config = AERPConfig(budget=32)
        assert not config.without_recomputation().recompute_enabled
        assert config.with_budget(64).budget == 64

    def test_budget_for_dataset_matches_paper(self):
        assert budget_for_dataset("pg19").budget == 2048
        assert budget_for_dataset("wikitext2").budget == 512
        assert budget_for_dataset("piqa").budget == 128
        scaled = budget_for_dataset("pg19", scale=0.05)
        assert scaled.budget == round(2048 * 0.05)
        with pytest.raises(KeyError):
            budget_for_dataset("not-a-dataset")


class TestEviction:
    def test_budget_respected_per_head(self, rng):
        cache = _make_cache()
        for position in range(20):
            _append_token(cache, position, rng)
            _observe_uniform(cache)
        assert cache.num_tokens <= cache.config.budget
        for head in range(cache.n_heads):
            assert len(cache.tokens_for_head(head)) <= cache.config.budget

    def test_sink_tokens_never_evicted(self, rng):
        cache = _make_cache(budget=4, sink_tokens=1, recent_window=1)
        for position in range(15):
            _append_token(cache, position, rng)
            _observe_uniform(cache)
        for head in range(cache.n_heads):
            positions = [cache.entries[t].position for t in cache.tokens_for_head(head)]
            assert 0 in positions  # the sink token survived

    def test_recent_window_protected(self, rng):
        cache = _make_cache(budget=8, sink_tokens=1, recent_window=3)
        last_position = 24
        for position in range(last_position + 1):
            _append_token(cache, position, rng)
            _observe_uniform(cache)
        for head in range(cache.n_heads):
            positions = {cache.entries[t].position for t in cache.tokens_for_head(head)}
            for recent in range(last_position - 2, last_position + 1):
                assert recent in positions

    def test_lowest_importance_token_evicted(self, rng):
        cache = _make_cache(budget=4, sink_tokens=1, recent_window=1, recompute_enabled=False)
        for position in range(4):
            _append_token(cache, position, rng)
        # Manually skew importance: token at position 2 is worthless everywhere.
        keys, values, valid = cache.fetch()
        probs = np.full((cache.n_heads, cache.num_tokens), 0.3)
        for head in range(cache.n_heads):
            slot = cache.tokens_for_head(head).index(2)
            probs[head, slot] = 0.0
        cache.observe_attention(probs)
        cache.end_step()
        _append_token(cache, 4, rng)
        for head in range(cache.n_heads):
            positions = [cache.entries[t].position for t in cache.tokens_for_head(head)]
            assert 2 not in positions

    def test_eviction_counts_tracked(self, rng):
        cache = _make_cache(budget=4, sink_tokens=1, recent_window=1)
        for position in range(10):
            _append_token(cache, position, rng)
            _observe_uniform(cache)
        assert cache.eviction_count > 0


class TestRecomputation:
    def test_popular_tokens_stored_as_input_vectors(self, rng):
        cache = _make_cache(budget=6, sink_tokens=1, recent_window=2, recompute_enabled=True,
                            max_recompute_fraction=1.0)
        for position in range(6):
            _append_token(cache, position, rng)
            _observe_uniform(cache)
        formats = {entry.storage_format for entry in cache.entries.values()}
        assert "x" in formats
        assert cache.recompute_fraction > 0

    def test_fetch_uses_recompute_callback(self, rng):
        cache = _make_cache(budget=6, sink_tokens=1, recent_window=2, recompute_enabled=True,
                            max_recompute_fraction=1.0)
        _append_token(cache, 0, rng)
        keys, values, valid = cache.fetch()
        entry = next(iter(cache.entries.values()))
        if entry.storage_format == "x":
            expected_k, expected_v = cache.recompute_fn(entry.x[None],
                                                        np.array([entry.position]))
            np.testing.assert_allclose(keys[:, 0, :], expected_k[0], atol=1e-5)
            np.testing.assert_allclose(values[:, 0, :], expected_v[0], atol=1e-5)
        assert cache.recompute_count >= 0

    def test_storage_accounting_reflects_format(self, rng):
        recompute = _make_cache(budget=6, recompute_enabled=True, max_recompute_fraction=1.0)
        plain = _make_cache(budget=6, recompute_enabled=False)
        for position in range(6):
            _append_token(recompute, position, rng)
            _append_token(plain, position, rng)
            _observe_uniform(recompute)
            _observe_uniform(plain)
        # x-format stores d_model elements instead of 2*head_dim*n_heads = d_model*2.
        assert recompute.stored_bytes(16) < plain.stored_bytes(16)

    def test_max_recompute_fraction_caps_formats(self, rng):
        cache = _make_cache(budget=8, recompute_enabled=True, max_recompute_fraction=0.25)
        for position in range(8):
            _append_token(cache, position, rng)
            _observe_uniform(cache)
        assert cache.recompute_fraction <= 0.5  # cap plus at most one in-flight entry

    def test_aep_variant_never_recomputes(self, rng):
        cache = _make_cache(budget=6, recompute_enabled=False)
        for position in range(10):
            _append_token(cache, position, rng)
            _observe_uniform(cache)
        assert all(entry.storage_format == "kv" for entry in cache.entries.values())
        assert cache.recompute_count == 0


class TestFaultInjection:
    def test_injector_corrupts_entries_once(self, rng):
        injector = KVFaultInjector(0.5, 0.5, 0.5, 0.5)
        config = AERPConfig(budget=8, sink_tokens=1, recent_window=2, recompute_enabled=False)
        cache = AERPCache(2, 4, 8, config,
                          lambda x, p: (np.zeros((len(x), 2, 4), np.float32),) * 2,
                          injector=injector, seed=0)
        originals = {}
        for position in range(4):
            key, value = _append_token(cache, position, rng)
            originals[position] = key.copy()
            _observe_uniform(cache)
        _observe_uniform(cache)
        corrupted_entries = [e for e in cache.entries.values() if e.corrupted]
        assert corrupted_entries
        changed = any(
            not np.allclose(entry.keys, originals[entry.position])
            for entry in corrupted_entries if entry.position in originals
        )
        assert changed

    def test_noop_injector_leaves_values_untouched(self, rng):
        cache = _make_cache(budget=8, recompute_enabled=False)
        key, value = _append_token(cache, 0, rng)
        for _ in range(3):
            _observe_uniform(cache)
        entry = next(iter(cache.entries.values()))
        np.testing.assert_array_equal(entry.keys, key)


class TestRelease:
    def test_release_drops_storage_and_fetch_fails_loudly(self, rng):
        cache = _make_cache()
        for position in range(9):
            _append_token(cache, position, rng)
            _observe_uniform(cache)
        epoch = cache.write_epoch
        cache.release()
        assert cache.write_epoch == epoch + 1
        assert cache.num_tokens == 0
        held = [name for name, value in vars(cache).items()
                if isinstance(value, np.ndarray) and name != "_heads"]  # arange(n_heads)
        assert held == []
        with pytest.raises(RuntimeError, match="released"):
            cache.fetch()


class TestFunctionalEquivalence:
    def test_large_budget_matches_full_cache_generation(self, small_model, rng):
        """With a budget larger than the sequence, AERP must match the full cache."""
        prompt = rng.integers(0, small_model.config.vocab_size, size=12).tolist()
        reference = generate(small_model, prompt, 8, cache_factory=None)
        config = AERPConfig(budget=64, sink_tokens=2, recent_window=4, recompute_enabled=False)
        result = generate(small_model, prompt, 8, cache_factory=aerp_cache_factory(config))
        assert reference.generated_tokens == result.generated_tokens

    def test_recomputation_is_functionally_exact(self, small_model, rng):
        """Recomputed K/V equal stored K/V, so generations are identical."""
        prompt = rng.integers(0, small_model.config.vocab_size, size=12).tolist()
        stored = generate(small_model, prompt, 8, cache_factory=aerp_cache_factory(
            AERPConfig(budget=64, sink_tokens=2, recent_window=4, recompute_enabled=False)))
        recomputed = generate(small_model, prompt, 8, cache_factory=aerp_cache_factory(
            AERPConfig(budget=64, sink_tokens=2, recent_window=4, recompute_enabled=True,
                       max_recompute_fraction=1.0)))
        assert stored.generated_tokens == recomputed.generated_tokens

    def test_permutation_invariance_of_attention(self, rng):
        """Equations 1-2: slot order does not change the attention output."""
        n, d = 6, 8
        q = rng.standard_normal(d)
        keys = rng.standard_normal((n, d))
        values = rng.standard_normal((n, d))
        perm = rng.permutation(n)
        out = softmax(q @ keys.T) @ values
        out_permuted = softmax(q @ keys[perm].T) @ values[perm]
        np.testing.assert_allclose(out, out_permuted, atol=1e-6)


class TestImportanceTracker:
    def test_accumulation_and_argmin(self):
        tracker = ImportanceTracker(n_heads=1)
        for _ in range(3):
            tracker.add_slot(0)
        tracker.update(0, np.array([0.1, 0.7, 0.2]))
        tracker.update(0, np.array([0.2, 0.6, 0.2]))
        assert tracker.argmin(0) == 0
        np.testing.assert_allclose(tracker.scores(0), [0.3, 1.3, 0.4])

    def test_argmin_with_eligibility_mask(self):
        tracker = ImportanceTracker(n_heads=1)
        for score in (0.1, 0.5, 0.9):
            tracker.add_slot(0, score)
        assert tracker.argmin(0, eligible=np.array([False, True, True])) == 1
        with pytest.raises(ValueError):
            tracker.argmin(0, eligible=np.array([False, False, False]))

    def test_prefill_importance_column_sums(self, rng):
        probs = softmax(rng.standard_normal((2, 5, 5)), axis=-1)
        importance = ImportanceTracker.prefill_importance(probs)
        np.testing.assert_allclose(importance, probs.sum(axis=1))

    def test_shape_validation(self):
        tracker = ImportanceTracker(n_heads=1)
        tracker.add_slot(0)
        with pytest.raises(ValueError):
            tracker.update(0, np.array([0.1, 0.2]))


class TestAERPProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=4, max_value=24), st.integers(min_value=0, max_value=1000))
    def test_cache_never_exceeds_budget(self, budget, seed):
        rng = np.random.default_rng(seed)
        cache = _make_cache(budget=budget, sink_tokens=min(2, budget - 2), recent_window=2)
        for position in range(budget + 15):
            _append_token(cache, position, rng)
            _observe_uniform(cache)
            assert cache.num_tokens <= budget
            assert cache.stored_bytes() >= 0
