"""The fused grouped-attention decode path and fp16 KV pages.

``DecoderLM.decode_step_batch(fused=True)`` groups sequences by compatible
cache layout and runs one gathered, length-masked BLAS attention call per
layer per group.  These tests pin its contract: token-for-token equivalence
with the per-sequence reference (``fused=False``) for every registered cache
policy, through the full serving engine (with prefix cache, speculative
drafters and rollback in the mix), correct group partitioning, incremental
group-buffer invalidation on cache mutation, and the fp16 page storage
halving pool bytes within a bounded accuracy delta.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kv_pool import KVPagePool
from repro.registry import resolve
from repro.serve import ServingEngine
from repro.workloads import decode_heavy_requests

from cache_specs import ALL_CACHE_SPECS

#: Ragged prompt lengths used throughout: exercises the length-masked paged
#: path and splits contiguous caches into unequal-length groups.
RAGGED_LENGTHS = (7, 12, 9, 5)


def _prompts(vocab_size, lengths, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, vocab_size, size=n).tolist() for n in lengths]


def _greedy_decode(model, prompts, factory, steps, fused):
    """(tokens, stacked logits, caches_batch) of a greedy batched decode.

    ``factory`` must be one shared resolved factory — paged caches only
    group for fused attention when their layers share pools.
    """
    caches_batch = [model.make_caches(factory) for _ in prompts]
    logits = model.prefill_batch(prompts, caches_batch)
    tokens = [int(np.argmax(row)) for row in logits]
    positions = [len(prompt) for prompt in prompts]
    generated = [list(tokens)]
    trace = [logits]
    for _ in range(steps):
        logits = model.decode_step_batch(tokens, positions, caches_batch,
                                         fused=fused)
        tokens = [int(np.argmax(row)) for row in logits]
        positions = [position + 1 for position in positions]
        generated.append(list(tokens))
        trace.append(logits)
    return generated, np.stack(trace), caches_batch


class TestFusedMatchesPerSequence:
    @pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
    def test_ragged_batch_token_identical(self, small_model, spec):
        factory = resolve("cache", spec)
        prompts = _prompts(small_model.config.vocab_size, RAGGED_LENGTHS)
        fused_tokens, fused_logits, _ = _greedy_decode(
            small_model, prompts, factory, 10, fused=True)
        ref_tokens, ref_logits, _ = _greedy_decode(
            small_model, prompts, factory, 10, fused=False)
        assert fused_tokens == ref_tokens
        np.testing.assert_allclose(fused_logits, ref_logits, atol=1e-5)

    @pytest.mark.parametrize("spec", ALL_CACHE_SPECS)
    def test_uniform_batch_token_identical(self, small_model, spec):
        factory = resolve("cache", spec)
        prompts = _prompts(small_model.config.vocab_size, (9, 9, 9), seed=5)
        fused_tokens, fused_logits, _ = _greedy_decode(
            small_model, prompts, factory, 8, fused=True)
        ref_tokens, ref_logits, _ = _greedy_decode(
            small_model, prompts, factory, 8, fused=False)
        assert fused_tokens == ref_tokens
        np.testing.assert_allclose(fused_logits, ref_logits, atol=1e-5)

    def test_paged_accounting_clean_after_fused_decode(self, small_model):
        factory = resolve("cache", "paged:page_tokens=4")
        prompts = _prompts(small_model.config.vocab_size, RAGGED_LENGTHS)
        _, _, caches_batch = _greedy_decode(small_model, prompts, factory, 10,
                                            fused=True)
        pools = {id(c.pool): c.pool for caches in caches_batch for c in caches}
        for pool in pools.values():
            pool.check_accounting()
        for caches in caches_batch:
            for cache in caches:
                cache.release()
        for pool in pools.values():
            pool.check_accounting()
            assert pool.n_referenced == 0


class TestEngineTokenIdentity:
    """The serving engine must serve byte-identical tokens with fusion on or
    off — across cache layouts, prefix caching, and speculative decoding
    (whose rollbacks stress the incremental-buffer invalidation)."""

    @pytest.mark.parametrize("cache", ["paged", "full",
                                       "paged:page_tokens=8,dtype=fp16"])
    @pytest.mark.parametrize("drafter", [None, "ngram:k=4"])
    def test_decode_heavy_identical(self, small_model, cache, drafter):
        requests = decode_heavy_requests(
            n_waves=2, wave_size=6, prompt_len=8, decode_len=10,
            vocab_size=small_model.config.vocab_size, seed=2)
        reports = []
        for fused in (True, False):
            engine = ServingEngine(max_concurrency=6)
            reports.append(engine.run_functional(
                small_model, requests, cache=cache, seed=0, drafter=drafter,
                fused=fused))
        fused_report, ref_report = reports
        ref = {r.request.request_id: tuple(r.generated_tokens)
               for r in ref_report.results}
        assert len(fused_report.results) == len(requests)
        for result in fused_report.results:
            assert tuple(result.generated_tokens) == ref[result.request.request_id]

    def test_prefix_cache_identical(self, small_model):
        requests = decode_heavy_requests(
            n_waves=2, wave_size=5, prompt_len=12, decode_len=8,
            vocab_size=small_model.config.vocab_size, seed=4)
        reports = []
        for fused in (True, False):
            engine = ServingEngine(max_concurrency=5)
            reports.append(engine.run_functional(
                small_model, requests, cache="paged", seed=0,
                prefix_cache=True, fused=fused))
        fused_report, ref_report = reports
        ref = {r.request.request_id: tuple(r.generated_tokens)
               for r in ref_report.results}
        for result in fused_report.results:
            assert tuple(result.generated_tokens) == ref[result.request.request_id]


class TestGrouping:
    """Unit coverage of the layout partition behind the fused path."""

    def _caches(self, model, spec):
        return model.make_caches(resolve("cache", spec))

    def test_mixed_kinds_partition(self, small_model):
        paged_factory = resolve("cache", "paged:page_tokens=4")
        full_factory = resolve("cache", "full")
        batch = [small_model.make_caches(paged_factory),
                 small_model.make_caches(paged_factory),
                 small_model.make_caches(full_factory),
                 small_model.make_caches(full_factory),
                 self._caches(small_model, "h2o:budget=8,sink_tokens=2,recent_window=3")]
        paged_groups, contig_groups, loose = \
            small_model._fused_decode_groups(batch)
        assert paged_groups == [[0, 1]]
        assert contig_groups == [[2, 3]]  # both empty: equal num_tokens
        assert loose == [4]

    def test_separate_pools_do_not_group(self, small_model):
        batch = [small_model.make_caches(resolve("cache", "paged:page_tokens=4"))
                 for _ in range(2)]  # fresh factory each: disjoint pools
        paged_groups, _, loose = small_model._fused_decode_groups(batch)
        assert paged_groups == []  # singletons fall back per-sequence
        assert sorted(loose) == [0, 1]

    def test_paged_stack_with_layers_out_of_step_runs_loose(self, small_model):
        """A decode slot is claimed once for every layer, so only stacks
        whose layers hold equally many tokens group."""
        factory = resolve("cache", "paged:page_tokens=4")
        batch = [small_model.make_caches(factory) for _ in range(3)]
        n_heads, head_dim = small_model.config.n_heads, small_model.config.head_dim
        keys = np.zeros((n_heads, 2, head_dim), dtype=np.float32)
        batch[2][1].prefill(keys, keys, None, None)  # one layer ahead
        paged_groups, _, loose = small_model._fused_decode_groups(batch)
        assert paged_groups == [[0, 1]] and loose == [2]

    def test_unequal_full_lengths_group_by_length(self, small_model):
        factory = resolve("cache", "full")
        batch = [small_model.make_caches(factory) for _ in range(4)]
        rng = np.random.default_rng(0)
        head_dim = small_model.config.head_dim
        n_heads = small_model.config.n_heads
        for b, n_tokens in enumerate((3, 5, 3, 2)):
            for cache in batch[b]:
                keys = rng.standard_normal((n_heads, n_tokens, head_dim)).astype(np.float32)
                cache.prefill(keys, keys, None, None)
        _, contig_groups, loose = small_model._fused_decode_groups(batch)
        assert contig_groups == [[0, 2]]  # the two length-3 sequences
        assert sorted(loose) == [1, 3]


class TestBufferInvalidation:
    """Rollback/release must invalidate the persistent group buffers."""

    def test_truncate_bumps_write_epoch(self, small_model):
        for spec in ("full", "paged:page_tokens=4", "paged:page_tokens=4,dtype=fp16"):
            factory = resolve("cache", spec)
            prompts = _prompts(small_model.config.vocab_size, (6, 6), seed=8)
            _, _, caches_batch = _greedy_decode(small_model, prompts, factory, 4,
                                                fused=True)
            cache = caches_batch[0][0]
            before = cache.write_epoch
            cache.truncate(cache.num_tokens - 2)
            assert cache.write_epoch > before
            cache.release()
            assert cache.write_epoch > before + 1

    @pytest.mark.parametrize("spec", ["full", "paged:page_tokens=4",
                                      "paged:page_tokens=4,dtype=fp16"])
    def test_rollback_replay_token_identical(self, small_model, spec):
        """Decode fused, roll every sequence back, replay — the buffers must
        restack instead of serving pre-rollback K/V."""
        factory = resolve("cache", spec)
        prompts = _prompts(small_model.config.vocab_size, (8, 11), seed=9)
        reference, _, _ = _greedy_decode(small_model, prompts, factory, 12,
                                         fused=False)

        caches_batch = [small_model.make_caches(factory) for _ in prompts]
        logits = small_model.prefill_batch(prompts, caches_batch)
        tokens = [int(np.argmax(row)) for row in logits]
        positions = [len(prompt) for prompt in prompts]
        generated = [list(tokens)]
        history = []  # (tokens, positions) per step, for the replay
        step = 0
        while len(generated) <= 12:
            history.append((list(tokens), list(positions)))
            logits = small_model.decode_step_batch(tokens, positions,
                                                   caches_batch, fused=True)
            tokens = [int(np.argmax(row)) for row in logits]
            positions = [position + 1 for position in positions]
            generated.append(list(tokens))
            step += 1
            if step == 6:
                # Roll every sequence back 3 tokens and replay those steps.
                for caches in caches_batch:
                    for cache in caches:
                        cache.truncate(cache.num_tokens - 3)
                del generated[-3:]
                replay, history = history[-3:], history[:-3]
                for old_tokens, old_positions in replay:
                    history.append((old_tokens, old_positions))
                    logits = small_model.decode_step_batch(
                        old_tokens, old_positions, caches_batch, fused=True)
                    generated.append([int(np.argmax(row)) for row in logits])
                tokens = list(generated[-1])
                positions = [p + 1 for p in replay[-1][1]]
        assert generated == reference

    def test_stale_states_pruned(self, small_model):
        factory = resolve("cache", "paged:page_tokens=4")
        prompts = _prompts(small_model.config.vocab_size, (6, 6), seed=10)
        _, _, first_batch = _greedy_decode(small_model, prompts, factory, 3,
                                           fused=True)
        assert small_model._fused_states  # buffers live for the first batch
        # A different batch decodes for > the pruning horizon; the first
        # batch's exact membership never recurs, so its states must go.
        _, _, _ = _greedy_decode(small_model, prompts, factory, 8, fused=True)
        first_ids = {id(cache) for caches in first_batch for cache in caches}
        for _, members in small_model._fused_states:
            assert not first_ids & set(members)


class TestFp16Pages:
    def test_fp16_halves_pool_bytes(self):
        geometry = dict(n_heads=4, head_dim=8, page_tokens=16, initial_pages=4)
        fp32 = KVPagePool(dtype="fp32", **geometry)
        fp16 = KVPagePool(dtype="fp16", **geometry)
        assert fp16.bytes_per_page * 2 == fp32.bytes_per_page

    def test_fp16_accuracy_delta_bounded(self, small_model):
        """fp16 page storage drifts from fp32 by at most the documented
        bound at this scale (measured ~2e-5; bound leaves 40x margin)."""
        prompts = _prompts(small_model.config.vocab_size, RAGGED_LENGTHS)
        _, fp32_logits, _ = _greedy_decode(
            small_model, prompts, resolve("cache", "paged:page_tokens=4"),
            12, fused=True)
        _, fp16_logits, _ = _greedy_decode(
            small_model, prompts,
            resolve("cache", "paged:page_tokens=4,dtype=fp16"), 12, fused=True)
        assert np.max(np.abs(fp32_logits - fp16_logits)) < 1e-3

    def test_fp16_round_trips_through_pool(self):
        pool = KVPagePool(n_heads=2, head_dim=4, page_tokens=4, dtype="fp16")
        page = pool.alloc()
        key = np.random.default_rng(0).standard_normal((2, 4)).astype(np.float32)
        pool.key_page(page)[:, 0] = key
        stored = pool.key_page(page)[:, 0].astype(np.float32)
        np.testing.assert_array_equal(stored, key.astype(np.float16).astype(np.float32))
        pool.release(page)
        pool.check_accounting()
