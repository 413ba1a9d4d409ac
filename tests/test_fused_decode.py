"""The fused grouped-attention decode path and fp16 KV pages.

``DecoderLM.decode_step_batch(fused=True)`` groups sequences by compatible
cache layout and runs one length-masked BLAS attention call per layer per
group, over the members' rows of the pool's decode slab.  These tests pin its contract: token-for-token equivalence
with the per-sequence reference (``fused=False``) for every registered cache
policy, through the full serving engine (with prefix cache, speculative
drafters and rollback in the mix), correct group partitioning, decode-slab
rows across cache mutation and release, and the fp16 page storage halving
pool bytes within a bounded accuracy delta.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.kv_pool import KVPagePool, PoolExhausted
from repro.llm.model import _DecodePlan
from repro.registry import resolve
from repro.serve import ServingEngine
from repro.workloads import decode_heavy_requests

from cache_specs import ALL_CACHE_SPECS

#: Ragged prompt lengths used throughout: exercises the length-masked paged
#: path and the unequal-length rows of caches with storage of their own.
RAGGED_LENGTHS = (7, 12, 9, 5)


def _prompts(vocab_size, lengths, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, vocab_size, size=n).tolist() for n in lengths]


def _serve(model, requests, fused, max_concurrency, **options):
    """Serve ``requests``; ``fused=False`` decodes every step per row."""
    engine = ServingEngine(max_concurrency=max_concurrency)
    if fused:
        return engine.run_functional(model, requests, **options)
    model.decode_step_batch = functools.partial(
        type(model).decode_step_batch, model, fused=False)
    try:
        return engine.run_functional(model, requests, **options)
    finally:
        del model.decode_step_batch


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
            reports.append(_serve(small_model, requests, fused, 6, cache=cache,
                                  seed=0, drafter=drafter))
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
            reports.append(_serve(small_model, requests, fused, 5,
                                  cache="paged", seed=0, prefix_cache=True))
        fused_report, ref_report = reports
        ref = {r.request.request_id: tuple(r.generated_tokens)
               for r in ref_report.results}
        for result in fused_report.results:
            assert tuple(result.generated_tokens) == ref[result.request.request_id]


class TestGrouping:
    """Unit coverage of the decode plan's partition into groups."""

    def _caches(self, model, spec):
        return model.make_caches(resolve("cache", spec))

    @staticmethod
    def _partition(batch):
        """``(rows, group class)`` of each group of the batch's decode plan
        (the rows sorted: a placed group orders them by slab slot)."""
        return [(sorted(np.arange(len(batch))[rows].tolist()), type(group).__name__)
                for rows, group in _DecodePlan(batch).groups]

    def test_mixed_kinds_partition(self, small_model):
        paged_factory = resolve("cache", "paged:page_tokens=4")
        full_factory = resolve("cache", "full")
        batch = [small_model.make_caches(paged_factory),
                 small_model.make_caches(paged_factory),
                 small_model.make_caches(full_factory),
                 small_model.make_caches(full_factory),
                 self._caches(small_model, "h2o:budget=8,sink_tokens=2,recent_window=3")]
        assert self._partition(batch) == [  # "full" is a paged pool of its own
            ([0, 1], "PagedGroup"), ([2, 3], "PagedGroup"), ([4], "SlabGroup")]

    def test_separate_pools_do_not_group(self, small_model):
        batch = [small_model.make_caches(resolve("cache", "paged:page_tokens=4"))
                 for _ in range(2)]  # fresh factory each: disjoint pools
        # each stack alone on its pool: a lone paged row each
        assert self._partition(batch) == [([0], "PagedGroup"), ([1], "PagedGroup")]

    def test_paged_stack_with_layers_out_of_step_runs_loose(self, small_model):
        """A decode slot is claimed once for every layer, so only stacks
        whose layers hold equally many tokens group; the other steps cache
        by cache."""
        factory = resolve("cache", "paged:page_tokens=4")
        batch = [small_model.make_caches(factory) for _ in range(3)]
        n_heads, head_dim = small_model.config.n_heads, small_model.config.head_dim
        keys = np.zeros((n_heads, 2, head_dim), dtype=np.float32)
        batch[2][1].prefill(keys, keys, None, None)  # one layer ahead
        assert self._partition(batch) == [([0, 1], "PagedGroup"), ([2], "CacheGroup")]

    def test_unequal_full_lengths_group_by_length(self, small_model):
        """``full`` stacks of one factory share one pool, so unequal lengths
        form one length-masked group rather than one group per length."""
        factory = resolve("cache", "full")
        batch = [small_model.make_caches(factory) for _ in range(4)]
        rng = np.random.default_rng(0)
        head_dim = small_model.config.head_dim
        n_heads = small_model.config.n_heads
        for b, n_tokens in enumerate((3, 5, 3, 2)):
            for cache in batch[b]:
                keys = rng.standard_normal((n_heads, n_tokens, head_dim)).astype(np.float32)
                cache.prefill(keys, keys, None, None)
        assert self._partition(batch) == [([0, 1, 2, 3], "PagedGroup")]  # one ragged group


    def test_dry_pool_raises_before_any_layer_writes(self, small_model):
        """Every group claims before any layer writes: a paged group that
        finds its bounded pool dry raises before the eviction-slab row
        stepped ahead of it in the batch stored anything."""
        kelle = small_model.make_caches(
            resolve("cache", "kelle:budget=8,sink_tokens=2,recent_window=3,refresh=none"))
        paged = resolve("cache", "paged:page_tokens=4,initial_pages=2,grow=false")
        batch = [kelle] + [small_model.make_caches(paged) for _ in range(2)]
        prompts = _prompts(small_model.config.vocab_size, (6, 4, 4), seed=12)
        small_model.prefill_batch(prompts, batch)  # both pages taken, each full
        counts = [[cache.num_tokens for cache in caches] for caches in batch]
        held = [cache.positions() for cache in kelle]
        with pytest.raises(PoolExhausted):
            small_model.decode_step_batch([1, 2, 3], [6, 4, 4], batch)
        assert [[cache.num_tokens for cache in caches] for caches in batch] == counts
        assert [cache.positions() for cache in kelle] == held


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

    def test_slab_values_zero_past_every_length(self, small_model):
        """A ragged group reads every row up to its longest member, so V past
        each row's length stays zero through decode, rollback and release."""
        factory = resolve("cache", "paged:page_tokens=4")
        prompts = _prompts(small_model.config.vocab_size, RAGGED_LENGTHS, seed=11)
        _, _, caches_batch = _greedy_decode(small_model, prompts, factory, 5, fused=True)
        caches_batch[1][0].truncate_stack(caches_batch[1], 4)
        caches_batch[2][0].release_stack(caches_batch[2])
        pool = caches_batch[0][0].pool
        for caches in caches_batch:
            table = caches[0]._table
            if table.row >= 0:
                for cache in caches:
                    assert not pool.slab_values[cache.layer, table.row, :, cache.num_tokens:].any()
        assert not pool.slab_values[:, pool._free_rows].any()

    def test_stale_states_pruned(self, small_model):
        """A finished batch's slab rows go back to the pool's free rows and
        no row belongs to a released table."""
        factory = resolve("cache", "paged:page_tokens=4")
        prompts = _prompts(small_model.config.vocab_size, (6, 6), seed=10)
        _, _, first_batch = _greedy_decode(small_model, prompts, factory, 3,
                                           fused=True)
        pool = first_batch[0][0].pool
        rows = {caches[0]._table.row for caches in first_batch}
        assert rows == {0, 1}  # the decode group's slots
        for caches in first_batch:
            caches[0].release_stack(caches)
        assert rows <= set(pool._free_rows)
        assert all(caches[0]._table.row == -1 for caches in first_batch)
        _, _, second_batch = _greedy_decode(small_model, prompts, factory, 8,
                                            fused=True)
        live = [caches[0]._table for caches in second_batch]
        owners = [ref() for ref in pool._row_tables if ref is not None]
        assert len(owners) == len(live) and all(
            any(owner is table for table in live) for owner in owners)


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
