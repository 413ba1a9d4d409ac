"""Differential test: the slab-backed eviction baselines against their oracle.

``streaming_llm``, ``h2o`` and ``random`` are victim functions on the shared
fixed-width eviction slab (``repro.core.kv_cache.AERPArena``, one policy row
per sequence).  Generated call sequences — prefills over the budget,
appends, fetch + observe steps, group steps over random subsets of the
caches on one arena (started at one slot, so they grow it), releases and
slot reuse — drive them beside ``tests/reference_eviction.py`` (the
per-cache stores they replaced), one oracle per cache.  After every
operation each cache must hold the same positions with the same scores and
eviction count as its oracle (victims identical), and ``fetch()`` must be
equal after sorting by position, and the slab's protection, window ring and
counters must equal a from-scratch rebuild (``tests/arena_invariants.py``).
``jump`` decode steps skip positions.  The slab overwrites a victim's entry
in place, so observations are fed to each cache in its own fetch order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eviction
from arena_invariants import assert_persistent_state
from repro.baselines import eviction
from repro.core import kv_cache
from repro.llm.functional import softmax
from repro.registry import resolve

HEAD_DIM = 4
SPECS = {"streaming_llm": "StreamingLLMCache", "h2o": "H2OCache", "random": "RandomEvictionCache"}


def _positions(cache) -> np.ndarray:
    """The position of the token in each of the slab cache's entries."""
    return cache._arena._position[cache._slot, 0, :cache.num_tokens]


def _order(cache) -> np.ndarray:
    """The slab cache's entries sorted by (position, token index)."""
    arena, slot, n = cache._arena, cache._slot, cache.num_tokens
    return np.lexsort((arena._token[slot, 0, :n], _positions(cache)))


def _ref_order(ref) -> np.ndarray:
    """The oracle's slots sorted by position (slot order is token order)."""
    return np.argsort(ref._positions_buf[:ref.num_tokens], kind="stable")


def _assert_same_state(new, ref) -> None:
    arena, slot, n = new._arena, new._slot, new.num_tokens
    assert_persistent_state(arena, slot)
    assert n == ref.num_tokens
    assert new.eviction_count == ref.eviction_count
    assert new.stored_bytes() == ref.stored_bytes()
    order, ref_order = _order(new), _ref_order(ref)
    np.testing.assert_array_equal(_positions(new)[order],
                                  np.array(ref._positions, dtype=np.int64)[ref_order])
    np.testing.assert_array_equal(arena._importance[slot, 0, :n][order],
                                  np.array(ref._scores)[ref_order])
    assert new.positions() == ref._positions


class _Pair:
    """One slab cache beside its oracle, fed identical inputs."""

    def __init__(self, new, ref, rng: np.random.Generator) -> None:
        self.new, self.ref, self.rng = new, ref, rng
        self.position = 0

    def inputs(self, count: int):
        h, d, c = self.new.n_heads, HEAD_DIM, self.new.d_model
        return (self.rng.standard_normal((count, h, d)).astype(np.float32),
                self.rng.standard_normal((count, h, d)).astype(np.float32),
                self.rng.standard_normal((count, c)).astype(np.float32))

    def prefill(self, n_ctx: int) -> None:
        keys, values, inputs = self.inputs(n_ctx)
        keys, values = keys.swapaxes(0, 1), values.swapaxes(0, 1)  # [H, N, d]
        scores = self.rng.standard_normal((self.new.n_heads, n_ctx, n_ctx))
        scores += np.triu(np.full((n_ctx, n_ctx), -np.inf), k=1)
        # Coarse probabilities: ties between tokens exercise the tie-breaks.
        probs = np.round(softmax(scores, axis=-1), 1).astype(np.float32)
        for cache in (self.new, self.ref):
            cache.prefill(keys.copy(), values.copy(), inputs.copy(), probs.copy())
        self.position = n_ctx

    def probs(self, n: int) -> np.ndarray:
        probs = self.rng.random((self.new.n_heads, n))  # float64: summation order shows
        if self.rng.random() < 0.5:
            probs = (np.floor(probs * 3) / 4).astype(np.float32)  # coarse: many ties
        return probs

    def check_fetch(self, fetched) -> np.ndarray:
        """Compare a fetch with the oracle's; returns the slab's entry of
        each oracle slot (the two hold the same tokens)."""
        order, ref_order = _order(self.new), _ref_order(self.ref)
        for part, expected in zip(fetched, self.ref.fetch()):
            assert part.dtype == expected.dtype
            np.testing.assert_array_equal(part[:, order], expected[:, ref_order])
        entry_of_slot = np.empty_like(order)
        entry_of_slot[ref_order] = order
        return entry_of_slot

    def decode_step(self) -> None:
        key, value, x = self.inputs(1)
        self.new.append(key[0], value[0], x[0], self.position)
        self.ref.append(key[0].copy(), value[0].copy(), x[0].copy(), self.position)
        self.position += 1
        _assert_same_state(self.new, self.ref)
        entry_of_slot = self.check_fetch(self.new.fetch())
        probs = self.probs(self.ref.num_tokens)
        permuted = np.empty_like(probs)
        permuted[:, entry_of_slot] = probs
        self.new.observe_attention(permuted)
        self.ref.observe_attention(probs)


class _ArenaDriver:
    """Up to four caches of ONE factory (one arena per layer), each beside its
    own oracle; operations pick their targets with ``self.rng``."""

    LAYER = 2

    def __init__(self, spec: str, budget: int, sink: int, window: int, n_heads: int,
                 n_caches: int, first_prefills, seed: int) -> None:
        self.kwargs = dict(budget=budget, sink_tokens=sink, recent_window=window)
        self.policy, self.n_heads = spec, n_heads
        extra = ",seed=5" if spec == "random" else ""
        self.factory = resolve("cache", f"{spec}:budget={budget},sink_tokens={sink},"
                                        f"recent_window={window}{extra}")
        self.rng = np.random.default_rng(seed)
        self.first_prefills = first_prefills
        self.pairs = [self._new_pair() for _ in range(n_caches)]
        self.arena = self.pairs[0].new._arena

    def _new_pair(self) -> _Pair:
        d_model = self.n_heads * HEAD_DIM
        new = self.factory(self.LAYER, self.n_heads, HEAD_DIM, d_model, None)
        oracle = getattr(reference_eviction, SPECS[self.policy])
        extra = {"seed": 5 + self.LAYER} if self.policy == "random" else {}
        ref = oracle(self.n_heads, HEAD_DIM, d_model, **self.kwargs, **extra)
        pair = _Pair(new, ref, np.random.default_rng(int(self.rng.integers(2 ** 16))))
        n_ctx = self.first_prefills[int(self.rng.integers(len(self.first_prefills)))]
        if n_ctx:
            pair.prefill(n_ctx)
        return pair

    def check(self) -> None:
        assert all(pair.new._arena is self.arena for pair in self.pairs)
        for pair in self.pairs:
            _assert_same_state(pair.new, pair.ref)

    def single(self, op: str) -> None:
        pair = self.pairs[int(self.rng.integers(len(self.pairs)))]
        if op == "prefill":  # a later prefill adds a block to a live cache
            pair.prefill(int(self.rng.integers(1, self.kwargs["budget"] + 3)))
        else:
            if op == "jump":  # the position skips ahead of the window
                pair.position += int(self.rng.integers(1, 4))
            pair.decode_step()

    def recreate(self) -> None:
        """Release a sequence and start another on the slot it gives back."""
        index = int(self.rng.integers(len(self.pairs)))
        slot = self.pairs[index].new._slot
        self.pairs[index].new.release()
        with pytest.raises(RuntimeError, match="released"):
            self.pairs[index].new.fetch()
        self.pairs[index] = self._new_pair()
        assert self.pairs[index].new._slot == (slot if len(self.pairs) > 1 else 0)

    def group_step(self) -> None:
        """What ``decode_step_batch`` does for one layer: group a subset of the
        caches by ``group_key`` and step each group with one ``decode_group``
        ``step`` and ``observe`` (which ends the step)."""
        size = int(self.rng.integers(1, len(self.pairs) + 1))
        groups: dict = {}
        for i in self.rng.permutation(len(self.pairs))[:size]:
            new = self.pairs[i].new
            groups.setdefault(new.group_key([new]), []).append(self.pairs[i])
        for group in groups.values():
            caches = [pair.new for pair in group]
            inputs = [pair.inputs(1) for pair in group]
            keys, values, xs = (np.concatenate(part) for part in zip(*inputs))
            positions = np.array([pair.position for pair in group])
            step = caches[0].decode_group([[cache] for cache in caches])
            fetched = step.step(0, keys.copy(), values.copy(), xs.copy(), positions.copy())[:2]
            permuted = np.empty(fetched[0].shape[:3])
            expected = []
            for g, pair in enumerate(group):
                pair.ref.append(keys[g].copy(), values[g].copy(), xs[g].copy(), pair.position)
                pair.position += 1
                entry_of_slot = pair.check_fetch([part[g] for part in fetched])
                probs = pair.probs(pair.ref.num_tokens)
                permuted[g][:, entry_of_slot] = probs
                expected.append(probs)
            step.observe(0, permuted)
            for pair, probs in zip(group, expected):
                pair.ref.observe_attention(probs)
                pair.ref.end_step()
            self.check()


OPS = ("group_step",) * 4 + ("decode_step",) * 2 + ("recreate", "prefill", "jump")


@st.composite
def scenarios(draw):
    budget = draw(st.integers(min_value=2, max_value=10))
    return dict(
        spec=draw(st.sampled_from(sorted(SPECS))),
        budget=budget,
        sink=draw(st.integers(min_value=0, max_value=min(3, budget - 1))),
        window=draw(st.integers(min_value=0, max_value=budget + 2)),
        n_heads=draw(st.sampled_from([1, 3, 8])),
        n_caches=draw(st.integers(min_value=1, max_value=4)),
        # Equal first prefills put several caches on one entry count.
        first_prefills=draw(st.lists(st.sampled_from(
            [None, budget - 1, budget, budget + 1, 3 * budget + 7]), min_size=1, max_size=2)),
        ops=draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=30)),
        seed=draw(st.integers(min_value=0, max_value=2 ** 16)))


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_baselines_on_one_arena_match_their_references(scenario):
    # One initial slot: the 2nd, 3rd and 5th cache grow the slab under live ones.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kv_cache, "_INITIAL_SLOTS", 1)
        _run(**scenario)


def _run(ops, **scenario) -> None:
    driver = _ArenaDriver(**scenario)
    driver.check()
    for op in ops:
        if op == "group_step":
            driver.group_step()
        elif op == "recreate":
            driver.recreate()
        else:
            driver.single(op)
        driver.check()
    for pair in driver.pairs:
        pair.check_fetch(pair.new.fetch())
        pair.new.release()
    arena = driver.arena
    assert sorted(arena._free_slots) == list(range(arena._seq.shape[0])) and not arena._stale


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_handles_keep_their_class_names(spec):
    cache = resolve("cache", f"{spec}:budget=8,sink_tokens=2")(0, 2, HEAD_DIM, 8, None)
    assert type(cache) is getattr(eviction, SPECS[spec])
