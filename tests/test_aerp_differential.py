"""Differential test: the array-native AERPCache against the reference oracle.

Random call sequences are driven through ``repro.core.kv_cache.AERPCache`` and
``tests/reference_aerp.py`` (the dict / list / set implementation it replaced);
after every operation all observable state must agree, bit for bit.  The
second half puts several caches on one ``AERPArena`` and interleaves group
steps, single-cache calls, releases and pool growth, each cache still checked
against an oracle of its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_aerp
from repro.core.aerp import AERPConfig, aerp_cache_factory
from repro.core.kv_cache import AERPArena, AERPCache
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


def _rows(recompute):
    """The oracle's per-entry callback as the rows-in / rows-out ``RecomputeFn``."""

    def recompute_rows(xs: np.ndarray, positions: np.ndarray):
        keys, values = zip(*(recompute(x, int(position))
                             for x, position in zip(xs, positions)))
        return np.stack(keys), np.stack(values)

    return recompute_rows


def _pair(n_heads: int, config: AERPConfig, injector: str):
    d_model = n_heads * HEAD_DIM
    recompute = _recompute(n_heads, d_model)
    return tuple(cls(n_heads, HEAD_DIM, d_model, config, fn,
                     injector=INJECTORS[injector], seed=3, layer_index=1)
                 for cls, fn in ((AERPCache, _rows(recompute)),
                                 (reference_aerp.AERPCache, recompute)))


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
    initial_capacity = new._arena._keys.shape[0]
    # Prompt over the budget: each head keeps its own top-20 of 120 tokens.
    driver.prefill(120)
    _assert_same_state(new, ref)
    for _ in range(12):
        driver.decode_step()
    assert new._arena._keys.shape[0] > initial_capacity
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


# ----------------------------------------------------------------------
# Several sequences on one arena
# ----------------------------------------------------------------------
class _ArenaDriver:
    """Up to six caches of ONE factory (one arena), each beside its own oracle.

    Operations pick their targets with ``self.rng``; every cache is compared
    with its oracle after every operation, so a group step, a release or pool
    growth that leaks into a neighbour shows at once.
    """

    LAYER = 1

    def __init__(self, config: AERPConfig, n_heads: int, injector: str, n_caches: int,
                 first_prefills, seed: int) -> None:
        self.config, self.n_heads, self.injector = config, n_heads, injector
        self.d_model = n_heads * HEAD_DIM
        self.recompute = _recompute(n_heads, self.d_model)
        self.recompute_rows = _rows(self.recompute)  # one object: caches may group
        self.factory = aerp_cache_factory(config, injector=INJECTORS[injector], seed=3)
        self.rng = np.random.default_rng(seed)
        self.first_prefills = first_prefills
        self.pairs = [self._new_pair() for _ in range(n_caches)]
        self.arena = self.pairs[0].new._arena

    def _new_pair(self) -> _Driver:
        new = self.factory(self.LAYER, self.n_heads, HEAD_DIM, self.d_model,
                           self.recompute_rows)
        ref = reference_aerp.AERPCache(self.n_heads, HEAD_DIM, self.d_model, self.config,
                                       self.recompute, injector=INJECTORS[self.injector],
                                       seed=3, layer_index=self.LAYER)
        pair = _Driver(new, ref, seed=int(self.rng.integers(2 ** 16)))
        n_ctx = self.first_prefills[int(self.rng.integers(len(self.first_prefills)))]
        if n_ctx:
            pair.prefill(n_ctx)
        return pair

    def _pick(self) -> _Driver:
        return self.pairs[int(self.rng.integers(len(self.pairs)))]

    def check(self) -> None:
        assert all(pair.new._arena is self.arena for pair in self.pairs)
        for pair in self.pairs:
            _assert_same_state(pair.new, pair.ref)

    # -- single-cache operations on a random member ----------------------
    def single(self, op: str) -> None:
        pair = self._pick()
        if op == "prefill":  # a later prefill adds a short block to a live cache
            pair.prefill(int(self.rng.integers(1, self.config.budget + 3)))
        else:
            getattr(pair, op)()

    def recreate(self) -> None:
        """Retire a sequence — released, or just dropped — and start another
        on the slot and rows it gives back."""
        index = int(self.rng.integers(len(self.pairs)))
        pair = self.pairs[index]
        slot, free_before = pair.new._slot, self.arena._n_free
        if self.rng.random() < 0.5:
            pair.new.release()
            with pytest.raises(RuntimeError, match="released"):
                pair.new.fetch()
            if len(self.pairs) > 1:
                assert self.arena._free_slots[-1] == slot
                assert self.arena._n_free >= free_before
        else:
            pair.new = pair = None  # the last reference: the finalizer queues the slot
            assert self.arena._dropped == [slot]
        self.pairs[index] = self._new_pair()
        assert not self.arena._dropped
        # The slot is taken again; it was the only one if the arena went idle.
        assert self.pairs[index].new._slot == (slot if len(self.pairs) > 1 else 0)

    # -- group steps over a random subset --------------------------------
    def group_step(self, mutate_before_observe: bool = False) -> None:
        """What ``decode_step_batch`` does for one layer: group a subset of
        the caches by ``group_key`` and step each group with one call."""
        size = len(self.pairs)
        if self.rng.random() < 0.5:
            size = int(self.rng.integers(1, size + 1))
        subset = [self.pairs[i] for i in self.rng.permutation(len(self.pairs))[:size]]
        groups: dict = {}
        for pair in subset:
            groups.setdefault(pair.new.group_key(), []).append(pair)
        for group in groups.values():
            caches = [pair.new for pair in group]
            h, d, c = self.n_heads, HEAD_DIM, self.d_model
            keys = self.rng.standard_normal((len(group), h, d)).astype(np.float32)
            values = self.rng.standard_normal((len(group), h, d)).astype(np.float32)
            xs = self.rng.standard_normal((len(group), c)).astype(np.float32)
            positions = np.array([pair.position for pair in group])
            fetched = caches[0].step_group(caches, keys.copy(), values.copy(), xs.copy(),
                                           positions.copy())
            for g, pair in enumerate(group):
                pair.ref.append(keys[g].copy(), values[g].copy(), xs[g].copy(), pair.position)
                pair.position += 1
                for got, expected in zip(fetched, pair.ref.fetch()):
                    assert got.dtype == expected.dtype
                    np.testing.assert_array_equal(got[g], expected)
            self.check()
            if mutate_before_observe:  # one member moves on: its snapshot goes stale
                stale = group[int(self.rng.integers(len(group)))]
                stale.fetched = fetched[2][0].shape
                stale.append()
                stale.fetched = None
            probs = self.rng.random(fetched[2].shape)  # float64: summation order shows
            if self.rng.random() < 0.5:
                probs = np.round(probs, 1).astype(np.float32)  # coarse: ties
            caches[0].observe_group(caches, probs.copy())
            for g, pair in enumerate(group):
                pair.ref.observe_attention(probs[g].copy())
                pair.fetched = None
            self.check()
            if self.rng.random() < 0.7:
                for pair in group:
                    pair.end_step()


ARENA_OPS = ("group_step",) * 6 + ("stale_group_step",) * 2 + (
    "recreate", "append", "fetch", "observe", "end_step", "decode_step", "prefill")


@st.composite
def arena_scenarios(draw):
    scenario = draw(scenarios())
    budget = scenario["config"].budget
    return dict(
        config=scenario["config"], n_heads=scenario["n_heads"], injector=scenario["injector"],
        seed=scenario["seed"],
        n_caches=draw(st.integers(min_value=1, max_value=6)),
        # Equal first prefills put several caches on one slot count (a group
        # of several); 3 * budget + 7 outgrows the row pool.
        first_prefills=draw(st.lists(st.sampled_from(
            [None, budget - 1, budget, budget + 1, 3 * budget + 7]), min_size=1, max_size=2)),
        ops=draw(st.lists(st.sampled_from(ARENA_OPS), min_size=1, max_size=30)))


def _run_arena(config, n_heads, injector, seed, n_caches, first_prefills, ops) -> _ArenaDriver:
    driver = _ArenaDriver(config, n_heads, injector, n_caches, first_prefills, seed)
    driver.check()
    for op in ops:
        if op == "group_step":
            driver.group_step()
        elif op == "stale_group_step":
            driver.group_step(mutate_before_observe=True)
        elif op == "recreate":
            driver.recreate()
        else:
            driver.single(op)
        driver.check()
    for pair in driver.pairs:
        _fetch_both(pair.new, pair.ref)
    driver.check()
    # Everything goes back: no row or slot stays behind a retired sequence,
    # and the last one to leave takes the grown pools with it.
    arena = driver.arena
    for released, pair in enumerate(driver.pairs, 1):
        pair.new.release()
        live = sum(len(other.ref.entries) for other in driver.pairs[released:])
        assert arena._keys.shape[0] - arena._n_free == live
    fresh = AERPArena(arena.n_heads, arena.head_dim, arena.d_model, arena.config)
    assert arena._free_slots == fresh._free_slots and not arena._stale
    assert {name: getattr(arena, name).shape for name in arena._ROW_POOLS + arena._SLOT_POOLS} \
        == {name: getattr(fresh, name).shape for name in arena._ROW_POOLS + arena._SLOT_POOLS}
    return driver


@settings(max_examples=40, deadline=None)
@given(arena_scenarios())
def test_interleaved_sequences_on_one_arena_match_their_references(scenario):
    _run_arena(**scenario)


def test_arena_groups_of_several_grow_the_pools_and_reuse_slots(aerp_group_steps):
    """The hand-picked counterpart of the generated test: six sequences at one
    slot count step as one group while the row pool and the slot pool grow."""
    config = AERPConfig(budget=6, sink_tokens=1, recent_window=2, max_recompute_fraction=0.5)
    driver = _ArenaDriver(config, 3, "decay", n_caches=6, first_prefills=[25, 25, 3], seed=8)
    arena = driver.arena
    assert arena._seq.shape[0] >= 6 and arena._keys.shape[0] > 16  # both grew
    for _ in range(12):
        driver.group_step()
        driver.recreate()
        driver.check()
    # ... and below-budget rows on a count of their own.
    assert max(aerp_group_steps) >= 4 and min(aerp_group_steps) == 1
    assert all(pair.new.eviction_count > 0 for pair in driver.pairs if pair.position > 30)
