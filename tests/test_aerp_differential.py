"""Differential test: the fixed-width AERP slab against the reference oracle.

Random call sequences are driven through ``repro.core.kv_cache.AERPCache`` and
``tests/reference_aerp.py`` (the dict / list / set implementation it replaced);
after every operation all observable state must agree, bit for bit, modulo
the order of each head's entries: the slab overwrites a victim's entry in
place, the oracle keeps each head's tokens in token order.  So per head the
two hold the same set of (position, K, V, importance), ``tokens_for_head``
and ``fetch()`` agree after sorting by position, and the driver feeds each
cache the same per-(head, token) probabilities in its own fetch order.  One
scenario in four feeds only zero probabilities, so evictions after in-place
overwrites are decided by the tie rule alone.  The
second half puts several caches on one ``AERPArena`` (started at one slot,
so they grow it) and interleaves group steps, single-cache calls, releases
and slab growth, each cache still checked against an oracle of its own.  A
later prefill the slab's fixed width cannot hold must raise, the sequence
untouched.  After every operation the slab's persistent step state (the
protection, the window ring and the record counters) must also equal a
from-scratch rebuild (``tests/arena_invariants.py``); ``jump`` decode steps
skip positions, so the ring must be rebuilt before the key is trusted.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_aerp
from arena_invariants import assert_persistent_state
from repro.core.aerp import AERPConfig, aerp_cache_factory
from repro.core import kv_cache
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


def _by_position(cache, head: int) -> list[int]:
    """``head``'s token indices sorted by (position, token index)."""
    entries = cache.entries
    return sorted(cache.tokens_for_head(head),
                  key=lambda token: (entries[token].position, token))


def _assert_same_state(new: AERPCache, ref: "reference_aerp.AERPCache") -> None:
    assert_persistent_state(new._arena, new._slot)
    assert new.num_tokens == ref.num_tokens
    assert new.eviction_count == ref.eviction_count
    assert new.recompute_count == ref.recompute_count
    assert new.recompute_fraction == ref.recompute_fraction
    assert new.stored_bytes() == ref.stored_bytes()
    for head in range(new.n_heads):
        assert _by_position(new, head) == _by_position(ref, head)
    new_entries, ref_entries = new.entries, ref.entries
    assert list(new_entries) == list(ref_entries)
    # The vectorised HST/LST input must round like the oracle's per-entry rate.
    rates = new._arena.importance_rates(new._slot)[new._arena.live(new._slot)[0]]
    np.testing.assert_array_equal(
        rates, np.array([ref._importance_rate(entry) for entry in ref_entries.values()]))
    for token_index, expected in ref_entries.items():
        entry = new_entries[token_index]
        heads = sorted(expected.retaining_heads)
        assert entry.retaining_heads == expected.retaining_heads
        for field in ("position", "storage_format", "is_sink", "corrupted",
                      "created_step", "observation_count"):
            assert getattr(entry, field) == getattr(expected, field), field
        np.testing.assert_array_equal(entry.importance[heads], expected.importance[heads])
        np.testing.assert_array_equal(entry.x, expected.x)
        np.testing.assert_array_equal(entry.keys[heads], expected.keys[heads])
        np.testing.assert_array_equal(entry.values[heads], expected.values[heads])


def _orders(new, ref) -> list[np.ndarray]:
    """Per head, the oracle's slot of each of the new cache's entries (the
    two hold the same tokens per head)."""
    orders = []
    for head in range(new.n_heads):
        slot_of = {token: slot for slot, token in enumerate(ref.tokens_for_head(head))}
        orders.append(np.array([slot_of[token] for token in new.tokens_for_head(head)],
                               dtype=np.int64))
    return orders


def _assert_same_fetch(got, expected, orders) -> None:
    """``fetch()`` outputs equal once each head's entries are in oracle order."""
    for part, part_ref in zip(got, expected):
        assert part.dtype == part_ref.dtype
        for head, order in enumerate(orders):
            np.testing.assert_array_equal(part[head, np.argsort(order)], part_ref[head])


def _fetch_both(new, ref):
    """Fetch both; returns the oracle's ``[H, n]`` score shape and each
    head's order."""
    orders = _orders(new, ref)
    fetched_ref = ref.fetch()
    _assert_same_fetch(new.fetch(), fetched_ref, orders)
    return fetched_ref[0].shape[:2], orders


def _permuted(probs: np.ndarray, orders: list[np.ndarray]) -> np.ndarray:
    """``probs`` ``[H, n]`` in oracle slot order, in the new cache's order."""
    return np.stack([probs[head, order] for head, order in enumerate(orders)])


class _Driver:
    """Applies one operation to both caches, keeping their inputs identical."""

    def __init__(self, new, ref, seed: int, ties: bool = False) -> None:
        self.new, self.ref = new, ref
        self.rng = np.random.default_rng(seed)
        #: Feed zero probabilities only, so every importance stays 0 and each
        #: eviction is decided by the tie rule alone.
        self.ties = ties
        self.position = 0
        self.fetched: "tuple[int, int] | None" = None  # fetched [H, n] shape

    def _both(self, method: str, *args) -> None:
        for cache in (self.new, self.ref):
            getattr(cache, method)(*(np.copy(a) if isinstance(a, np.ndarray) else a
                                     for a in args))

    def later_prefill(self, n_ctx: int) -> None:
        """A prefill adding a short block to a live cache.  One that would
        hold more entries than the slab's fixed width must raise and leave
        the sequence as it was (the oracle, which has no width, skips it);
        a block cut to what the width still holds follows."""
        inputs = self._prefill_inputs(n_ctx)
        trial = copy.deepcopy(self.ref)
        trial.prefill(*(np.copy(a) for a in inputs))
        if trial.num_tokens <= self.new._arena.width:
            self._both("prefill", *inputs)
            self.position = n_ctx
            return
        arena, slot = self.new._arena, self.new._slot
        before = [getattr(arena, name)[slot].copy() for name in arena._SLOT_POOLS]
        stale = arena._stale.get(slot)
        with pytest.raises(ValueError, match="slab width"):
            self.new.prefill(*(np.copy(a) for a in inputs))
        for name, array in zip(arena._SLOT_POOLS, before):
            np.testing.assert_array_equal(getattr(arena, name)[slot], array, err_msg=name)
        assert arena._stale.get(slot) is stale
        n_ctx = min(n_ctx, arena.width - self.new.num_tokens)
        if n_ctx > 0:
            self.prefill(n_ctx)

    def _prefill_inputs(self, n_ctx: int) -> tuple[np.ndarray, ...]:
        h, d, c = self.new.n_heads, self.new.head_dim, self.new.d_model
        keys = self.rng.standard_normal((h, n_ctx, d)).astype(np.float32)
        values = self.rng.standard_normal((h, n_ctx, d)).astype(np.float32)
        inputs = self.rng.standard_normal((n_ctx, c)).astype(np.float32)
        scores = self.rng.standard_normal((h, n_ctx, n_ctx)).astype(np.float32)
        scores += np.triu(np.full((n_ctx, n_ctx), -np.inf, dtype=np.float32), k=1)
        # Coarse probabilities: ties between tokens exercise the tie-breaks.
        probs = np.round(softmax(scores, axis=-1), 1)
        if self.ties:
            probs[:] = 0
        return keys, values, inputs, probs

    def prefill(self, n_ctx: int) -> None:
        self._both("prefill", *self._prefill_inputs(n_ctx))
        self.position = n_ctx

    def append(self) -> None:
        h, d, c = self.new.n_heads, self.new.head_dim, self.new.d_model
        key = self.rng.standard_normal((h, d)).astype(np.float32)
        value = self.rng.standard_normal((h, d)).astype(np.float32)
        x = self.rng.standard_normal(c).astype(np.float32)
        self._both("append", key, value, x, self.position)
        self.position += 1

    def fetch(self) -> None:
        self.fetched = _fetch_both(self.new, self.ref)

    def observe(self) -> None:
        if self.fetched is None:
            for cache in (self.new, self.ref):
                with pytest.raises(RuntimeError):
                    cache.observe_attention(np.zeros((cache.n_heads, 1)))
            return
        shape, orders = self.fetched
        probs = self.rng.random(shape)  # float64: summation order shows
        if self.rng.random() < 0.5:
            probs = np.round(probs, 1).astype(np.float32)  # coarse: ties
        if self.ties:
            probs[:] = 0
        self.new.observe_attention(_permuted(probs, orders))
        self.ref.observe_attention(probs.copy())
        self.fetched = None

    def end_step(self) -> None:
        self._both("end_step")

    def decode_step(self) -> None:
        for op in (self.append, self.fetch, self.observe, self.end_step):
            op()
            _assert_same_state(self.new, self.ref)

    def jump(self) -> None:
        """A decode step whose position skips ahead of the window."""
        self.position += int(self.rng.integers(1, 4))
        self.decode_step()


OPS = ("append", "fetch", "observe", "end_step", "decode_step", "decode_step", "prefill", "jump")


@st.composite
def scenarios(draw):
    budget = draw(st.integers(min_value=2, max_value=10))
    sink = draw(st.integers(min_value=0, max_value=min(3, budget - 1)))
    # One scenario in four ties every importance at 0 (see ``_Driver.ties``).
    # Its window leaves old entries eligible beside the tokens written over
    # evicted ones, and its run fills the cache and decodes past the window,
    # so an eviction picks among equal importances after an in-place one:
    # ties go to the oldest token, whatever entry holds it.
    ties = draw(st.integers(min_value=0, max_value=3)) == 0
    recent_window = draw(st.integers(min_value=0, max_value=budget + 2))
    if ties:
        recent_window = min(recent_window, budget - sink - 1)
    config = AERPConfig(
        budget=budget, sink_tokens=sink, recent_window=recent_window,
        popularity_threshold=draw(st.sampled_from([0.25, 0.5, 1.0])),
        recompute_enabled=draw(st.booleans()),
        max_recompute_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])))
    first_prefills = [budget, budget + 1, 3 * budget + 7]
    if not ties:
        first_prefills = [None, budget - 1] + first_prefills
    ops = draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=30))
    return dict(
        config=config,
        n_heads=draw(st.sampled_from([1, 3, 8])),
        injector=draw(st.sampled_from(sorted(INJECTORS))),
        first_prefill=draw(st.sampled_from(first_prefills)),
        ops=ops + ["decode_step"] * (recent_window + 2) if ties else ops,
        seed=draw(st.integers(min_value=0, max_value=2 ** 16)),
        ties=ties)


def _run(config, n_heads, injector, first_prefill, ops, seed, ties=False) -> AERPCache:
    new, ref = _pair(n_heads, config, injector)
    driver = _Driver(new, ref, seed, ties)
    if first_prefill:
        driver.prefill(first_prefill)
        _assert_same_state(new, ref)
    for op in ops:
        if op == "prefill":  # a later prefill adds a short block to a live cache
            driver.later_prefill(int(driver.rng.integers(1, config.budget + 3)))
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
    """Sequences past the slab's slots grow it (its width stays); per-head
    eviction lets each sequence's live-token union outgrow the width."""
    config = AERPConfig(budget=20, sink_tokens=0, recent_window=0, max_recompute_fraction=0.5)
    factory = aerp_cache_factory(config, injector=INJECTORS["decay"], seed=3)
    d_model = 8 * HEAD_DIM
    recompute = _recompute(8, d_model)
    idle = [factory(1, 8, HEAD_DIM, d_model, _rows(recompute))
            for _ in range(kv_cache._INITIAL_SLOTS - 1)]  # held, never written
    drivers = []
    for seed in range(3):
        new = factory(1, 8, HEAD_DIM, d_model, _rows(recompute))
        ref = reference_aerp.AERPCache(8, HEAD_DIM, d_model, config, recompute,
                                       injector=INJECTORS["decay"], seed=3, layer_index=1)
        drivers.append(_Driver(new, ref, seed=11 + seed))
    arena = drivers[0].new._arena
    slots = 2 * kv_cache._INITIAL_SLOTS  # doubled once
    assert arena._keys.shape[:3] == (slots, 8, 20) and idle[0]._arena is arena
    for driver in drivers:
        # Prompt over the budget: each head keeps its own top-20 of 120 tokens.
        driver.prefill(120)
        _assert_same_state(driver.new, driver.ref)
        for _ in range(12):
            driver.decode_step()
        assert len(driver.new.entries) > arena.width
    assert arena._keys.shape[:3] == (slots, 8, 20)


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
            pair.later_prefill(int(self.rng.integers(1, self.config.budget + 3)))
        else:
            getattr(pair, op)()

    def recreate(self) -> None:
        """Retire a sequence — released, or just dropped — and start another
        on the slot it gives back."""
        index = int(self.rng.integers(len(self.pairs)))
        pair = self.pairs[index]
        slot = pair.new._slot
        if self.rng.random() < 0.5:
            pair.new.release()
            with pytest.raises(RuntimeError, match="released"):
                pair.new.fetch()
            if len(self.pairs) > 1:  # the lowest free slot: the next one handed out
                assert self.arena._free_slots[0] == slot
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
        the caches by ``group_key`` and step each group with one
        ``decode_group`` ``step`` and ``observe`` (which ends the step)."""
        size = len(self.pairs)
        if self.rng.random() < 0.5:
            size = int(self.rng.integers(1, size + 1))
        subset = [self.pairs[i] for i in self.rng.permutation(len(self.pairs))[:size]]
        groups: dict = {}
        for pair in subset:
            groups.setdefault(pair.new.group_key([pair.new]), []).append(pair)
        for group in groups.values():
            caches = [pair.new for pair in group]
            h, d, c = self.n_heads, HEAD_DIM, self.d_model
            keys = self.rng.standard_normal((len(group), h, d)).astype(np.float32)
            values = self.rng.standard_normal((len(group), h, d)).astype(np.float32)
            xs = self.rng.standard_normal((len(group), c)).astype(np.float32)
            positions = np.array([pair.position for pair in group])
            step = caches[0].decode_group([[cache] for cache in caches])
            fetched = step.step(0, keys.copy(), values.copy(), xs.copy(), positions.copy())[:2]
            orders = []
            for g, pair in enumerate(group):
                pair.ref.append(keys[g].copy(), values[g].copy(), xs[g].copy(), pair.position)
                pair.position += 1
                orders.append(_orders(pair.new, pair.ref))
                _assert_same_fetch([part[g] for part in fetched], pair.ref.fetch(), orders[g])
            self.check()
            if mutate_before_observe:  # one member moves on: its snapshot goes stale
                stale = group[int(self.rng.integers(len(group)))]
                stale.fetched = (fetched[0][0].shape[:2], None)
                stale.append()
                stale.fetched = None
            probs = self.rng.random(fetched[0].shape[:3])  # float64: summation order shows
            if self.rng.random() < 0.5:
                probs = np.round(probs, 1).astype(np.float32)  # coarse: ties
            step.observe(0, np.stack([
                _permuted(probs[g], order) for g, order in enumerate(orders)]))
            for g, pair in enumerate(group):
                pair.ref.observe_attention(probs[g].copy())
                pair.ref.end_step()
                pair.fetched = None
            self.check()


ARENA_OPS = ("group_step",) * 6 + ("stale_group_step",) * 2 + (
    "recreate", "append", "fetch", "observe", "end_step", "decode_step", "prefill", "jump")


@st.composite
def arena_scenarios(draw):
    scenario = draw(scenarios())
    budget = scenario["config"].budget
    return dict(
        config=scenario["config"], n_heads=scenario["n_heads"], injector=scenario["injector"],
        seed=scenario["seed"],
        n_caches=draw(st.integers(min_value=1, max_value=6)),
        # Equal first prefills put several caches on one slot count (a group
        # of several); 3 * budget + 7 runs far over the budget.
        first_prefills=draw(st.lists(st.sampled_from(
            [None, budget - 1, budget, budget + 1, 3 * budget + 7]), min_size=1, max_size=2)),
        ops=draw(st.lists(st.sampled_from(ARENA_OPS), min_size=1, max_size=30)))


def _run_arena(config, n_heads, injector, seed, n_caches, first_prefills, ops) -> _ArenaDriver:
    # One initial slot: the 2nd, 3rd and 5th cache grow the slab under live ones.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kv_cache, "_INITIAL_SLOTS", 1)
        return _drive_arena(config, n_heads, injector, seed, n_caches, first_prefills, ops)


def _drive_arena(config, n_heads, injector, seed, n_caches, first_prefills,
                 ops) -> _ArenaDriver:
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
    # Everything goes back: no slot stays behind a retired sequence, and the
    # last one to leave takes the grown slab with it.
    arena = driver.arena
    for released, pair in enumerate(driver.pairs, 1):
        pair.new.release()
        assert len(arena._free_slots) == arena._seq.shape[0] - len(driver.pairs) + released \
            or released == len(driver.pairs)
    fresh = AERPArena(arena.n_heads, arena.head_dim, arena.d_model, arena.config)
    assert arena._free_slots == fresh._free_slots and not arena._stale
    assert {name: getattr(arena, name).shape for name in arena._SLOT_POOLS} \
        == {name: getattr(fresh, name).shape for name in arena._SLOT_POOLS}
    return driver


@settings(max_examples=40, deadline=None)
@given(arena_scenarios())
def test_interleaved_sequences_on_one_arena_match_their_references(scenario):
    _run_arena(**scenario)


def test_arena_groups_of_several_grow_the_pools_and_reuse_slots(aerp_group_steps,
                                                                monkeypatch):
    """The hand-picked counterpart of the generated test: six sequences at one
    entry count step as one group on a slab grown from two slots to eight
    while retired slots are reused."""
    monkeypatch.setattr(kv_cache, "_INITIAL_SLOTS", 2)
    config = AERPConfig(budget=6, sink_tokens=1, recent_window=2, max_recompute_fraction=0.5)
    driver = _ArenaDriver(config, 3, "decay", n_caches=6, first_prefills=[25, 25, 3], seed=8)
    arena = driver.arena
    assert arena._seq.shape[0] == arena._keys.shape[0] == 8  # both grew, 2 -> 4 -> 8
    for _ in range(12):
        driver.group_step()
        driver.recreate()
        driver.check()
    # ... and below-budget rows on a count of their own.
    assert max(aerp_group_steps) >= 4 and min(aerp_group_steps) == 1
    assert all(pair.new.eviction_count > 0 for pair in driver.pairs if pair.position > 30)
