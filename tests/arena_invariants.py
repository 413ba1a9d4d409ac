"""The eviction slab's persistent step state against a from-scratch rebuild.

:class:`repro.core.kv_cache.AERPArena` keeps, across operations, what a
decode step would otherwise rebuild over every entry and record: which
entries are protected from eviction (+inf on sinks and on the recent
window, 0 elsewhere), the ring of each row's window entries, and per
sequence the live and x-format record counts.  The
``pending`` flags sit on live records only, so ``fetch`` reads them without
the reference counts.  :func:`assert_persistent_state` recomputes all of it
from the entries and records; the differential tests call it after every
operation of their generated call sequences.
"""

from __future__ import annotations

import numpy as np

from repro.core import kv_cache
from repro.core.kv_cache import AERPArena


def assert_persistent_state(arena: AERPArena, slot: int) -> None:
    seq = arena._seq[slot]
    n, newest = int(seq[kv_cache._COUNT]), int(seq[kv_cache._POSITION])
    if arena._records:
        live = arena._refs[slot] > 0
        assert seq[kv_cache._LIVE] == np.count_nonzero(live)
        assert seq[kv_cache._N_X] == np.count_nonzero(live & arena._stored_x[slot])
        assert not np.any(arena._pending[slot] & ~live), "pending flag on a free record"
    expect = int(seq[kv_cache._EXPECT])
    if expect < 0:  # the protection is rebuilt before it is next used
        return
    assert arena._keyed is not None and expect == newest + 1
    config = arena.config
    window, sink = config.recent_window, config.sink_tokens
    positions = arena._position[slot, :, :n]
    evictable = (positions >= sink) & (positions <= newest - window)
    np.testing.assert_array_equal(arena._protect[slot, :, :n], np.where(evictable, 0.0, np.inf),
                                  err_msg="protection")
    # Every position still to leave the window is a non-sink held once per
    # row, by the entry its ring cell names.
    assert window >= 1 and newest + 1 - window >= sink
    for position in range(newest + 1 - window, newest + 1):
        held = positions == position
        assert np.all(np.count_nonzero(held, axis=1) == 1), position
        entries = arena._ring[slot, :, position % window]
        np.testing.assert_array_equal(positions[arena._rows, entries], position)
