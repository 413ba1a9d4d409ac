"""The stateful paged-KV machine kills every seeded bug.

Each one-line mutation of ``tests/seeded_bugs.py`` is patched into the
source and the machine of ``tests/test_paged_kv_stateful.py`` runs against
it, unchanged, within a fixed example budget: the test passes only when the
machine fails.  Shrinking is skipped — the failure is the measurement.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings
from hypothesis.stateful import run_state_machine_as_test

from seeded_bugs import MUTATIONS
from test_paged_kv_stateful import PagedKVMachine

BUDGET = settings(max_examples=200, stateful_step_count=30, deadline=None,
                  derandomize=True, database=None,
                  phases=(Phase.explicit, Phase.generate))


@pytest.mark.slow
@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda mutation: mutation.name)
def test_machine_kills_seeded_bug(mutation, monkeypatch):
    mutation.apply(monkeypatch)
    with pytest.raises(Exception):
        run_state_machine_as_test(PagedKVMachine, settings=BUDGET)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda mutation: mutation.name)
def test_mutation_changes_exactly_one_line(mutation):
    original = getattr(mutation.owner, mutation.method)
    assert mutation.mutant() is not original  # the line was found exactly once
