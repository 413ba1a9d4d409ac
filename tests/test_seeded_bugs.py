"""The stateful paged-KV machine, the generated serving run, the AERP
differential test and the fault sampler's statistical test kill every
seeded bug.

Each one-line mutation of ``tests/seeded_bugs.py`` is patched into the
source and its harness — the machine of ``tests/test_paged_kv_stateful.py``,
the serving run of ``tests/test_decode_batch.py``, the generated call
sequences of ``tests/test_aerp_differential.py`` or the statistical test of
``tests/test_bitops.py`` (which passes on the code as it is) — runs against it,
unchanged, within a fixed example budget: the test passes only when the
harness fails with the mutation's ``kills_with`` (an ``AssertionError`` of
the harness unless declared otherwise), so a harness that raises something
else on any code kills nothing.  Shrinking is skipped — the failure is the
measurement.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, given, settings
from hypothesis.stateful import run_state_machine_as_test

from seeded_bugs import MUTATIONS
from test_aerp_differential import _run, scenarios
from test_bitops import check_sampler_rates
from test_decode_batch import CONFIG, run_ops
from test_paged_kv_stateful import PagedKVMachine

BUDGET = settings(max_examples=200, stateful_step_count=30, deadline=None,
                  derandomize=True, database=None,
                  phases=(Phase.explicit, Phase.generate))
SERVING_BUDGET = settings(max_examples=30, deadline=None, derandomize=True,
                          database=None, phases=(Phase.explicit, Phase.generate))
AERP_BUDGET = settings(max_examples=120, deadline=None, derandomize=True,
                       database=None, phases=(Phase.explicit, Phase.generate))


def _aerp_run(scenario) -> None:
    _run(**scenario)


def _killed_by(harness: str) -> list:
    return [mutation for mutation in MUTATIONS if mutation.harness == harness]


@pytest.mark.slow
@pytest.mark.parametrize("mutation", _killed_by("paged"), ids=lambda mutation: mutation.name)
def test_machine_kills_seeded_bug(mutation, monkeypatch):
    mutation.apply(monkeypatch)
    with pytest.raises(mutation.kills_with):
        run_state_machine_as_test(PagedKVMachine, settings=BUDGET)


@pytest.mark.slow
@pytest.mark.parametrize("mutation", _killed_by("decode-batch"),
                         ids=lambda mutation: mutation.name)
def test_serving_run_kills_seeded_bug(mutation, monkeypatch):
    mutation.apply(monkeypatch)
    with pytest.raises(mutation.kills_with):
        SERVING_BUDGET(given(**CONFIG)(run_ops))()


@pytest.mark.slow
@pytest.mark.parametrize("mutation", _killed_by("aerp"), ids=lambda mutation: mutation.name)
def test_differential_run_kills_seeded_bug(mutation, monkeypatch):
    mutation.apply(monkeypatch)
    # An AssertionError: the differential run caught the mutant (a wrapper
    # that cannot take the generated scenario raises something else).
    with pytest.raises(mutation.kills_with):
        AERP_BUDGET(given(scenarios())(_aerp_run))()


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda mutation: mutation.name)
def test_mutation_changes_exactly_one_line(mutation):
    original = getattr(mutation.owner, mutation.method)
    assert mutation.mutant() is not original  # the line was found exactly once


@pytest.mark.slow
@pytest.mark.parametrize("mutation", _killed_by("sampler"), ids=lambda mutation: mutation.name)
def test_sampler_statistics_kill_seeded_bug(mutation, monkeypatch):
    mutation.apply(monkeypatch)
    with pytest.raises(mutation.kills_with):
        for mode in ("decay", "flip"):  # the statistical test, both modes
            check_sampler_rates(mode)
