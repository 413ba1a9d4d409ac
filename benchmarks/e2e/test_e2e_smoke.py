"""Tier-1 smoke test of the end-to-end benchmark (quick geometry, in-process).

Checks what does not depend on timing: the catalogue and ``BENCHMARK.json``
agree with each other and with what a run reports, the contract's limits on
names hold, outputs are correct, counters and digests repeat exactly for one
seed and change with the seed, and the tracer survives a missing method.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import catalog
import harness
from tracer import Tracer, instrument_session
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def quick(name: str, seed: int = 0) -> dict:
    return harness.measure(name, seed, repeats=1, trace=True, quick=True)


@pytest.fixture(scope="module")
def records() -> "dict[str, dict]":
    return {name: quick(name) for name in WORKLOADS}


def test_benchmark_json_is_rendered_from_the_catalogue():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == catalog.benchmark_json(WORKLOADS)


def test_contract_limits():
    spec = catalog.benchmark_json(WORKLOADS)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_every_workload_reports_every_metric_and_nothing_else(records):
    spec = catalog.benchmark_json(WORKLOADS)
    assert set(records) == {w["name"] for w in spec["workloads"]}
    for record in records.values():
        assert set(record["end_to_end"]) == {m["name"]
                                             for m in spec["end_to_end"]}
        assert set(record["per_layer"]) == {m["name"]
                                            for m in spec["per_layer"]}


def test_outputs_are_correct_and_nothing_is_missing(records):
    for name, record in records.items():
        assert record["correct"], (name, record["problems"])
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert record["end_to_end"]["token_identity"]["value"] == 1.0
        assert record["trace_missing"] == [], name
        assert all(m["value"] is not None and m["value"] == m["value"]
                   for m in record["per_layer"].values()), name
        # end-to-end metrics are never 0: the driver divides by their median
        assert all(m["value"] > 0 for m in record["end_to_end"].values()), name


def test_workloads_load_the_layers_they_were_chosen_for(records):
    def calls(name: str, prefix: str) -> int:
        return sum(m["value"] for key, m in records[name]["per_layer"].items()
                   if key.startswith(prefix) and key.endswith(".calls"))

    for name in WORKLOADS:
        aerp, pool = calls(name, "kv_cache."), calls(name, "kv_pool.")
        if name == "kelle-decode":
            assert aerp > 0 and pool == 0
        else:
            assert aerp == 0 and pool > 0
        assert (calls(name, "cluster.") > 0) == (name == "cluster-zipf")
    layers = {name: record["per_layer"] for name, record in records.items()}
    assert layers["decode-heavy"]["radix.insert.calls"]["value"] == 0
    # (evictions need the full geometry: 80 quick requests fit the index)
    assert layers["small-requests"]["radix.insert.calls"]["value"] > 0
    assert layers["prefill-heavy"]["radix.hit_token_share"]["value"] < 0.05
    assert layers["cluster-zipf"]["radix.hit_token_share"]["value"] > 0.2


def test_counters_and_digests_repeat_exactly_for_one_seed(records):
    exact = {m.name for m in catalog.PER_LAYER if m.exact}
    for name, first in records.items():
        second = quick(name)
        assert second["exact"] == first["exact"], name
        differing = [key for key in exact if first["per_layer"][key]["value"]
                     != second["per_layer"][key]["value"]]
        assert not differing, (name, differing)


def test_another_seed_gives_other_inputs(records):
    other = quick("small-requests", seed=1)
    assert other["exact"]["digest"] != records["small-requests"]["exact"]["digest"]


class _Stub:
    """A session whose executor lost a method and whose kv manager is gone."""

    class _Scheduler:
        running: dict = {}

        def admit(self):
            return []

    class _Executor:
        def decode_step(self):
            return "decoded"

    def __init__(self):
        self.scheduler = self._Scheduler()
        self.executor = self._Executor()

    def step(self):
        self.scheduler.admit()
        return self.executor.decode_step()


def test_tracer_reports_a_missing_target_instead_of_raising():
    tracer, stub = Tracer(), _Stub()
    instrument_session(tracer, stub)
    try:
        assert stub.step() == "decoded"
    finally:
        tracer.restore()
    assert "step" not in vars(stub)  # the patch is undone
    spans = tracer.calls_and_self_ms()
    assert spans["engine.step"][0] == 1 and spans["executor.decode_step"][0] == 1
    # renamed or removed targets: listed once, reported as missing, no raise
    assert {"executor.prefill_whole", "scheduler.plan", "kv_manager.reserve",
            "radix.insert", "engine.submit"} <= tracer.missing_spans
    assert any("_Stub.kv not found" in line for line in tracer.missing)
    assert any("_Executor.prefill_whole not found" in line
               for line in tracer.missing)
