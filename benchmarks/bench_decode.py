"""Decode-throughput benchmark: legacy, batched, fused-attention, fp16 KV.

Measures the auto-regressive hot loop across the decode-path generations and
writes ``BENCH_decode.json``:

* ``legacy`` — the pre-contiguous seed baseline: a full KV cache backed by a
  Python list of per-token arrays, re-stacked with ``np.stack`` on every
  fetch (re-implemented here so the regression is measurable forever);
* ``policies`` — cache policies, one sequence at a time and via
  :meth:`DecoderLM.prefill_batch` / :meth:`DecoderLM.decode_step_batch`, the
  latter both with per-row attention (``batched``, ``fused=False``) and on
  the default path the engine runs (``batched_fused``: fused groups for
  ``full``, stacked attention for the eviction caches), plus each policy's
  ``batched_fused`` decode rate relative to ``full``.  The ``kelle`` rows
  come in two sizes: a budget the sequence only outgrows late, and one the
  *prompt* already exceeds, so AERP evicts on every step (reported, not
  guarded);
* ``fused`` — the fused grouped-attention decode path
  (``decode_step_batch(..., fused=True)``, one gathered length-masked BLAS
  attention call per layer per group) against the per-sequence batched
  reference (``fused=False``, the pre-fusion path) for paged, contiguous
  full, and fp16-paged caches at ``B`` sequences per forward pass.  The
  paged/full speedups are the guarded metrics — ratios measured in one
  process, so they port across hosts;
* ``fp16`` — ``paged:dtype=fp16`` KV storage: pool-bytes ratio vs fp32
  (exactly 2x, guarded) and the worst absolute logit delta of a greedy
  decode vs the fp32 paged run (reported, not guarded);
* ``eval`` — teacher-forced forced-decode scoring (the
  :func:`repro.eval.harness.evaluate_dataset` regime), legacy sequential
  harness vs the batched path;
* ``engine`` — the full serving engine on a decode-heavy wave workload
  (:func:`repro.workloads.decode_heavy_requests`) with the fused path on
  vs off, plus a decoded-token identity check between the two (guarded at
  1.0 — fusion must not change a single served token).

Usage::

    PYTHONPATH=src python benchmarks/bench_decode.py            # full run
    PYTHONPATH=src python benchmarks/bench_decode.py --quick    # CI smoke

The committed ``benchmarks/BENCH_decode_baseline.json`` pins the guarded
metrics (its ``guarded`` key); CI runs ``check_bench_regression.py`` against
it and fails on a >20% drop.
"""

from __future__ import annotations

import time

import numpy as np

from _common import bench_main, identity_fraction, report_tokens

from repro.core.kv_pool import KVPagePool
from repro.llm.cache import LayerKVCache
from repro.llm.config import tiny_config
from repro.llm.functional import log_softmax
from repro.llm.model import DecoderLM
from repro.registry import resolve
from repro.serve import ServingEngine
from repro.workloads import decode_heavy_requests


class _LegacyListKVCache(LayerKVCache):
    """The seed repo's list-backed full cache (pre-PR reference for speedups)."""

    def __init__(self, n_heads: int, head_dim: int, d_model: int) -> None:
        super().__init__(n_heads, head_dim, d_model)
        self._keys: list[np.ndarray] = []
        self._values: list[np.ndarray] = []

    def prefill(self, keys, values, inputs, attn_probs):
        del inputs, attn_probs
        for n in range(keys.shape[1]):
            self._keys.append(np.array(keys[:, n, :], dtype=np.float32))
            self._values.append(np.array(values[:, n, :], dtype=np.float32))

    def append(self, key, value, x, position):
        del x, position
        self._keys.append(np.array(key, dtype=np.float32))
        self._values.append(np.array(value, dtype=np.float32))

    def fetch(self):
        keys = np.stack(self._keys, axis=1)
        values = np.stack(self._values, axis=1)
        valid = np.ones((self.n_heads, keys.shape[1]), dtype=bool)
        return keys, values, valid

    def observe_attention(self, probs):
        del probs

    @property
    def num_tokens(self):
        return len(self._keys)

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        elements = 2 * len(self._keys) * self.n_heads * self.head_dim
        return elements * bits_per_element // 8


def _legacy_factory(layer_index, n_heads, head_dim, d_model, recompute_fn):
    del layer_index, recompute_fn
    return _LegacyListKVCache(n_heads, head_dim, d_model)


def _bench_model(prompt_len: int, decode_len: int) -> DecoderLM:
    config = tiny_config("bench-decode", n_layers=4, d_model=64, n_heads=4, d_ff=128,
                         vocab_size=128, max_seq_len=prompt_len + decode_len + 8)
    return DecoderLM(config, seed=0)


def _run_sequential(model, prompts, decode_len, factory,
                    continuations=None) -> tuple[float, float]:
    """(prefill_s, decode_s) for one pass over ``prompts``, one sequence at a time.

    With ``continuations`` the decode phase scores those tokens (teacher
    forcing, the eval-harness regime); otherwise it feeds back greedy picks.
    """
    prefill_s = decode_s = 0.0
    for index, prompt in enumerate(prompts):
        caches = model.make_caches(factory)
        start = time.perf_counter()
        logits = model.prefill(prompt, caches)
        prefill_s += time.perf_counter() - start
        position = len(prompt)
        start = time.perf_counter()
        for step in range(decode_len):
            if continuations is not None:
                token = continuations[index][step]
            else:
                token = int(np.argmax(log_softmax(logits)))
            if step == decode_len - 1:
                break
            logits = model.decode_step(token, position, caches)
            position += 1
        decode_s += time.perf_counter() - start
    return prefill_s, decode_s


def _run_batched(model, prompts, decode_len, factory, continuations=None,
                 fused=True, collect=None) -> tuple[float, float]:
    """(prefill_s, decode_s) for one pass over ``prompts`` as a single batch.

    ``factory`` must be ONE resolved cache factory shared by every sequence:
    paged caches group for fused attention only when they share pools, and a
    per-sequence ``resolve`` call would silently give each its own.  With
    ``collect`` (a list) the greedy token ids of each sequence are appended
    to it, so callers can compare decodes across configurations.
    """
    caches_batch = [model.make_caches(factory) for _ in prompts]
    start = time.perf_counter()
    logits = model.prefill_batch(prompts, caches_batch)
    prefill_s = time.perf_counter() - start
    positions = [len(prompt) for prompt in prompts]
    generated: list[list[int]] = [[] for _ in prompts]
    start = time.perf_counter()
    for step in range(decode_len):
        if continuations is not None:
            tokens = [cont[step] for cont in continuations]
        else:
            tokens = np.argmax(log_softmax(logits, axis=-1), axis=-1).tolist()
            for seq, token in zip(generated, tokens):
                seq.append(int(token))
        if step == decode_len - 1:
            break
        logits = model.decode_step_batch(tokens, positions, caches_batch,
                                         fused=fused)
        positions = [position + 1 for position in positions]
    decode_s = time.perf_counter() - start
    if collect is not None:
        collect.extend(generated)
    return prefill_s, decode_s


def _best_rates(runner, repeats, n_prefill_tokens, n_decode_tokens):
    """Best-of-``repeats`` (prefill tok/s, decode tok/s, end-to-end tok/s)."""
    best = (0.0, 0.0, 0.0)
    for _ in range(repeats):
        prefill_s, decode_s = runner()
        rates = (n_prefill_tokens / prefill_s, n_decode_tokens / decode_s,
                 n_decode_tokens / (prefill_s + decode_s))
        if rates[1] > best[1]:
            best = rates
    return {"prefill_tokens_per_s": best[0], "decode_tokens_per_s": best[1],
            "end_to_end_decode_tokens_per_s": best[2]}


def _show(label, rates):
    print(f"{label:46s}: prefill {rates['prefill_tokens_per_s']:9.0f} tok/s | "
          f"decode {rates['decode_tokens_per_s']:9.0f} tok/s | "
          f"e2e {rates['end_to_end_decode_tokens_per_s']:9.0f} tok/s")


#: Fused-regime cache specs: result-key suffix -> registry spec.  These are
#: the layouts the fused grouped-attention path accelerates (paged pools,
#: equal-length contiguous caches, half-precision pages).
FUSED_SPECS = {
    "paged": "paged:page_tokens=16",
    "full": "full",
    "fp16": "paged:page_tokens=16,dtype=fp16",
}


def run_benchmark(quick: bool, repeats: int, seed: int) -> dict:
    if quick:
        prompt_len, decode_len, batch = 32, 64, 16
        policies = ["full", "h2o:budget=32,sink_tokens=4,recent_window=8",
                    "kelle:budget=24,sink_tokens=4,recent_window=8,refresh=none"]
        n_waves, wave_size, engine_decode = 2, 12, 24
    else:
        prompt_len, decode_len, batch = 64, 128, 32
        policies = [
            "full",
            "streaming_llm:budget=128,sink_tokens=8",
            "h2o:budget=128,sink_tokens=8,recent_window=32",
            "kelle:budget=128,sink_tokens=8,recent_window=32,refresh=none",
            "kelle:budget=48,sink_tokens=4,recent_window=16,refresh=none",
        ]
        n_waves, wave_size, engine_decode = 3, 24, 48

    model = _bench_model(prompt_len, decode_len)
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    prompts = [rng.integers(0, vocab, size=prompt_len).tolist() for _ in range(batch)]
    continuations = [rng.integers(0, vocab, size=decode_len).tolist() for _ in range(batch)]
    n_prefill = batch * prompt_len
    n_decode = batch * decode_len

    results: dict = {
        "config": {
            "model": model.config.name,
            "n_layers": model.config.n_layers,
            "d_model": model.config.d_model,
            "prompt_len": prompt_len,
            "decode_len": decode_len,
            "batch": batch,
            "repeats": repeats,
            "seed": seed,
        },
        "guarded": [
            ["fused", "decode_speedup_fused_vs_per_sequence_batched_paged"],
            ["fused", "decode_speedup_fused_vs_per_sequence_batched_full"],
            ["fp16", "pool_bytes_ratio_fp32_vs_fp16"],
            ["engine", "decode_heavy_speedup_fused_vs_unfused"],
            ["engine", "fused_identical_fraction"],
        ],
        "policies": {},
    }

    # -- legacy list-backed baseline (sequential) -----------------------
    legacy = _best_rates(lambda: _run_sequential(model, prompts, decode_len, _legacy_factory),
                         repeats, n_prefill, n_decode)
    results["legacy"] = {"list_full_sequential": legacy}
    _show("legacy list-backed full cache (seq)", legacy)

    # -- cache policies: sequential and batched (per-sequence attention) --
    for spec in policies:
        factory = resolve("cache", spec)
        sequential = _best_rates(
            lambda: _run_sequential(model, prompts, decode_len, factory),
            repeats, n_prefill, n_decode)
        batched = _best_rates(
            lambda: _run_batched(model, prompts, decode_len, factory, fused=False),
            repeats, n_prefill, n_decode)
        batched_fused = _best_rates(
            lambda: _run_batched(model, prompts, decode_len, factory, fused=True),
            repeats, n_prefill, n_decode)
        entry = {"sequential": sequential, "batched": batched,
                 "batched_fused": batched_fused}
        if spec == "full":
            entry["decode_speedup_sequential_vs_legacy"] = (
                sequential["decode_tokens_per_s"] / legacy["decode_tokens_per_s"])
            entry["decode_speedup_batched_vs_legacy"] = (
                batched["decode_tokens_per_s"] / legacy["decode_tokens_per_s"])
        results["policies"][spec] = entry
        _show(f"{spec} (seq)", sequential)
        _show(f"{spec} (batched B={batch}, per-seq attn)", batched)
        _show(f"{spec} (batched B={batch}, default path)", batched_fused)
    full_rate = results["policies"]["full"]["batched_fused"]["decode_tokens_per_s"]
    for spec, entry in results["policies"].items():
        if spec != "full":
            entry["batched_fused_decode_vs_full"] = (
                entry["batched_fused"]["decode_tokens_per_s"] / full_rate)

    # -- fused grouped attention vs the per-sequence batched reference --
    # One shared factory per spec (shared pools!); fused and unfused passes
    # interleave inside each repeat so host noise hits both sides alike.
    fused_results: dict = {}
    greedy_tokens: dict[str, list[list[int]]] = {}
    for key, spec in FUSED_SPECS.items():
        factory = resolve("cache", spec)
        fused_best = unfused_best = None
        for _ in range(repeats):
            collect: list[list[int]] = []
            fused_rates = _run_batched(model, prompts, decode_len, factory,
                                       fused=True, collect=collect)
            unfused_rates = _run_batched(model, prompts, decode_len, factory,
                                         fused=False)
            if fused_best is None or fused_rates[1] < fused_best[1]:
                fused_best = fused_rates
            if unfused_best is None or unfused_rates[1] < unfused_best[1]:
                unfused_best = unfused_rates
            greedy_tokens[key] = collect
        fused_tps = n_decode / fused_best[1]
        unfused_tps = n_decode / unfused_best[1]
        fused_results[f"decode_tokens_per_s_fused_{key}"] = fused_tps
        fused_results[f"decode_tokens_per_s_per_sequence_{key}"] = unfused_tps
        fused_results[f"decode_speedup_fused_vs_per_sequence_batched_{key}"] = (
            fused_tps / unfused_tps)
        print(f"fused {key:28s} (B={batch}): fused {fused_tps:9.0f} tok/s | "
              f"per-seq {unfused_tps:9.0f} tok/s | "
              f"speedup {fused_tps / unfused_tps:5.2f}x")
    results["fused"] = fused_results

    # -- fp16 KV pages: pool bytes and greedy-decode drift --------------
    geometry = dict(n_heads=model.config.n_heads, head_dim=model.config.head_dim,
                    page_tokens=16, initial_pages=1)
    fp32_pool = KVPagePool(dtype="fp32", **geometry)
    fp16_pool = KVPagePool(dtype="fp16", **geometry)
    drift = sum(1 for a, b in zip(greedy_tokens["paged"], greedy_tokens["fp16"])
                if a != b)
    results["fp16"] = {
        "bytes_per_page_fp32": fp32_pool.bytes_per_page,
        "bytes_per_page_fp16": fp16_pool.bytes_per_page,
        "pool_bytes_ratio_fp32_vs_fp16": (
            fp32_pool.bytes_per_page / fp16_pool.bytes_per_page),
        "greedy_sequences_diverged_vs_fp32": drift,
        "greedy_sequences_total": batch,
    }
    print(f"fp16 pages: {fp16_pool.bytes_per_page} B/page vs fp32 "
          f"{fp32_pool.bytes_per_page} B/page "
          f"({results['fp16']['pool_bytes_ratio_fp32_vs_fp16']:.1f}x); "
          f"{drift}/{batch} greedy sequences diverged")

    # -- eval-harness regime: teacher-forced scoring --------------------
    eval_legacy = _best_rates(
        lambda: _run_sequential(model, prompts, decode_len, _legacy_factory,
                                continuations=continuations),
        repeats, n_prefill, n_decode)
    eval_batched = _best_rates(
        lambda: _run_batched(model, prompts, decode_len, resolve("cache", "full"),
                             continuations=continuations),
        repeats, n_prefill, n_decode)
    results["eval"] = {
        "legacy_sequential_harness": eval_legacy,
        "batched": eval_batched,
        "scored_speedup_batched_vs_legacy_harness": (
            eval_batched["end_to_end_decode_tokens_per_s"]
            / eval_legacy["end_to_end_decode_tokens_per_s"]),
    }
    _show("eval forced-decode legacy harness (seq)", eval_legacy)
    _show(f"eval forced-decode (batched B={batch})", eval_batched)

    # -- full serving engine on a decode-heavy wave workload ------------
    requests = decode_heavy_requests(
        n_waves=n_waves, wave_size=wave_size, prompt_len=prompt_len,
        decode_len=engine_decode, vocab_size=vocab, seed=seed)
    n_tokens = sum(r.decode_len for r in requests)
    best_fused_s = best_unfused_s = None
    reference = fused_report = None
    for _ in range(repeats):
        engine = ServingEngine(max_concurrency=wave_size)
        start = time.perf_counter()
        fused_report = engine.run_functional(model, requests, cache="paged",
                                             seed=seed, fused=True)
        fused_s = time.perf_counter() - start
        engine = ServingEngine(max_concurrency=wave_size)
        start = time.perf_counter()
        unfused_report = engine.run_functional(model, requests, cache="paged",
                                               seed=seed, fused=False)
        unfused_s = time.perf_counter() - start
        reference = report_tokens(unfused_report)
        if best_fused_s is None or fused_s < best_fused_s:
            best_fused_s = fused_s
        if best_unfused_s is None or unfused_s < best_unfused_s:
            best_unfused_s = unfused_s
    results["engine"] = {
        "decode_heavy_tokens_per_s_fused": n_tokens / best_fused_s,
        "decode_heavy_tokens_per_s_unfused": n_tokens / best_unfused_s,
        "decode_heavy_speedup_fused_vs_unfused": best_unfused_s / best_fused_s,
        "fused_identical_fraction": identity_fraction(fused_report, reference),
        "n_requests": len(requests),
    }
    print(f"engine decode-heavy (paged, {len(requests)} reqs): "
          f"fused {n_tokens / best_fused_s:9.0f} tok/s | "
          f"unfused {n_tokens / best_unfused_s:9.0f} tok/s | "
          f"speedup {best_unfused_s / best_fused_s:5.2f}x | "
          f"identical {results['engine']['fused_identical_fraction']:.2f}")

    full = results["policies"].get("full")
    if full is not None:
        print(f"decode speedup vs pre-PR list-backed path: "
              f"{full['decode_speedup_batched_vs_legacy']:.1f}x batched, "
              f"{full['decode_speedup_sequential_vs_legacy']:.1f}x sequential")
    return results


if __name__ == "__main__":
    bench_main(run_benchmark, "BENCH_decode.json", __doc__)
