"""The scheduler's decode batch can never go stale.

The batch (decode-ready rows, unprefilled rows, finished rows and the lead
row's end) is cached across steps and rebuilt only at the scheduler's one
invalidation point.  A generated interleaving of submissions, steps,
cancellations, brownout decode caps, injected transient faults and an ngram
drafter drives a ``paranoid=True`` session on a small bounded paged pool, so
``Scheduler.check_legal`` compares the cached batch with a rebuild from the
sequence states after every step, and every running sequence's decode-slab
row must hold what its pool pages hold (the tiny model's tokens barely
depend on its K/V, so a stale row would not show in them).  For the same
reason every batched decode call is checked against an oracle that sees K/V:
the logits of its shortest row — the one its group pads most — must match
``forward_full`` over that row's tokens.  At the end every request has
exactly one terminal status and its tokens are a prefix of an isolated
``generate()`` — all of them unless it was cancelled, capped or failed.

``tests/test_seeded_bugs.py`` runs :func:`run_ops` against the serving
mutations of ``tests/seeded_bugs.py`` and requires it to fail.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import DecoderLM, tiny_config
from repro.llm.generation import generate
from repro.serve import Request, ServingEngine

N_REQUESTS = 6
PATTERN = (3, 1, 4, 1, 5, 9, 2, 6)

#: ``(operation, argument)``; a decode cap lands on decoding rows (see
#: :func:`run_ops`) and the batch is checked at once, before a step could
#: invalidate it for another reason.
OPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.integers(1, 3)),
    st.tuples(st.just("step"), st.integers(1, 4)),
    st.tuples(st.just("cancel"), st.integers(0, N_REQUESTS - 1)),
    st.tuples(st.just("cap"), st.integers(1, 6)),
    st.tuples(st.just("uncap"), st.just(0)),
), max_size=24)

#: What one example may vary besides the operations.
CONFIG = dict(ops=OPS, speculate=st.booleans(), faults=st.booleans(),
              chunked=st.booleans())


@functools.lru_cache(maxsize=1)
def _model() -> DecoderLM:
    return DecoderLM(tiny_config("batch-tiny", n_layers=2, d_model=32, n_heads=4,
                                 d_ff=64, vocab_size=16, max_seq_len=64), seed=3)


def _requests() -> list[Request]:
    """Repetitive prompts (the drafter gets accepted), odd-numbered ones at
    the priority a decode cap applies to."""
    requests = []
    for i in range(N_REQUESTS):
        prompt_len = 6 + (3 * i) % 7
        prompt = tuple(PATTERN[(i + t) % 4] for t in range(prompt_len))
        requests.append(Request(f"r{i}", i * 1e-3, prompt_len, 4 + (5 * i) % 7,
                                prompt_tokens=prompt, priority=i % 2))
    return requests


@functools.lru_cache(maxsize=None)
def _isolated(request_id: str) -> tuple[int, ...]:
    request = next(r for r in _requests() if r.request_id == request_id)
    return tuple(generate(_model(), list(request.prompt_tokens),
                          request.decode_len).generated_tokens)


def _check_rows(session) -> None:
    """Each running sequence's slab row holds exactly its paged tokens."""
    for state in session.scheduler.running.values():
        for cache in state.caches or ():
            n = cache.num_tokens
            if cache._table.row < 0 or not n:
                continue
            keys, values = cache.fetch()
            pool, layer = cache.pool, cache.layer
            paged_k = np.concatenate([pool.key_page(p, layer) for p in cache.pages], axis=1)
            paged_v = np.concatenate([pool.value_page(p, layer) for p in cache.pages], axis=1)
            np.testing.assert_array_equal(keys, paged_k[:, :n])
            np.testing.assert_array_equal(values, paged_v[:, :n])


def _checked_decode(session):
    """``decode_step_batch`` of the session's model, checking each call's
    shortest row against ``forward_full`` (see the module docstring)."""
    lm = _model()

    def decode_step_batch(tokens, positions, caches_batch, fused=True):
        logits = type(lm).decode_step_batch(lm, tokens, positions, caches_batch, fused)
        row = int(np.argmin(positions))
        state = next(state for state in session.scheduler.running.values()
                     if state.caches is caches_batch[row])
        history = (list(state.request.prompt_tokens) + state.generated)[:positions[row] + 1]
        assert history[-1] == tokens[row] and len(history) == positions[row] + 1
        np.testing.assert_allclose(logits[row], lm.forward_full(history)[-1],
                                   rtol=1e-4, atol=1e-5)
        return logits

    return decode_step_batch


def run_ops(ops, speculate: bool, faults: bool, chunked: bool) -> None:
    """Drive one session through ``ops``, drain it, and check the outcome."""
    requests = _requests()
    engine = ServingEngine(max_concurrency=3)
    session = engine.start_functional(
        _model(), cache="paged:page_tokens=4", capacity_tokens=40, paranoid=True,
        drafter="ngram:k=3" if speculate else None,
        faults="transient-exec:rate=0.15" if faults else None,
        token_budget=6 if chunked else None)
    for request in requests:  # the isolated runs decode unchecked: cache them first
        _isolated(request.request_id)
    _model().decode_step_batch = _checked_decode(session)
    try:
        _drive(session, engine, requests, ops)
    finally:
        del _model().decode_step_batch


def _drive(session, engine, requests, ops) -> None:
    """Apply ``ops`` to ``session``, drain it, and check every result."""

    def step() -> bool:
        more = session.step()
        _check_rows(session)
        return more

    sent = 0
    for op, arg in ops:
        if op == "submit" and sent < N_REQUESTS:
            session.submit(requests[sent:sent + arg])
            sent = min(sent + arg, N_REQUESTS)
        elif op == "step":
            for _ in range(arg):
                step()
        elif op == "cancel" and arg < sent:
            engine.cancel(requests[arg].request_id)
        elif op == "cap":
            # Submit one request when idle and step until rows decode: a cap
            # on nothing live cannot leave the batch stale.
            if not session.has_work() and sent < N_REQUESTS:
                session.submit(requests[sent:sent + 1])
                sent += 1
            while not session.scheduler.decode_ready() and step():
                pass
            session.cap_decodes(arg)
            session.scheduler.check_legal()
            step()
        elif op == "uncap":
            session.uncap_decodes()
    if sent < N_REQUESTS:
        session.submit(requests[sent:])
    while step():
        pass
    report = session.finish()
    assert sorted(r.request.request_id for r in report.results) == sorted(
        r.request_id for r in requests), "not exactly one terminal status each"
    for result in report.results:
        tokens = tuple(result.generated_tokens)
        expected = _isolated(result.request.request_id)
        assert tokens == expected[:len(tokens)], result.request.request_id
        if result.status == "finished" and not result.truncated:
            assert tokens == expected, result.request.request_id


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**CONFIG)
def test_decode_batch_never_stale(ops, speculate, faults, chunked):
    run_ops(ops, speculate, faults, chunked)
