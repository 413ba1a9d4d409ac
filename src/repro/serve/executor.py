"""Model-execution layer: batched forwards, per-token events, streaming.

This is the *compute* layer of the serving core's three-layer split.  A
:class:`ModelExecutor` turns one :class:`~repro.serve.scheduler.
ScheduleDecision` into batched model calls —
:meth:`~repro.llm.model.DecoderLM.prefill_batch` for whole prompts, one
:meth:`~repro.llm.model.DecoderLM.forward_chunks` for all of a step's
prefill chunks, :meth:`~repro.llm.model.DecoderLM.decode_step_batch` for
plain decode, and :meth:`~repro.llm.model.DecoderLM.verify_chunk_batch` for
speculative verification with KV rollback — and emits a :class:`TokenEvent`
for every generated token.

The event stream is the engine's streaming surface: the ``on_token``
callback fires the moment a token exists (first token at prefill
completion, each accepted/emitted token per decode step), and the engine
checks cancellation between steps, so a consumer can stream partial output
and abort mid-decode without waiting for the request to finish.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.llm.speculate import accept_greedy

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.llm.model import DecoderLM
    from repro.serve.kv_manager import KVSpaceManager
    from repro.serve.scheduler import SequenceState

#: Streaming callback signature: called once per generated token, in the
#: order tokens are produced within a step.
OnToken = Callable[["TokenEvent"], None]


@dataclass(frozen=True)
class TokenEvent:
    """One generated token, emitted to the streaming callback."""

    request_id: str
    token: int
    #: 0-based index of this token within the request's generated stream.
    index: int
    #: Engine decode-step counter when the token was produced.
    step: int
    #: Whether this token completes the request.
    finished: bool


@dataclass
class StepOutcome:
    """What one executor step did (the engine folds this into its report)."""

    decoded: bool = False
    batch: int = 0
    spec_proposed: int = 0
    spec_accepted: int = 0


class ModelExecutor:
    """Executes schedule decisions against a :class:`DecoderLM`."""

    def __init__(self, lm: "DecoderLM", kv: "KVSpaceManager",
                 on_token: OnToken | None = None, fused: bool = True) -> None:
        self.lm = lm
        self.kv = kv
        self.on_token = on_token
        #: Drive the fused grouped-attention decode path (sequences whose
        #: caches cannot expose a fused layout fall back per-sequence
        #: automatically inside ``decode_step_batch``).
        self.fused = fused
        #: Chaos hook (``repro.serve.faults.FaultGate``): when armed, each
        #: forward first draws per sequence and may raise a retryable
        #: :class:`~repro.serve.faults.TransientExecutorError`.
        self.fault_gate = None
        #: Session clock for the gate's draws (advanced by the session, so a
        #: retried request redraws instead of failing forever).
        self.fault_clock = 0

    def _maybe_fail(self, states: "list[SequenceState]") -> None:
        """Raise an injected transient failure *before* any KV mutation."""
        if self.fault_gate is None:
            return
        from repro.serve.faults import TransientExecutorError

        for state in states:
            if self.fault_gate.fires(state.request_id, self.fault_clock):
                raise TransientExecutorError(state.request_id, self.fault_clock)

    # -- events ----------------------------------------------------------
    def _emit(self, state: "SequenceState", token: int, step: int) -> None:
        if self.on_token is None:
            return
        self.on_token(TokenEvent(
            request_id=state.request_id, token=token,
            index=len(state.generated) - 1, step=step,
            finished=state.decode_remaining <= 0))

    def _finish_prefill(self, state: "SequenceState", logits: np.ndarray,
                        step: int, now: float) -> None:
        """Mark a sequence fully prefilled: first token, TTFT, radix insert.

        A resumed (post-preemption) sequence recomputed its generated prefix
        instead of prefilling a prompt, so its next input is the preserved
        last token — nothing new is emitted and nothing enters the radix
        index (the target is not a prompt).
        """
        state.position = len(state.prefill_target)
        if state.resume_next_input is not None:
            state.next_input = state.resume_next_input
            state.resume_next_input = None
            return
        state.next_input = int(np.argmax(logits))
        state.generated.append(state.next_input)
        state.ttft_s = now - state.admitted_wall
        state.first_token_step = step
        # Snapshot the prompt's KV state (zero-copy CoW forks for the paged
        # cache) so later requests can reuse the shared prefix.
        self.kv.snapshot(state)
        self._emit(state, state.next_input, step)

    # -- prefill ---------------------------------------------------------
    def prefill_whole(self, states: "list[SequenceState]", step: int) -> None:
        """One batched whole-target prefill for every fresh sequence."""
        if not states:
            return
        self._maybe_fail(states)
        logits = self.lm.prefill_batch([s.prefill_target for s in states],
                                       [s.caches for s in states])
        now = time.perf_counter()
        for row, state in enumerate(states):
            state.prefilled = len(state.prefill_target)
            self._finish_prefill(state, logits[row], step, now)
            self.kv.sync(state, state.position)

    def prefill_chunks(self, chunks: "list[tuple[SequenceState, int]]",
                       step: int) -> None:
        """Chunked prefill: every sequence's budgeted chunk in one forward.

        The model call is shared; the bookkeeping after it stays per state
        in list order, so radix inserts, LRU ticks and page accounting
        happen in the order a per-sequence loop would produce.
        """
        if not chunks:
            return
        self._maybe_fail([state for state, _ in chunks])
        logits = self.lm.forward_chunks(
            [state.prefill_target[state.prefilled:state.prefilled + chunk]
             for state, chunk in chunks],
            [state.prefilled for state, _ in chunks],
            [state.caches for state, _ in chunks])
        for row, (state, chunk) in enumerate(chunks):
            state.prefilled += chunk
            if state.prefilled == len(state.prefill_target):
                self._finish_prefill(state, logits[row], step, time.perf_counter())
            self.kv.sync(state, state.cached_tokens)

    # -- decode / speculative verify -------------------------------------
    def decode_step(self, active: "list[SequenceState]", step: int,
                    spec_on: bool) -> StepOutcome:
        """One batched decode (or speculative verify) step for ``active``.

        Sequences that finished prefilling *this* step join with an empty
        proposal list: their chunk is just the next input token.
        """
        outcome = StepOutcome(batch=len(active))
        if not active:
            return outcome
        self._maybe_fail(active)
        outcome.decoded = True
        if spec_on:
            chunks = [[state.next_input, *state.proposals] for state in active]
            logits_list = self.lm.verify_chunk_batch(
                chunks, [state.position for state in active],
                [state.caches for state in active])
            for state, chunk, chunk_logits in zip(active, chunks, logits_list):
                proposals = chunk[1:]
                accepted, emitted = accept_greedy(chunk_logits, proposals)
                outcome.spec_proposed += len(proposals)
                outcome.spec_accepted += accepted
                for cache in state.caches:
                    cache.truncate(state.position + 1 + accepted)
                state.position += 1 + accepted
                for token in emitted:
                    state.generated.append(token)
                    self._emit(state, token, step)
                state.next_input = emitted[-1]
                state.proposals = []
                self.kv.sync(state, state.position)
        else:
            logits = self.lm.decode_step_batch(
                [state.next_input for state in active],
                [state.position for state in active],
                [state.caches for state in active],
                fused=self.fused)
            for row, state in enumerate(active):
                state.next_input = int(np.argmax(logits[row]))
                state.generated.append(state.next_input)
                state.position += 1
                self._emit(state, state.next_input, step)
                self.kv.sync(state, state.position)
        return outcome

__all__ = ["ModelExecutor", "OnToken", "StepOutcome", "TokenEvent"]
