"""Accumulated attention-score ("importance") tracking.

Equation 3 of the paper defines the importance of token ``n`` in head ``h`` as
the sum of the attention scores it has received from every query computed so
far.  The Kelle accelerator maintains these running sums in a register file
next to the systolic evictor; this class is the software equivalent, used both
by the AERP cache and by the stand-alone analyses in the experiments.
"""

from __future__ import annotations

import numpy as np


class ImportanceTracker:
    """Running per-head, per-slot accumulated attention scores."""

    def __init__(self, n_heads: int) -> None:
        if n_heads <= 0:
            raise ValueError("n_heads must be positive")
        self.n_heads = n_heads
        self._scores: list[list[float]] = [[] for _ in range(n_heads)]

    def add_slot(self, head: int, initial_score: float = 0.0) -> int:
        """Append a new slot for ``head``; returns the slot index."""
        self._scores[head].append(float(initial_score))
        return len(self._scores[head]) - 1

    def update(self, head: int, attention_row: np.ndarray) -> None:
        """Accumulate one attention row (over the current slots of ``head``)."""
        row = np.asarray(attention_row, dtype=np.float64)
        if row.shape[0] != len(self._scores[head]):
            raise ValueError(
                f"attention row length {row.shape[0]} does not match slot count "
                f"{len(self._scores[head])} for head {head}"
            )
        for slot, value in enumerate(row):
            self._scores[head][slot] += float(value)

    def scores(self, head: int) -> np.ndarray:
        """Current accumulated scores of ``head`` as an array."""
        return np.asarray(self._scores[head], dtype=np.float64)

    def argmin(self, head: int, eligible: np.ndarray | None = None) -> int:
        """Index of the lowest-importance slot, restricted to ``eligible`` slots."""
        scores = self.scores(head)
        if scores.size == 0:
            raise ValueError("no slots to select from")
        if eligible is not None:
            eligible = np.asarray(eligible, dtype=bool)
            if eligible.shape != scores.shape:
                raise ValueError("eligible mask shape mismatch")
            if not eligible.any():
                raise ValueError("no eligible slots")
            masked = np.where(eligible, scores, np.inf)
            return int(np.argmin(masked))
        return int(np.argmin(scores))

    @staticmethod
    def prefill_importance(attn_probs: np.ndarray) -> np.ndarray:
        """Importance of each context token after pre-filling.

        ``attn_probs`` has shape ``[H, N, N]`` (causal attention of the
        pre-filling pass); the importance of token ``n`` in head ``h`` is the
        column sum over queries, matching the pre-filling rule of Section 4.1.
        Returns ``[H, N]``.
        """
        probs = np.asarray(attn_probs, dtype=np.float64)
        if probs.ndim != 3 or probs.shape[1] != probs.shape[2]:
            raise ValueError("attn_probs must have shape [H, N, N]")
        return probs.sum(axis=1)
