"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.config import tiny_config
from repro.llm.model import DecoderLM


@pytest.fixture(scope="session")
def small_model() -> DecoderLM:
    """A small (untrained) model shared by structural tests."""
    return DecoderLM(tiny_config("test-tiny", n_layers=2, d_model=32, n_heads=4, d_ff=64,
                                 vocab_size=32, max_seq_len=128), seed=7)


@pytest.fixture(scope="session")
def opt_style_model() -> DecoderLM:
    """A small model with the OPT-style architecture (LayerNorm, GeLU, learned positions)."""
    return DecoderLM(tiny_config("test-opt", n_layers=2, d_model=32, n_heads=4, d_ff=64,
                                 vocab_size=32, max_seq_len=128, norm="layer", mlp="standard",
                                 positional="learned"), seed=11)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def aerp_group_steps(monkeypatch) -> list[int]:
    """Group sizes the AERP caches were stepped at: one entry per
    ``AERPCache.step_group`` call (one arena append + fetch for the group)."""
    from repro.core.kv_cache import AERPCache

    sizes: list[int] = []
    step_group = AERPCache.step_group

    def spy(self, caches, *args, **kwargs):
        sizes.append(len(caches))
        return step_group(self, caches, *args, **kwargs)

    monkeypatch.setattr(AERPCache, "step_group", spy)
    return sizes
