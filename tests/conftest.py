"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads (OpenBLAS reads it once): the
# suite's prefill-shaped GEMMs run up to 64x slower threaded on a 2-core host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

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
    """Group sizes the eviction-slab caches were stepped at: one entry per
    ``SlabGroup.step`` call (one arena append + fetch for a layer of the
    group)."""
    from repro.core.kv_cache import SlabGroup

    sizes: list[int] = []
    step = SlabGroup.step

    def spy(self, *args, **kwargs):
        sizes.append(len(self.stacks))
        return step(self, *args, **kwargs)

    monkeypatch.setattr(SlabGroup, "step", spy)
    return sizes
