"""From-scratch NumPy transformer-decoder substrate.

The paper's accuracy experiments run HuggingFace checkpoints; this substrate
replaces them with decoder-only transformers implemented directly on NumPy:

* :mod:`repro.llm.config` -- model configurations.  Full-size *shape* configs
  (LLaMA-2/3, Mistral, Qwen2, OPT) drive the hardware performance model;
  tiny trainable configs drive the functional accuracy experiments.
* :mod:`repro.llm.functional` -- numerical primitives (softmax, GeLU/SiLU,
  LayerNorm/RMSNorm, rotary embeddings, cross entropy).
* :mod:`repro.llm.autodiff` -- a compact reverse-mode autodiff engine used by
  the training loop.
* :mod:`repro.llm.model` -- parameter initialisation and the inference
  forward pass (full-sequence and incremental decode with a pluggable KV
  cache).
* :mod:`repro.llm.cache` -- the KV-cache interface the paged and eviction
  stores implement.
* :mod:`repro.llm.generation` -- prefill + decode driver.
* :mod:`repro.llm.speculate` -- speculative-decoding drafters (prompt-lookup
  n-gram, draft model) verified by :meth:`DecoderLM.verify_chunk_batch`.
* :mod:`repro.llm.tokenizer` -- byte-level and word-level tokenizers.
* :mod:`repro.llm.training` -- Adam training loop for the tiny models.
"""

from repro.llm.config import (
    ModelConfig,
    FULL_SIZE_CONFIGS,
    TINY_CONFIGS,
    get_config,
    tiny_config,
)
from repro.llm.cache import KVCacheFactory, LayerKVCache
from repro.llm.model import DecoderLM
from repro.llm.generation import (
    GenerationResult,
    forced_decode_logprobs,
    forced_decode_logprobs_batch,
    generate,
    generate_batch,
)
from repro.llm.speculate import (
    Drafter,
    DrafterSession,
    DraftModelDrafter,
    NgramDrafter,
    NoneDrafter,
)
from repro.llm.tokenizer import ByteTokenizer, WordTokenizer
from repro.llm.training import TrainingConfig, train_lm

__all__ = [
    "ModelConfig",
    "FULL_SIZE_CONFIGS",
    "TINY_CONFIGS",
    "get_config",
    "tiny_config",
    "DecoderLM",
    "LayerKVCache",
    "KVCacheFactory",
    "GenerationResult",
    "Drafter",
    "DrafterSession",
    "DraftModelDrafter",
    "NgramDrafter",
    "NoneDrafter",
    "generate",
    "generate_batch",
    "forced_decode_logprobs",
    "forced_decode_logprobs_batch",
    "ByteTokenizer",
    "WordTokenizer",
    "TrainingConfig",
    "train_lm",
]
