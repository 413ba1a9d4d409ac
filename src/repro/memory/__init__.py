"""Analytical memory-device models used by the Kelle accelerator model.

The numbers come directly from the paper: Table 1 (65 nm, 4 MB SRAM vs
3T-eDRAM characterised with Destiny), Figure 4 (retention-failure
distribution at 105 C) and Section 8 (bandwidths, DRAM configuration).
"""

from repro.memory.device import MemoryDevice, AccessKind
from repro.memory.sram import make_weight_sram, make_sram
from repro.memory.edram import (
    EDRAMArray,
    EDRAMBank,
    RefreshController,
    RefreshGroupSpec,
    make_edram,
)
from repro.memory.dram import make_lpddr4
from repro.memory.retention import RetentionModel, DEFAULT_RETENTION_MODEL
from repro.memory.bitops import (
    float16_to_bits,
    bits_to_float16,
    inject_bit_flips,
    inject_bit_flips_fp16,
    sample_bit_faults,
)

__all__ = [
    "MemoryDevice",
    "AccessKind",
    "make_sram",
    "make_weight_sram",
    "make_edram",
    "EDRAMArray",
    "EDRAMBank",
    "RefreshController",
    "RefreshGroupSpec",
    "make_lpddr4",
    "RetentionModel",
    "DEFAULT_RETENTION_MODEL",
    "float16_to_bits",
    "bits_to_float16",
    "inject_bit_flips",
    "inject_bit_flips_fp16",
    "sample_bit_faults",
]
