"""Hybrid memory subsystem of the Kelle accelerator (Section 5.1).

The subsystem combines a 2 MB weight SRAM, a 256 KB activation eDRAM, a 4 MB
KV-cache eDRAM (32 banks, split into Key/Value x MSB/LSB groups) and the
off-chip 16 GB LPDDR4 DRAM.  SRAM-based baseline systems replace the eDRAM
components with SRAM of equal *area* (so roughly half the capacity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.device import MemoryDevice
from repro.memory.dram import make_lpddr4
from repro.memory.edram import make_edram
from repro.memory.sram import make_sram, make_weight_sram
from repro.utils.units import KB, MB


@dataclass
class MemorySubsystem:
    """The on-chip/off-chip memory hierarchy used by the accelerator model."""

    weight_sram: MemoryDevice = field(default_factory=make_weight_sram)
    activation_buffer: MemoryDevice = field(default_factory=lambda: make_edram(256 * KB))
    kv_store: MemoryDevice = field(default_factory=make_edram)
    dram: MemoryDevice = field(default_factory=make_lpddr4)

    @property
    def kv_is_edram(self) -> bool:
        return self.kv_store.needs_refresh

    @property
    def onchip_leakage_w(self) -> float:
        return (self.weight_sram.leakage_power_w + self.activation_buffer.leakage_power_w
                + self.kv_store.leakage_power_w)

    @classmethod
    def kelle(cls, kv_capacity_bytes: int = 4 * MB) -> "MemorySubsystem":
        """The Kelle configuration: eDRAM KV cache and activation buffer."""
        return cls(
            weight_sram=make_weight_sram(2 * MB),
            activation_buffer=make_edram(256 * KB, name="ActeDRAM-256KB"),
            kv_store=make_edram(kv_capacity_bytes),
            dram=make_lpddr4(),
        )

    @classmethod
    def sram_baseline(cls, kv_capacity_bytes: int = 2 * MB,
                      weight_capacity_bytes: int = 2 * MB) -> "MemorySubsystem":
        """An all-SRAM on-chip configuration of comparable die area.

        SRAM has roughly half the density of 3T-eDRAM (Table 1), so an
        area-matched SRAM system holds about half the KV capacity.
        """
        return cls(
            weight_sram=make_weight_sram(weight_capacity_bytes),
            activation_buffer=make_sram(256 * KB, name="ActSRAM-256KB"),
            kv_store=make_sram(kv_capacity_bytes),
            dram=make_lpddr4(),
        )

    def with_kv_bandwidth(self, bandwidth_bytes_per_s: float) -> "MemorySubsystem":
        """Copy with a different KV-store bandwidth (Section 8.3.7 sensitivity study)."""
        kv = self.kv_store
        new_kv = MemoryDevice(
            name=kv.name,
            capacity_bytes=kv.capacity_bytes,
            area_mm2=kv.area_mm2,
            access_latency_s=kv.access_latency_s,
            access_energy_per_byte_j=kv.access_energy_per_byte_j,
            leakage_power_w=kv.leakage_power_w,
            bandwidth_bytes_per_s=bandwidth_bytes_per_s,
            refresh_energy_per_full_refresh_j=kv.refresh_energy_per_full_refresh_j,
            retention_time_s=kv.retention_time_s,
        )
        return MemorySubsystem(
            weight_sram=self.weight_sram,
            activation_buffer=self.activation_buffer,
            kv_store=new_kv,
            dram=self.dram,
        )
