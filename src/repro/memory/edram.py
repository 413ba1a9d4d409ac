"""3T gain-cell eDRAM model: device parameters, banks and refresh control.

Table 1 characterises a 4 MB 65 nm 3T-eDRAM: 3.2 mm^2, 1.9 ns access,
84.8 pJ/byte, 154 mW leakage, 1.14 mJ per full-array refresh and a 45 us
guard retention time.  Section 5.1 describes the Kelle KV-cache eDRAM as 32
banks (8 each for Key-MSB, Key-LSB, Value-MSB, Value-LSB), one eviction
controller and two refresh controllers (MSB banks / LSB banks), each
maintaining two refresh groups (high-score vs low-score tokens).

The :class:`EDRAMArray` here is an *energy/latency accounting* model, not a
bit-accurate RTL model: the functional effect of skipped refreshes is applied
to the stored KV values by the AERP cache
(:meth:`repro.core.kv_cache.AERPArena.inject_faults`) through the sparse
fault sampler :func:`repro.memory.bitops.sample_bit_faults`, at the
(token class, byte) failure rates that :mod:`repro.core.refresh` derives
from :class:`repro.memory.retention.RetentionModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.device import MemoryDevice
from repro.memory.retention import DEFAULT_RETENTION_MODEL, GUARD_REFRESH_INTERVAL_S, RetentionModel
from repro.utils.units import GB, MB, MILLIJOULE, MILLIWATT, NANOSECOND, PICOJOULE

# Table 1: 65 nm, 4 MB 3T-eDRAM characterised with Destiny.
_EDRAM_4MB = MemoryDevice(
    name="eDRAM-4MB",
    capacity_bytes=4 * MB,
    area_mm2=3.2,
    access_latency_s=1.9 * NANOSECOND,
    access_energy_per_byte_j=84.8 * PICOJOULE,
    leakage_power_w=154 * MILLIWATT,
    bandwidth_bytes_per_s=256 * GB,  # Section 8: eDRAM bandwidth 256 GB/s
    refresh_energy_per_full_refresh_j=1.14 * MILLIJOULE,
    retention_time_s=GUARD_REFRESH_INTERVAL_S,
)


def make_edram(capacity_bytes: int = 4 * MB, bandwidth_bytes_per_s: float | None = None,
               name: str | None = None) -> MemoryDevice:
    """Build an eDRAM device scaled from the 4 MB Table 1 reference point."""
    device = _EDRAM_4MB.scaled(capacity_bytes, name=name or f"eDRAM-{capacity_bytes // MB}MB")
    if bandwidth_bytes_per_s is None:
        return device
    return MemoryDevice(
        name=device.name,
        capacity_bytes=device.capacity_bytes,
        area_mm2=device.area_mm2,
        access_latency_s=device.access_latency_s,
        access_energy_per_byte_j=device.access_energy_per_byte_j,
        leakage_power_w=device.leakage_power_w,
        bandwidth_bytes_per_s=bandwidth_bytes_per_s,
        refresh_energy_per_full_refresh_j=device.refresh_energy_per_full_refresh_j,
        retention_time_s=device.retention_time_s,
    )


@dataclass(frozen=True)
class RefreshGroupSpec:
    """One refresh group of the 2DRP layout.

    A group is the cross product of a token-importance class (high-score
    tokens, HST, vs low-score tokens, LST) and a bit-significance class (MSB
    byte vs LSB byte).  Each group is refreshed at its own interval; the
    resulting retention failure rate follows from the retention model.
    """

    name: str
    token_class: str  # "HST" or "LST"
    bit_class: str  # "MSB" or "LSB"
    refresh_interval_s: float

    def __post_init__(self) -> None:
        if self.token_class not in ("HST", "LST"):
            raise ValueError("token_class must be 'HST' or 'LST'")
        if self.bit_class not in ("MSB", "LSB"):
            raise ValueError("bit_class must be 'MSB' or 'LSB'")
        if self.refresh_interval_s <= 0:
            raise ValueError("refresh_interval_s must be positive")

    def failure_rate(self, retention: RetentionModel = DEFAULT_RETENTION_MODEL) -> float:
        """Retention failure rate implied by this group's refresh interval."""
        return retention.failure_rate(self.refresh_interval_s)


@dataclass
class EDRAMBank:
    """A single eDRAM bank holding one bit-class slice of K or V vectors."""

    index: int
    capacity_bytes: int
    occupied_bytes: int = 0

    def occupy(self, num_bytes: int) -> None:
        """Mark ``num_bytes`` as live data; raises when the bank overflows."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if self.occupied_bytes + num_bytes > self.capacity_bytes:
            raise MemoryError(
                f"bank {self.index} overflow: {self.occupied_bytes + num_bytes} > {self.capacity_bytes}"
            )
        self.occupied_bytes += num_bytes

    def release(self, num_bytes: int) -> None:
        """Release ``num_bytes`` of live data."""
        if num_bytes < 0 or num_bytes > self.occupied_bytes:
            raise ValueError("invalid release size")
        self.occupied_bytes -= num_bytes

    @property
    def occupancy(self) -> float:
        """Fraction of the bank holding live data."""
        return self.occupied_bytes / self.capacity_bytes


@dataclass
class RefreshController:
    """One of the two Kelle refresh controllers (MSB banks or LSB banks).

    The controller tracks the refresh groups it is responsible for and
    accounts refresh energy over a time window, scaled by the fraction of the
    array each group occupies (only occupied rows are refreshed).
    """

    device: MemoryDevice
    groups: list[RefreshGroupSpec]
    retention: RetentionModel = field(default_factory=lambda: DEFAULT_RETENTION_MODEL)

    def refresh_energy(self, duration_s: float, occupancy_by_group: dict[str, float]) -> float:
        """Total refresh energy over ``duration_s``.

        ``occupancy_by_group`` maps group name to the fraction of the *whole*
        device capacity occupied by that group's live data.
        """
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        total = 0.0
        for group in self.groups:
            fraction = occupancy_by_group.get(group.name, 0.0)
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"occupancy for {group.name} must lie in [0, 1]")
            total += self.device.refresh_energy(duration_s, group.refresh_interval_s, fraction)
        return total

    def average_failure_rate(self, occupancy_by_group: dict[str, float]) -> float:
        """Occupancy-weighted mean retention failure rate across groups."""
        weights = [occupancy_by_group.get(group.name, 0.0) for group in self.groups]
        if sum(weights) == 0:
            return 0.0
        rates = [group.failure_rate(self.retention) for group in self.groups]
        return sum(w * r for w, r in zip(weights, rates)) / sum(weights)


class EDRAMArray:
    """The Kelle KV-cache eDRAM: 32 banks split across K/V and MSB/LSB slices."""

    BANK_GROUPS = ("key_msb", "key_lsb", "value_msb", "value_lsb")

    def __init__(self, device: MemoryDevice | None = None, num_banks: int = 32) -> None:
        if num_banks % len(self.BANK_GROUPS) != 0:
            raise ValueError("num_banks must be divisible by 4 (K/V x MSB/LSB)")
        self.device = device or make_edram()
        self.num_banks = num_banks
        per_bank = self.device.capacity_bytes // num_banks
        self.banks: dict[str, list[EDRAMBank]] = {
            group: [
                EDRAMBank(index=g * (num_banks // 4) + i, capacity_bytes=per_bank)
                for i in range(num_banks // 4)
            ]
            for g, group in enumerate(self.BANK_GROUPS)
        }

    @property
    def capacity_bytes(self) -> int:
        return self.device.capacity_bytes

    @property
    def occupied_bytes(self) -> int:
        return sum(bank.occupied_bytes for banks in self.banks.values() for bank in banks)

    @property
    def occupancy(self) -> float:
        return self.occupied_bytes / self.capacity_bytes

    def store_token(self, bytes_per_slice: int) -> None:
        """Account storage of one token's KV vectors, striped across all slices.

        ``bytes_per_slice`` is the number of bytes landing in each of the four
        bank groups (Key/Value x MSB/LSB); striping across the banks of a
        group is round-robin, so we charge the least-occupied bank.
        """
        for group in self.BANK_GROUPS:
            bank = min(self.banks[group], key=lambda b: b.occupied_bytes)
            bank.occupy(bytes_per_slice)

    def evict_token(self, bytes_per_slice: int) -> None:
        """Account eviction of one token's KV vectors."""
        for group in self.BANK_GROUPS:
            bank = max(self.banks[group], key=lambda b: b.occupied_bytes)
            bank.release(min(bytes_per_slice, bank.occupied_bytes))
