"""Two-dimensional adaptive refresh policy (2DRP) and fault injection.

Section 4.2 of the paper observes that (a) tokens with low importance scores
tolerate retention failures better than high-score tokens and (b) the
less-significant byte of each 16-bit KV element tolerates failures better
than the more-significant byte.  2DRP therefore refreshes four groups of
eDRAM rows at different intervals:

==============  ==================  =====================
group           token class         bit class
==============  ==================  =====================
HST / MSB       high-score tokens   bits 15-8 (refreshed most often)
HST / LSB       high-score tokens   bits 7-0
LST / MSB       low-score tokens    bits 15-8
LST / LSB       low-score tokens    bits 7-0 (refreshed least often)
==============  ==================  =====================

Each interval maps to a retention-failure probability through
:class:`repro.memory.retention.RetentionModel`; the resulting
:class:`KVFaultInjector` holds those four rates as the (class, byte) table
of :func:`repro.memory.bitops.sample_bit_faults`, which corrupts stored KV
(or input) vectors at exactly those rates: each bit of the stored fp16 form
fails independently, sampled sparsely (a binomial failure count per group,
then the failed bits).  The AERP cache
(:meth:`repro.core.kv_cache.AERPArena.inject_faults`) makes one such call
per sequence for all the tokens that came due in a step, which is how the
accuracy experiments of Figure 8 / Table 4 are reproduced.  The same
intervals feed the refresh-energy accounting of the accelerator model.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.memory.bitops import (FAULT_MODE_DECAY, FAULT_MODE_FLIP, sample_bit_faults,
                                 saturate_float16)
from repro.memory.edram import RefreshGroupSpec
from repro.memory.retention import DEFAULT_RETENTION_MODEL, GUARD_REFRESH_INTERVAL_S, RetentionModel
from repro.registry import register
from repro.utils.units import MICROSECOND, MILLISECOND


@dataclass(frozen=True)
class KVFaultInjector:
    """Retention-fault injector with per-(token class, byte) failure rates.

    ``mode`` selects the physical fault model: ``"decay"`` (default) models
    gain-cell charge leakage (a failed bit reads back as 0), ``"flip"`` is the
    symmetric bit-flip model the paper uses for its sensitivity studies
    (Figure 8, Table 4).
    """

    hst_msb_rate: float = 0.0
    hst_lsb_rate: float = 0.0
    lst_msb_rate: float = 0.0
    lst_lsb_rate: float = 0.0
    mode: str = FAULT_MODE_DECAY

    def __post_init__(self) -> None:
        for rate in (self.hst_msb_rate, self.hst_lsb_rate, self.lst_msb_rate, self.lst_lsb_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("fault rates must lie in [0, 1]")
        if self.mode not in (FAULT_MODE_DECAY, FAULT_MODE_FLIP):
            raise ValueError("mode must be 'decay' or 'flip'")

    @property
    def is_noop(self) -> bool:
        return max(self.hst_msb_rate, self.hst_lsb_rate, self.lst_msb_rate, self.lst_lsb_rate) == 0.0

    @property
    def rates(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The (HST, LST) x (MSB, LSB) rate table :func:`sample_bit_faults` takes."""
        return (self.hst_msb_rate, self.hst_lsb_rate), (self.lst_msb_rate, self.lst_lsb_rate)

    def corrupt(self, values: np.ndarray, is_high_score: bool, rng: np.random.Generator) -> np.ndarray:
        """Return a corrupted float32 copy of ``values`` (any shape), stored at fp16."""
        values = np.asarray(values, dtype=np.float32)
        if self.is_noop:
            return values
        bits = values.astype(np.float16, order="C").view(np.uint16).reshape(-1)
        sample_bit_faults(bits, np.full(bits.size, is_high_score), self.rates, rng, self.mode)
        return saturate_float16(bits).reshape(values.shape)

    @property
    def average_rate(self) -> float:
        """Mean per-bit flip rate across the four groups."""
        return (self.hst_msb_rate + self.hst_lsb_rate + self.lst_msb_rate + self.lst_lsb_rate) / 4.0


def no_refresh_errors() -> KVFaultInjector:
    """Injector representing a refresh interval at the guard retention time."""
    return KVFaultInjector()


#: The four refresh groups, (token class, byte), in the order of every
#: per-group tuple here (a policy's intervals, an injector's rates).
REFRESH_GROUPS = (("HST", "MSB"), ("HST", "LSB"), ("LST", "MSB"), ("LST", "LSB"))


class RefreshPolicy(abc.ABC):
    """Common interface of the refresh policies compared in the paper."""

    def __init__(self, retention: RetentionModel | None = None) -> None:
        self.retention = retention or DEFAULT_RETENTION_MODEL

    @abc.abstractmethod
    def intervals(self) -> tuple[float, float, float, float]:
        """The refresh interval (s) of each of :data:`REFRESH_GROUPS`."""

    def groups(self) -> list[RefreshGroupSpec]:
        """The refresh groups and their intervals."""
        return [RefreshGroupSpec(f"{token}/{byte}", token, byte, interval)
                for (token, byte), interval in zip(REFRESH_GROUPS, self.intervals())]

    def make_injector(self, mode: str = FAULT_MODE_DECAY) -> KVFaultInjector:
        """Fault injector matching the policy's failure rates."""
        return KVFaultInjector(*(self.retention.failure_rate(s) for s in self.intervals()),
                               mode=mode)

    def average_interval(self) -> float:
        """Mean refresh interval across groups (equal weights)."""
        return float(np.mean(self.intervals()))

    def average_failure_rate(self) -> float:
        """Mean retention-failure rate across groups (equal weights)."""
        specs = self.groups()
        return float(np.mean([spec.failure_rate(self.retention) for spec in specs]))

    def refresh_power_per_byte(self, refresh_energy_per_byte_j: float) -> float:
        """Average refresh power per occupied byte implied by the intervals.

        ``refresh_energy_per_byte_j`` is the device's full-array refresh
        energy divided by its capacity.  Groups are weighted equally (each
        holds one byte of every 16-bit element, split evenly between HST and
        LST tokens).
        """
        intervals = self.intervals()
        return sum(refresh_energy_per_byte_j / interval / len(intervals) for interval in intervals)


class GuardRefreshPolicy(RefreshPolicy):
    """Refresh at the guard retention time: no corruption, maximum energy (Org)."""

    def __init__(self, interval_s: float = GUARD_REFRESH_INTERVAL_S,
                 retention: RetentionModel | None = None) -> None:
        super().__init__(retention)
        self.interval_s = interval_s

    def intervals(self) -> tuple[float, float, float, float]:
        return (self.interval_s,) * 4

    def make_injector(self, mode: str = FAULT_MODE_DECAY) -> KVFaultInjector:
        del mode  # the guard interval never corrupts data
        return KVFaultInjector()


class UniformRefreshPolicy(RefreshPolicy):
    """A single relaxed refresh interval applied to every cell (Uni baseline)."""

    def __init__(self, interval_s: float, retention: RetentionModel | None = None) -> None:
        super().__init__(retention)
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s

    def intervals(self) -> tuple[float, float, float, float]:
        return (self.interval_s,) * 4


class TwoDRefreshPolicy(RefreshPolicy):
    """The 2DRP policy: four refresh intervals keyed by token class and byte.

    The default intervals are the ones used in the paper's evaluation
    (Section 7.1): 0.36 ms for HST MSBs, 5.4 ms for HST LSBs, 1.44 ms for LST
    MSBs and 7.2 ms for LST LSBs, averaging 1.05 ms per-bit retention time
    (hence they are passed in that HST-MSB, HST-LSB, LST-MSB, LST-LSB order).
    """

    def __init__(self, hst_msb_s: float = 0.36 * MILLISECOND, hst_lsb_s: float = 5.4 * MILLISECOND,
                 lst_msb_s: float = 1.44 * MILLISECOND, lst_lsb_s: float = 7.2 * MILLISECOND,
                 retention: RetentionModel | None = None) -> None:
        super().__init__(retention)
        intervals = (hst_msb_s, hst_lsb_s, lst_msb_s, lst_lsb_s)
        if any(interval <= 0 for interval in intervals):
            raise ValueError("refresh intervals must be positive")
        if hst_msb_s > lst_msb_s:
            raise ValueError("HST MSBs must be refreshed at least as often as LST MSBs")
        self.hst_msb_s = hst_msb_s
        self.hst_lsb_s = hst_lsb_s
        self.lst_msb_s = lst_msb_s
        self.lst_lsb_s = lst_lsb_s

    def intervals(self) -> tuple[float, float, float, float]:
        return self.hst_msb_s, self.hst_lsb_s, self.lst_msb_s, self.lst_lsb_s

    @classmethod
    def paper_setting(cls, scale: float = 1.0, retention: RetentionModel | None = None) -> "TwoDRefreshPolicy":
        """The Section 7.1 intervals, optionally scaled (Table 4 sweeps 0.5x/1x/2x)."""
        return cls(
            hst_msb_s=0.36 * MILLISECOND * scale,
            hst_lsb_s=5.4 * MILLISECOND * scale,
            lst_msb_s=1.44 * MILLISECOND * scale,
            lst_lsb_s=7.2 * MILLISECOND * scale,
            retention=retention,
        )

    @classmethod
    def from_table4_row(cls, hst_msb_us: float, hst_lsb_us: float, lst_msb_us: float,
                        lst_lsb_us: float, retention: RetentionModel | None = None) -> "TwoDRefreshPolicy":
        """Build the policy from the microsecond intervals listed in Table 4."""
        return cls(
            hst_msb_s=hst_msb_us * MICROSECOND,
            hst_lsb_s=hst_lsb_us * MICROSECOND,
            lst_msb_s=lst_msb_us * MICROSECOND,
            lst_lsb_s=lst_lsb_us * MICROSECOND,
            retention=retention,
        )


# -- registry builders --------------------------------------------------------
@register("refresh", "none", description="no refresh modelling (SRAM KV stores)")
def _build_no_refresh() -> None:
    """``resolve("refresh", "none")`` -> ``None`` (no refresh policy)."""
    return None


@register("refresh", "guard", description="guard-interval refresh: no corruption (Org)")
def _build_guard_refresh(interval_us: float | None = None) -> GuardRefreshPolicy:
    if interval_us is None:
        return GuardRefreshPolicy()
    return GuardRefreshPolicy(interval_s=interval_us * MICROSECOND)


@register("refresh", "uniform", description="single relaxed refresh interval (Uni)")
def _build_uniform_refresh(interval_us: float = 360.0) -> UniformRefreshPolicy:
    return UniformRefreshPolicy(interval_us * MICROSECOND)


@register("refresh", "2drp", "twod", description="two-dimensional adaptive refresh (2DRP)")
def _build_2drp(scale: float = 1.0, hst_msb_us: float | None = None,
                hst_lsb_us: float | None = None, lst_msb_us: float | None = None,
                lst_lsb_us: float | None = None) -> TwoDRefreshPolicy:
    """Paper intervals scaled by ``scale``, or explicit per-group microseconds."""
    explicit = (hst_msb_us, hst_lsb_us, lst_msb_us, lst_lsb_us)
    if any(value is not None for value in explicit):
        if any(value is None for value in explicit):
            raise ValueError("2drp needs either all four *_us intervals or none of them")
        return TwoDRefreshPolicy.from_table4_row(hst_msb_us, hst_lsb_us, lst_msb_us, lst_lsb_us)
    return TwoDRefreshPolicy.paper_setting(scale=scale)


def uniform_interval_matching_2drp(policy: TwoDRefreshPolicy) -> float:
    """The uniform refresh interval whose failure rate equals 2DRP's average.

    Table 4 compares 2DRP against a uniform policy at the *same average
    retention failure rate*; this helper computes that matched interval.
    """
    return policy.retention.interval_for_failure_rate(policy.average_failure_rate())
