"""Tests for fp16 bit manipulation and retention-fault injection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import bitops
from repro.memory.bitops import (
    FAULT_MODE_DECAY,
    FAULT_MODE_FLIP,
    LSB_POSITIONS,
    MSB_POSITIONS,
    bits_to_float16,
    float16_to_bits,
    inject_bit_flips,
    inject_bit_flips_fp16,
)


class TestBitViews:
    def test_roundtrip(self):
        values = np.array([0.0, 1.0, -2.5, 65504.0], dtype=np.float16)
        assert np.array_equal(bits_to_float16(float16_to_bits(values)), values)

    def test_byte_partition_covers_all_bits(self):
        assert sorted(MSB_POSITIONS + LSB_POSITIONS) == list(range(16))


class TestInjectBitFlips:
    def test_zero_probability_is_identity(self, rng):
        bits = rng.integers(0, 2**16, size=100, dtype=np.uint16)
        assert np.array_equal(inject_bit_flips(bits, 0.0, rng), bits)

    def test_probability_one_flip_mode_inverts_all_selected_bits(self, rng):
        bits = np.zeros(64, dtype=np.uint16)
        lsb_only = ((0.0, 1.0), (0.0, 1.0))
        flipped = bitops.sample_bit_faults(bits, np.ones(64, dtype=bool), lsb_only, rng,
                                           FAULT_MODE_FLIP)
        assert np.all(flipped == 0x00FF)

    def test_decay_mode_only_clears_bits(self, rng):
        bits = rng.integers(0, 2**16, size=500, dtype=np.uint16)
        decayed = inject_bit_flips(bits, 0.5, rng, mode=FAULT_MODE_DECAY)
        # No new bits may appear: decayed AND NOT original == 0.
        assert np.all((decayed & ~bits) == 0)

    def test_decay_probability_one_clears_selected_byte(self, rng):
        bits = np.full(32, 0xFFFF, dtype=np.uint16)
        msb_only = ((1.0, 0.0), (1.0, 0.0))
        high = np.arange(32) % 2 == 0  # both classes
        decayed = bitops.sample_bit_faults(bits, high, msb_only, rng, FAULT_MODE_DECAY)
        assert np.all(decayed == 0x00FF)

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            inject_bit_flips(np.zeros(4, dtype=np.uint16), 1.5, rng)
        with pytest.raises(ValueError):
            inject_bit_flips(np.zeros(4, dtype=np.uint16), 0.5, rng, mode="bogus")

    def test_flip_rate_statistics(self, rng):
        bits = np.zeros(20000, dtype=np.uint16)
        flipped = inject_bit_flips(bits, 0.01, rng, mode=FAULT_MODE_FLIP)
        observed = np.unpackbits(flipped.view(np.uint8)).mean()
        assert observed == pytest.approx(0.01, rel=0.3)


class TestInjectFp16:
    def test_no_corruption_at_zero_rates(self, rng):
        values = rng.standard_normal(256).astype(np.float16)
        out = inject_bit_flips_fp16(values, 0.0, 0.0, rng)
        np.testing.assert_array_equal(out, values)

    def test_output_always_finite(self, rng):
        values = rng.standard_normal(4096).astype(np.float16) * 100
        out = inject_bit_flips_fp16(values, 0.2, 0.2, rng, mode=FAULT_MODE_FLIP)
        assert np.all(np.isfinite(out.astype(np.float32)))

    def test_decay_shrinks_magnitudes_on_average(self, rng):
        values = (rng.standard_normal(8192).astype(np.float16) + 2.0)
        out = inject_bit_flips_fp16(values, 0.3, 0.3, rng, mode=FAULT_MODE_DECAY)
        assert np.mean(np.abs(out.astype(np.float64))) <= np.mean(np.abs(values.astype(np.float64)))

    def test_lsb_corruption_is_gentler_than_msb(self, rng):
        values = rng.standard_normal(8192).astype(np.float16)
        msb = inject_bit_flips_fp16(values, 0.05, 0.0, rng, mode=FAULT_MODE_FLIP)
        lsb = inject_bit_flips_fp16(values, 0.0, 0.05, rng, mode=FAULT_MODE_FLIP)
        msb_error = np.mean(np.abs(msb.astype(np.float64) - values.astype(np.float64)))
        lsb_error = np.mean(np.abs(lsb.astype(np.float64) - values.astype(np.float64)))
        assert msb_error > lsb_error


class TestBitopsProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2**31 - 1))
    def test_decay_never_increases_bit_count(self, probability, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**16, size=128, dtype=np.uint16)
        decayed = inject_bit_flips(bits, probability, rng, mode=FAULT_MODE_DECAY)
        original_pop = np.unpackbits(bits.view(np.uint8)).sum()
        decayed_pop = np.unpackbits(decayed.view(np.uint8)).sum()
        assert decayed_pop <= original_pop

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_flip_is_deterministic_given_generator_state(self, seed):
        bits = np.arange(64, dtype=np.uint16)
        a = inject_bit_flips(bits, 0.1, np.random.default_rng(seed), mode=FAULT_MODE_FLIP)
        b = inject_bit_flips(bits, 0.1, np.random.default_rng(seed), mode=FAULT_MODE_FLIP)
        assert np.array_equal(a, b)


#: The Section 7.1 2DRP rates: (HST, LST) x (MSB, LSB).
PAPER_RATES = ((7.1e-5, 5.1e-3), (7.6e-4, 7.4e-3))

#: Elements per class, so bits per (class, byte, bit position).
TRIALS = 1_000_000


def binomial_interval(n: int, p: float, confidence: float = 0.999) -> tuple[int, int]:
    """The central ``confidence`` interval of Binomial(n, p), from its pmf."""
    sd = math.sqrt(n * p * (1 - p))
    k = np.arange(max(0, int(n * p - 12 * sd) - 12), min(n, int(n * p + 12 * sd) + 12) + 1)
    lgamma = np.frompyfunc(math.lgamma, 1, 1)
    log_pmf = (math.lgamma(n + 1) - lgamma(k + 1).astype(float) - lgamma(n - k + 1).astype(float)
               + k * math.log(p) + (n - k) * math.log1p(-p))
    cdf = np.cumsum(np.exp(log_pmf))
    tail = (1 - confidence) / 2
    return int(k[np.searchsorted(cdf, tail)]), int(k[np.searchsorted(cdf, 1 - tail)])


def check_sampler_rates(mode: str, seed: int = 0) -> None:
    """The sampler's failure rate per (class, byte, bit position), over
    ``TRIALS`` bits each, lies inside the 99.9 % binomial interval of its
    configured rate; decay never sets a bit; the saturated fp16 output is
    finite; and the same generator state fails the same bits.  The harness
    of the sampler's seeded bugs (``tests/seeded_bugs.py``): it calls
    :func:`bitops.sample_bit_faults` through its module, so a mutant shows."""
    rng = np.random.default_rng(seed)
    high = np.arange(2 * TRIALS) % 2 == 0  # the classes interleaved
    if mode == FAULT_MODE_DECAY:  # from all ones, so every failed bit shows
        original = np.full(2 * TRIALS, 0xFFFF, dtype=np.uint16)
    else:
        original = rng.integers(0, 2 ** 16, size=2 * TRIALS, dtype=np.uint16)
    state = rng.bit_generator.state
    out = bitops.sample_bit_faults(original.copy(), high, PAPER_RATES, rng, mode)
    rng.bit_generator.state = state
    again = bitops.sample_bit_faults(original.copy(), high, PAPER_RATES, rng, mode)
    assert np.array_equal(out, again), "the same generator state must fail the same bits"
    assert np.all(np.isfinite(bitops.saturate_float16(out)))
    failed = out ^ original
    if mode == FAULT_MODE_DECAY:
        assert np.all(out & ~original == 0), "decay never sets a bit"
        mixed = rng.integers(0, 2 ** 16, size=4096, dtype=np.uint16)
        decayed = bitops.sample_bit_faults(mixed.copy(), high[:4096], ((0.3, 0.3),) * 2, rng, mode)
        assert np.all(decayed & ~mixed == 0), "decay never sets a bit"
    for cls, members in enumerate((failed[high], failed[~high])):
        for position in range(16):
            rate = PAPER_RATES[cls][0 if position in MSB_POSITIONS else 1]
            count = int(np.count_nonzero(members & np.uint16(1 << position)))
            low, top = binomial_interval(TRIALS, rate)
            assert low <= count <= top, (mode, cls, position, count, (low, top))


class TestSparseSampler:
    """The one fault sampler against independent per-bit Bernoulli draws."""

    @pytest.mark.parametrize("mode", [FAULT_MODE_DECAY, FAULT_MODE_FLIP])
    def test_failure_rates_match_configured_rates(self, mode):
        check_sampler_rates(mode)

    def test_binomial_interval_covers_the_mean(self):
        low, top = binomial_interval(TRIALS, 7.1e-5)
        assert low < 71 < top and top - low < 60
