"""Bit-level manipulation of fp16 values for retention-failure injection.

The 2DRP experiments (Figure 8, Table 4) corrupt the KV cache at the bit
level: a retention failure flips a stored bit.  The paper distinguishes the
more-significant byte (bits 15-8, "MSBs") from the less-significant byte
(bits 7-0, "LSBs") of each 16-bit value, and refreshes high-score (HST) and
low-score (LST) tokens at different intervals, so each stored bit fails at
one of four rates: a 2 x 2 table indexed by (token class, byte).

:func:`sample_bit_faults` is the one fault sampler.  It never draws per bit:
for each (class, byte) group of ``n`` bits it draws the failure count from
``Binomial(n, rate)``, then that many distinct bit indices uniformly — the
distribution of ``n`` independent Bernoulli(``rate``) draws, not an
approximation of it — and fails them in one scatter.  At the Section 7.1
rates (7.1e-5 to 7.4e-3) a d = 64 token's 1024 bits expect 3-4 failures, so
the cost is the class split plus O(failures), not one uniform per bit.
"""

from __future__ import annotations

import numpy as np

#: Bit positions belonging to the more-significant byte (bits 15-8).
MSB_POSITIONS = tuple(range(8, 16))

#: Bit positions belonging to the less-significant byte (bits 7-0).
LSB_POSITIONS = tuple(range(0, 8))

#: The single-bit masks of each byte, indexed by bit within the byte.
_MSB_BITS = np.array([1 << pos for pos in MSB_POSITIONS], dtype=np.uint16)
_LSB_BITS = np.array([1 << pos for pos in LSB_POSITIONS], dtype=np.uint16)

#: Largest finite fp16 magnitude: where a corrupted value saturates.
FP16_MAX = float(np.finfo(np.float16).max)


def float16_to_bits(values: np.ndarray) -> np.ndarray:
    """View an array of fp16 values as uint16 bit patterns."""
    return np.asarray(values, dtype=np.float16).view(np.uint16)


def bits_to_float16(bits: np.ndarray) -> np.ndarray:
    """View an array of uint16 bit patterns as fp16 values."""
    return np.asarray(bits, dtype=np.uint16).view(np.float16)


def saturate_float16(bits: np.ndarray) -> np.ndarray:
    """The float32 values of fp16 bit patterns, NaN read as 0 and +-Inf as
    +-:data:`FP16_MAX`: a flip into the exponent corrupts one value rather
    than poisoning downstream softmax computations with NaNs (the
    accelerator's datapath saturates the same way)."""
    values = bits.view(np.float16).astype(np.float32)
    values[np.isnan(values)] = 0.0
    np.minimum(values, FP16_MAX, out=values)
    return np.maximum(values, -FP16_MAX, out=values)


#: Fault modes: a 3T gain cell loses charge over time, so an unrefreshed bit
#: *decays* towards the discharged state (a stored 1 reads back as 0); the
#: symmetric random-flip model is kept as an option for sensitivity studies.
FAULT_MODE_DECAY = "decay"
FAULT_MODE_FLIP = "flip"


def sample_bit_faults(bits: np.ndarray, high: np.ndarray, rates, rng: np.random.Generator,
                      mode: str = FAULT_MODE_DECAY) -> np.ndarray:
    """Fail bits of the flat uint16 block ``bits`` in place; returns it.

    ``high[i]`` classifies element ``i`` (True: a high-score token's, else
    a low-score token's); ``rates[c][b]`` is the per-bit failure rate of
    class ``c`` (0: HST, 1: LST) in byte ``b`` (0: MSB, 1: LSB).  Each bit
    fails independently at its group's rate: ``"decay"`` reads a failed bit
    back as 0, ``"flip"`` inverts it.  The same generator state fails the
    same bits.
    """
    if mode not in (FAULT_MODE_DECAY, FAULT_MODE_FLIP):
        raise ValueError("mode must be 'decay' or 'flip'")
    for members, class_rates in zip((high.nonzero()[0], (~high).nonzero()[0]), rates):
        n_bits = 8 * members.size
        for byte_bits, rate in zip((_MSB_BITS, _LSB_BITS), class_rates):
            failed = rng.binomial(n_bits, rate) if n_bits and rate else 0
            if failed:  # bit index i: bit i % 8 of the byte of element i // 8
                # ``failed`` distinct indices, a uniform subset: as many draws
                # j uniform on [0, 2**53) (``random`` returns j / 2**53), kept
                # as j % n_bits if all lie below the largest multiple of n_bits
                # and the picks are distinct, else a subset drawn outright
                # (one pick is distinct: most groups fail a single bit).
                draws = rng.random(failed) * 2.0 ** 53
                picks = draws.astype(np.int64) % n_bits
                if (np.maximum.reduce(draws) >= 2 ** 53 - 2 ** 53 % n_bits
                        or failed > 1 and len(set(picks.tolist())) < failed):
                    picks = rng.choice(n_bits, failed, replace=False)
                element, mask = members[picks >> 3], byte_bits[picks & 7]
                if mode == FAULT_MODE_FLIP:  # distinct bits: an element may repeat
                    np.bitwise_xor.at(bits, element, mask)
                else:
                    np.bitwise_and.at(bits, element, ~mask)
    return bits


def inject_bit_flips(bits: np.ndarray, probability: float, rng: np.random.Generator,
                     mode: str = FAULT_MODE_DECAY) -> np.ndarray:
    """A copy of the uint16 array ``bits`` with each of its bits failed
    independently with ``probability`` (:func:`sample_bit_faults`)."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    bits = np.array(bits, dtype=np.uint16, order="C")
    sample_bit_faults(bits.reshape(-1), np.ones(bits.size, dtype=bool),
                      ((probability, probability),) * 2, rng, mode)
    return bits


def inject_bit_flips_fp16(values: np.ndarray, msb_probability: float, lsb_probability: float,
                          rng: np.random.Generator, mode: str = FAULT_MODE_DECAY) -> np.ndarray:
    """A corrupted fp16 copy of ``values`` with separate MSB-byte and
    LSB-byte failure rates, NaN/Inf saturated (:func:`saturate_float16`)."""
    bits = np.array(values, dtype=np.float16, order="C").view(np.uint16)
    sample_bit_faults(bits.reshape(-1), np.ones(bits.size, dtype=bool),
                      ((msb_probability, lsb_probability),) * 2, rng, mode)
    return saturate_float16(bits).astype(np.float16)
