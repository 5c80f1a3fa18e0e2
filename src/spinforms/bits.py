"""Bit-index utilities for flat state vectors labeled MSB-first (qubit 1 leftmost)."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# Exact powers of i, indexed by exponent mod 4.  Multiplying by these is a
# sign/swap operation in IEEE arithmetic, so phase factors never accumulate
# rounding error.
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def i_power(m: int) -> complex:
    """i**m, exact, via mod-4 lookup."""
    return _I_POW[m % 4]


def parity_signs(n: int) -> np.ndarray:
    """(-1)**popcount(k) for every flat index k in [0, 2**n), built one qubit at a time.

    For h a power of two, index h + k (k < h) has one more set bit than k,
    so each doubling appends the negated prefix.
    """
    signs = np.empty(1 << n)
    signs[0] = 1.0
    h = 1
    while h < signs.size:
        np.negative(signs[:h], out=signs[h : 2 * h])
        h *= 2
    return signs


def index_to_bits(k: int, n: int) -> tuple[int, ...]:
    """Bit label (j_1, ..., j_n) of flat index k; j_1 is the most significant bit."""
    if not 0 <= k < (1 << n):
        raise ValueError(f"index {k} out of range for {n} qubits")
    return tuple((k >> (n - 1 - i)) & 1 for i in range(n))


def bits_to_index(bits: Sequence[int]) -> int:
    """Flat index of a bit label, first bit most significant."""
    k = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit label entries must be 0 or 1, got {b}")
        k = (k << 1) | b
    return k
