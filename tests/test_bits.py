import numpy as np
import pytest

from spinforms.bits import (
    bits_to_index,
    i_power,
    index_to_bits,
    parity_signs,
)


@pytest.mark.parametrize("n", range(1, 11))
def test_index_round_trip_exhaustive(n):
    for k in range(1 << n):
        assert bits_to_index(index_to_bits(k, n)) == k


def test_msb_first_labeling():
    # |j_1 j_2 j_3> = |1 0 1> sits at flat index 0b101
    assert index_to_bits(0b101, 3) == (1, 0, 1)
    assert bits_to_index((1, 0, 1)) == 5


def test_index_out_of_range():
    with pytest.raises(ValueError):
        index_to_bits(8, 3)
    with pytest.raises(ValueError):
        bits_to_index((0, 2, 1))


@pytest.mark.parametrize("n", range(17))
def test_bit_counts_and_parity_signs_match_python(n):
    want = np.array([bin(k).count("1") for k in range(1 << n)])
    signs = parity_signs(n)
    assert signs.dtype == np.float64
    np.testing.assert_array_equal(signs, 1.0 - 2.0 * (want % 2))


def test_parity_signs():
    signs = parity_signs(3)
    assert list(signs) == [1, -1, -1, 1, -1, 1, 1, -1]


def test_power_lookups_exact():
    for m in range(-8, 9):
        assert i_power(m) == 1j**(m % 4)
        assert i_power(-m) == (-1j) ** (m % 4)
    assert i_power(2) == -1 + 0j
    assert i_power(-1) == -1j
