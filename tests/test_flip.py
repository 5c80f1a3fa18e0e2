import sys
import tracemalloc

import numpy as np
import pytest

from spinforms import bases, flip, groups, selftest
from spinforms.bits import i_power, parity_signs
from spinforms.core import (
    GlobalOperator,
    LocalOperatorList,
    PureState,
    basis_state,
    expand_local,
    make_state,
    random_operator,
    random_state,
)
from spinforms.bases import canonical_coefficients, canonical_synthesize
from spinforms.flip import (
    _TILE_BITS,
    SIGMA_Y,
    FormKind,
    _form_gram,
    bilinear_form,
    bilinear_form_dense,
    flip_amplitudes,
    flip_local,
    flip_operator,
    flip_state,
    flip_state_dense,
    signed_reversal,
    spin_flip_matrix,
)
from spinforms.entanglement import tangle

S2 = 1.0 / np.sqrt(2.0)


def test_flip_single_qubit():
    np.testing.assert_array_equal(flip_state(basis_state(1, 0)).amp, [0, 1j])
    np.testing.assert_array_equal(flip_state(basis_state(1, 1)).amp, [-1j, 0])


def test_flip_two_qubits():
    np.testing.assert_allclose(flip_state(basis_state(2, 0)).amp, [0, 0, 0, -1])


@pytest.mark.parametrize("n", range(1, 7))
def test_double_flip_sign(n):
    psi = random_state(n, n)
    twice = flip_state(flip_state(psi))
    np.testing.assert_allclose(twice.amp, (-1.0) ** n * psi.amp, atol=1e-14)


def test_flip_antilinearity():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        psi, phi = random_state(n, rng), random_state(n, rng)
        a, b = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        combo = PureState(n, a * psi.amp + b * phi.amp)
        want = np.conj(a) * flip_state(psi).amp + np.conj(b) * flip_state(phi).amp
        np.testing.assert_allclose(flip_state(combo).amp, want, atol=1e-12)


def test_flip_conjugates_hilbert_inner():
    rng = np.random.default_rng(8)
    for n in (1, 2, 4):
        psi, phi = random_state(n, rng), random_state(n, rng)
        lhs = np.vdot(flip_state(psi).amp, flip_state(phi).amp)
        rhs = np.conj(np.vdot(psi.amp, phi.amp))
        assert abs(lhs - rhs) < 1e-12


def test_flip_local_values():
    np.testing.assert_array_equal(flip_local(np.eye(2)), np.eye(2))
    np.testing.assert_allclose(flip_local(SIGMA_Y), -SIGMA_Y)


def test_flip_local_antilinearity():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    za, zb = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
    np.testing.assert_allclose(
        flip_local(za * a + zb * b),
        np.conj(za) * flip_local(a) + np.conj(zb) * flip_local(b),
        atol=1e-12,
    )


def test_flip_operator_identity():
    for n in (1, 2, 3):
        eye = GlobalOperator(n, np.eye(1 << n))
        np.testing.assert_allclose(flip_operator(eye).mat, np.eye(1 << n), atol=1e-14)


def test_flip_operator_matches_dense_conjugation():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        op = random_operator(n, rng)
        f = spin_flip_matrix(n)
        dense = f @ np.conj(op.mat) @ np.linalg.inv(f)
        np.testing.assert_allclose(flip_operator(op).mat, dense, atol=1e-12)
    for n in range(1, 9):
        # the entrywise definition s_a s_b conj(M)[~a, ~b], exactly
        op, signs = random_operator(n, rng), parity_signs(n)
        want = np.conj(op.mat)[::-1, ::-1] * np.outer(signs, signs)
        flipped = flip_operator(op).mat
        np.testing.assert_array_equal(flipped, want)
        assert flipped.flags.c_contiguous


def test_flip_operator_factorizes_over_tensor_products():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    flipped = flip_operator(expand_local(LocalOperatorList((a, b))))
    want = expand_local(LocalOperatorList((flip_local(a), flip_local(b))))
    np.testing.assert_allclose(flipped.mat, want.mat, atol=1e-12)


def test_flip_operator_algebra():
    rng = np.random.default_rng(12)
    n = 3
    for _ in range(20):
        a, b = random_operator(n, rng), random_operator(n, rng)
        psi = random_state(n, rng)
        bar_a, bar_b = flip_operator(a), flip_operator(b)
        # involution
        np.testing.assert_allclose(flip_operator(bar_a).mat, a.mat, atol=1e-12)
        # intertwines state flipping
        np.testing.assert_allclose(
            flip_state(PureState(n, a.mat @ psi.amp)).amp,
            bar_a.mat @ flip_state(psi).amp,
            atol=1e-12,
        )
        # multiplicative
        np.testing.assert_allclose(
            flip_operator(GlobalOperator(n, a.mat @ b.mat)).mat, bar_a.mat @ bar_b.mat, atol=1e-12
        )
        # commutes with the adjoint
        np.testing.assert_allclose(
            flip_operator(GlobalOperator(n, a.mat.conj().T)).mat, bar_a.mat.conj().T, atol=1e-12
        )
        # commutes with the inverse
        np.testing.assert_allclose(
            flip_operator(GlobalOperator(n, np.linalg.inv(a.mat))).mat,
            np.linalg.inv(bar_a.mat),
            atol=1e-8,
        )


def test_bilinear_form_single_qubit_matrix():
    got = np.array(
        [
            [bilinear_form(basis_state(1, j), basis_state(1, k)).value for k in range(2)]
            for j in range(2)
        ]
    )
    np.testing.assert_array_equal(got, [[0, -1j], [1j, 0]])


def test_bilinear_form_examples():
    psi = make_state(2, [S2, 0, 0, -S2])
    assert bilinear_form(psi, psi).value == pytest.approx(1.0)
    odd = random_state(3, 13)
    assert abs(bilinear_form(odd, odd).value) < 1e-14
    with pytest.raises(ValueError):
        bilinear_form(basis_state(1, 0), basis_state(2, 0))


def test_overflowing_form_has_no_nan_part():
    # the exact values are -1e400 and 1e400 i: the phase (-i)^n must not turn inf * 0 into NaN
    bell = make_state(2, [1e200 * S2, 0, 0, 1e200 * S2])
    low, high = np.zeros(8), np.zeros(8)
    low[0], high[7] = 1e200, 1e200
    with np.errstate(over="ignore"):
        values = [bilinear_form(bell, bell).value, bilinear_form(make_state(3, low), make_state(3, high)).value]
    assert values == [complex(-np.inf, 0), complex(0, np.inf)]


def test_bilinear_form_kind():
    psi2 = random_state(2, 14)
    psi3 = random_state(3, 14)
    assert bilinear_form(psi2, psi2).kind is FormKind.ORTHOGONAL
    assert bilinear_form(psi3, psi3).kind is FormKind.SYMPLECTIC


def test_form_equals_flipped_inner_product_both_paths():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 4):
        psi, phi = random_state(n, rng), random_state(n, rng)
        value = bilinear_form(psi, phi).value
        assert abs(value - np.vdot(flip_state(psi).amp, phi.amp)) < 1e-14
        assert abs(value - np.vdot(flip_state_dense(psi).amp, phi.amp)) < 1e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_matches_dense_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        psi, phi = random_state(n, rng), random_state(n, rng)
        np.testing.assert_allclose(
            flip_state(psi).amp, flip_state_dense(psi).amp, atol=1e-12
        )
        assert abs(bilinear_form(psi, phi).value - bilinear_form_dense(psi, phi).value) < 1e-12


def test_dense_oracle_cap():
    with pytest.raises(ValueError):
        spin_flip_matrix(9)


@pytest.mark.parametrize("n, kind", [(2, FormKind.ORTHOGONAL), (3, FormKind.SYMPLECTIC)])
def test_form_parity_check(n, kind):
    assert FormKind.for_qubits(n) is kind
    assert selftest.check_form_parity((n,), 50, seed=1).passed  # within 1e-12


def test_signed_reversal_definition():
    # row k is (-1)^popcount(~k) x[~k]
    x = np.arange(1.0, 9.0)
    want = [(-1) ** bin(7 - k).count("1") * x[7 - k] for k in range(8)]
    np.testing.assert_array_equal(signed_reversal(x), want)
    for length in (0, 3, 6, 12, 3 << 13, (1 << 15) + 2):
        with pytest.raises(ValueError):
            signed_reversal(np.ones(length))
        with pytest.raises(ValueError):
            signed_reversal(np.ones((length, 2)))


def _zero_bearing_state(n: int, seed: int) -> np.ndarray:
    """Random amplitudes with signed zeros in both parts, so bit patterns are compared in full."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    x.real[::3], x.imag[1::5], x.real[2::7] = 0.0, -0.0, -0.0
    return x


@pytest.mark.parametrize("n", range(1, 19))
def test_kernels_match_the_full_mask_formula(n):
    # the kernels sign tiles of the reversed input; the reference builds the whole 2^n mask
    x, y = _zero_bearing_state(n, 60 + n), _zero_bearing_state(n, 80 + n)
    flipped = flip_amplitudes(x)
    # bit for bit in the kernel's order: the conjugate times the phased sign; the sign-first order agrees in value,
    # the two differing only in the sign of an exactly-zero part
    phased = parity_signs(n)[::-1] * i_power(n)
    np.testing.assert_array_equal(flipped.view(np.uint64), (np.conj(x[::-1]) * phased).view(np.uint64))
    np.testing.assert_array_equal(flipped, np.conj(x[::-1] * parity_signs(n)[::-1]) * i_power(n))
    if n <= 8:
        np.testing.assert_array_equal(flipped, flip_state_dense(PureState(n, x)).amp)
    matrix = np.stack([x, y], axis=1)
    want = matrix[::-1] * parity_signs(n)[::-1, None]
    np.testing.assert_array_equal(signed_reversal(matrix).view(np.uint64), want.view(np.uint64))
    psi, phi = PureState(n, x / np.linalg.norm(x)), PureState(n, y / np.linalg.norm(y))
    form = np.dot(psi.amp[::-1] * parity_signs(n)[::-1], phi.amp) * i_power(-n)
    assert abs(bilinear_form(psi, phi).value - form) <= 1e-14
    self_form = np.dot(psi.amp[::-1] * parity_signs(n)[::-1], psi.amp)
    assert abs(tangle(psi) - abs(self_form)) <= 1e-14
    if n % 2 == 0:
        coeffs, amps = _magic_transforms_with_the_full_mask(n, x, y)
        np.testing.assert_array_equal(canonical_coefficients(n, x).view(np.uint64), coeffs.view(np.uint64))
        np.testing.assert_array_equal(canonical_synthesize(n, y).view(np.uint64), amps.view(np.uint64))


def _magic_transforms_with_the_full_mask(n: int, x: np.ndarray, c: np.ndarray):
    """V^H x and V c for the magic basis, with the whole mask c_k = i^n (-1)^popcount(k) over k < 2^(n-1)."""
    h = 1 << (n - 1)
    phases = parity_signs(n - 1) * i_power(n).real
    reflected = x[::-1][:h] * phases
    coeffs = np.empty(1 << n, dtype=np.complex128)
    coeffs[0::2] = (x[:h] + reflected) * S2
    coeffs[1::2] = (x[:h] - reflected) * (-1j * S2)
    i_odd = 1j * c[1::2]
    amps = np.empty(1 << n, dtype=np.complex128)
    amps[:h] = (c[0::2] + i_odd) * S2
    amps[::-1][:h] = (c[0::2] - i_odd) * (phases * S2)
    return coeffs, amps


@pytest.mark.parametrize("n", [3, 13, 14, 16])
def test_signed_reversal_stops_like_a_slice(n):
    v = _zero_bearing_state(n, 70 + n)
    tile, dim = 1 << _TILE_BITS, 1 << n
    for x in (v, np.stack([v, -v], axis=1)):
        for stop in (0, 1, 5, tile - 1, tile, tile + 3, 2 * tile, dim // 2, dim, dim + 9):
            got = signed_reversal(x, stop)
            assert got.shape == x[:stop].shape
            np.testing.assert_array_equal(got.view(np.uint64), signed_reversal(x)[:stop].view(np.uint64))


@pytest.mark.parametrize("n", range(1, 11))
def test_operator_kernels_match_the_full_mask_formulas(n):
    rng = np.random.default_rng(120 + n)
    m = np.stack([_zero_bearing_state(n, int(seed)) for seed in rng.integers(0, 2**31, size=1 << n)], axis=1)
    # flip(M)[a, b] = s_a s_b conj(M)[~a, ~b], signed row-wise then column-wise with s = parity_signs(n)
    want = np.conj(m[::-1, ::-1])
    want *= parity_signs(n)[:, None]
    want *= parity_signs(n)
    np.testing.assert_array_equal(flip_operator(GlobalOperator(n, m)).mat.view(np.uint64), want.view(np.uint64))
    # the form Gram as X^T + (-1)^n X, X = m[::-1][:h]^T (s * m[:h]) with s = parity_signs(n - 1)
    h = 1 << (n - 1)
    half = m[::-1][:h].T @ (parity_signs(n - 1)[:, None] * m[:h])
    gram = half.T + half if n % 2 == 0 else half.T - half
    np.testing.assert_array_equal(_form_gram(m).view(np.uint64), gram.view(np.uint64))


def test_reversal_signs_come_only_from_the_tile(monkeypatch):
    # R's sign is built in one place: the tile of _signed_blocks, never a mask longer than 2^_TILE_BITS
    calls = []

    def recording(n):
        calls.append((sys._getframe(1).f_code.co_name, n))
        return parity_signs(n)

    for module in (flip, bases):
        monkeypatch.setattr(module, "parity_signs", recording)
    x = _zero_bearing_state(16, 130)
    canonical_coefficients(16, x)
    canonical_synthesize(16, x)
    op = random_operator(8, 131)
    _form_gram(op.mat)
    flip_operator(op)
    groups.is_form_preserving(op)
    assert calls
    assert all(caller == "_signed_blocks" and n <= _TILE_BITS for caller, n in calls), calls
    assert not hasattr(groups, "parity_signs")


@pytest.mark.parametrize("n", [*range(1, 7), 13, 14, 17])
def test_signed_reversal_and_flip_act_column_by_column(n):
    rng = np.random.default_rng(40 + n)
    x = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
    for kernel in (signed_reversal, flip_amplitudes):
        out = kernel(x)
        assert out.flags.c_contiguous
        for j in range(3):
            np.testing.assert_array_equal(out[:, j], kernel(x[:, j]))


@pytest.mark.parametrize("n", range(1, 9))
def test_flip_amplitudes_match_dense_oracle(n):
    psi = random_state(n, 50 + n)
    np.testing.assert_array_equal(flip_amplitudes(psi.amp), flip_state_dense(psi).amp)


def test_flip_local_rejects_non_2x2():
    for a in (np.eye(3), np.eye(4), np.ones(2)):
        with pytest.raises(ValueError):
            flip_local(a)


def _peak_bytes(call) -> int:
    call()  # warm up, so one-time allocations are not counted
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_form_and_tangle_allocate_no_full_size_array():
    n = 18
    psi, phi = random_state(n, 90), random_state(n, 91)
    # a sign mask would take half the state's bytes, a signed copy all of them
    assert _peak_bytes(lambda: bilinear_form(psi, phi)) < psi.amp.nbytes / 8
    assert _peak_bytes(lambda: tangle(psi)) < psi.amp.nbytes / 8


def test_flip_allocates_little_beyond_its_output():
    psi = random_state(18, 92)
    assert _peak_bytes(lambda: flip_amplitudes(psi.amp)) <= 1.1 * psi.amp.nbytes
    assert _peak_bytes(lambda: flip_state(psi)) <= 1.1 * psi.amp.nbytes


def test_flip_state_keeps_its_frozen_output():
    flipped = flip_state(random_state(5, 93))
    assert not flipped.amp.flags.writeable
    assert PureState(5, flipped.amp).amp is flipped.amp
