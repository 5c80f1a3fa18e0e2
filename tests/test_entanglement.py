import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinforms.bases import (
    basis_from_orthogonal,
    canonical_coefficients,
    canonical_synthesize,
    magic_basis,
    random_real_orthogonal,
    self_conjugacy_coefficient_check,
    state_coefficients,
)
from spinforms.core import (
    NORM_TOL,
    RESIDUAL_TOL,
    LocalOperatorList,
    PureState,
    apply,
    basis_state,
    expand_local,
    make_state,
    normalize,
    random_sl2,
    random_state,
)
from spinforms.entanglement import (
    amplitude_bound_check,
    is_maximally_entangled,
    maxent_generate,
    maxent_structure_check,
    polygon,
    polygon_collinearity_residual,
    tangle,
    tangle_from_coefficients,
    tangle_result,
)
from spinforms.flip import _signed_dot, bilinear_form, bilinear_form_dense, flip_amplitudes, flip_state_dense

S2 = 1.0 / np.sqrt(2.0)
BELL = make_state(2, [S2, 0, 0, S2])
GHZ4 = make_state(4, [S2] + [0.0] * 14 + [S2])


def w_state_4():
    amp = np.zeros(16)
    amp[[1, 2, 4, 8]] = 0.5
    return make_state(4, amp)


def test_tangle_goldens():
    assert tangle(BELL) == pytest.approx(1.0, abs=1e-10)
    assert tangle(basis_state(2, 0)) == pytest.approx(0.0, abs=1e-10)
    assert tangle(GHZ4) == pytest.approx(1.0, abs=1e-10)
    assert tangle(w_state_4()) == pytest.approx(0.0, abs=1e-10)


def test_tangle_vanishes_for_odd_n():
    # the form is antisymmetric for odd n, so the tangle is exactly zero; the norm is still checked
    for seed in range(5):
        assert tangle(random_state(3, seed)) == 0.0
        assert tangle(random_state(5, seed)) == 0.0
    with pytest.warns(UserWarning, match="norm"):
        assert tangle(make_state(3, 3.0 * random_state(3, 5).amp)) == 0.0
    with pytest.raises(ValueError, match="zero vector"):
        tangle(make_state(3, np.zeros(8)))


def test_tangle_range():
    for seed in range(50):
        value = tangle(random_state(4, seed))
        assert -1e-12 <= value <= 1.0 + 1e-10


def test_tangle_warns_on_unnormalized_input():
    doubled = make_state(2, 2.0 * BELL.amp)
    with pytest.warns(UserWarning):
        value = tangle(doubled)
    assert value == pytest.approx(1.0, abs=1e-10)


SCALES = [1e200, 1e155, 1e-160, 1e-170, 1e-300]


@pytest.mark.parametrize("scale", SCALES)
def test_scaled_bell_state_normalizes_and_keeps_its_tangle(scale):
    # norm^2 over- or underflows at these scales, the norm itself does not
    scaled = make_state(2, [scale, 0, 0, scale])
    np.testing.assert_allclose(normalize(scaled).amp, BELL.amp, rtol=2.3e-16, atol=0)
    with pytest.warns(UserWarning, match="norm"):
        assert abs(tangle(scaled) - 1.0) <= 2.3e-16
    with pytest.warns(UserWarning, match="norm"):
        assert abs(tangle_result(scaled).value - 1.0) <= 2.3e-16
    with pytest.warns(UserWarning, match="norm"):
        assert is_maximally_entangled(scaled).passed


@pytest.mark.parametrize("n", [2, 8, 14, 16])
def test_tangle_checks_the_norm_in_its_own_read(n):
    h = 1 << (n - 1)
    psi = random_state(n, 30 + n)
    for off in (0.5 * NORM_TOL, -0.5 * NORM_TOL):
        # within NORM_TOL: no warning, and the value is the half-row signed dot, bit for bit
        near = PureState(n, psi.amp * np.sqrt(1.0 + off))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = tangle(near)
        assert np.float64(value).view(np.uint64) == np.float64(2.0 * abs(_signed_dot(near.amp, near.amp, h))).view(
            np.uint64
        )
    for off in (2 * NORM_TOL, -2 * NORM_TOL):
        off_norm = PureState(n, psi.amp * np.sqrt(1.0 + off))
        with pytest.warns(UserWarning, match="norm"):
            value = tangle(off_norm)
        assert abs(value - tangle(normalize(off_norm))) <= 1e-15


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_tangle_rescales_an_out_of_range_norm_with_only_the_norm_warning(scale):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = tangle(make_state(2, [scale, 0, 0, scale]))
    assert [(w.category, "norm" in str(w.message)) for w in caught] == [(UserWarning, True)]
    assert abs(value - 1.0) <= 2.3e-16


def _peak_bytes(call) -> int:
    call()  # warm up, so one-time allocations are not counted
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tangle_norm_check_allocates_nothing_state_sized():
    # the norm rides on the form's read: beyond the form's tile and buffer it allocates under 1 % of the
    # state's bytes, so no block of the reversed view is copied for np.vdot
    psi = random_state(18, 94)
    assert _peak_bytes(lambda: tangle(psi)) - _peak_bytes(lambda: bilinear_form(psi, psi)) < psi.amp.nbytes / 100


def test_maxent_checks_allocate_no_flip_of_the_state():
    # the structural residual is summed in one tile-sized buffer, so the coefficient vector is the one
    # state-sized array of is_maximally_entangled, and maxent_structure_check has none
    psi = maxent_generate(18, 0.3, np.full(1 << 18, 2.0**-9))
    assert _peak_bytes(lambda: is_maximally_entangled(psi)) <= 1.1 * psi.amp.nbytes
    assert _peak_bytes(lambda: maxent_structure_check(psi)) < psi.amp.nbytes / 8


def test_self_conjugacy_check_allocates_no_flip_of_the_state():
    # max |flip(x) - x| is taken block by block in one tile-sized buffer, and equals the whole-state max
    for psi in (maxent_generate(18, 0.3, np.full(1 << 18, 2.0**-9)), random_state(18, 95)):
        assert _peak_bytes(lambda: self_conjugacy_coefficient_check(psi)) < psi.amp.nbytes / 8
        want = float(np.max(np.abs(flip_amplitudes(psi.amp) - psi.amp)))
        assert self_conjugacy_coefficient_check(psi).max_residual == want


def test_normalize_divides_by_the_norm_bit_for_bit():
    rng = np.random.default_rng(17)
    for exponent in np.linspace(-100, 100, 40):
        n = int(rng.integers(1, 15))
        z = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)) * 10.0**exponent
        psi = PureState(n, z)
        assert psi.norm() == np.linalg.norm(z)
        np.testing.assert_array_equal(normalize(psi).amp.view(np.uint64), (z / np.linalg.norm(z)).view(np.uint64))


def test_concurrence():
    # for two qubits the tangle is the Hill-Wootters concurrence
    assert tangle(BELL) == pytest.approx(1.0, abs=1e-10)
    assert tangle(basis_state(2, 1)) == pytest.approx(0.0, abs=1e-12)
    plus_plus = make_state(2, [0.5, 0.5, 0.5, 0.5])
    assert tangle(plus_plus) == pytest.approx(0.0, abs=1e-12)


def test_tangle_from_coefficients():
    c = np.zeros(4)
    c[0] = 1.0
    assert tangle_from_coefficients(c) == pytest.approx(1.0)
    assert tangle_from_coefficients([S2, 1j * S2, 0, 0]) == pytest.approx(0.0, abs=1e-14)


def test_tangle_from_coefficients_matches_direct():
    basis = magic_basis(2)
    for seed in range(20):
        psi = random_state(2, 300 + seed)
        c = state_coefficients(basis, psi)
        assert tangle_from_coefficients(c) == pytest.approx(tangle(psi), abs=1e-10)


def test_basis_independence_of_coefficient_tangle():
    for seed in range(10):
        basis = basis_from_orthogonal(random_real_orthogonal(16, 400 + seed))
        psi = random_state(4, 500 + seed)
        c = state_coefficients(basis, psi)
        assert tangle_from_coefficients(c) == pytest.approx(tangle(psi), abs=1e-10)


@pytest.mark.parametrize("n", [2, 6, 12])
def test_squares_match_the_full_size_formulas(n):
    # np.dot(c, c) and the in-place cumulative sum against sum(c * c) and cumsum(c * c)
    for psi in (random_state(n, 90 + n), maxent_generate(n, 0.3, np.full(1 << n, 2.0 ** (-n / 2)))):
        c = canonical_coefficients(n, psi.amp)
        want = abs(complex(np.sum(c * c)))
        # BLAS sums sequentially and np.sum pairwise: the a priori bound for N terms is N eps sum |c_l|^2
        assert abs(tangle_from_coefficients(c) - want) <= c.size * np.finfo(float).eps * np.vdot(c, c).real
        sums = np.cumsum(c * c)
        np.testing.assert_allclose(polygon(c), np.column_stack([sums.real, sums.imag]), rtol=1e-15, atol=1e-15)


def test_polygon_values():
    np.testing.assert_allclose(polygon([1, 0, 0, 0]), [[1, 0], [1, 0], [1, 0], [1, 0]])
    np.testing.assert_allclose(polygon([S2, 1j * S2]), [[0.5, 0], [0, 0]], atol=1e-15)


def test_polygon_stays_in_unit_disk():
    rng = np.random.default_rng(42)
    for _ in range(100):
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        z /= np.linalg.norm(z)
        points = polygon(z)
        assert np.all(np.hypot(points[:, 0], points[:, 1]) <= 1.0 + 1e-12)


def test_polygon_endpoint_matches_tangle():
    psi = random_state(4, 77)
    result = tangle_result(psi)
    end = result.polygon[-1]
    assert np.hypot(end[0], end[1]) == pytest.approx(result.value, abs=1e-12)
    assert result.basis_used == "magic"


def test_amplitude_bound():
    basis = magic_basis(2)
    bell_report = amplitude_bound_check(BELL, basis)
    assert bell_report.passed
    assert bell_report.max_coeff_sq == pytest.approx(1.0, abs=1e-10)

    tight = amplitude_bound_check(basis_state(2, 0), basis)
    assert tight.passed
    # |00> splits evenly over one magic pair: the bound is attained
    assert tight.max_coeff_sq == pytest.approx(0.5, abs=1e-10)
    assert tight.slack == pytest.approx(0.0, abs=1e-10)


def test_amplitude_bound_random_states():
    basis = magic_basis(2)
    for seed in range(200):
        report = amplitude_bound_check(random_state(2, 600 + seed), basis)
        assert report.slack >= -1e-10


def test_amplitude_bound_rejects_bad_basis():
    from spinforms.bases import BasisSet

    computational = BasisSet(2, np.eye(4))
    with pytest.raises(ValueError):
        amplitude_bound_check(BELL, computational)


def test_tangle_result_rejects_bad_basis():
    from spinforms.bases import BasisSet

    # the computational basis is orthonormal but not form-orthonormal: its polygon would end off the tangle
    with pytest.raises(ValueError, match="not bi-orthonormal"):
        tangle_result(random_state(2, 1), BasisSet(2, np.eye(4)))
    result = tangle_result(random_state(2, 1), magic_basis(2))
    assert abs(complex(*result.polygon[-1])) == pytest.approx(result.value, abs=1e-12)


def test_maxent_golden_cases():
    report = is_maximally_entangled(GHZ4)
    assert report.passed
    assert report.theta is not None
    assert abs(np.sum(report.nu**2) - 1.0) <= 1e-10

    assert not is_maximally_entangled(basis_state(4, 0)).passed
    assert not is_maximally_entangled(basis_state(2, 0)).passed


def test_maxent_structure_check_examples():
    assert maxent_structure_check(GHZ4).passed
    assert maxent_structure_check(BELL).passed
    assert not maxent_structure_check(basis_state(4, 0b0011)).passed
    with pytest.raises(ValueError):
        maxent_structure_check(basis_state(3, 0))


def test_maxent_structure_check_allocates_one_state_sized_array():
    # the flip output is rotated and differenced in place; no e^{-2i theta} psi temporary
    psi = maxent_generate(16, 0.3, np.full(1 << 16, 2.0**-8))
    maxent_structure_check(psi)
    tracemalloc.start()
    try:
        assert maxent_structure_check(psi).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the flip output, plus the real parts np.linalg.norm gathers for the half-sum (a quarter of it)
    assert peak < 1.5 * psi.amp.nbytes


def test_maxent_generate_first_magic_vector():
    psi = maxent_generate(2, 0.0, [1.0, 0, 0, 0])
    np.testing.assert_allclose(psi.amp, magic_basis(2).matrix()[:, 0], atol=1e-15)
    assert tangle(psi) == pytest.approx(1.0, abs=1e-12)


def test_coefficient_view_beyond_the_dense_cap():
    # the magic-basis transform is O(2^n), so these run above the 12-qubit basis cap
    n = 14
    psi = random_state(n, 14)
    assert abs(complex(*tangle_result(psi).polygon[-1])) == pytest.approx(tangle(psi), abs=1e-12)
    nu = np.random.default_rng(14).normal(size=1 << n)
    psi = maxent_generate(n, 0.4, nu / np.linalg.norm(nu))
    assert is_maximally_entangled(psi).passed


def test_maxent_generate_round_trip():
    rng = np.random.default_rng(55)
    for n in (2, 4):
        for _ in range(20):
            nu = rng.normal(size=1 << n)
            nu /= np.linalg.norm(nu)
            theta = float(rng.uniform(0, 2 * np.pi))
            psi = maxent_generate(n, theta, nu)
            assert tangle(psi) == pytest.approx(1.0, abs=1e-10)
            assert is_maximally_entangled(psi).passed


def test_maxent_generate_example_state():
    psi = maxent_generate(2, 0.0, [0.6, 0.8, 0, 0])
    np.testing.assert_allclose(
        psi.amp, [(0.6 + 0.8j) * S2, 0, 0, (-0.6 + 0.8j) * S2], atol=1e-12
    )
    assert tangle(psi) == pytest.approx(1.0, abs=1e-12)


def test_maxent_check_tolerates_off_normalization():
    # an off-contract norm must warn, not trip the internal coherence assert
    psi = maxent_generate(2, 0.3, [0.6, 0.8, 0, 0])
    off = make_state(2, psi.amp * 1.000001)
    with pytest.warns(UserWarning):
        report = is_maximally_entangled(off)
    assert report.passed


def test_maxent_generate_rejects_bad_nu():
    with pytest.raises(ValueError):
        maxent_generate(2, 0.0, [1.0, 1.0, 0, 0])
    with pytest.raises(ValueError):
        maxent_generate(3, 0.0, [1.0] + [0.0] * 7)
    with pytest.raises(ValueError):
        maxent_generate(2, 0.0, [1.0, 0])


def test_maxent_generate_square_sum_at_the_norm_threshold():
    # the first magic vector with nu_0^2 = 1 + off: NORM_TOL is 1e-12
    with pytest.raises(ValueError, match="unit square sum"):
        maxent_generate(2, 0.0, [np.sqrt(1 + 2e-12), 0, 0, 0])
    psi = maxent_generate(2, 0.0, [np.sqrt(1 + 5e-13), 0, 0, 0])
    np.testing.assert_allclose(psi.amp, magic_basis(2).matrix()[:, 0], atol=1e-12)


def test_maxent_generate_rejects_overflowing_nu():
    # the square sum overflows to inf, which is rejected without a RuntimeWarning
    with pytest.raises(ValueError, match="unit square sum, got inf"):
        maxent_generate(2, 0.0, [1e200, 0, 0, 0])


def test_three_conditions_agree():
    rng = np.random.default_rng(66)
    for _ in range(100):
        report = is_maximally_entangled(random_state(2, int(rng.integers(0, 2**31))))
        assert report.criteria_agree
        nu = rng.normal(size=4)
        nu /= np.linalg.norm(nu)
        report = is_maximally_entangled(maxent_generate(2, float(rng.uniform(0, np.pi)), nu))
        assert report.passed and report.criteria_agree


def test_perturbed_maximal_states_criteria_agree():
    # the phase and structure criteria are one quantity d on one scale (the
    # structure residual is 2d), so near maximal entanglement they still agree
    rng = np.random.default_rng(2024)
    for _ in range(300):
        nu = rng.normal(size=4)
        nu /= np.linalg.norm(nu)
        amp = maxent_generate(2, float(rng.uniform(0, 2 * np.pi)), nu).amp
        amp = amp + rng.uniform(0, 1e-4) * random_state(2, rng).amp
        report = is_maximally_entangled(make_state(2, amp / np.linalg.norm(amp)))
        assert report.passed == (report.phase_residual <= 1e-8)
        assert report.criteria_agree


def test_polygon_straight_for_maximal_states():
    rng = np.random.default_rng(88)
    for n in (2, 4):
        for _ in range(20):
            nu = rng.normal(size=1 << n)
            nu /= np.linalg.norm(nu)
            psi = maxent_generate(n, float(rng.uniform(0, 2 * np.pi)), nu)
            assert polygon_collinearity_residual(tangle_result(psi).polygon) <= 1e-10


def test_sl_invariance_of_tangle():
    for n in (2, 4):
        for seed in range(10):
            local = LocalOperatorList(tuple(random_sl2(700 + seed * n + q) for q in range(n)))
            psi = random_state(n, 800 + seed)
            moved = apply(expand_local(local), psi)
            with pytest.warns(UserWarning):
                # SL(2) factors generally change the Hilbert norm
                moved_tangle = tangle(moved)
            norm_sq = moved.norm() ** 2
            assert moved_tangle * norm_sq == pytest.approx(tangle(psi), abs=1e-8)


@pytest.mark.parametrize(
    "theta, nu, name",
    [(np.nan, [1.0, 0, 0, 0], "theta"), (np.inf, [1.0, 0, 0, 0], "theta"), (0.0, [np.nan, 0, 0, 0], "nu")],
)
def test_maxent_generate_rejects_non_finite_input(theta, nu, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        maxent_generate(2, theta, nu)


def _structure_by_rotation(psi):
    """Rotate by e^{-i theta}, flip, subtract: the structure residuals through the dense oracle."""
    theta = float(np.angle(bilinear_form_dense(psi, psi).value) / 2.0)
    rotated = PureState(psi.n, np.exp(-1j * theta) * psi.amp)
    relation = float(np.linalg.norm(flip_state_dense(rotated).amp - rotated.amp))
    half_sum_gap = float(abs(np.sum(np.abs(rotated.amp[: psi.dim // 2]) ** 2) - 0.5))
    return relation, half_sum_gap


@pytest.mark.parametrize("n", [2, 4, 6])
def test_structure_residuals_match_rotate_then_flip(n):
    rng = np.random.default_rng(90 + n)
    for _ in range(10):
        nu = rng.normal(size=1 << n)
        maximal = maxent_generate(n, float(rng.uniform(0, 2 * np.pi)), nu / np.linalg.norm(nu)).amp
        near = maximal + rng.uniform(0, 1e-6) * random_state(n, rng).amp
        for psi in (random_state(n, rng), make_state(n, near / np.linalg.norm(near))):
            report = maxent_structure_check(psi)
            relation, half_sum_gap = _structure_by_rotation(psi)
            assert abs(report.relation_residual - relation) <= 1e-14
            assert abs(report.half_sum_gap - half_sum_gap) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6]),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(-np.pi, np.pi),
    ratio=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 2.0)),
)
def test_maxent_verdict_at_the_tolerance_boundary(n, seed, theta, ratio):
    # e^{i theta} (sqrt(1 - d^2) nu + i d u) with u orthogonal to nu is d away
    # from maximal entanglement; the half-sum gap is at most d, so the
    # structure criterion decides alike on both sides of the tolerance
    d = ratio * RESIDUAL_TOL
    rng = np.random.default_rng(seed)
    nu = rng.normal(size=1 << n)
    nu /= np.linalg.norm(nu)
    u = rng.normal(size=1 << n)
    u -= (u @ nu) * nu
    u /= np.linalg.norm(u)
    amp = np.exp(1j * theta) * canonical_synthesize(n, np.sqrt(1.0 - d * d) * nu + 1j * d * u)
    report = is_maximally_entangled(PureState(n, amp))
    assert report.passed == (d <= RESIDUAL_TOL)
    assert report.criteria_agree
    assert abs(report.phase_residual - d) <= 1e-6 * d
