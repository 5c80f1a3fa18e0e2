import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinforms.bases import (
    basis_from_orthogonal,
    canonical_synthesize,
    magic_basis,
    random_real_orthogonal,
    state_coefficients,
)
from spinforms.core import (
    DEFAULT_TOL,
    LocalOperatorList,
    PureState,
    apply,
    basis_state,
    expand_local,
    make_state,
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
from spinforms.flip import bilinear_form_dense, flip_state_dense

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
    for seed in range(5):
        assert tangle(random_state(3, seed)) == pytest.approx(0.0, abs=1e-14)
        assert tangle(random_state(5, seed)) == pytest.approx(0.0, abs=1e-14)


def test_tangle_range():
    for seed in range(50):
        value = tangle(random_state(4, seed))
        assert -1e-12 <= value <= 1.0 + 1e-10


def test_tangle_warns_on_unnormalized_input():
    doubled = make_state(2, 2.0 * BELL.amp)
    with pytest.warns(UserWarning):
        value = tangle(doubled)
    assert value == pytest.approx(1.0, abs=1e-10)


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
    tol = DEFAULT_TOL.tol_residual
    d = ratio * tol
    rng = np.random.default_rng(seed)
    nu = rng.normal(size=1 << n)
    nu /= np.linalg.norm(nu)
    u = rng.normal(size=1 << n)
    u -= (u @ nu) * nu
    u /= np.linalg.norm(u)
    amp = np.exp(1j * theta) * canonical_synthesize(n, np.sqrt(1.0 - d * d) * nu + 1j * d * u)
    report = is_maximally_entangled(PureState(n, amp))
    assert report.passed == (d <= tol)
    assert report.criteria_agree
    assert abs(report.phase_residual - d) <= 1e-6 * d
