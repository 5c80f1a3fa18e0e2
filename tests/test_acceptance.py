"""Acceptance criteria, one test per criterion, one printed pass/fail line each.

Counts and tolerances are pinned here; unit-level variants live in the other
test modules.
"""

import time

import numpy as np
import pytest

from spinforms.bases import (
    BasisSet,
    basis_from_orthogonal,
    basis_from_unitary_symplectic,
    canonical_j,
    check_biorthonormal,
    decompose_basis,
    magic_basis,
    product_biortho_basis,
    random_real_orthogonal,
    random_unitary_symplectic,
    self_conjugacy_coefficient_check,
    state_coefficients,
)
from spinforms.core import (
    GlobalOperator,
    LocalOperatorList,
    PureState,
    Tolerances,
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
    polygon_collinearity_residual,
    tangle,
    tangle_from_coefficients,
    tangle_result,
)
from spinforms.flip import (
    bilinear_form,
    bilinear_form_dense,
    flip_local,
    flip_operator,
    flip_state,
    flip_state_dense,
)
from spinforms.groups import homomorphism_check, represent_in_basis

S2 = 1.0 / np.sqrt(2.0)


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} [{detail}]")
    assert passed, f"{criterion}: {detail}"


def rand_operator(rng, n):
    dim = 1 << n
    return GlobalOperator(n, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def rel_residual(lhs, rhs):
    rhs = np.asarray(rhs)
    return float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(rhs)))


def test_01_oracle_equivalence():
    rng = np.random.default_rng(1)
    worst = 0.0
    start = time.perf_counter()
    for n in range(1, 9):
        for _ in range(100):
            psi, phi = random_state(n, rng), random_state(n, rng)
            worst = max(
                worst,
                float(np.max(np.abs(flip_state(psi).amp - flip_state_dense(psi).amp))),
                abs(bilinear_form(psi, phi).value - bilinear_form_dense(psi, phi).value),
            )
    elapsed = time.perf_counter() - start
    report(
        "01 oracle-equivalence",
        worst <= 1e-12 and elapsed < 10.0,
        f"max residual {worst:.2e} over n<=8, 100 states each, {elapsed:.1f}s",
    )


def test_02_form_parity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in (1, 2, 3, 4, 5, 6):
        sign = 1.0 if n % 2 == 0 else -1.0
        for _ in range(100):
            psi, phi = random_state(n, rng), random_state(n, rng)
            worst = max(
                worst,
                abs(bilinear_form(psi, phi).value - sign * bilinear_form(phi, psi).value),
            )
    report("02 form-parity", worst <= 1e-12, f"max exchange residual {worst:.2e}")


def test_03_operator_algebra():
    rng = np.random.default_rng(3)
    worst = {}

    def record(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

    for _ in range(100):
        n = int(rng.integers(1, 4))
        a, b = rand_operator(rng, n), rand_operator(rng, n)
        psi, phi = random_state(n, rng), random_state(n, rng)
        za, zb = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        bar_a, bar_b = flip_operator(a), flip_operator(b)

        record(
            "inner-conjugation",
            abs(
                np.vdot(flip_state(psi).amp, flip_state(phi).amp)
                - np.conj(np.vdot(psi.amp, phi.amp))
            ),
        )
        record(
            "antilinearity",
            rel_residual(
                flip_operator(GlobalOperator(n, za * a.mat + zb * b.mat)).mat,
                np.conj(za) * bar_a.mat + np.conj(zb) * bar_b.mat,
            ),
        )
        record("involution", rel_residual(flip_operator(bar_a).mat, a.mat))
        record(
            "identity-fixed",
            rel_residual(flip_operator(GlobalOperator(n, np.eye(1 << n))).mat, np.eye(1 << n)),
        )
        record(
            "intertwining",
            float(
                np.max(
                    np.abs(
                        flip_state(PureState(n, a.mat @ psi.amp)).amp
                        - bar_a.mat @ flip_state(psi).amp
                    )
                )
            ),
        )
        record(
            "multiplicativity",
            rel_residual(flip_operator(GlobalOperator(n, a.mat @ b.mat)).mat, bar_a.mat @ bar_b.mat),
        )
        record(
            "adjoint",
            rel_residual(flip_operator(GlobalOperator(n, a.mat.conj().T)).mat, bar_a.mat.conj().T),
        )
        record(
            "inverse",
            rel_residual(
                flip_operator(GlobalOperator(n, np.linalg.inv(a.mat))).mat,
                np.linalg.inv(bar_a.mat),
            ),
        )
        locals_ = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n)]
        record(
            "tensor-factorization",
            rel_residual(
                flip_operator(expand_local(LocalOperatorList(tuple(locals_)))).mat,
                expand_local(LocalOperatorList(tuple(flip_local(m) for m in locals_))).mat,
            ),
        )

    peak = max(worst.values())
    report(
        "03 operator-algebra",
        peak <= 1e-10,
        "max residual "
        + ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items(), key=lambda kv: -kv[1])[:3]),
    )


def test_04_magic_basis():
    worst_gram, worst_selfconj = 0.0, 0.0
    for n in (2, 4, 6):
        basis = magic_basis(n)
        result = check_biorthonormal(basis)
        worst_gram = max(worst_gram, result.hilbert_residual, result.form_residual)
        for v in basis.matrix().T:
            worst_selfconj = max(
                worst_selfconj, self_conjugacy_coefficient_check(PureState(n, v)).max_residual
            )
    report(
        "04 magic-basis",
        worst_gram <= 1e-10 and worst_selfconj <= 1e-10,
        f"gram residual {worst_gram:.2e}, self-conjugacy residual {worst_selfconj:.2e}",
    )


def test_05_orthogonal_round_trip():
    worst = 0.0
    controls_fail = True
    for n in (2, 4):
        dim = 1 << n
        for i in range(50):
            o = random_real_orthogonal(dim, 1000 * n + i)
            basis = basis_from_orthogonal(o)
            assert check_biorthonormal(basis).passed
            worst = max(worst, float(np.max(np.abs(decompose_basis(basis) - o))))
            if i < 5:
                mat = basis.matrix().copy()
                mat[:, i % dim] = np.exp(1j * np.pi / 4) * mat[:, i % dim]
                perturbed = BasisSet(n, mat)
                controls_fail = controls_fail and not check_biorthonormal(perturbed).passed
                with pytest.raises(ValueError):
                    decompose_basis(perturbed)
    report(
        "05 orthogonal-round-trip",
        worst <= 1e-8 and controls_fail,
        f"max recovery error {worst:.2e}, phase-perturbed controls fail: {controls_fail}",
    )


def test_06_even_homomorphism():
    worst_form, worst_mult = 0.0, 0.0
    for n in (2, 4):
        for i in range(100):
            local = LocalOperatorList(tuple(random_sl2(2000 * n + 10 * i + q) for q in range(n)))
            result = homomorphism_check(local, trials=1, seed=3000 * n + i)
            worst_form = max(worst_form, result.form_residual)
            worst_mult = max(worst_mult, result.max_multiplicativity_residual)
    report(
        "06 even-homomorphism",
        worst_form <= 1e-8 and worst_mult <= 1e-8,
        f"orthogonality {worst_form:.2e}, multiplicativity {worst_mult:.2e}, 100 draws per n in (2, 4)",
    )


def test_07_odd_homomorphism():
    worst_form, worst_mult = 0.0, 0.0
    for n in (3, 5):
        for i in range(100):
            local = LocalOperatorList(tuple(random_sl2(4000 * n + 10 * i + q) for q in range(n)))
            result = homomorphism_check(local, trials=1, seed=5000 * n + i)
            worst_form = max(worst_form, result.form_residual)
            worst_mult = max(worst_mult, result.max_multiplicativity_residual)
    # 1-qubit special case: SL(2) represented over {i|0>, |1>} is symplectic
    j = canonical_j(2)
    one_qubit = 0.0
    for i in range(100):
        r = represent_in_basis(
            expand_local(LocalOperatorList((random_sl2(6000 + i),))), product_biortho_basis(1)
        )
        one_qubit = max(one_qubit, float(np.linalg.norm(r.T @ j @ r - j)))
    report(
        "07 odd-homomorphism",
        worst_form <= 1e-8 and worst_mult <= 1e-8 and one_qubit <= 1e-8,
        f"symplecticity {worst_form:.2e}, multiplicativity {worst_mult:.2e}, 1-qubit case {one_qubit:.2e}",
    )


def test_08_unitary_symplectic_bases():
    all_pass = True
    for n in (1, 3):
        dim = 1 << n
        for i in range(50):
            s = random_unitary_symplectic(dim, 7000 * n + i)
            all_pass = all_pass and check_biorthonormal(basis_from_unitary_symplectic(s)).passed
    # negative controls: unitary-only and symplectic-only mixes must fail
    prod = product_biortho_basis(3).matrix()
    controls_fail = True
    for mix in (1j * np.eye(8), np.diag([2.0, 0.5] * 4).astype(complex)):
        mixed = prod @ mix.T
        controls_fail = controls_fail and not check_biorthonormal(BasisSet(3, mixed)).passed
    report(
        "08 unitary-symplectic-bases",
        all_pass and controls_fail,
        f"100 transformed bases pass: {all_pass}, negative controls fail: {controls_fail}",
    )


def test_09_coefficient_tangle_consistency():
    rng = np.random.default_rng(9)
    worst = 0.0
    for n in (2, 4):
        bases = [
            basis_from_orthogonal(random_real_orthogonal(1 << n, 8000 * n + i)) for i in range(10)
        ]
        states = [random_state(n, rng) for _ in range(100)]
        for basis in bases:
            for psi in states:
                coeffs = state_coefficients(basis, psi)
                worst = max(worst, abs(tangle_from_coefficients(coeffs) - tangle(psi)))
    report(
        "09 coefficient-tangle",
        worst <= 1e-10,
        f"max deviation {worst:.2e} over 20 bases x 100 states per n",
    )


def test_10_golden_values():
    bell = make_state(2, [S2, 0, 0, S2])
    ghz4 = make_state(4, [S2] + [0.0] * 14 + [S2])
    w4_amp = np.zeros(16)
    w4_amp[[1, 2, 4, 8]] = 0.5
    w4 = make_state(4, w4_amp)
    rng = np.random.default_rng(10)
    goldens = [
        ("tangle(bell)", tangle(bell), 1.0),
        ("tangle(|00>)", tangle(basis_state(2, 0)), 0.0),
        ("tangle(ghz4)", tangle(ghz4), 1.0),
        ("tangle(w4)", tangle(w4), 0.0),
        ("tangle(random n=3)", tangle(random_state(3, rng)), 0.0),
    ]
    worst = max(abs(got - want) for _, got, want in goldens)
    report("10 golden-values", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_11_maxent_coherence():
    rng = np.random.default_rng(11)
    ok = True
    worst_tangle, worst_line = 0.0, 0.0
    for n in (2, 4):
        for _ in range(500):
            verdict = is_maximally_entangled(random_state(n, rng))
            ok = ok and not verdict.passed and verdict.criteria_agree
        for _ in range(500):
            nu = rng.normal(size=1 << n)
            nu /= np.linalg.norm(nu)
            psi = maxent_generate(n, float(rng.uniform(0.0, 2.0 * np.pi)), nu)
            verdict = is_maximally_entangled(psi)
            ok = ok and verdict.passed and verdict.criteria_agree
            worst_tangle = max(worst_tangle, abs(tangle(psi) - 1.0))
            worst_line = max(
                worst_line, polygon_collinearity_residual(tangle_result(psi).polygon)
            )
    report(
        "11 maxent-coherence",
        ok and worst_tangle <= 1e-10 and worst_line <= 1e-8,
        f"verdicts agree: {ok}, generated tangle gap {worst_tangle:.2e}, collinearity {worst_line:.2e}",
    )


def test_12_amplitude_inequality():
    rng = np.random.default_rng(12)
    worst_slack = np.inf
    for n in (2, 4):
        basis = magic_basis(n)
        for _ in range(5000):
            result = amplitude_bound_check(random_state(n, rng), basis)
            worst_slack = min(worst_slack, result.slack)
    tight = amplitude_bound_check(basis_state(2, 0), magic_basis(2))
    tightness_gap = abs(tight.slack)
    report(
        "12 amplitude-inequality",
        worst_slack >= -1e-10 and tightness_gap <= 1e-10,
        f"min slack {worst_slack:.2e} over 10^4 states, |00> tightness gap {tightness_gap:.2e}",
    )


def test_13_sl_invariance():
    rng = np.random.default_rng(13)
    worst = 0.0
    for n in (2, 4):
        for i in range(100):
            local = LocalOperatorList(tuple(random_sl2(9000 * n + 10 * i + q) for q in range(n)))
            psi = random_state(n, rng)
            moved = PureState(n, expand_local(local).mat @ psi.amp)
            worst = max(
                worst,
                abs(
                    abs(bilinear_form(moved, moved).value) - abs(bilinear_form(psi, psi).value)
                ),
            )
    report("13 sl-invariance", worst <= 1e-8, f"max form deviation {worst:.2e} over 200 pairs")


def test_14_performance_and_large_n():
    rng = np.random.default_rng(14)
    psi = random_state(20, rng)
    start = time.perf_counter()
    value = tangle(psi)
    elapsed = time.perf_counter() - start
    assert 0.0 <= value <= 1.0 + 1e-10

    psi8, phi8 = random_state(8, rng), random_state(8, rng)
    oracle_gap = abs(bilinear_form(psi8, phi8).value - bilinear_form_dense(psi8, phi8).value)
    report(
        "14 performance",
        elapsed < 1.0 and oracle_gap <= 1e-12,
        f"n=20 tangle in {elapsed * 1e3:.0f} ms, n=8 oracle gap {oracle_gap:.2e}",
    )
