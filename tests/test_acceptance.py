"""Acceptance criteria, one test per criterion, one printed pass/fail line each.

Every check lives in ``spinforms.selftest``; this file pins its counts, seeds
and tolerances.  Unit-level variants live in the other test modules.
"""

from spinforms import selftest


def report(criterion, result):
    print(f"ACCEPTANCE {criterion} {result.name}: {'PASS' if result.passed else 'FAIL'} [{result.detail}]")
    assert result.passed, f"{criterion} {result.name}: {result.detail}"


def test_01_oracle_equivalence():
    report("01", selftest.check_oracle_equivalence(8, 100, seed=1, tol=1e-12, budget_s=10.0))


def test_02_form_parity():
    report("02", selftest.check_form_parity((1, 2, 3, 4, 5, 6), 100, seed=2, tol=1e-12))


def test_03_operator_algebra():
    report("03", selftest.check_operator_algebra(100, max_n=3, seed=3, tol=1e-10))


def test_04_magic_basis():
    report("04", selftest.check_magic_basis((2, 4, 6), (1, 3, 5), tol=1e-10))


def test_05_orthogonal_round_trip():
    report("05", selftest.check_orthogonal_round_trip((2, 4), 50, controls=5, orthogonal_seed=1000, tol=1e-8))


def test_06_even_homomorphism():
    report(
        "06",
        selftest.check_even_homomorphism((2, 4), 100, partners=1, local_seed=2000, partner_seed=3000, tol=1e-8),
    )


def test_07_odd_homomorphism():
    report(
        "07",
        selftest.check_odd_homomorphism((1, 3, 5), 100, partners=1, local_seed=4000, partner_seed=5000, tol=1e-8),
    )


def test_08_unitary_symplectic_bases():
    report("08", selftest.check_unitary_symplectic_bases((1, 3), 50, symplectic_seed=7000))


def test_09_coefficient_tangle_consistency():
    report("09", selftest.check_coefficient_tangle((2, 4), 10, 100, orthogonal_seed=8000, seed=9, tol=1e-10))


def test_10_golden_values():
    report("10", selftest.check_golden_values(seed=10, tol=1e-10))


def test_11_maxent_coherence():
    report("11", selftest.check_maxent_coherence((2, 4), 500, seed=11, tol_tangle=1e-10, tol_line=1e-8))


def test_12_amplitude_inequality():
    report("12", selftest.check_amplitude_inequality((2, 4), 5000, seed=12, tol=1e-10))


def test_13_sl_invariance():
    report("13", selftest.check_sl_invariance((2, 4), 100, local_seed=9000, seed=13, tol=1e-8))


def test_14_performance_and_large_n():
    report("14", selftest.check_performance(20, seed=14, budget_s=1.0, tol_value=1e-10))
