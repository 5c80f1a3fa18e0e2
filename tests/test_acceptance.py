"""Acceptance criteria, one test per criterion, one printed pass/fail line each.

The acceptance suite is ``selftest.run_selftest("full", seed=0)``, the run that
``spinforms selftest --level full`` makes: its counts and seeds live in
``run_selftest`` and its thresholds in each check.  This file runs it once and
asserts every result.  Unit-level variants live in the other test modules.
"""

import pytest

from spinforms import selftest

NAMES = (
    "index-round-trip",
    "oracle-equivalence",
    "form-parity",
    "operator-algebra",
    "magic-basis",
    "orthogonal-round-trip",
    "even-homomorphism",
    "odd-homomorphism",
    "unitary-symplectic-bases",
    "coefficient-tangle",
    "golden-values",
    "maxent-coherence",
    "amplitude-inequality",
    "sl-invariance",
    "performance",
)


@pytest.fixture(scope="module")
def full_run():
    return selftest.run_selftest("full", seed=0)


def report(full_run, criterion):
    result = full_run[int(criterion)]
    print(f"ACCEPTANCE {criterion} {result.name}: {'PASS' if result.passed else 'FAIL'} [{result.detail}]")
    assert result.passed, f"{criterion} {result.name}: {result.detail}"


def test_full_run_has_every_check_once(full_run):
    assert tuple(r.name for r in full_run) == NAMES


def test_00_index_round_trip(full_run):
    report(full_run, "00")


def test_01_oracle_equivalence(full_run):
    report(full_run, "01")


def test_02_form_parity(full_run):
    report(full_run, "02")


def test_03_operator_algebra(full_run):
    report(full_run, "03")


def test_04_magic_basis(full_run):
    report(full_run, "04")


def test_05_orthogonal_round_trip(full_run):
    report(full_run, "05")


def test_06_even_homomorphism(full_run):
    report(full_run, "06")


def test_07_odd_homomorphism(full_run):
    report(full_run, "07")


def test_08_unitary_symplectic_bases(full_run):
    report(full_run, "08")


def test_09_coefficient_tangle_consistency(full_run):
    report(full_run, "09")


def test_10_golden_values(full_run):
    report(full_run, "10")


def test_11_maxent_coherence(full_run):
    report(full_run, "11")


def test_12_amplitude_inequality(full_run):
    report(full_run, "12")


def test_13_sl_invariance(full_run):
    report(full_run, "13")


def test_14_performance_and_large_n(full_run):
    report(full_run, "14")
