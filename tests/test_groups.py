import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinforms.bases import (
    basis_from_orthogonal,
    canonical_j,
    check_biorthonormal,
    form_defect,
    magic_basis,
    product_biortho_basis,
    random_real_orthogonal,
    unitarity_defect,
)
from spinforms.core import (
    GlobalOperator,
    LocalOperatorList,
    PureState,
    _kron,
    expand_local,
    random_operator,
    random_sl2,
    random_su2,
)
from spinforms.files import read_basis, write_basis
from spinforms.flip import FormKind, bilinear_form, flip_local, spin_flip_matrix
from spinforms.groups import (
    _det,
    classify_operator,
    homomorphism_check,
    is_form_preserving,
    local_form_criterion,
    represent_in_basis,
    slocc_obstruction,
)

CNOT = GlobalOperator(
    2, np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
)


def sl2_list(n, seed):
    return LocalOperatorList(tuple(random_sl2(seed + i) for i in range(n)))


def test_identity_is_form_preserving():
    check = is_form_preserving(GlobalOperator(2, np.eye(4)))
    assert check.passed
    assert check.residual == 0.0


def test_local_sl2_is_form_preserving():
    check = is_form_preserving(expand_local(sl2_list(2, 40)))
    assert check.passed


def test_scaled_identity_fails():
    check = is_form_preserving(GlobalOperator(2, 2.0 * np.eye(4)))
    assert not check.passed
    # flip(2I)^dag 2I = 4I, so the defect is ||3I||_F
    assert check.residual == pytest.approx(3.0 * 2.0)


def local_list(draw, n, seed):
    return LocalOperatorList(tuple(draw(seed + i) for i in range(n)))


# operator families for the form test: name -> (n, seed) -> GlobalOperator
FAMILIES = {
    "ginibre": random_operator,
    "sl2": lambda n, seed: expand_local(local_list(random_sl2, n, seed)),
    "su2": lambda n, seed: expand_local(local_list(random_su2, n, seed)),
    "cnot": lambda n, seed: GlobalOperator(max(n, 2), np.kron(CNOT.mat, np.eye(1 << max(n - 2, 0)))),
    "doubled_sl2": lambda n, seed: GlobalOperator(n, 2.0 * expand_local(local_list(random_sl2, n, seed)).mat),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), family=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 2**32))
def test_form_residual_matches_the_dense_oracle(n, family, seed):
    # the half-size form Gram against ||flip(M)^dag M - I||_F with flip(M) = Y conj(M) Y built densely
    op = FAMILIES[family](n, seed)
    y = spin_flip_matrix(op.n)
    dense = float(np.linalg.norm((y @ op.mat.conj() @ y).conj().T @ op.mat - np.eye(op.dim)))
    residual = is_form_preserving(op).residual
    assert abs(residual - dense) <= 1e-12 * max(1.0, dense)


@pytest.mark.parametrize("n", range(1, 9))
def test_local_unitarity_from_the_factors_matches_the_expanded_matrix(n):
    lists = [local_list(random_sl2, n, 900 + n), local_list(random_su2, n, 950 + n), stretched_local(n)]
    for local in lists:
        residual = classify_operator(local).unitary_residual
        dense = unitarity_defect(expand_local(local).mat)
        assert abs(residual - dense) <= 1e-12 * max(1.0, dense)
    assert classify_operator(lists[1]).is_unitary  # SU(2) factors


@pytest.mark.parametrize(
    "scales, residual, unitary",
    [
        ((1e200, 1e-200), 2.220446049250313e-16, True),  # the identity, with one Gram overflowed and one underflowed
        ((1e200, 1.0), np.inf, False),
        ((1e200, 1e-300, 1e-300), np.sqrt(8.0), False),  # the product underflows to 0: ||0 - I|| on 8 x 8
        ((1e-200, 1e-200), 2.0, False),  # finite in the first pass, as at the parent
    ],
)
def test_local_unitarity_is_never_nan(scales, residual, unitary):
    # inf * 0 in the Kronecker product of the factor Grams is taken again on factors scaled by their own 2^-e_i
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        report = classify_operator(LocalOperatorList(tuple(c * np.eye(2) for c in scales)))
    assert report.unitary_residual == residual
    assert report.is_unitary is unitary


@pytest.mark.parametrize(
    "factors, residual",
    [
        ((2.0**500 * np.eye(2),), 1.5153420044823246e301),  # sqrt(2) (2^1000 - 1): finite, though its square is not
        ((2.0**500 * np.eye(2), np.eye(2)), 2.1430172143725346e301),
    ],
)
def test_local_unitarity_is_finite_where_its_entries_are(factors, residual):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        report = classify_operator(LocalOperatorList(factors))
    assert report.unitary_residual == residual
    assert report.unitary_residual == unitarity_defect(expand_local(LocalOperatorList(factors)).mat)


@pytest.mark.parametrize("n", range(1, 11))
def test_finite_local_unitarity_is_the_plain_kronecker_formula(n):
    for draw in (random_sl2, random_su2):
        local = local_list(draw, n, 400 + n)
        plain = float(np.linalg.norm(_kron(a.conj().T @ a for a in local.ops) - np.eye(1 << n)))
        assert classify_operator(local).unitary_residual == plain


def test_local_form_criterion_of_an_overflowing_factor():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        report = local_form_criterion(LocalOperatorList((1e200 * np.eye(2),)))
    assert report.dets == (complex(np.inf, 0.0),)  # not inf + NaN j
    assert not report.passed


def test_det_of_a_stack_is_the_det_of_each_matrix():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(1000, 2, 2)) + 1j * rng.normal(size=(1000, 2, 2))
    dets = _det(m)
    assert dets.shape == (1000,)
    assert all(dets[i] == _det(m[i]) for i in range(len(m)))
    # np.linalg.det is the same slogdet phase times exp(log |det|), with the C library's exp.  Where np.exp rounds
    # that exp one ulp apart, each part moves by at most 2^-52 + 2 * 2^-53 = 2^-51 of itself (up to 3.1e-16 here)
    assert np.all(np.abs(dets - np.linalg.det(m)) <= 2.0**-51 * np.abs(dets))


def test_local_form_criterion():
    report = local_form_criterion(LocalOperatorList(tuple(random_su2(50 + i) for i in range(3))))
    assert report.passed
    assert report.max_det_gap <= 1e-12

    squeeze = local_form_criterion(LocalOperatorList((np.diag([2.0, 0.5]),)))
    assert squeeze.passed  # det 1, not unitary

    bad = local_form_criterion(LocalOperatorList((np.diag([2.0, 1.0]),)))
    assert not bad.passed
    assert bad.dets == (2.0,)
    assert bad.max_det_gap == pytest.approx(1.0)


@pytest.mark.parametrize("gap, passed", [(2e-8, False), (5e-9, True)])
def test_local_form_criterion_at_the_residual_threshold(gap, passed):
    # the squeeze of test_local_form_criterion with det 1 + gap, next to an SU(2) factor: RESIDUAL_TOL is 1e-8
    local = LocalOperatorList((random_su2(50), np.diag([2.0, 0.5 * (1.0 + gap)])))
    report = local_form_criterion(local)
    assert report.max_det_gap == pytest.approx(gap, rel=1e-7)
    assert report.passed is passed


def test_overflowing_dense_residuals_are_infinite_not_nan():
    # 1e200 I: the products overflow and inf - inf gives NaN, so each residual is taken again at 2^-e
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        report = classify_operator(GlobalOperator(2, 1e200 * np.eye(4)))
        assert (report.unitary_residual, report.form_residual) == (np.inf, np.inf)
        assert not report.is_unitary and not report.is_form_preserving
        assert is_form_preserving(GlobalOperator(3, 1e200 * np.eye(8))).residual == np.inf
        # c I has both residuals (c^2 - 1) sqrt(4): finite, but at 2^510 the first pass's norm overflows
        for c in (2.0**300, 2.0**510):
            report = classify_operator(GlobalOperator(2, c * np.eye(4)))
            assert report.unitary_residual == report.form_residual == pytest.approx(2 * (c * c - 1), rel=1e-15)


def test_finite_dense_residuals_take_no_second_pass(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a finite residual was taken again")

    monkeypatch.setattr("spinforms.core._scaled", refuse)
    # bases must not scale on its own: a name imported from core there would escape the stub above
    monkeypatch.setattr("spinforms.bases._scaled", refuse, raising=False)
    for op in (CNOT, random_operator(3, 7), GlobalOperator(2, 1e70 * np.eye(4))):
        report = classify_operator(op)
        assert np.isfinite(report.unitary_residual) and np.isfinite(report.form_residual)
    report = check_biorthonormal(basis_from_orthogonal(random_real_orthogonal(16, 3)))
    assert report.route == "dense" and report.passed
    # the pair route, on the canonical bases and on their file copies, which are not marked canonical
    for n, basis in ((8, magic_basis(8)), (7, product_biortho_basis(7))):
        path = tmp_path / f"basis{n}.json"
        write_basis(path, basis)
        for b in (basis, read_basis(path)):
            report = check_biorthonormal(b)
            assert report.route == "pairs" and report.passed
    for n in (2, 3):
        kind = FormKind.for_qubits(n)
        assert form_defect(represent_in_basis(random_operator(n, 8)), kind) > 1.0
        assert form_defect(represent_in_basis(expand_local(sl2_list(n, 30))), kind) <= 1e-10


def test_local_form_criterion_judges_each_factor():
    # (2I, I/2) is the identity, so the operator is form-preserving, but neither factor is in SL(2, C)
    local = LocalOperatorList((2.0 * np.eye(2), 0.5 * np.eye(2)))
    report = local_form_criterion(local)
    assert not report.passed
    assert report.dets == (4.0, 0.25)
    assert report.max_det_gap == pytest.approx(3.0)
    assert classify_operator(local).is_form_preserving


def test_flip_local_adjoint_product_is_the_determinant():
    # flip(A)^dag A = det(A) I exactly, which makes the determinant the whole per-qubit form test
    rng = np.random.default_rng(60)
    for _ in range(1000):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        scale = max(1.0, float(np.linalg.norm(a)) ** 2)
        np.testing.assert_allclose(
            flip_local(a).conj().T @ a, np.linalg.det(a) * np.eye(2), rtol=0, atol=1e-14 * scale
        )


@pytest.mark.parametrize("n", range(1, 7))
def test_representation_defect_is_the_form_residual(n):
    # V and sigma_y^(x)n are unitary, so ||R^T T R - T||_F = ||flip(M)^dag M - I||_F for R = V^H M V
    op = random_operator(n, 700 + n)
    residual = is_form_preserving(op).residual
    defect = form_defect(represent_in_basis(op), FormKind.for_qubits(n))
    assert abs(defect - residual) <= 1e-12 * max(1.0, residual)


def test_represent_identity():
    basis = magic_basis(2)
    r = represent_in_basis(GlobalOperator(2, np.eye(4)), basis)
    np.testing.assert_allclose(r, np.eye(4), atol=1e-14)


def test_represent_requires_biorthonormal_basis():
    from spinforms.bases import BasisSet

    basis = BasisSet(2, np.eye(4))
    with pytest.raises(ValueError):
        represent_in_basis(GlobalOperator(2, np.eye(4)), basis)


@pytest.mark.parametrize("n", range(1, 11))
def test_canonical_representation_matches_the_dense_product(refuse_gram, n):
    # Ginibre operator: R = V^H M V with V the dense canonical basis, whether V is implied or passed
    rng = np.random.default_rng(600 + n)
    dim = 1 << n
    op = GlobalOperator(n, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    basis = magic_basis(n) if n % 2 == 0 else product_biortho_basis(n)
    v = basis.matrix()
    dense = v.conj().T @ op.mat @ v
    refuse_gram()  # the canonical basis is bi-orthonormal by construction
    for rep in (represent_in_basis(op), represent_in_basis(op, basis)):
        if n % 2 == 1:
            assert np.array_equal(rep, dense)  # phases in {1, -1, i, -i}: no rounding
        else:
            np.testing.assert_allclose(rep, dense, rtol=0, atol=1e-14)


def test_explicit_canonical_basis_still_checks_the_qubit_count():
    with pytest.raises(ValueError, match="qubit counts differ"):
        represent_in_basis(GlobalOperator(2, np.eye(4)), product_biortho_basis(3))


@pytest.mark.parametrize("n", [2, 3])
def test_unmarked_canonical_copies_are_gram_checked(refuse_gram, unmarked_copies, n):
    from spinforms.bases import BasisSet

    basis = magic_basis(n) if n % 2 == 0 else product_biortho_basis(n)
    op = expand_local(sl2_list(n, 670 + n))
    canonical_rep = represent_in_basis(op, basis)
    copies = unmarked_copies(basis)
    for name, copy in copies.items():
        assert not copy.canonical, name
        np.testing.assert_allclose(represent_in_basis(op, copy), canonical_rep, rtol=0, atol=1e-14)
    perturbed = basis.matrix().copy()
    perturbed[0, 0] += 1e-6
    with pytest.raises(ValueError, match="not bi-orthonormal"):
        represent_in_basis(op, BasisSet(n, perturbed))
    refuse_gram()
    represent_in_basis(op, basis)
    for copy in copies.values():
        with pytest.raises(AssertionError, match="Gram check"):
            represent_in_basis(op, copy)


def test_canonical_representation_builds_no_dense_basis(monkeypatch, tmp_path, capsys):
    # the canonical paths go through the transform: no BasisSet is built and no Gram check runs
    import spinforms.bases as bases
    import spinforms.groups as groups
    from spinforms.cli import main
    from spinforms.files import write_operator

    def refuse(*args, **kwargs):
        raise AssertionError("dense canonical basis or Gram check on the canonical path")

    op_file = tmp_path / "op.json"
    write_operator(op_file, sl2_list(3, 640))
    monkeypatch.setattr(bases.BasisSet, "__post_init__", refuse)
    monkeypatch.setattr(bases, "_require_biorthonormal", refuse)
    monkeypatch.setattr(groups, "_require_biorthonormal", refuse)
    for n in (2, 3):
        local = sl2_list(n, 650 + n)
        assert classify_operator(local).form_residual <= 1e-10
        assert classify_operator(expand_local(local)).form_residual <= 1e-10
        assert homomorphism_check(local, trials=2, seed=n).passed
        r = represent_in_basis(expand_local(local))
        assert bases.form_defect(r, groups.FormKind.for_qubits(n)) <= 1e-10
    assert main(["op", "represent", str(op_file)]) == 0
    assert capsys.readouterr().err == ""


def test_sl2_representation_is_orthogonal_even_n():
    basis = magic_basis(2)
    for seed in range(10):
        r = represent_in_basis(expand_local(sl2_list(2, 70 + 2 * seed)), basis)
        assert np.linalg.norm(r.T @ r - np.eye(4)) <= 1e-10


def test_sl2_representation_is_symplectic_odd_n():
    basis = product_biortho_basis(3)
    j = canonical_j(8)
    for seed in range(10):
        r = represent_in_basis(expand_local(sl2_list(3, 90 + 3 * seed)), basis)
        assert np.linalg.norm(r.T @ j @ r - j) <= 1e-10


def test_represent_is_multiplicative():
    basis = magic_basis(2)
    rng_seeds = range(3)
    for seed in rng_seeds:
        a, b = sl2_list(2, 110 + seed), sl2_list(2, 130 + seed)
        ra = represent_in_basis(expand_local(a), basis)
        rb = represent_in_basis(expand_local(b), basis)
        composed = LocalOperatorList(tuple(x @ y for x, y in zip(a.ops, b.ops)))
        rab = represent_in_basis(expand_local(composed), basis)
        np.testing.assert_allclose(rab, ra @ rb, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_homomorphism_check(n):
    report = homomorphism_check(sl2_list(n, 150 + n), trials=5, seed=n)
    assert report.passed
    assert report.form_residual <= 1e-8
    assert report.max_multiplicativity_residual <= 1e-8


def test_det_of_a_representation_does_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        # det R = 1e800 is real: inf, with its exactly-zero imaginary part kept at 0.0 (inf * 0 would be NaN)
        assert _det(represent_in_basis(GlobalOperator(2, 1e200 * np.eye(4)))) == complex(np.inf, 0.0)
        assert _det(1e-200 * np.eye(4)) == 0.0
        assert _det(np.diag([1.0, 0.0])) == 0.0
    rng = np.random.default_rng(175)
    for dim in (1, 2, 4, 8, 16):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert abs(_det(m) - np.linalg.det(m)) <= 1e-13 * abs(np.linalg.det(m))
    for n in (1, 2, 3):
        # a unit-determinant local operation represents with det R = det M = 1
        assert abs(homomorphism_check(sl2_list(n, 180 + n), trials=1).det_r - 1.0) <= 1e-12


def test_homomorphism_single_qubit_is_symplectic():
    # SL(2) in the 1-qubit bi-orthonormal basis satisfies R^T J R = J
    a = random_sl2(170)
    r = represent_in_basis(expand_local(LocalOperatorList((a,))), product_biortho_basis(1))
    j = canonical_j(2)
    assert np.linalg.norm(r.T @ j @ r - j) <= 1e-10


def test_homomorphism_rejects_non_sl2():
    with pytest.raises(ValueError):
        homomorphism_check(LocalOperatorList((np.diag([2.0, 1.0]),)))


def test_form_preservation_is_multiplicative():
    for seed in range(5):
        m = expand_local(sl2_list(2, 190 + seed))
        w = expand_local(sl2_list(2, 210 + seed))
        assert is_form_preserving(m).passed and is_form_preserving(w).passed
        product = GlobalOperator(2, m.mat @ w.mat)
        assert is_form_preserving(product).residual <= 10 * 1e-8


def test_tangle_invariance_under_form_preserving_maps():
    rng = np.random.default_rng(230)
    for seed in range(10):
        m = expand_local(sl2_list(2, 250 + seed))
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = PureState(2, z / np.linalg.norm(z))
        moved = PureState(2, m.mat @ psi.amp)
        lhs = abs(bilinear_form(moved, moved).value)
        rhs = abs(bilinear_form(psi, psi).value)
        assert abs(lhs - rhs) <= 1e-8


def test_slocc_obstruction_verdicts():
    assert not slocc_obstruction(expand_local(sl2_list(2, 270))).obstructed
    scaled = slocc_obstruction(GlobalOperator(2, 2.0 * np.eye(4)))
    assert scaled.obstructed
    assert scaled.note == "necessary condition only"


def test_cnot_is_obstructed():
    verdict = slocc_obstruction(CNOT)
    assert verdict.obstructed
    assert verdict.residual == pytest.approx(2.0 * np.sqrt(2.0))


def stretched_local(n):
    # u diag(10, 1/10) v per qubit, u and v in SU(2): unit determinants, large norm
    stretch = np.diag([10.0, 0.1])
    return LocalOperatorList(
        tuple(random_su2(1000 + 2 * q) @ stretch @ random_su2(1001 + 2 * q) for q in range(n))
    )


def test_non_preserving_operators_stay_obstructed():
    # a form test scaled to large-norm operators must still reject these; 2 M scales
    # the form by 4 although ||2 M||_F^2 reaches 4e12 at n = 6 and 4e16 at n = 8
    rng = np.random.default_rng(7)
    dense = GlobalOperator(6, rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    doubled = [GlobalOperator(n, 2.0 * expand_local(stretched_local(n)).mat) for n in (6, 8)]
    for op in (CNOT, GlobalOperator(2, 2.0 * np.eye(4)), dense, *doubled):
        assert slocc_obstruction(op).obstructed
        assert not classify_operator(op).is_form_preserving


def test_classify_operator_global():
    report = classify_operator(CNOT)
    assert report.is_unitary
    assert not report.is_form_preserving
    assert report.dets is None
    assert report.form_residual > 1.0
    assert form_defect(represent_in_basis(CNOT), FormKind.ORTHOGONAL) > 1.0


def test_classify_operator_local():
    local = sl2_list(2, 290)
    report = classify_operator(local)
    assert report.is_form_preserving
    assert report.dets is not None
    assert all(abs(d - 1.0) <= 1e-10 for d in report.dets)
    assert report.dets == local_form_criterion(local).dets
    assert report.form_residual <= 1e-10
    assert form_defect(represent_in_basis(expand_local(local)), FormKind.ORTHOGONAL) <= 1e-10


def test_classify_operator_runs_the_form_test_once(monkeypatch):
    import spinforms.groups as groups

    calls = []

    def counted(op):
        calls.append(op)
        return is_form_preserving(op)

    def refuse(*args, **kwargs):
        raise AssertionError("classify_operator built a representation")

    monkeypatch.setattr(groups, "is_form_preserving", counted)
    monkeypatch.setattr(groups, "represent_in_basis", refuse)
    monkeypatch.setattr(groups, "form_defect", refuse)
    for op in (CNOT, sl2_list(3, 300)):
        calls.clear()
        classify_operator(op)
        assert len(calls) == 1
