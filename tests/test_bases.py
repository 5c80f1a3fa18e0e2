from functools import reduce

import numpy as np
import pytest

from spinforms.bases import (
    BasisSet,
    basis_from_orthogonal,
    basis_from_unitary_symplectic,
    canonical_synthesize,
    canonical_j,
    check_biorthonormal,
    decompose_basis,
    form_defect,
    gram_pair,
    magic_coefficients,
    magic_basis,
    product_biortho_basis,
    random_real_orthogonal,
    random_unitary_symplectic,
    self_conjugacy_coefficient_check,
    state_coefficients,
    unitarity_defect,
)
from spinforms.core import (
    MAX_STATE_QUBITS,
    LocalOperatorList,
    PureState,
    basis_state,
    expand_local,
    make_state,
    random_state,
    random_su2,
)
from spinforms.bits import index_to_bits
from spinforms.flip import FormKind, bilinear_form_dense, flip_state

S2 = 1.0 / np.sqrt(2.0)


def test_magic_basis_two_qubits():
    vecs = magic_basis(2).matrix().T
    np.testing.assert_allclose(vecs[0], [S2, 0, 0, -S2], atol=1e-15)
    np.testing.assert_allclose(vecs[1], [1j * S2, 0, 0, 1j * S2], atol=1e-15)
    np.testing.assert_allclose(vecs[2], [0, S2, S2, 0], atol=1e-15)
    np.testing.assert_allclose(vecs[3], [0, 1j * S2, -1j * S2, 0], atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_magic_basis_self_conjugate_and_biorthonormal(n):
    basis = magic_basis(n)
    for j in range(basis.dim):
        v = PureState(n, basis.matrix()[:, j])
        np.testing.assert_allclose(flip_state(v).amp, v.amp, atol=1e-14)
        assert self_conjugacy_coefficient_check(v).passed
    report = check_biorthonormal(basis)
    assert report.passed
    assert report.hilbert_residual <= 1e-14
    assert report.form_residual <= 1e-14


def test_magic_basis_pair_structure():
    n = 4
    mat = magic_basis(n).matrix()
    assert mat.shape[1] == 2**n
    # each representative m < 2^(n-1) contributes a plus/minus pair on the support {m, ~m}
    for m in range(2 ** (n - 1)):
        plus, minus = mat[:, 2 * m], mat[:, 2 * m + 1]
        np.testing.assert_array_equal(plus != 0, minus != 0)
        assert set(np.flatnonzero(plus)) == {m, 2**n - 1 - m}


def test_magic_basis_rejects_odd_n():
    with pytest.raises(ValueError):
        magic_basis(3)


def test_product_basis_single_qubit():
    basis = product_biortho_basis(1)
    np.testing.assert_array_equal(basis.matrix()[:, 0], [1j, 0])
    np.testing.assert_array_equal(basis.matrix()[:, 1], [0, 1])
    np.testing.assert_allclose(gram_pair(basis)[1], [[0, 1], [-1, 0]], atol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_product_basis_biorthonormal(n):
    basis = product_biortho_basis(n)
    assert all(abs(np.linalg.norm(v) - 1.0) < 1e-14 for v in basis.matrix().T)
    report = check_biorthonormal(basis)
    assert report.passed
    np.testing.assert_allclose(gram_pair(basis)[1], canonical_j(1 << n), atol=1e-14)


def test_product_basis_rejects_even_n():
    with pytest.raises(ValueError):
        product_biortho_basis(2)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_magic_coefficients_match_the_dense_basis(n):
    psi = random_state(n, 300 + n).amp
    dense = magic_basis(n).matrix().conj().T @ psi
    np.testing.assert_allclose(magic_coefficients(psi), dense, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_canonical_synthesize_inverts_magic_coefficients(n):
    psi = random_state(n, 400 + n).amp
    np.testing.assert_allclose(canonical_synthesize(n, magic_coefficients(psi)), psi, rtol=0, atol=1e-15)
    # both transforms act along axis 0, so the columns of a matrix transform independently
    cols = np.stack([psi, 1j * psi[::-1]], axis=1)
    for transform in (magic_coefficients, lambda x: canonical_synthesize(n, x)):
        np.testing.assert_allclose(transform(cols)[:, 1], transform(cols[:, 1]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_product_synthesize_matches_kron_of_qubit_factors(n):
    mat = canonical_synthesize(n, np.eye(1 << n))
    factors = (np.array([1j, 0]), np.array([0, 1]))  # i|0>, |1>
    labels = [int(np.flatnonzero(col)[0]) for col in mat.T]
    assert sorted(labels) == list(range(1 << n))
    for col, label in zip(mat.T, labels):
        np.testing.assert_array_equal(col, reduce(np.kron, [factors[b] for b in index_to_bits(label, n)]))


def test_transforms_reject_wrong_lengths():
    with pytest.raises(ValueError):
        canonical_synthesize(3, np.ones(4))
    for length in (2, 8, 12):
        with pytest.raises(ValueError):
            magic_coefficients(np.ones(length))


def test_basis_set_holds_one_read_only_matrix():
    mat = np.eye(4)
    basis = BasisSet(2, mat)
    assert basis.matrix() is basis.matrix()
    assert not basis.matrix().flags.writeable
    assert not hasattr(basis, "vectors")
    mat[0, 0] = 5.0  # the basis keeps its own copy
    assert basis.matrix()[0, 0] == 1.0
    with pytest.raises(ValueError):
        basis.matrix()[0, 0] = 2.0


def test_basis_set_rejects_bad_shape_and_qubit_count():
    with pytest.raises(ValueError):
        BasisSet(2, np.eye(3))
    with pytest.raises(ValueError):
        BasisSet(2, np.eye(4)[:, :3])
    with pytest.raises(ValueError):
        BasisSet(0, np.eye(1))
    with pytest.raises(ValueError):
        BasisSet(MAX_STATE_QUBITS + 1, np.eye(2))
    # dense bases share the operator cap, checked before the 2^n x 2^n allocation
    for make in (lambda: BasisSet(13, np.eye(2)), lambda: magic_basis(14), lambda: product_biortho_basis(13)):
        with pytest.raises(ValueError, match=r"\[1, 12\]"):
            make()


def test_computational_basis_is_not_biorthonormal():
    basis = BasisSet(2, np.eye(4))
    report = check_biorthonormal(basis)
    assert not report.passed
    assert report.hilbert_residual <= 1e-14
    # the form Gram of the computational basis is anti-diagonal, not identity
    form = gram_pair(basis)[1]
    np.testing.assert_allclose(np.abs(form), np.fliplr(np.eye(4)), atol=1e-14)


def test_basis_from_orthogonal_identity_and_reflection():
    n = 2
    magic = magic_basis(n)
    same = basis_from_orthogonal(np.eye(4))
    np.testing.assert_allclose(same.matrix(), magic.matrix(), atol=1e-15)
    reflected = basis_from_orthogonal(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert check_biorthonormal(reflected).passed


@pytest.mark.parametrize("n", [2, 4])
def test_orthogonal_round_trip(n):
    for i in range(10):
        o = random_real_orthogonal(1 << n, 50 + i)
        basis = basis_from_orthogonal(o)
        assert check_biorthonormal(basis).passed
        np.testing.assert_allclose(decompose_basis(basis), o, atol=1e-10)


def test_basis_from_orthogonal_rejects_bad_input():
    with pytest.raises(ValueError):
        basis_from_orthogonal(np.diag([2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        basis_from_orthogonal(1j * np.eye(4))
    with pytest.raises(ValueError):
        basis_from_orthogonal(np.eye(8))  # 2^3: odd qubit count


def test_decompose_magic_is_identity():
    np.testing.assert_allclose(decompose_basis(magic_basis(2)), np.eye(4), atol=1e-14)


def test_decompose_rejects_phase_perturbation():
    basis = basis_from_orthogonal(random_real_orthogonal(4, 7))
    mat = basis.matrix().copy()
    mat[:, 2] = np.exp(1j * np.pi / 4) * mat[:, 2]
    perturbed = BasisSet(2, mat)
    assert not check_biorthonormal(perturbed).passed
    with pytest.raises(ValueError):
        decompose_basis(perturbed)


def test_random_real_orthogonal():
    o = random_real_orthogonal(6, 3)
    np.testing.assert_array_equal(o, random_real_orthogonal(6, 3))
    assert o.dtype.kind == "f"
    assert np.linalg.norm(o.T @ o - np.eye(6)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unitarity_defect(n):
    dim = 1 << n
    assert unitarity_defect(np.eye(dim)) == 0.0
    assert unitarity_defect(canonical_j(dim)) == 0.0
    assert unitarity_defect(1j * np.eye(dim)) == 0.0
    # symplectic but not unitary: x^H x - I = diag(3, -3/4) on each pair
    stretch = np.diag([2.0, 0.5] * (dim // 2))
    assert unitarity_defect(stretch) == pytest.approx(np.sqrt(dim // 2 * (3.0**2 + 0.75**2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_form_defect(n):
    dim = 1 << n
    kind = FormKind.for_qubits(n)
    other = FormKind.SYMPLECTIC if kind is FormKind.ORTHOGONAL else FormKind.ORTHOGONAL
    assert form_defect(np.eye(dim), kind) == 0.0
    assert form_defect(canonical_j(dim), kind) == 0.0  # J is orthogonal and symplectic
    # each non-member belongs to the other group
    if kind is FormKind.ORTHOGONAL:
        x, want = np.diag([2.0, 0.5] * (dim // 2)), np.sqrt(dim // 2 * (3.0**2 + 0.75**2))
    else:
        x, want = np.diag([1.0, -1.0] * (dim // 2)), 2.0 * np.sqrt(dim)  # x^T J x = -J
    assert form_defect(x, kind) == pytest.approx(want)
    assert form_defect(x, other) == 0.0


def test_random_unitary_symplectic_membership():
    for dim, seed in ((2, 0), (8, 1), (32, 2)):
        s = random_unitary_symplectic(dim, seed)
        assert unitarity_defect(s) <= 1e-12
        assert form_defect(s, FormKind.SYMPLECTIC) <= 1e-12
    # dim 2: unitary + symplectic = SU(2)
    s = random_unitary_symplectic(2, 5)
    assert abs(np.linalg.det(s) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_basis_from_unitary_symplectic(n):
    same = basis_from_unitary_symplectic(np.eye(1 << n))
    np.testing.assert_allclose(same.matrix(), product_biortho_basis(n).matrix(), atol=1e-15)
    for i in range(10):
        s = random_unitary_symplectic(1 << n, 80 + i)
        assert check_biorthonormal(basis_from_unitary_symplectic(s)).passed


def test_basis_from_unitary_symplectic_rejects_nonmembers():
    # symplectic but not unitary
    with pytest.raises(ValueError):
        basis_from_unitary_symplectic(np.diag([2.0, 0.5] * 4))
    # unitary but not symplectic
    with pytest.raises(ValueError):
        basis_from_unitary_symplectic(1j * np.eye(8))


def test_negative_control_transforms_fail_biortho_check():
    n = 3
    prod = product_biortho_basis(n).matrix()
    unitary_only = prod @ (1j * np.eye(8)).T
    sympl_only = prod @ np.diag([2.0, 0.5] * 4).T
    for mixed in (unitary_only, sympl_only):
        assert not check_biorthonormal(BasisSet(n, mixed)).passed


def test_biortho_bases_decompose_to_unitary_symplectic():
    # bases produced by a different mechanism (local SU(2) rotations of the
    # product basis) must still decompose over it into a unitary-symplectic mix
    n = 3
    basis = product_biortho_basis(n)
    rotation = expand_local(LocalOperatorList(tuple(random_su2(200 + q) for q in range(n))))
    rotated = rotation.mat @ basis.matrix()
    assert check_biorthonormal(BasisSet(n, rotated)).passed
    mix = (basis.matrix().conj().T @ rotated).T
    assert unitarity_defect(mix) <= 1e-12
    assert form_defect(mix, FormKind.SYMPLECTIC) <= 1e-12


def test_state_coefficients_reconstruct():
    basis = magic_basis(2)
    psi = make_state(2, [0.5, 0.5j, -0.5, 0.5])
    c = state_coefficients(basis, psi)
    np.testing.assert_allclose(basis.matrix() @ c, psi.amp, atol=1e-14)


def test_self_conjugacy_examples():
    assert not self_conjugacy_coefficient_check(basis_state(2, 0)).passed
    assert self_conjugacy_coefficient_check(make_state(2, [S2, 0, 0, -S2])).passed
    with pytest.raises(ValueError):
        self_conjugacy_coefficient_check(basis_state(3, 0))


@pytest.mark.parametrize("n", range(1, 6))
def test_form_gram_matches_dense_form_on_every_column_pair(n):
    # a random matrix, not a basis: every entry of the form Gram is a form value
    rng = np.random.default_rng(60 + n)
    dim = 1 << n
    basis = BasisSet(n, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    _, form = gram_pair(basis)
    cols = [PureState(n, v) for v in basis.matrix().T]
    want = np.array([[bilinear_form_dense(a, b).value for b in cols] for a in cols])
    np.testing.assert_allclose(form, want, rtol=1e-13, atol=1e-12)
