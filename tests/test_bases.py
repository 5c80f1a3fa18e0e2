import numpy as np
import pytest

from spinforms.bases import (
    BasisSet,
    basis_from_orthogonal,
    basis_from_unitary_symplectic,
    canonical_j,
    check_biorthonormal,
    decompose_basis,
    gram_pair,
    magic_basis,
    product_biortho_basis,
    random_real_orthogonal,
    random_unitary_symplectic,
    representative_labels,
    self_conjugacy_coefficient_check,
    state_coefficients,
    unitary_symplectic_residuals,
)
from spinforms.core import (
    MAX_STATE_QUBITS,
    LocalOperatorList,
    PureState,
    basis_state,
    expand_local,
    make_state,
    random_su2,
)
from spinforms.flip import flip_state

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
    basis = magic_basis(n)
    assert len(representative_labels(n)) == 2 ** (n - 1)
    assert basis.matrix().shape[1] == 2**n
    # each representative contributes a plus/minus pair on the same support
    for m in range(2 ** (n - 1)):
        plus, minus = basis.matrix()[:, 2 * m], basis.matrix()[:, 2 * m + 1]
        np.testing.assert_array_equal(plus != 0, minus != 0)


def test_magic_basis_rejects_odd_n():
    with pytest.raises(ValueError):
        magic_basis(3)


def test_product_basis_single_qubit():
    basis = product_biortho_basis(1)
    np.testing.assert_array_equal(basis.matrix()[:, 0], [1j, 0])
    np.testing.assert_array_equal(basis.matrix()[:, 1], [0, 1])
    np.testing.assert_allclose(gram_pair(basis).form_gram, [[0, 1], [-1, 0]], atol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_product_basis_biorthonormal(n):
    basis = product_biortho_basis(n)
    assert all(abs(np.linalg.norm(v) - 1.0) < 1e-14 for v in basis.matrix().T)
    report = check_biorthonormal(basis)
    assert report.passed
    np.testing.assert_allclose(gram_pair(basis).form_gram, canonical_j(1 << n), atol=1e-14)


def test_product_basis_rejects_even_n():
    with pytest.raises(ValueError):
        product_biortho_basis(2)


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
    form = gram_pair(basis).form_gram
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


def test_random_unitary_symplectic_membership():
    for dim, seed in ((2, 0), (8, 1), (32, 2)):
        s = random_unitary_symplectic(dim, seed)
        unit, sympl = unitary_symplectic_residuals(s)
        assert unit <= 1e-12
        assert sympl <= 1e-12
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
    unit, sympl = unitary_symplectic_residuals(mix)
    assert unit <= 1e-12
    assert sympl <= 1e-12


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
