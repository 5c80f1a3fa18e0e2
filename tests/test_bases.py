import copy
import pickle
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

import spinforms.bases
from spinforms.bases import (
    BasisSet,
    _minus_identity,
    _minus_j,
    basis_from_orthogonal,
    basis_from_unitary_symplectic,
    canonical_coefficients,
    canonical_synthesize,
    canonical_j,
    check_biorthonormal,
    decompose_basis,
    form_defect,
    magic_basis,
    product_biortho_basis,
    random_real_orthogonal,
    random_unitary_symplectic,
    self_conjugacy_coefficient_check,
    state_coefficients,
    unitarity_defect,
)
from spinforms.core import (
    GRAM_TOL,
    MAX_STATE_QUBITS,
    GlobalOperator,
    LocalOperatorList,
    PureState,
    basis_state,
    expand_local,
    make_state,
    random_state,
    random_su2,
)
from spinforms.bits import i_power, index_to_bits, times_i_power
from spinforms.flip import FormKind, _form_gram, bilinear_form_dense, flip_state, signed_reversal

S2 = 1.0 / np.sqrt(2.0)


def _form_gram_of(basis):
    """form(v_a, v_b) over the basis's columns, as check_biorthonormal computes it."""
    return times_i_power(_form_gram(basis.matrix()), -basis.n)


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
    np.testing.assert_allclose(_form_gram_of(basis), [[0, 1], [-1, 0]], atol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_product_basis_biorthonormal(n):
    basis = product_biortho_basis(n)
    assert all(abs(np.linalg.norm(v) - 1.0) < 1e-14 for v in basis.matrix().T)
    report = check_biorthonormal(basis)
    assert report.passed
    np.testing.assert_allclose(_form_gram_of(basis), canonical_j(1 << n), atol=1e-14)


def test_product_basis_rejects_even_n():
    with pytest.raises(ValueError):
        product_biortho_basis(2)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_magic_coefficients_match_the_dense_basis(n):
    psi, basis = random_state(n, 300 + n), magic_basis(n)
    dense = basis.matrix().conj().T @ psi.amp
    for coeffs in (canonical_coefficients(n, psi.amp), state_coefficients(basis, psi)):
        np.testing.assert_allclose(coeffs, dense, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
def test_product_coefficients_match_the_dense_basis(n):
    # a gather and a phase in {1, -1, i, -i}: no rounding, so equal to the dense product exactly
    psi, basis = random_state(n, 350 + n), product_biortho_basis(n)
    dense = basis.matrix().conj().T @ psi.amp
    assert np.array_equal(canonical_coefficients(n, psi.amp), dense)
    assert np.array_equal(state_coefficients(basis, psi), dense)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_canonical_synthesize_inverts_magic_coefficients(n):
    psi = random_state(n, 400 + n).amp
    np.testing.assert_allclose(canonical_synthesize(n, canonical_coefficients(n, psi)), psi, rtol=0, atol=1e-15)
    # both transforms act along axis 0, so the columns of a matrix transform independently
    cols = np.stack([psi, 1j * psi[::-1]], axis=1)
    for transform in (lambda x: canonical_coefficients(n, x), lambda x: canonical_synthesize(n, x)):
        np.testing.assert_allclose(transform(cols)[:, 1], transform(cols[:, 1]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 5, 9, 15])
def test_canonical_synthesize_inverts_product_coefficients(n):
    psi = random_state(n, 450 + n).amp
    assert np.array_equal(canonical_synthesize(n, canonical_coefficients(n, psi)), psi)
    cols = np.stack([psi, 1j * psi[::-1]], axis=1)
    for transform in (lambda x: canonical_coefficients(n, x), lambda x: canonical_synthesize(n, x)):
        assert np.array_equal(transform(cols)[:, 1], transform(cols[:, 1]))


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_product_synthesize_matches_kron_of_qubit_factors(n):
    mat = canonical_synthesize(n, np.eye(1 << n))
    factors = (np.array([1j, 0]), np.array([0, 1]))  # i|0>, |1>
    labels = [int(np.flatnonzero(col)[0]) for col in mat.T]
    assert sorted(labels) == list(range(1 << n))
    for col, label in zip(mat.T, labels):
        np.testing.assert_array_equal(col, reduce(np.kron, [factors[b] for b in index_to_bits(label, n)]))


def test_transforms_reject_wrong_lengths():
    for n, length in ((3, 4), (2, 2), (2, 8), (4, 12)):
        for transform in (canonical_synthesize, canonical_coefficients):
            with pytest.raises(ValueError):
                transform(n, np.ones(length))


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


@pytest.mark.parametrize("n", range(1, 11))
def test_canonical_basis_is_the_transform_of_the_identity(n):
    basis = (magic_basis if n % 2 == 0 else product_biortho_basis)(n)
    mat = basis.matrix()
    # == entry for entry: only the sign of a zero part may differ from the transform's
    assert np.array_equal(mat, canonical_synthesize(n, np.eye(1 << n)))
    assert mat is basis.mat  # stored as built, not copied
    assert not mat.flags.writeable and mat.flags.owndata and mat.flags.c_contiguous


@pytest.mark.parametrize("make, n", [(magic_basis, 12), (product_biortho_basis, 11)])
def test_canonical_basis_at_the_cap_matches_the_transforms(make, n):
    mat = make(n).matrix()
    cols = np.random.default_rng(n).choice(1 << n, size=16, replace=False)
    units = np.zeros((1 << n, cols.size))
    units[cols, np.arange(cols.size)] = 1.0
    assert np.array_equal(mat[:, cols], canonical_synthesize(n, units))
    np.testing.assert_allclose(canonical_coefficients(n, mat[:, cols]), units, rtol=0, atol=1e-15)


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


def test_overflowing_form_gram_is_infinite_not_nan():
    # the Grams of the 1e200-scaled canonical bases overflow and inf - inf gives NaN, so the pair
    # route's block sums are taken again at 2^-e, and no numpy warning is raised
    for n in range(1, 7):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_biorthonormal(BasisSet(n, 1e200 * _canonical(n).matrix()))
        assert (report.route, report.passed) == ("pairs", False)
        assert report.hilbert_residual == np.inf and report.form_residual == np.inf
        # below the overflow, the residual is the exact ||c^2 G - I|| = (c^2 - 1) sqrt(2^n)
        report = check_biorthonormal(BasisSet(n, 2.0**300 * _canonical(n).matrix()))
        assert report.hilbert_residual == pytest.approx((2.0**600 - 1) * np.sqrt(1 << n), rel=1e-14)
        assert report.form_residual == pytest.approx((2.0**600 - 1) * np.sqrt(1 << n), rel=1e-14)
    # a dense mix: the dense route's products overflow, so both residuals are taken again at 2^-e
    mix = basis_from_orthogonal(random_real_orthogonal(16, 1)).matrix()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        report = check_biorthonormal(BasisSet(4, 1e200 * mix))
    assert (report.route, report.passed) == ("dense", False)
    assert report.hilbert_residual == np.inf and report.form_residual == np.inf
    report = check_biorthonormal(BasisSet(4, 2.0**300 * mix))  # (c^2 - 1) sqrt(16), whose square overflows
    assert report.hilbert_residual == pytest.approx(4 * (2.0**600 - 1), rel=1e-13)
    assert report.form_residual == pytest.approx(4 * (2.0**600 - 1), rel=1e-13)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("residual, passed", [(1.05e-10, False), (0.95e-10, True)])
def test_gram_threshold_at_its_boundary(n, residual, passed):
    # column 0 of the canonical basis scaled by 1 + residual / 2: GRAM_TOL is 1e-10, and the Hilbert
    # residual (1 + d)^2 - 1 is the larger of the two
    mat = _canonical(n).matrix().copy()
    mat[:, 0] *= 1.0 + residual / 2
    report = check_biorthonormal(BasisSet(n, mat))
    assert max(report.hilbert_residual, report.form_residual) == pytest.approx(residual, rel=1e-4)
    assert report.passed is passed


def _dense_residuals(v, n):
    """Both Gram residuals by the dense products with V itself, the reference for both routes."""
    target = canonical_j(1 << n) if n % 2 else np.eye(1 << n)
    return unitarity_defect(v), float(np.linalg.norm(times_i_power(_form_gram(v), -n) - target))


def _assert_route_matches_dense(mat, n):
    basis = BasisSet(n, mat)
    report = check_biorthonormal(basis)
    # the pair route covers exactly the matrices whose nonzero entries (r, c) all sit on rows c // 2 and ~(c // 2)
    dim = 1 << n
    rows, cols = np.nonzero(basis.matrix())
    in_pairs = all(r in (c // 2, dim - 1 - c // 2) for r, c in zip(rows.tolist(), cols.tolist()))
    assert report.route == ("pairs" if in_pairs else "dense")
    want = _dense_residuals(basis.matrix(), n)
    for got, ref in zip((report.hilbert_residual, report.form_residual), want):
        assert abs(got - ref) <= 1e-14 * max(1.0, ref)
    assert report.passed == (max(want) <= GRAM_TOL)
    return report


# "nonzero route" in the test names below means inputs with few nonzero entries: they take the pair
# route, or the dense one where an entry lies off the pair blocks
@pytest.mark.parametrize("n", range(1, 11))
def test_nonzero_route_matches_the_dense_products_on_canonical_bases(n):
    report = _assert_route_matches_dense(_canonical(n).matrix(), n)
    assert report.route == "pairs" and report.passed


@pytest.mark.parametrize("n", range(1, 9))
def test_nonzero_route_matches_the_dense_products_on_permuted_and_phased_rows(n):
    # row phases keep each pair block in place; a row permutation that crosses pairs takes the dense route.
    # The verdict may go either way
    rng = np.random.default_rng(700 + n)
    dim = 1 << n
    v = _canonical(n).matrix()
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(dim, 1)))
    for mat in (v[rng.permutation(dim)], phases * v[rng.permutation(dim)]):
        _assert_route_matches_dense(mat, n)
    assert _assert_route_matches_dense(phases * v, n).route == "pairs"
    if n % 2 == 0:  # reversing the rows turns each magic vector into itself or its negative
        assert _assert_route_matches_dense(v[::-1], n).passed


@pytest.mark.parametrize("n", range(1, 9))
def test_nonzero_route_matches_the_dense_products_on_pair_rotations(n):
    # a 2 x 2 mix of each canonical pair (columns 2k, 2k+1, both on rows k and ~k) keeps the pair blocks:
    # a real rotation (even n) or an SU(2) matrix (odd n) is a bi-orthonormal mix, a random complex one is not
    rng = np.random.default_rng(720 + n)
    dim = 1 << n
    rotation, other = np.zeros((2, dim, dim), dtype=np.complex128)
    for k in range(dim // 2):
        pair = slice(2 * k, 2 * k + 2)
        if n % 2:
            rotation[pair, pair] = random_su2(int(rng.integers(1 << 30)))
        else:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            rotation[pair, pair] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        other[pair, pair] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v = _canonical(n).matrix()
    mixed = basis_from_unitary_symplectic(rotation.T) if n % 2 else basis_from_orthogonal(rotation.T.real)
    for mat in (v @ rotation, mixed.matrix()):
        report = _assert_route_matches_dense(mat, n)
        assert report.route == "pairs" and report.passed
    report = _assert_route_matches_dense(v @ other, n)
    assert report.route == "pairs" and not report.passed


@pytest.mark.parametrize("n", range(1, 9))
def test_nonzero_route_matches_the_dense_products_on_one_perturbed_entry(n):
    v = _canonical(n).matrix().copy()
    row, col = 3 % (1 << n), np.flatnonzero(v[3 % (1 << n)])[0]
    for delta in (1e-12, 1e-6, 0.5):
        mat = v.copy()
        mat[row, col] += delta
        report = _assert_route_matches_dense(mat, n)
        assert report.route == "pairs" and report.passed == (delta < 1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nonzero_route_on_empty_and_sparse_rows(n):
    # the identity has entry (1, 1) off the pair blocks from n = 2 on, so it takes the dense route there
    dim = 1 << n
    for mat in (np.zeros((dim, dim)), np.eye(dim), np.fliplr(np.eye(dim)), np.diag(np.arange(dim) + 1j)):
        assert not _assert_route_matches_dense(mat, n).passed
    assert check_biorthonormal(BasisSet(n, np.eye(dim))).route == ("pairs" if n == 1 else "dense")


@pytest.mark.parametrize("make, n", [(magic_basis, 12), (product_biortho_basis, 11)])
def test_check_biorthonormal_at_the_caps_takes_the_nonzero_route(make, n):
    report = check_biorthonormal(make(n))
    assert (report.passed, report.route) == (True, "pairs")
    assert max(report.hilbert_residual, report.form_residual) <= 1e-12


def test_pair_route_allocates_nothing_matrix_sized():
    # the route is chosen by counting nonzero parts, with no 4^n mask, and the Grams are summed over
    # the 2^(n-1) pair blocks
    basis = magic_basis(12)
    check_biorthonormal(basis)  # warm up, so one-time allocations are not counted
    tracemalloc.start()
    try:
        check_biorthonormal(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < basis.matrix().nbytes / 100


def test_a_row_with_three_nonzeros_takes_the_dense_route():
    for n in (2, 3, 6):
        v = _canonical(n).matrix().copy()
        v[0, np.flatnonzero(v[0] == 0)[: 3 - np.count_nonzero(v[0])]] = 1e-300  # however small, it counts
        report = _assert_route_matches_dense(v, n)
        assert report.route == "dense" and report.passed
        # the dense route is the group defect of the whole coefficient matrix Q = V^H v, exactly
        q = canonical_coefficients(n, v)
        assert (report.hilbert_residual, report.form_residual) == (
            unitarity_defect(q),
            form_defect(q, FormKind.for_qubits(n)),
        )
    assert check_biorthonormal(basis_from_orthogonal(random_real_orthogonal(16, 3))).route == "dense"
    assert check_biorthonormal(BasisSet(1, np.ones((2, 2)))).route == "pairs"  # a 2 x 2 matrix is one block
    assert check_biorthonormal(BasisSet(2, np.ones((4, 4)))).route == "dense"


def _slot_matrix(v):
    """Row r of v on its pair slot: columns 2m and 2m+1 with m = min(r, ~r)."""
    dim = v.shape[0]
    m = np.minimum(np.arange(dim), np.arange(dim)[::-1])
    return v[np.arange(dim)[:, None], 2 * m[:, None] + np.arange(2)]


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_route_is_the_group_defect_of_the_slot_coefficients(n):
    # bit for bit: the residuals are unitarity_defect and form_defect of the 2 x 2 diagonal blocks of Q,
    # which are the transform of the 2^n x 2 slot matrix
    rng = np.random.default_rng(740 + n)
    dim = 1 << n
    v = _canonical(n).matrix()
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(dim, 1)))
    rotation = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim // 2):
        rotation[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = random_su2(int(rng.integers(1 << 30)))
    for mat in (v, phases * v, v @ rotation):
        report = check_biorthonormal(BasisSet(n, mat))
        assert report.route == "pairs"
        q = canonical_coefficients(n, _slot_matrix(mat)).reshape(-1, 2, 2)
        assert (report.hilbert_residual, report.form_residual) == (
            unitarity_defect(q),
            form_defect(q, FormKind.for_qubits(n)),
        )


@pytest.mark.parametrize("kind", list(FormKind))
@pytest.mark.parametrize("size", [2, 4])
def test_defects_of_a_stack_sum_over_its_members(kind, size):
    rng = np.random.default_rng(size)
    stack = rng.normal(size=(7, size, size)) + 1j * rng.normal(size=(7, size, size))
    stack[0] = random_unitary_symplectic(size, 1) if kind is FormKind.SYMPLECTIC else random_real_orthogonal(size, 1)
    for defect in (unitarity_defect, lambda x: form_defect(x, kind)):
        total = sum(defect(member) ** 2 for member in stack)
        assert defect(stack) ** 2 == pytest.approx(total, rel=1e-14)


def test_near_max_bases_read_inf_not_nan():
    # entries at 1.5e308: the transform itself overflows, and both routes take it again at 2^-e
    mix = basis_from_orthogonal(random_real_orthogonal(16, 1)).matrix()
    for n, mat, route in [(2, _canonical(2).matrix(), "pairs"), (3, _canonical(3).matrix(), "pairs"), (4, mix, "dense")]:
        big = mat / np.max(np.abs(mat.view(np.float64))) * 1.5e308
        assert np.isfinite(big).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes
            report = check_biorthonormal(BasisSet(n, big))
        assert (report.route, report.passed) == (route, False)
        assert report.hilbert_residual == np.inf and report.form_residual == np.inf


@pytest.mark.parametrize("n", range(1, 11))
def test_canonical_bases_lie_in_their_pair_slots(n):
    mat = _canonical(n).matrix()
    dim = 1 << n
    inside = np.zeros((dim, dim // 2, 2), dtype=bool)
    inside[spinforms.bases._pair_slots(n)] = True
    assert inside.sum() == 2 * dim  # 2^(n+1) distinct slots
    assert not mat.reshape(dim, dim // 2, 2)[~inside].any()
    assert np.array_equal(mat.reshape(dim, dim // 2, 2)[inside].reshape(dim, 2), _slot_matrix(mat))


def test_computational_basis_is_not_biorthonormal():
    basis = BasisSet(2, np.eye(4))
    report = check_biorthonormal(basis)
    assert not report.passed
    assert report.hilbert_residual <= 1e-14
    # the form Gram of the computational basis is anti-diagonal, not identity
    form = _form_gram_of(basis)
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


def test_decomposition_of_a_passing_basis_is_real_orthogonal():
    # decompose_basis takes the real part of C = (V^H B)^T with no check of its own: once both Gram
    # residuals are within GRAM_TOL, C^H C - C^T C = -2i (Im C)^T C bounds Im C by about GRAM_TOL
    bases = [magic_basis(n) for n in (2, 4, 6, 8)]
    bases += [basis_from_orthogonal(random_real_orthogonal(1 << n, 50 + i)) for n in (2, 4) for i in range(10)]
    near = basis_from_orthogonal(random_real_orthogonal(4, 7)).matrix().copy()
    near[:, 2] *= np.exp(0.49e-10j)  # a form residual 2 sin(0.49e-10), just within GRAM_TOL
    bases.append(BasisSet(2, near))
    for basis in bases:
        assert check_biorthonormal(basis).passed
        c = canonical_coefficients(basis.n, basis.matrix()).T
        assert np.max(np.abs(c.imag)) <= 2 * GRAM_TOL
        assert np.max(np.abs(c.T @ c - np.eye(basis.dim))) <= 1e-9
        np.testing.assert_array_equal(decompose_basis(basis), c.real)


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


@pytest.mark.parametrize("n", [1, 3, 5])
def test_symplectic_form_defect_matches_the_dense_j_product(n):
    dim = 1 << n
    loop_j = np.zeros((dim, dim))
    for m in range(dim // 2):
        loop_j[2 * m, 2 * m + 1], loop_j[2 * m + 1, 2 * m] = 1.0, -1.0
    assert np.array_equal(canonical_j(dim), loop_j)
    rng = np.random.default_rng(500 + n)
    for x in (rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))):
        dense = np.linalg.norm(x.T @ loop_j @ x - loop_j)
        assert form_defect(x, FormKind.SYMPLECTIC) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_symplectic_form_defect_matches_the_signed_swap_product(n):
    # x^T (J x) with J x the signed swap of each row pair, as one full-size product
    dim = 1 << n
    rng = np.random.default_rng(520 + n)
    for x in (rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))):
        jx = np.stack([x[1::2], -x[0::2]], axis=1).reshape(x.shape)
        want = np.linalg.norm(x.T @ jx - canonical_j(dim))
        assert abs(form_defect(x, FormKind.SYMPLECTIC) - want) <= 1e-12 * max(1.0, want)


@pytest.mark.parametrize("n", range(1, 8))
def test_form_gram_matches_the_full_signed_reversal_product(n):
    dim = 1 << n
    rng = np.random.default_rng(540 + n)
    v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    want = signed_reversal(v).T @ v * i_power(-n)
    np.testing.assert_allclose(_form_gram_of(BasisSet(n, v)), want, rtol=0, atol=1e-12 * np.abs(want).max())
    report = check_biorthonormal(BasisSet(n, v))
    target = canonical_j(dim) if n % 2 else np.eye(dim)
    want_hilbert = np.linalg.norm(v.conj().T @ v - np.eye(dim))
    assert abs(report.hilbert_residual - want_hilbert) <= 1e-12 * want_hilbert
    assert abs(report.form_residual - np.linalg.norm(want - target)) <= 1e-12 * np.abs(want).max()


def test_defects_build_no_dense_target(monkeypatch):
    # I, J and the anti-diagonal are subtracted in place on the Gram, never allocated at 2^n x 2^n
    bases = [magic_basis(4), product_biortho_basis(3), basis_from_unitary_symplectic(random_unitary_symplectic(8, 9))]
    want = [check_biorthonormal(b) for b in bases]
    x, o = random_unitary_symplectic(8, 10), random_real_orthogonal(8, 11)

    def refuse(*args, **kwargs):
        raise AssertionError("dense target built")

    monkeypatch.setattr(np, "eye", refuse)
    monkeypatch.setattr(np, "identity", refuse)
    monkeypatch.setattr(spinforms.bases, "canonical_j", refuse)
    assert [check_biorthonormal(b) for b in bases] == want
    assert unitarity_defect(x) <= 1e-12
    assert form_defect(x, FormKind.SYMPLECTIC) <= 1e-12
    assert form_defect(o, FormKind.ORTHOGONAL) <= 1e-12


@pytest.mark.parametrize("minus, target", [(_minus_identity, np.eye(4)), (_minus_j, canonical_j(4))])
def test_target_subtraction_edits_views_in_place(minus, target):
    # the diagonal views write through any strides: a transposed array and a stack of blocks are edited where they lie
    rng = np.random.default_rng(12)
    base = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    want = base.T - (2.0 - 1.0j) * target
    view = base.T  # not C-contiguous: an index or reshape copy would leave base as it is
    assert minus(view, 2.0 - 1.0j) is view
    np.testing.assert_array_equal(base.T, want)
    stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    want = stack - 0.5j * target
    assert minus(stack, 0.5j) is stack
    np.testing.assert_array_equal(stack, want)
    blocks = rng.normal(size=(5, 2, 2)) + 0j  # the pair route's 2 x 2 blocks
    want = blocks - 3.0 * target[:2, :2]
    minus(blocks, 3.0)
    np.testing.assert_array_equal(blocks, want)


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


def test_overflowing_form_defect_is_infinite_not_nan():
    # 1e200 times a group member: x^T T x overflows and inf - inf gives NaN, so it is taken again at 2^-e
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        assert form_defect(1e200 * random_real_orthogonal(8, 4), FormKind.ORTHOGONAL) == np.inf
        assert form_defect(1e200 * random_unitary_symplectic(8, 4), FormKind.SYMPLECTIC) == np.inf
        with pytest.raises(ValueError, match="form defect inf"):
            basis_from_unitary_symplectic(1e200 * random_unitary_symplectic(8, 4))
    # c I has the defect (c^2 - 1) sqrt(4): finite, but at 2^510 the first pass's norm overflows
    for c in (2.0**300, 2.0**510):
        for kind, t in ((FormKind.ORTHOGONAL, np.eye(4)), (FormKind.SYMPLECTIC, canonical_j(4))):
            assert form_defect(c * t, kind) == pytest.approx(2 * (c * c - 1), rel=1e-15)


def test_random_unitary_symplectic_membership():
    for dim, seed in ((2, 0), (8, 1), (32, 2)):
        s = random_unitary_symplectic(dim, seed)
        assert unitarity_defect(s) <= 1e-12
        assert form_defect(s, FormKind.SYMPLECTIC) <= 1e-12
    # dim 2: unitary + symplectic = SU(2)
    s = random_unitary_symplectic(2, 5)
    assert abs(np.linalg.det(s) - 1.0) <= 1e-12


def _dense_j_draw(dim, seed):
    """random_unitary_symplectic with J x^T J taken as two products with the dense canonical_j."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = (g - g.conj().T) / 2.0
    j = canonical_j(dim)
    x = (x + j @ x.T @ j) / 2.0
    w, u = np.linalg.eigh(-1j * x)
    return (u * np.exp(1j * w)) @ u.conj().T


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 64])
def test_random_unitary_symplectic_equals_the_dense_j_draw(dim):
    for seed in range(5):
        assert random_unitary_symplectic(dim, seed).tobytes() == _dense_j_draw(dim, seed).tobytes()


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
    form = _form_gram_of(basis)
    cols = [PureState(n, v) for v in basis.matrix().T]
    want = np.array([[bilinear_form_dense(a, b).value for b in cols] for a in cols])
    np.testing.assert_allclose(form, want, rtol=1e-13, atol=1e-12)


def _canonical(n):
    return magic_basis(n) if n % 2 == 0 else product_biortho_basis(n)


def test_bases_compare_by_value(unmarked_copies):
    # equal n, ordering and matrix; the canonical marker is left out of the comparison
    for n in (2, 3):
        basis = _canonical(n)
        assert basis == _canonical(n) and not basis != _canonical(n)
        assert basis == BasisSet(n, basis.matrix().copy(), basis.ordering)
        assert basis == unmarked_copies(basis)["replace"]
        assert basis != BasisSet(n, basis.matrix())  # no ordering
        assert basis != BasisSet(n, -basis.matrix(), basis.ordering)
        assert basis != _canonical(n + 1)
        with pytest.raises(TypeError):
            hash(basis)
    assert BasisSet(1, np.eye(2)) != GlobalOperator(1, np.eye(2))  # same field names, another type
    assert BasisSet(1, np.eye(2)) != None  # noqa: E711


def test_only_the_canonical_constructors_mark_a_basis(unmarked_copies):
    for n in (2, 3):
        assert _canonical(n).canonical
        assert not any(copy.canonical for copy in unmarked_copies(_canonical(n)).values())
    assert not basis_from_orthogonal(random_real_orthogonal(4, 1)).canonical
    assert not basis_from_unitary_symplectic(random_unitary_symplectic(8, 2)).canonical
    with pytest.raises(TypeError):
        BasisSet(2, magic_basis(2).matrix(), canonical=True)  # not a constructor parameter


@pytest.mark.parametrize(
    "how", [copy.copy, copy.deepcopy, lambda basis: pickle.loads(pickle.dumps(basis))], ids=["copy", "deepcopy", "pickle"]
)
def test_copies_and_pickles_of_a_basis_stay_frozen_and_keep_the_marker(unmarked_copies, how):
    # a canonical basis rebuilds through the canonical constructor; any other basis through BasisSet
    for n in (2, 3):
        for basis in (_canonical(n), *unmarked_copies(_canonical(n)).values()):
            copied = how(basis)
            assert type(copied) is BasisSet
            assert copied.canonical == basis.canonical
            assert (copied.n, copied.ordering) == (basis.n, basis.ordering)
            np.testing.assert_array_equal(copied.matrix(), basis.matrix())
            assert not copied.matrix().flags.writeable


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_canonical_basis_reports_like_an_unmarked_copy(refuse_gram, n):
    from spinforms.entanglement import amplitude_bound_check, tangle_result

    basis, psi = magic_basis(n), random_state(n, 80 + n)
    copy = BasisSet(n, basis.matrix(), basis.ordering)
    want_bound, want_tangle = amplitude_bound_check(psi, copy), tangle_result(psi, copy)
    refuse_gram()  # the canonical basis is not Gram-checked
    bound, result = amplitude_bound_check(psi, basis), tangle_result(psi, basis)
    assert bound.passed == want_bound.passed
    for field in ("max_coeff_sq", "bound", "slack"):
        assert abs(getattr(bound, field) - getattr(want_bound, field)) <= 1e-14
    assert result.value == want_tangle.value and result.basis_used == want_tangle.basis_used
    np.testing.assert_allclose(result.polygon, want_tangle.polygon, rtol=0, atol=1e-14)
    np.testing.assert_allclose(decompose_basis(basis), np.eye(1 << n), atol=1e-14)
    with pytest.raises(AssertionError, match="Gram check"):
        check_biorthonormal(basis)  # the explicit check always computes both Grams


def test_unmarked_canonical_copies_are_gram_checked(refuse_gram, unmarked_copies):
    from spinforms.entanglement import amplitude_bound_check, tangle_result

    basis, psi = magic_basis(4), random_state(4, 90)
    perturbed = basis.matrix().copy()
    perturbed[0, 0] += 1e-6
    for call in (amplitude_bound_check, tangle_result):
        with pytest.raises(ValueError, match="not bi-orthonormal"):
            call(psi, BasisSet(4, perturbed))
    with pytest.raises(ValueError, match="not bi-orthonormal"):
        decompose_basis(BasisSet(4, perturbed))
    copies = unmarked_copies(basis)
    refuse_gram()
    for copy in copies.values():
        for call in (amplitude_bound_check, tangle_result):
            with pytest.raises(AssertionError, match="Gram check"):
                call(psi, copy)
        with pytest.raises(AssertionError, match="Gram check"):
            decompose_basis(copy)
