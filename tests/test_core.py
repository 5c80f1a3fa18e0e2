import numpy as np
import pytest

from spinforms.core import (
    GlobalOperator,
    LocalOperatorList,
    PureState,
    Tolerances,
    apply,
    basis_state,
    expand_local,
    hilbert_inner,
    make_state,
    normalize,
    random_sl2,
    random_state,
    random_su2,
    tensor_states,
)
from spinforms.flip import flip_local

S2 = 1.0 / np.sqrt(2.0)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_make_state():
    psi = make_state(1, [1, 0])
    np.testing.assert_array_equal(psi.amp, [1, 0])
    bell = make_state(2, [S2, 0, 0, S2])
    assert bell.n == 2 and bell.dim == 4
    with pytest.raises(ValueError):
        make_state(1, [1, 0, 0])


def test_states_are_immutable():
    psi = make_state(1, [1, 0])
    with pytest.raises(ValueError):
        psi.amp[0] = 2.0


def test_hilbert_inner():
    zero, one = basis_state(1, 0), basis_state(1, 1)
    assert hilbert_inner(zero, zero) == 1
    assert hilbert_inner(zero, one) == 0
    # conjugate-linear in the first slot
    assert hilbert_inner(make_state(1, [1j, 0]), zero) == -1j
    with pytest.raises(ValueError):
        hilbert_inner(zero, basis_state(2, 0))


def test_normalize():
    np.testing.assert_allclose(normalize(make_state(1, [2, 0])).amp, [1, 0])
    np.testing.assert_allclose(normalize(make_state(1, [1, 1])).amp, [S2, S2])
    with pytest.raises(ValueError):
        normalize(make_state(1, [0, 0]))


def test_tensor_states():
    np.testing.assert_array_equal(
        tensor_states(basis_state(1, 0), basis_state(1, 1)).amp, [0, 1, 0, 0]
    )
    plus = make_state(1, [S2, S2])
    np.testing.assert_allclose(tensor_states(basis_state(1, 0), plus).amp, [S2, S2, 0, 0])
    a, b = 0.3 + 0.1j, -0.7j
    prod = tensor_states(make_state(1, [a, 0]), make_state(1, [b, 0]))
    np.testing.assert_allclose(prod.amp, [a * b, 0, 0, 0])


def test_expand_local_basics():
    eye = expand_local(LocalOperatorList((np.eye(2), np.eye(2))))
    np.testing.assert_array_equal(eye.mat, np.eye(4))
    single = expand_local(LocalOperatorList((SY,)))
    np.testing.assert_array_equal(single.mat, SY)
    # diagonal product on |11>
    zz = expand_local(LocalOperatorList((SZ, SZ)))
    np.testing.assert_allclose(apply(zz, basis_state(2, 3)).amp, [0, 0, 0, 1])


def test_expand_local_single_factor_is_identity_map():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_array_equal(expand_local(LocalOperatorList((a,))).mat, a)


def test_expand_local_entry_convention():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    mat = expand_local(LocalOperatorList((a, b))).mat
    for row in range(4):
        for col in range(4):
            want = a[row >> 1, col >> 1] * b[row & 1, col & 1]
            assert mat[row, col] == pytest.approx(want)


def test_expand_local_composition():
    rng = np.random.default_rng(4)
    for n in range(1, 5):
        lists = [
            [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n)]
            for _ in range(2)
        ]
        left = expand_local(LocalOperatorList(tuple(a @ b for a, b in zip(*lists))))
        right = expand_local(LocalOperatorList(tuple(lists[0]))).mat @ expand_local(
            LocalOperatorList(tuple(lists[1]))
        ).mat
        np.testing.assert_allclose(left.mat, right, atol=1e-8)


def test_apply_factorizes_over_products():
    rng = np.random.default_rng(5)
    mats, states = [], []
    for q in range(3):
        mats.append(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        states.append(PureState(1, z / np.linalg.norm(z)))
    product = states[0]
    for s in states[1:]:
        product = tensor_states(product, s)
    moved = apply(expand_local(LocalOperatorList(tuple(mats))), product)
    per_qubit = apply(GlobalOperator(1, mats[0]), states[0])
    for m, s in zip(mats[1:], states[1:]):
        per_qubit = tensor_states(per_qubit, apply(GlobalOperator(1, m), s))
    np.testing.assert_allclose(moved.amp, per_qubit.amp, atol=1e-8)


def test_apply_basics():
    psi = basis_state(1, 0)
    np.testing.assert_array_equal(apply(GlobalOperator(1, np.eye(2)), psi).amp, psi.amp)
    np.testing.assert_array_equal(apply(GlobalOperator(1, SX), psi).amp, [0, 1])
    yy = expand_local(LocalOperatorList((SY, SY)))
    np.testing.assert_allclose(apply(yy, basis_state(2, 0)).amp, [0, 0, 0, -1])
    with pytest.raises(ValueError):
        apply(GlobalOperator(1, np.eye(2)), basis_state(2, 0))


def test_dense_operator_cap():
    with pytest.raises(ValueError):
        expand_local(LocalOperatorList(tuple(np.eye(2) for _ in range(13))))


def test_random_state_deterministic_and_normalized():
    a, b = random_state(3, 11), random_state(3, 11)
    np.testing.assert_array_equal(a.amp, b.amp)
    assert abs(a.norm() - 1.0) <= 1e-12
    assert not np.allclose(a.amp, random_state(3, 12).amp)


def test_random_state_sphere_uniformity():
    # law of large numbers: E|amp_0|^2 = 1/4 for n=2
    mean = np.mean([abs(random_state(2, seed).amp[0]) ** 2 for seed in range(1000)])
    assert abs(mean - 0.25) < 0.25 * 0.05


def test_random_sl2():
    m = random_sl2(9)
    np.testing.assert_array_equal(m, random_sl2(9))
    assert abs(np.linalg.det(m) - 1.0) <= 1e-8
    # unit determinant is exactly the 1-qubit form-preservation criterion
    np.testing.assert_allclose(flip_local(m).conj().T @ m, np.eye(2), atol=1e-8)


def test_random_su2():
    u = random_su2(21)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_random_su2_rows_give_biorthonormal_pair():
    # rows of U applied to the stacked pair (i|0>, |1>) stay orthonormal for
    # both inner products; the form here is -i(psi_0 phi_1 - psi_1 phi_0)
    u = random_su2(33)
    b0, b1 = np.array([1j, 0.0]), np.array([0.0, 1.0 + 0j])
    x = [u[r, 0] * b0 + u[r, 1] * b1 for r in range(2)]

    def form(p, q):
        return -1j * (p[0] * q[1] - p[1] * q[0])

    hilbert = np.array([[np.vdot(x[r], x[c]) for c in range(2)] for r in range(2)])
    sympl = np.array([[form(x[r], x[c]) for c in range(2)] for r in range(2)])
    np.testing.assert_allclose(hilbert, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(sympl, [[0, 1], [-1, 0]], atol=1e-12)


def test_tolerances_validation():
    assert Tolerances().tol_residual == 1e-8
    with pytest.raises(ValueError):
        Tolerances(tol_norm=-1.0)


@pytest.mark.parametrize("name", ["tol_norm", "tol_gram", "tol_residual"])
def test_tolerances_reject_nan(name):
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: float("nan")})
