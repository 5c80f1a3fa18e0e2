import copy
import pickle

import numpy as np
import pytest

from spinforms.bases import BasisSet
from spinforms.core import (
    GlobalOperator,
    LocalOperatorList,
    PureState,
    apply,
    basis_state,
    expand_local,
    hilbert_inner,
    make_state,
    normalize,
    random_operator,
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


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", COPIES)
def test_copies_and_pickles_stay_frozen(how):
    # each value rebuilds through its constructor, so the copy's arrays are read-only again
    for value, arrays in (
        (random_state(3, 5), lambda v: [v.amp]),
        (random_operator(2, 6), lambda v: [v.mat]),
        (LocalOperatorList((random_sl2(7), random_su2(8))), lambda v: list(v.ops)),
    ):
        copied = COPIES[how](value)
        assert type(copied) is type(value)
        for got, want in zip(arrays(copied), arrays(value), strict=True):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable


def test_values_compare_by_value():
    state, op = random_state(2, 1), random_operator(2, 2)
    local = LocalOperatorList((random_sl2(3), random_su2(4)))
    for value, same, others in (
        (state, PureState(2, state.amp.copy()), [random_state(2, 2), PureState(1, state.amp[:2])]),
        (op, GlobalOperator(2, op.mat.copy()), [GlobalOperator(2, 2.0 * op.mat), random_operator(1, 2)]),
        (
            local,
            LocalOperatorList(tuple(a.copy() for a in local.ops)),
            [LocalOperatorList(local.ops[::-1]), LocalOperatorList(local.ops[:1]), LocalOperatorList(local.ops * 2)],
        ),
    ):
        assert value == same and not value != same
        assert value == copy.deepcopy(value)
        for other in others:
            assert value != other and not value == other
        with pytest.raises(TypeError):
            hash(value)  # unhashable, as before
    one = np.eye(2)
    cross = [PureState(2, [1, 0, 0, 0]), GlobalOperator(1, one), LocalOperatorList((one,)), None, 1]
    for i, a in enumerate(cross):
        for b in cross[i + 1 :]:
            assert a != b and b != a


def test_frozen_amplitudes_are_stored_as_given_and_others_copied():
    psi = random_state(18, 3)
    assert np.shares_memory(PureState(18, psi.amp).amp, psi.amp)
    writable = psi.amp.copy()
    state = PureState(18, writable)
    assert not np.shares_memory(state.amp, writable)
    writable[0] = 5.0
    assert state.amp[0] == psi.amp[0]
    # frozen but not owning its data, or of another dtype: copied
    assert not np.shares_memory(PureState(17, psi.amp[::2]).amp, psi.amp)
    real = np.ones(4)
    real.setflags(write=False)
    assert PureState(2, real).amp.dtype == np.complex128


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)])
def test_copied_values_refuse_non_finite_entries(bad):
    def with_bad(shape):
        values = np.zeros(shape, dtype=np.complex128)
        values.flat[-1] = bad
        return values

    for make in (
        lambda: PureState(2, with_bad(4)),
        lambda: make_state(1, [1.0, bad]),
        lambda: GlobalOperator(1, with_bad((2, 2))),
        lambda: LocalOperatorList((np.eye(2), with_bad((2, 2)))),
        lambda: BasisSet(1, with_bad((2, 2))),
    ):
        with pytest.raises(ValueError, match="finite"):
            make()
    frozen = with_bad(4)  # a frozen array is stored as given, unchecked
    frozen.setflags(write=False)
    assert PureState(2, frozen).amp is frozen


def test_fresh_results_are_stored_without_a_copy(monkeypatch, tmp_path):
    # every function that builds a fresh array freezes it, so the constructor does not copy it again
    # (read_basis is left out: its file lists vectors as rows, and BasisSet copies them into columns)
    import spinforms.bases as bases
    import spinforms.core as core
    from spinforms import entanglement, files, flip

    local = LocalOperatorList(tuple(random_sl2(30 + q) for q in range(3)))
    psi, op = random_state(3, 31), core.random_operator(3, 32)
    unnormalized = PureState(3, 2 * psi.amp)
    files.write_state(tmp_path / "s.json", psi)
    files.write_operator(tmp_path / "o.json", op)
    copied = []

    def spy(values, shape):
        stored = frozen_complex(values, shape)
        if stored is not values:
            copied.append(shape)
        return stored

    frozen_complex = core._frozen_complex
    monkeypatch.setattr(core, "_frozen_complex", spy)
    monkeypatch.setattr(bases, "_frozen_complex", spy)
    random_state(3, 33)
    core.random_operator(3, 34)
    normalize(unnormalized)
    apply(op, psi)
    tensor_states(psi, psi)
    expand_local(local)
    flip.flip_operator(op)
    flip.flip_state(psi)
    entanglement.maxent_generate(2, 0.3, [0.6, 0.8, 0.0, 0.0])
    files.read_state(tmp_path / "s.json")
    files.read_operator(tmp_path / "o.json")
    bases.magic_basis(2)
    bases.basis_from_orthogonal(np.eye(4))
    with pytest.warns(UserWarning, match="norm"):
        entanglement._as_normalized(unnormalized)
    assert copied == []


def test_expand_local_and_tensor_states_match_kron():
    rng = np.random.default_rng(35)
    for n in range(1, 7):
        local = LocalOperatorList(tuple(random_sl2(int(s)) for s in rng.integers(0, 2**31, size=n)))
        want = np.eye(1, dtype=complex)
        for a in local.ops:
            want = np.kron(want, a)
        assert np.array_equal(expand_local(local).mat, want)
        psi, phi = random_state(n, rng), random_state(2, rng)
        assert np.array_equal(tensor_states(psi, phi).amp, np.kron(psi.amp, phi.amp))


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


class _RefusingRng:
    def __getattr__(self, name):
        raise AssertionError(f"drew {name} before checking n")


@pytest.mark.parametrize("draw, n, cap", [(random_state, 0, 24), (random_state, 25, 24), (random_operator, 13, 12)])
def test_random_draws_check_n_first(monkeypatch, draw, n, cap):
    monkeypatch.setattr("spinforms.core.np.random.default_rng", lambda seed: _RefusingRng())
    with pytest.raises(ValueError, match=rf"qubit count must be in \[1, {cap}\], got {n}"):
        draw(n, 0)


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

