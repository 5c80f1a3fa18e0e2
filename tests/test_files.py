import json

import numpy as np
import pytest

from spinforms.bases import (
    basis_from_orthogonal,
    basis_from_unitary_symplectic,
    magic_basis,
    product_biortho_basis,
    random_real_orthogonal,
    random_unitary_symplectic,
)
from spinforms.core import GlobalOperator, LocalOperatorList, random_sl2, random_state
from spinforms.files import (
    FileFormatError,
    read_basis,
    read_operator,
    read_state,
    write_basis,
    write_operator,
    write_state,
)


def test_state_round_trip_bit_exact(tmp_path):
    psi = random_state(3, 17)
    path = tmp_path / "state.json"
    write_state(path, psi)
    back = read_state(path)
    assert back.n == 3
    np.testing.assert_array_equal(back.amp, psi.amp)


def test_state_metadata(tmp_path):
    psi = random_state(1, 0)
    path = tmp_path / "state.json"
    write_state(path, psi, metadata={"label": "demo", "seed": 0})
    data = json.loads(path.read_text())
    assert data["metadata"]["label"] == "demo"
    assert data["format"] == "spinforms.state/1"


def test_state_rejects_wrong_length(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "spinforms.state/1", "n": 1, "amplitudes": [[1, 0]]}))
    with pytest.raises(FileFormatError):
        read_state(path)


def test_state_rejects_wrong_format_tag(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "n": 1, "amplitudes": [[1, 0], [0, 0]]}))
    with pytest.raises(FileFormatError):
        read_state(path)


def test_state_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "spinforms.state/1", "n": 1, "amplitudes": [[1, 0], [NaN, 0]]}')
    with pytest.raises(FileFormatError):
        read_state(path)


def test_state_rejects_strings(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"format": "spinforms.state/1", "n": 1, "amplitudes": [["1", "0"], [0, 0]]})
    )
    with pytest.raises(FileFormatError):
        read_state(path)


def test_state_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        read_state(path)


def test_global_operator_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    op = GlobalOperator(2, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    path = tmp_path / "op.json"
    write_operator(path, op)
    back = read_operator(path)
    assert isinstance(back, GlobalOperator)
    np.testing.assert_array_equal(back.mat, op.mat)


def test_local_operator_round_trip(tmp_path):
    local = LocalOperatorList(tuple(random_sl2(40 + i) for i in range(3)))
    path = tmp_path / "op.json"
    write_operator(path, local)
    back = read_operator(path)
    assert isinstance(back, LocalOperatorList)
    assert back.n == 3
    for a, b in zip(back.ops, local.ops):
        np.testing.assert_array_equal(a, b)


def test_operator_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "spinforms.operator/1", "n": 1, "kind": "sparse"}))
    with pytest.raises(FileFormatError):
        read_operator(path)


def orthogonal_mix(n):
    return basis_from_orthogonal(random_real_orthogonal(2**n, 11))


def symplectic_mix(n):
    return basis_from_unitary_symplectic(random_unitary_symplectic(2**n, 11))


# the canonical bases carry signed zeros; the random mixes fill every bit of the doubles
@pytest.mark.parametrize(
    "basis_fn, n",
    [(magic_basis, 2), (product_biortho_basis, 3), (magic_basis, 4), (orthogonal_mix, 2), (symplectic_mix, 3)],
)
def test_basis_round_trip(tmp_path, basis_fn, n):
    basis = basis_fn(n)
    path = tmp_path / "basis.json"
    write_basis(path, basis)
    back = read_basis(path)
    assert back.n == n
    assert back.ordering == basis.ordering
    assert back.matrix().tobytes() == basis.matrix().tobytes()


def test_basis_rejects_wrong_cardinality(tmp_path):
    basis = magic_basis(2)
    path = tmp_path / "basis.json"
    write_basis(path, basis)
    data = json.loads(path.read_text())
    data["vectors"] = data["vectors"][:3]
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError):
        read_basis(path)
