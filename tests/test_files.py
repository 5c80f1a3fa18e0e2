import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spinforms.bases import (
    basis_from_orthogonal,
    basis_from_unitary_symplectic,
    magic_basis,
    product_biortho_basis,
    random_real_orthogonal,
    random_unitary_symplectic,
)
from spinforms.bases import BasisSet
from spinforms.core import GlobalOperator, LocalOperatorList, PureState, random_sl2, random_state
from spinforms.files import (
    BASIS_FORMAT,
    OPERATOR_FORMAT,
    STATE_FORMAT,
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
    # written compactly: one line, not one line per float
    assert path.read_text().count("\n") == 1 and path.read_text().endswith("\n")


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


# JSON leaves: numbers a double holds, integers beyond the double range,
# NaN and Infinity literals, and non-numbers
finite_numbers = st.one_of(st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False))
leaves = st.one_of(
    finite_numbers,
    st.integers(min_value=10**308, max_value=10**400),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)
nested = st.recursive(leaves, lambda kids: st.lists(kids, max_size=4), max_leaves=12)  # ragged too
READERS = {STATE_FORMAT: read_state, OPERATOR_FORMAT: read_operator, BASIS_FORMAT: read_basis}


@st.composite
def payloads(draw):
    fmt = draw(st.sampled_from(sorted(READERS)))
    kind = draw(st.sampled_from(["global", "local", "sparse"]))
    n = draw(st.integers(1, 2) | st.integers(-1, 14) | st.sampled_from([True, None, 1.0, "1"]))
    values = draw(nested)
    if type(n) is int and 1 <= n <= 2 and draw(st.booleans()):
        # the nested lists of [re, im] pairs the reader expects, with any leaves
        dims = [1 << n] if fmt == STATE_FORMAT else [n, 2, 2] if kind == "local" else [1 << n, 1 << n]
        values = st.lists(draw(st.sampled_from([finite_numbers, leaves])), min_size=2, max_size=2)
        for d in reversed(dims):
            values = st.lists(values, min_size=d, max_size=d)
        values = draw(values)
    ordering = draw(st.text(max_size=3) | st.integers())
    return {"format": fmt, "n": n, "kind": kind, "ordering": ordering,
            "amplitudes": values, "matrix": values, "factors": values, "vectors": values}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=payloads())
@example(payload={"format": STATE_FORMAT, "n": 1, "amplitudes": [[10**400, 0], [0, 0]]})
@example(payload={"format": OPERATOR_FORMAT, "n": 1, "kind": "local", "factors": [[[[1, 0], [0, 0]], [[0, 0], [True, 0]]]]})
def test_readers_return_a_value_or_raise_file_format_error(tmp_path, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))  # NaN and Infinity become JSON literals
    try:
        value = READERS[payload["format"]](path)
    except FileFormatError:
        return
    assert isinstance(value, (PureState, GlobalOperator, LocalOperatorList, BasisSet))
