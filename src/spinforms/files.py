"""State, operator, and basis files: versioned JSON with [re, im] pairs.

The format is deliberately plain: a ``format`` tag, integer ``n``, and
complex numbers always as two-element [re, im] arrays.  An entry is valid iff
it is a JSON number that converts to a finite double; anything else (true,
null, strings, NaN, Infinity, integers beyond the double range, ragged
lists) is a FileFormatError.  JSON floats round trip bit-exactly for finite
doubles.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bases import BasisSet
from .core import (
    MAX_OPERATOR_QUBITS,
    MAX_STATE_QUBITS,
    GlobalOperator,
    LocalOperatorList,
    PureState,
    _freeze,
)

STATE_FORMAT = "spinforms.state/1"
OPERATOR_FORMAT = "spinforms.operator/1"
BASIS_FORMAT = "spinforms.basis/1"
REPORT_FORMAT = "spinforms.report/1"


class FileFormatError(ValueError):
    """Raised when a file does not conform to the expected schema."""


def _pairs(arr: np.ndarray) -> list:
    """Nested lists of [re, im] floats, one per complex entry."""
    return np.ascontiguousarray(arr).view(np.float64).reshape(*arr.shape, 2).tolist()


def _complex_array(values, shape: tuple, what: str) -> np.ndarray:
    """Frozen complex array of ``shape``, owning its data, from nested lists of [re, im] pairs of JSON numbers."""
    arr = np.array(values, dtype=object)  # ragged lists stay list objects
    if arr.shape != (*shape, 2) or not set(map(type, arr.flat)) <= {int, float}:
        raise FileFormatError(f"{what} must be {' x '.join(map(str, shape))} [re, im] pairs of numbers")
    out = np.empty(shape, dtype=np.complex128)
    re_im = out.view(np.float64).reshape(arr.shape)  # not re + 1j * im, which would turn -0.0 into +0.0
    try:
        re_im[...] = arr
    except OverflowError as exc:  # an integer beyond the double range
        raise FileFormatError(f"{what} entries must be finite doubles") from exc
    if not np.isfinite(re_im).all():
        raise FileFormatError(f"{what} entries must be finite doubles")
    return _freeze(out)


def _load(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, oversized int literal, deep nesting
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return data


def _dump(path, data: dict) -> None:
    Path(path).write_text(json.dumps(data, allow_nan=False) + "\n", encoding="utf-8")  # one line


def _expect_format(data: dict, tag: str, path) -> None:
    if data.get("format") != tag:
        raise FileFormatError(f"{path}: expected format {tag!r}, got {data.get('format')!r}")


def _expect_n(data: dict, path, cap: int) -> int:
    n = data.get("n")
    if type(n) is not int or not 1 <= n <= cap:
        raise FileFormatError(f"{path}: 'n' must be an integer in [1, {cap}]")
    return n


def write_state(path, state: PureState, metadata: dict | None = None) -> None:
    data = {"format": STATE_FORMAT, "n": state.n, "amplitudes": _pairs(state.amp)}
    if metadata:
        data["metadata"] = metadata
    _dump(path, data)


def read_state(path) -> PureState:
    data = _load(path)
    _expect_format(data, STATE_FORMAT, path)
    n = _expect_n(data, path, MAX_STATE_QUBITS)
    return PureState(n, _complex_array(data.get("amplitudes"), (1 << n,), "amplitudes"))


def write_operator(path, op: GlobalOperator | LocalOperatorList) -> None:
    if isinstance(op, GlobalOperator):
        data = {
            "format": OPERATOR_FORMAT,
            "kind": "global",
            "n": op.n,
            "matrix": _pairs(op.mat),
        }
    else:
        data = {
            "format": OPERATOR_FORMAT,
            "kind": "local",
            "n": op.n,
            "factors": [_pairs(a) for a in op.ops],
        }
    _dump(path, data)


def read_operator(path) -> GlobalOperator | LocalOperatorList:
    data = _load(path)
    _expect_format(data, OPERATOR_FORMAT, path)
    kind = data.get("kind")
    if kind == "global":
        n = _expect_n(data, path, MAX_OPERATOR_QUBITS)
        return GlobalOperator(n, _complex_array(data.get("matrix"), (1 << n, 1 << n), "matrix"))
    if kind == "local":
        # a local operation acts on states, so it shares their cap
        n = _expect_n(data, path, MAX_STATE_QUBITS)
        return LocalOperatorList(tuple(_complex_array(data.get("factors"), (n, 2, 2), "factors")))
    raise FileFormatError(f"{path}: 'kind' must be 'global' or 'local', got {kind!r}")


def write_basis(path, basis: BasisSet) -> None:
    data = {
        "format": BASIS_FORMAT,
        "n": basis.n,
        "ordering": basis.ordering,
        "vectors": _pairs(basis.matrix().T),
    }
    _dump(path, data)


def read_basis(path) -> BasisSet:
    data = _load(path)
    _expect_format(data, BASIS_FORMAT, path)
    n = _expect_n(data, path, MAX_OPERATOR_QUBITS)  # a basis is a dense 2^n x 2^n matrix
    vectors = _complex_array(data.get("vectors"), (1 << n, 1 << n), f"{path}: 'vectors'")  # one row per vector
    ordering = data.get("ordering", "")
    if not isinstance(ordering, str):
        raise FileFormatError(f"{path}: 'ordering' must be a string")
    # BasisSet copies the transpose into column order: converting the file's entries in transposed
    # order instead is slower than this copy (5.0 against 3.9 ms at n = 8, one thread)
    return BasisSet(n, vectors.T, ordering)
