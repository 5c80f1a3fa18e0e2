"""State, operator, and basis files: versioned JSON with [re, im] pairs.

The format is deliberately plain: a ``format`` tag, integer ``n``, and
complex numbers always as two-element [re, im] arrays.  JSON floats round
trip bit-exactly for finite doubles; non-finite values are rejected.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bases import BasisSet
from .core import GlobalOperator, LocalOperatorList, PureState

STATE_FORMAT = "spinforms.state/1"
OPERATOR_FORMAT = "spinforms.operator/1"
BASIS_FORMAT = "spinforms.basis/1"
REPORT_FORMAT = "spinforms.report/1"


class FileFormatError(ValueError):
    """Raised when a file does not conform to the expected schema."""


def _pairs(vec: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _vector_from_pairs(pairs, length: int, what: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != length:
        raise FileFormatError(f"{what} must be a list of {length} [re, im] pairs")
    out = np.empty(length, dtype=np.complex128)
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FileFormatError(f"{what}[{i}] must be an [re, im] pair")
        re, im = pair
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise FileFormatError(f"{what}[{i}] entries must be numbers")
        if not (np.isfinite(re) and np.isfinite(im)):
            raise FileFormatError(f"{what}[{i}] entries must be finite")
        out[i] = complex(re, im)
    return out


def _load(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return data


def _dump(path, data: dict) -> None:
    Path(path).write_text(json.dumps(data, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _expect_format(data: dict, tag: str, path) -> None:
    if data.get("format") != tag:
        raise FileFormatError(f"{path}: expected format {tag!r}, got {data.get('format')!r}")


def _expect_n(data: dict, path) -> int:
    n = data.get("n")
    if not isinstance(n, int) or n < 1:
        raise FileFormatError(f"{path}: 'n' must be a positive integer")
    return n


def write_state(path, state: PureState, metadata: dict | None = None) -> None:
    data = {"format": STATE_FORMAT, "n": state.n, "amplitudes": _pairs(state.amp)}
    if metadata:
        data["metadata"] = metadata
    _dump(path, data)


def read_state(path) -> PureState:
    data = _load(path)
    _expect_format(data, STATE_FORMAT, path)
    n = _expect_n(data, path)
    amp = _vector_from_pairs(data.get("amplitudes"), 1 << n, "amplitudes")
    return PureState(n, amp)


def _matrix_pairs(mat: np.ndarray) -> list:
    return [_pairs(row) for row in mat]


def _matrix_from_pairs(rows, dim: int, what: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise FileFormatError(f"{what} must be a list of {dim} rows")
    return np.stack([_vector_from_pairs(row, dim, f"{what} row {i}") for i, row in enumerate(rows)])


def write_operator(path, op: GlobalOperator | LocalOperatorList) -> None:
    if isinstance(op, GlobalOperator):
        data = {
            "format": OPERATOR_FORMAT,
            "kind": "global",
            "n": op.n,
            "matrix": _matrix_pairs(op.mat),
        }
    else:
        data = {
            "format": OPERATOR_FORMAT,
            "kind": "local",
            "n": op.n,
            "factors": [_matrix_pairs(a) for a in op.ops],
        }
    _dump(path, data)


def read_operator(path) -> GlobalOperator | LocalOperatorList:
    data = _load(path)
    _expect_format(data, OPERATOR_FORMAT, path)
    n = _expect_n(data, path)
    kind = data.get("kind")
    if kind == "global":
        return GlobalOperator(n, _matrix_from_pairs(data.get("matrix"), 1 << n, "matrix"))
    if kind == "local":
        factors = data.get("factors")
        if not isinstance(factors, list) or len(factors) != n:
            raise FileFormatError(f"{path}: 'factors' must list {n} 2x2 matrices")
        return LocalOperatorList(
            tuple(_matrix_from_pairs(f, 2, f"factor {i}") for i, f in enumerate(factors))
        )
    raise FileFormatError(f"{path}: 'kind' must be 'global' or 'local', got {kind!r}")


def write_basis(path, basis: BasisSet) -> None:
    data = {
        "format": BASIS_FORMAT,
        "n": basis.n,
        "ordering": basis.ordering,
        "vectors": _matrix_pairs(basis.matrix().T),
    }
    _dump(path, data)


def read_basis(path) -> BasisSet:
    data = _load(path)
    _expect_format(data, BASIS_FORMAT, path)
    n = _expect_n(data, path)
    vectors = _matrix_from_pairs(data.get("vectors"), 1 << n, f"{path}: 'vectors'")  # one row per vector
    ordering = data.get("ordering", "")
    if not isinstance(ordering, str):
        raise FileFormatError(f"{path}: 'ordering' must be a string")
    return BasisSet(n, vectors.T, ordering)
