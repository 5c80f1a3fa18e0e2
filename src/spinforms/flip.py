"""The spin flip and the bilinear form it induces on n-qubit state space.

The spin flip is the antilinear map psi -> sigma_y^(x)n conj(psi), taken in
the computational basis fixed at construction.  Pairing a flipped bra with a
ket gives a bilinear form that is symmetric when n is even (an orthogonal
space) and antisymmetric when n is odd (a symplectic space).

Two routes are provided for the flip and the form: an O(2^n) matrix-free
kernel, a signed reversal of the rows taken block by block against one
cached tile of signs, and a dense sigma_y^(x)n oracle used for
cross-validation at small n.  The two must agree; tests and the self-test
suite enforce this.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bits import i_power, parity_signs
from .core import GlobalOperator, PureState, _freeze

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

#: Dense-oracle paths are only meant for cross-checks at small n.
MAX_DENSE_ORACLE_QUBITS = 8


class FormKind(Enum):
    """Symmetry class of the bilinear form, fixed by the parity of n."""

    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"

    @classmethod
    def for_qubits(cls, n: int) -> "FormKind":
        return cls.ORTHOGONAL if n % 2 == 0 else cls.SYMPLECTIC

    @property
    def exchange_sign(self) -> int:
        """Sign s in form(psi, phi) = s * form(phi, psi)."""
        return 1 if self is FormKind.ORTHOGONAL else -1


@dataclass(frozen=True)
class FormValue:
    value: complex
    kind: FormKind


#: Low index bits of the sign tile: a 128 KiB complex block and the two 64 KiB tiles +-s_lo stay in cache together.
_TILE_BITS = 13


def _signed_blocks(x: np.ndarray, stop: int | None = None):
    """Yield (rows, block, tile) for consecutive row blocks of x[::-1] up to row ``stop`` (default all).

    block * tile is signed_reversal(x)[rows].  For k = a * 2^l + b with l = min(n, _TILE_BITS),
    the sign of row k factors as (-1)^popcount(~k) = (-1)^n * s_hi[a] * s_lo[b], so each block
    gets the one cached tile s_lo or its negation and no 2^n-entry mask is built.
    """
    n = x.shape[0].bit_length() - 1
    if n < 0 or x.shape[0] != 1 << n:
        raise ValueError(f"expected 2^n rows along axis 0, got shape {x.shape}")
    low = min(n, _TILE_BITS)
    tile = parity_signs(low).reshape((-1,) + (1,) * (x.ndim - 1))
    tiles = (tile, -tile)
    end = x.shape[0] if stop is None else stop
    for start in range(0, end, 1 << low):
        block_rows = slice(start, min(start + (1 << low), end))
        sign = (n + (start >> low).bit_count()) % 2  # (-1)^n * s_hi[a] is +1 or -1
        yield block_rows, x[::-1][block_rows], tiles[sign][: block_rows.stop - start]


def signed_reversal(x) -> np.ndarray:
    """Row k is (-1)^popcount(~k) * x[~k], along axis 0 of 2^n rows, written in one pass to a new array.

    sigma_y^(x)n = i^n * signed_reversal, as sigma_y |j> = i (-1)^j |1 - j> on each qubit.
    """
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.result_type(x, np.float64))
    for rows, block, tile in _signed_blocks(x):
        np.multiply(block, tile, out=out[rows])
    return out


def _form_gram(x: np.ndarray) -> np.ndarray:
    """signed_reversal(x)^T x for 2^n rows of columns, as X^T + (-1)^n X with half the flops.

    X = x[::-1][:h]^T (s * x[:h]) with h = 2^(n-1) and s = parity_signs(n-1): the rows
    k >= h of the full product contribute X^T, the rows k < h contribute (-1)^n X.
    """
    h = x.shape[0] // 2
    n = h.bit_length()
    half = x[::-1][:h].T @ (parity_signs(n - 1)[:, None] * x[:h])
    return np.add(half.T, half) if n % 2 == 0 else np.subtract(half.T, half)


def flip_amplitudes(x) -> np.ndarray:
    """Spin flip sigma_y^(x)n conj(x) of amplitude vectors along axis 0, in one pass per column.

    The sign, the conjugate and the phase i^n are applied to each block while it is in cache.
    """
    x = np.asarray(x, dtype=np.complex128)
    out = np.empty(x.shape, dtype=np.complex128)
    phase = i_power(x.shape[0].bit_length() - 1)
    for rows, block, tile in _signed_blocks(x):
        part = np.multiply(block, tile, out=out[rows])
        np.multiply(np.conjugate(part, out=part), phase, out=part)
    return out


def _signed_dot(x: np.ndarray, y: np.ndarray, stop: int) -> complex:
    """sum over k < stop of (-1)^popcount(~k) x[~k] y[k], block by block with no full-size product."""
    buf = np.empty(min(stop, 1 << _TILE_BITS), dtype=np.complex128)
    total = np.zeros(2)
    for block_rows, block, tile in _signed_blocks(x, stop):
        product = np.multiply(block, y[block_rows], out=buf[: len(block)])
        total += tile @ product.view(np.float64).reshape(-1, 2)  # (real, imaginary) row sums
    return complex(total[0], total[1])


def flip_state(psi: PureState) -> PureState:
    """Spin-flipped state, computed matrix-free in O(2^n)."""
    return PureState(psi.n, _freeze(flip_amplitudes(psi.amp)))


def bilinear_form(psi: PureState, phi: PureState) -> FormValue:
    """The spin-flip bilinear form (psi, phi) = <flip(psi)|phi>, matrix-free.

    Equals (-i)^n signed_reversal(psi) . phi; symmetric for even n, antisymmetric for odd n.
    """
    if psi.n != phi.n:
        raise ValueError(f"qubit counts differ: {psi.n} vs {phi.n}")
    value = _signed_dot(psi.amp, phi.amp, psi.dim) * i_power(-psi.n)
    return FormValue(value, FormKind.for_qubits(psi.n))


def flip_local(a: np.ndarray) -> np.ndarray:
    """Spin flip of a 1-qubit operator: sigma_y conj(A) sigma_y, as flip_operator at n = 1."""
    return flip_operator(GlobalOperator(1, a)).mat


def flip_operator(op: GlobalOperator) -> GlobalOperator:
    """Spin flip of a dense operator: F_n conj(M) F_n^-1 with F_n = sigma_y^(x)n.

    F_n is a signed complement permutation, so the product reduces to the
    entrywise identity flip(M)[a, b] = (-1)^(popcount(a) + popcount(b))
    conj(M)[~a, ~b]; no matmul.
    """
    signs = parity_signs(op.n)
    flipped = np.conj(op.mat[::-1, ::-1])  # a new C-contiguous array, signed in place
    flipped *= signs[:, None]
    flipped *= signs
    return GlobalOperator(op.n, _freeze(flipped))


# --- dense sigma_y^(x)n oracle -------------------------------------------------


def spin_flip_matrix(n: int) -> np.ndarray:
    """Dense sigma_y^(x)n (the linear part of the spin flip); self-inverse."""
    if n > MAX_DENSE_ORACLE_QUBITS:
        raise ValueError(f"dense spin-flip matrix is capped at {MAX_DENSE_ORACLE_QUBITS} qubits")
    mat = np.eye(1, dtype=np.complex128)
    for _ in range(n):
        mat = np.kron(mat, SIGMA_Y)
    return mat


def flip_state_dense(psi: PureState) -> PureState:
    """Dense-oracle spin flip: sigma_y^(x)n @ conj(psi)."""
    return PureState(psi.n, spin_flip_matrix(psi.n) @ np.conj(psi.amp))


def bilinear_form_dense(psi: PureState, phi: PureState) -> FormValue:
    """Dense-oracle form value <sigma_y^(x)n conj(psi) | phi>."""
    if psi.n != phi.n:
        raise ValueError(f"qubit counts differ: {psi.n} vs {phi.n}")
    value = np.vdot(flip_state_dense(psi).amp, phi.amp)
    return FormValue(complex(value), FormKind.for_qubits(psi.n))
