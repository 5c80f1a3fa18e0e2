"""The spin flip and the bilinear form it induces on n-qubit state space.

The spin flip is the antilinear map psi -> sigma_y^(x)n conj(psi), taken in
the computational basis fixed at construction.  Pairing a flipped bra with a
ket gives a bilinear form that is symmetric when n is even (an orthogonal
space) and antisymmetric when n is odd (a symplectic space).

Two routes are provided for the flip and the form: an O(2^n) matrix-free
kernel, one signed reversal of the rows, and a dense sigma_y^(x)n oracle
used for cross-validation at small n.  The two must agree; tests and the
self-test suite enforce this.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bits import i_power, parity_signs
from .core import DEFAULT_TOL, GlobalOperator, PureState, Tolerances, random_state

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


def signed_reversal(x) -> np.ndarray:
    """Row k is (-1)^popcount(~k) * x[~k], along axis 0 of 2^n rows, written in one pass to a new array.

    sigma_y^(x)n = i^n * signed_reversal, as sigma_y |j> = i (-1)^j |1 - j> on each qubit.
    """
    x = np.asarray(x)
    signs = parity_signs(x.shape[0].bit_length() - 1)[::-1]
    return np.multiply(x[::-1], signs.reshape((-1,) + (1,) * (x.ndim - 1)))


def flip_amplitudes(x) -> np.ndarray:
    """Spin flip sigma_y^(x)n conj(x) of amplitude vectors along axis 0, in O(2^n) per column."""
    out = signed_reversal(np.asarray(x, dtype=np.complex128))
    return np.multiply(np.conjugate(out, out=out), i_power(out.shape[0].bit_length() - 1), out=out)


def flip_state(psi: PureState) -> PureState:
    """Spin-flipped state, computed matrix-free in O(2^n)."""
    return PureState(psi.n, flip_amplitudes(psi.amp))


def bilinear_form(psi: PureState, phi: PureState) -> FormValue:
    """The spin-flip bilinear form (psi, phi) = <flip(psi)|phi>, matrix-free.

    Equals (-i)^n signed_reversal(psi) . phi; symmetric for even n, antisymmetric for odd n.
    """
    if psi.n != phi.n:
        raise ValueError(f"qubit counts differ: {psi.n} vs {phi.n}")
    value = np.dot(signed_reversal(psi.amp), phi.amp) * i_power(-psi.n)
    return FormValue(complex(value), FormKind.for_qubits(psi.n))


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
    flipped = np.conj(op.mat)[::-1, ::-1] * np.outer(signs, signs)
    return GlobalOperator(op.n, flipped)


@dataclass(frozen=True)
class FormParityReport:
    """Outcome of sampling form(psi, phi) - s*form(phi, psi) over random pairs."""

    n: int
    kind: FormKind
    trials: int
    seed: int | np.random.Generator
    max_residual: float
    passed: bool


def form_parity_check(
    n: int, trials: int = 100, seed: int | np.random.Generator = 0, tol: Tolerances = DEFAULT_TOL
) -> FormParityReport:
    """Verify the exchange symmetry of the form on random state pairs.

    A ``np.random.Generator`` as ``seed`` is used as is, so several calls can
    share one stream.
    """
    rng = np.random.default_rng(seed)
    sign = FormKind.for_qubits(n).exchange_sign
    worst = 0.0
    for _ in range(trials):
        psi, phi = random_state(n, rng), random_state(n, rng)
        gap = abs(bilinear_form(psi, phi).value - sign * bilinear_form(phi, psi).value)
        worst = max(worst, gap)
    return FormParityReport(
        n=n,
        kind=FormKind.for_qubits(n),
        trials=trials,
        seed=seed,
        max_residual=worst,
        passed=worst <= tol.tol_residual,
    )


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
