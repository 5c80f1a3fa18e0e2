"""The spin flip and the bilinear form it induces on n-qubit state space.

The spin flip is the antilinear map psi -> sigma_y^(x)n conj(psi), taken in
the computational basis fixed at construction.  Pairing a flipped bra with a
ket gives a bilinear form that is symmetric when n is even (an orthogonal
space) and antisymmetric when n is odd (a symplectic space).

Two routes are provided for the flip and the form: an O(2^n) matrix-free
kernel built on index arithmetic, and a dense sigma_y^(x)n oracle used for
cross-validation at small n.  The two must agree; tests and the self-test
suite enforce this.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bits import i_power, minus_i_power, parity_signs
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


def flip_state(psi: PureState) -> PureState:
    """Spin-flipped state, computed matrix-free in O(2^n).

    The amplitude at the bitwise-complement index ~k is
    conj(psi_k) * (-1)^popcount(k) * i^n.  Since k -> ~k reverses the flat
    index range, the kernel is a conjugate, a sign mask, and a reversal.
    """
    weighted = np.conj(psi.amp) * parity_signs(psi.n) * i_power(psi.n)
    return PureState(psi.n, weighted[::-1])


def bilinear_form(psi: PureState, phi: PureState) -> FormValue:
    """The spin-flip bilinear form (psi, phi) = <flip(psi)|phi>, matrix-free.

    Equals sum_k psi_k * phi_{~k} * (-1)^popcount(k) * (-i)^n; symmetric for
    even n, antisymmetric for odd n.
    """
    if psi.n != phi.n:
        raise ValueError(f"qubit counts differ: {psi.n} vs {phi.n}")
    n = psi.n
    # reduce on contiguous memory: sum_k w_k phi_{~k} = dot(reversed(w), phi)
    weighted = np.ascontiguousarray((psi.amp * parity_signs(n))[::-1])
    value = np.dot(weighted, phi.amp) * minus_i_power(n)
    return FormValue(complex(value), FormKind.for_qubits(n))


def flip_local(a: np.ndarray) -> np.ndarray:
    """Spin flip of a 1-qubit operator: F conj(A) F^-1 with F = sigma_y (self-inverse)."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    return SIGMA_Y @ np.conj(a) @ SIGMA_Y


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
