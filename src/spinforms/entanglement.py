"""The tangle |<flip(psi)|psi>| and maximal-entanglement criteria.

For even n the absolute value of the quadratic form is an entanglement
measure; expanded over any bi-orthonormal basis it becomes |sum_l c_l^2|,
whose partial sums trace a polygon in the complex plane.  The polygon ends
on the unit circle exactly for maximally entangled states, and then the
whole polygon is straight.  For odd n the form is antisymmetric and the
tangle vanishes identically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bases import BasisSet, _require_biorthonormal, canonical_synthesize, magic_coefficients, state_coefficients
from .core import DEFAULT_TOL, MAX_STATE_QUBITS, PureState, Tolerances, _require_qubits
from .flip import bilinear_form, flip_amplitudes


def _as_normalized(psi: PureState, tol: Tolerances) -> PureState:
    """Pass normalized states through; warn and rescale anything else."""
    norm_sq = float(np.vdot(psi.amp, psi.amp).real)
    if norm_sq == 0.0:
        raise ValueError("entanglement quantities are undefined for the zero vector")
    if abs(norm_sq - 1.0) > tol.tol_norm:
        warnings.warn(
            f"state norm^2 = {norm_sq:.12g} differs from 1; value computed with normalization factored out",
            stacklevel=3,
        )
        return PureState(psi.n, psi.amp / np.sqrt(norm_sq))
    return psi


def tangle(psi: PureState, tol: Tolerances = DEFAULT_TOL) -> float:
    """|<flip(psi)|psi>| for normalized psi, computed matrix-free.

    Non-normalized input triggers a warning and the normalization is factored
    out (the form is quadratic, so this equals dividing by <psi|psi>).
    """
    psi = _as_normalized(psi, tol)
    return abs(bilinear_form(psi, psi).value)


def tangle_from_coefficients(coeffs) -> float:
    """|sum_l c_l^2| for coefficients over a bi-orthonormal basis (even n)."""
    c = np.asarray(coeffs, dtype=np.complex128)
    return abs(complex(np.sum(c * c)))


def polygon(coeffs) -> np.ndarray:
    """Partial sums of c_l^2 as plane points, shape (len(c), 2).

    The magnitude of the last point equals tangle_from_coefficients(c).
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    sums = np.cumsum(c * c)
    return np.column_stack([sums.real, sums.imag])


def polygon_collinearity_residual(points: np.ndarray) -> float:
    """Largest off-axis deviation of polygon points from the ray through the endpoint.

    Zero means the polygon is a straight segment from the origin.
    """
    pts = np.asarray(points, dtype=float)
    z = pts[:, 0] + 1j * pts[:, 1]
    end = z[-1]
    if abs(end) == 0.0:
        return float(np.max(np.abs(z)))
    direction = end / abs(end)
    return float(np.max(np.abs((np.conj(direction) * z).imag)))


@dataclass(frozen=True)
class TangleResult:
    """Tangle with its coefficient-space view over a bi-orthonormal basis."""

    value: float
    polygon: np.ndarray
    basis_used: str


def tangle_result(psi: PureState, basis: BasisSet | None = None, tol: Tolerances = DEFAULT_TOL) -> TangleResult:
    """Tangle plus the polygon of its coefficient expansion (even n only); no basis means the magic basis."""
    if psi.n % 2 != 0:
        raise ValueError("the coefficient view of the tangle requires an even qubit count")
    psi = _as_normalized(psi, tol)
    if basis is None:
        c, label = magic_coefficients(psi.amp), "magic"
    else:
        c, label = state_coefficients(basis, psi), basis.ordering or "custom"
    return TangleResult(value=tangle(psi, tol), polygon=polygon(c), basis_used=label)


@dataclass(frozen=True)
class AmplitudeBoundReport:
    passed: bool
    max_coeff_sq: float
    bound: float
    slack: float


def amplitude_bound_check(
    psi: PureState, basis: BasisSet, tol: Tolerances = DEFAULT_TOL
) -> AmplitudeBoundReport:
    """Check |c_l|^2 <= (1 + tangle)/2 for coefficients over a bi-orthonormal basis."""
    if psi.n % 2 != 0:
        raise ValueError("the amplitude bound applies to even qubit counts")
    psi = _as_normalized(psi, tol)
    _require_biorthonormal(basis, tol)
    c = state_coefficients(basis, psi)
    max_sq = float(np.max(np.abs(c) ** 2))
    bound = 0.5 * (1.0 + tangle(psi, tol))
    slack = bound - max_sq
    return AmplitudeBoundReport(
        passed=slack >= -tol.tol_residual, max_coeff_sq=max_sq, bound=bound, slack=slack
    )


@dataclass(frozen=True)
class StructureReport:
    passed: bool
    theta: float | None
    relation_residual: float
    half_sum_gap: float


def maxent_structure_check(psi: PureState, tol: Tolerances = DEFAULT_TOL) -> StructureReport:
    """Structural form of maximal entanglement in the computational basis.

    Searches for a global phase theta (half the argument of the quadratic
    form; theta and theta+pi are interchangeable) such that the rotated
    state is fixed by the spin flip and carries half its weight on the
    representative half of the index range.  The relation residual is the
    2-norm ||flip(rotated) - rotated|| = ||flip(psi) - e^{-2i theta} psi||
    (the flip is antilinear), twice the phase residual of
    is_maximally_entangled, so it is judged against 2 * tol_residual.
    """
    if psi.n % 2 != 0:
        raise ValueError("maximal-entanglement checks require an even qubit count")
    psi = _as_normalized(psi, tol)
    form = bilinear_form(psi, psi).value
    # a vanishing form admits no phase witness (a flip-fixed normalized state
    # has form 1); residuals are then reported at zero phase
    theta = float(np.angle(form) / 2.0) if form != 0 else None
    relation = flip_amplitudes(psi.amp)
    relation -= (np.exp(-2j * theta) if theta is not None else 1.0) * psi.amp
    relation_residual = float(np.linalg.norm(relation))
    half_sum_gap = float(abs(np.linalg.norm(psi.amp[: psi.dim // 2]) ** 2 - 0.5))  # |e^{-i theta} psi_k| = |psi_k|
    passed = (
        theta is not None
        and relation_residual <= 2 * tol.tol_residual
        and half_sum_gap <= tol.tol_residual
    )
    return StructureReport(
        passed=passed, theta=theta, relation_residual=relation_residual, half_sum_gap=half_sum_gap
    )


@dataclass(frozen=True)
class MaxEntReport:
    passed: bool
    criteria_agree: bool
    tangle_gap: float
    phase_residual: float
    structure_residual: float
    theta: float | None
    nu: np.ndarray | None


def is_maximally_entangled(psi: PureState, tol: Tolerances = DEFAULT_TOL) -> MaxEntReport:
    """Judge maximal entanglement on one scale, with the structural criterion as a cross-check.

    With magic-basis coefficients c and theta = arg(sum c^2) / 2, write
    e^{-i theta} c = x + i y with x, y real.  Then x . y = 0, so
    tangle = 1 - 2 ||y||^2, and the structural residual of
    maxent_structure_check is 2 ||y||.  The verdict is
    d = ||y|| <= tol_residual, reported as ``phase_residual``;
    ``tangle_gap`` (= 2 d^2) is data only, and ``criteria_agree`` says
    whether the structural verdict matches.
    """
    if psi.n % 2 != 0:
        raise ValueError("maximal-entanglement checks require an even qubit count")
    psi = _as_normalized(psi, tol)

    c = magic_coefficients(psi.amp)
    form = complex(np.sum(c * c))  # the form itself, over a bi-orthonormal basis
    tangle_gap = abs(abs(form) - 1.0)
    theta = float(np.angle(form) / 2.0) if form != 0 else None
    rotated = c * np.exp(-1j * theta) if theta is not None else c
    nu = rotated.real
    phase_residual = float(np.linalg.norm(rotated.imag))
    passed = theta is not None and phase_residual <= tol.tol_residual

    structure = maxent_structure_check(psi, tol)
    return MaxEntReport(
        passed=passed,
        criteria_agree=passed == structure.passed,
        tangle_gap=tangle_gap,
        phase_residual=phase_residual,
        structure_residual=structure.relation_residual,
        theta=theta if passed else None,
        nu=nu if passed else None,
    )


def _require_maxent_qubits(n: int) -> None:
    """Raise ValueError unless maxent_generate accepts ``n``: even, and within the state cap."""
    if n % 2 != 0:
        raise ValueError("maximally entangled states require an even qubit count")
    _require_qubits(n, MAX_STATE_QUBITS)


def maxent_generate(n: int, theta: float, nu, tol: Tolerances = DEFAULT_TOL) -> PureState:
    """Maximally entangled state e^{i theta} sum_l nu_l e_l over the magic basis.

    ``theta`` must be finite and ``nu`` real with unit square sum.
    """
    _require_maxent_qubits(n)
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (1 << n,):
        raise ValueError(f"nu must have length {1 << n} for n={n}, got {nu.shape}")
    if not abs(float(np.sum(nu * nu)) - 1.0) <= tol.tol_norm:  # also rejects NaN
        raise ValueError(f"nu must have unit square sum, got {float(np.sum(nu * nu)):.12g}")
    amp = canonical_synthesize(n, nu)
    amp *= np.exp(1j * theta)
    return PureState(n, amp)
