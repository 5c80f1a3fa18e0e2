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

from .bases import BasisSet, _require_biorthonormal, canonical_coefficients, canonical_synthesize, state_coefficients
from .core import MAX_STATE_QUBITS, NORM_TOL, RESIDUAL_TOL, PureState, _freeze, _require_qubits, normalize
from .flip import _flip_defects, _signed_terms, bilinear_form


def _as_normalized(psi: PureState) -> PureState:
    """Pass states whose squared norm is within NORM_TOL of 1 through; warn and rescale anything else."""
    if abs(np.vdot(psi.amp, psi.amp).real - 1.0) <= NORM_TOL:
        return psi
    norm = psi.norm()  # right also where the vdot above over- or underflows
    if norm == 0.0:
        raise ValueError("entanglement quantities are undefined for the zero vector")
    warnings.warn(f"state norm = {norm:.12g} differs from 1; value computed with it factored out", stacklevel=3)
    return normalize(psi)


def _tangle_and_norm(x: np.ndarray) -> tuple[float, float]:
    """(2 |sum over k < h of (-1)^popcount(~k) x[~k] x[k]|, ||x||^2), h = 2^(n-1), in one read of x.

    The sum is _signed_dot(x, x, h) term for term.  Both halves of x go through the norm while their
    block is in cache: rows k forward and, for rows ~k, the forward slice under the reversed block.
    """
    dim, total, norm_sq = x.shape[0], np.zeros(2), 0.0
    for rows, sums in _signed_terms(x, x, dim // 2):
        total += sums
        low, high = x[rows], x[dim - rows.stop : dim - rows.start]
        norm_sq += np.vdot(low, low).real + np.vdot(high, high).real
    return 2.0 * abs(complex(total[0], total[1])), norm_sq


def tangle(psi: PureState) -> float:
    """|<flip(psi)|psi>| for normalized psi, computed matrix-free.

    Non-normalized input triggers a warning and the normalization is factored
    out (the form is quadratic, so this equals dividing by <psi|psi>).  For odd
    n the form is antisymmetric, so the tangle is exactly 0.0.
    """
    if psi.n % 2:
        _as_normalized(psi)  # for its warning, or its error on the zero vector
        return 0.0
    # even n: the terms of k and ~k in the form's sum are equal, so half the rows suffice
    with np.errstate(over="ignore", invalid="ignore"):  # a norm out of range is rescaled below
        value, norm_sq = _tangle_and_norm(psi.amp)
    if abs(norm_sq - 1.0) <= NORM_TOL:
        return value
    return _tangle_and_norm(_as_normalized(psi).amp)[0]


def tangle_from_coefficients(coeffs) -> float:
    """|sum_l c_l^2| for a vector of coefficients over a bi-orthonormal basis (even n)."""
    c = np.asarray(coeffs, dtype=np.complex128)
    return abs(complex(np.dot(c, c)))  # np.dot does not conjugate


def polygon(coeffs) -> np.ndarray:
    """Partial sums of c_l^2 as plane points, shape (len(c), 2).

    The magnitude of the last point equals tangle_from_coefficients(c).
    """
    sums = np.square(np.asarray(coeffs, dtype=np.complex128))
    np.cumsum(sums, out=sums)
    return sums.view(np.float64).reshape(-1, 2)  # (real, imag) per row


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


def tangle_result(psi: PureState, basis: BasisSet | None = None) -> TangleResult:
    """Tangle plus the polygon of coefficients over a bi-orthonormal basis (even n); no basis means the magic basis."""
    if psi.n % 2 != 0:
        raise ValueError("the coefficient view of the tangle requires an even qubit count")
    psi = _as_normalized(psi)
    if basis is None:
        c, label = canonical_coefficients(psi.n, psi.amp), "magic"
    else:
        c, label = state_coefficients(basis, psi), basis.ordering or "custom"  # checks the qubit counts
        _require_biorthonormal(basis)
    return TangleResult(value=tangle(psi), polygon=polygon(c), basis_used=label)


@dataclass(frozen=True)
class AmplitudeBoundReport:
    passed: bool
    max_coeff_sq: float
    bound: float
    slack: float


def amplitude_bound_check(psi: PureState, basis: BasisSet) -> AmplitudeBoundReport:
    """Check |c_l|^2 <= (1 + tangle)/2 for coefficients over a bi-orthonormal basis."""
    if psi.n % 2 != 0:
        raise ValueError("the amplitude bound applies to even qubit counts")
    psi = _as_normalized(psi)
    _require_biorthonormal(basis)
    c = state_coefficients(basis, psi)
    max_sq = float(np.max(np.abs(c) ** 2))
    bound = 0.5 * (1.0 + tangle(psi))
    slack = bound - max_sq
    return AmplitudeBoundReport(passed=slack >= -RESIDUAL_TOL, max_coeff_sq=max_sq, bound=bound, slack=slack)


@dataclass(frozen=True)
class StructureReport:
    passed: bool
    theta: float | None
    relation_residual: float
    half_sum_gap: float


def _structure_report(x: np.ndarray, theta: float | None) -> StructureReport:
    """Structural residuals of normalized amplitudes x at the phase theta (None: no witness, residuals at zero phase).

    The relation residual ||e^{2i theta} flip(x) - x|| is summed over the blocks of flip._flip_defects,
    with no flip of the whole state; the half-sum over rows k < 2^(n-1) rides on the same read.
    """
    h = x.shape[0] // 2
    relation_sq = lower_sq = 0.0
    for rows, defect in _flip_defects(x, np.exp(2j * (theta or 0.0))):
        relation_sq += np.vdot(defect, defect).real
        lower = x[rows.start : min(rows.stop, h)]  # |e^{-i theta} x_k| = |x_k|
        lower_sq += np.vdot(lower, lower).real
    relation_residual, half_sum_gap = float(np.sqrt(relation_sq)), float(abs(lower_sq - 0.5))
    passed = theta is not None and relation_residual <= 2 * RESIDUAL_TOL and half_sum_gap <= RESIDUAL_TOL
    return StructureReport(
        passed=passed, theta=theta, relation_residual=relation_residual, half_sum_gap=half_sum_gap
    )


def maxent_structure_check(psi: PureState) -> StructureReport:
    """Structural form of maximal entanglement in the computational basis.

    Searches for a global phase theta (half the argument of the quadratic
    form; theta and theta+pi are interchangeable) such that the rotated
    state is fixed by the spin flip and carries half its weight on the
    representative half of the index range.  The relation residual is the
    2-norm ||flip(rotated) - rotated|| = ||flip(psi) - e^{-2i theta} psi||
    (the flip is antilinear), twice the phase residual of
    is_maximally_entangled, so it is judged against 2 * RESIDUAL_TOL; the half-sum gap
    against RESIDUAL_TOL.
    """
    if psi.n % 2 != 0:
        raise ValueError("maximal-entanglement checks require an even qubit count")
    psi = _as_normalized(psi)
    form = bilinear_form(psi, psi).value
    # a vanishing form admits no phase witness (a flip-fixed normalized state
    # has form 1); residuals are then reported at zero phase
    return _structure_report(psi.amp, float(np.angle(form) / 2.0) if form != 0 else None)


@dataclass(frozen=True)
class MaxEntReport:
    passed: bool
    criteria_agree: bool
    tangle_gap: float
    phase_residual: float
    structure_residual: float
    theta: float | None
    nu: np.ndarray | None


def is_maximally_entangled(psi: PureState) -> MaxEntReport:
    """Judge maximal entanglement on one scale, with the structural criterion as a cross-check.

    With magic-basis coefficients c and theta = arg(sum c^2) / 2, write
    e^{-i theta} c = x + i y with x, y real.  Then x . y = 0, so
    tangle = 1 - 2 ||y||^2, and the structural residual of
    maxent_structure_check is 2 ||y||.  The verdict is
    d = ||y|| <= RESIDUAL_TOL, reported as ``phase_residual``;
    ``tangle_gap`` (= 2 d^2) is data only, and ``criteria_agree`` says
    whether the structural verdict matches.
    """
    if psi.n % 2 != 0:
        raise ValueError("maximal-entanglement checks require an even qubit count")
    psi = _as_normalized(psi)

    c = canonical_coefficients(psi.n, psi.amp)  # fresh, so it is rotated in place
    form = complex(np.dot(c, c))  # the form itself, over a bi-orthonormal basis (dot does not conjugate)
    tangle_gap = abs(abs(form) - 1.0)
    theta = float(np.angle(form) / 2.0) if form != 0 else None
    if theta is not None:
        c *= np.exp(-1j * theta)
    nu, y = c.real, c.imag
    phase_residual = float(np.sqrt(np.dot(y, y)))  # ||y||, read in place (np.linalg.norm gathers a copy)
    passed = theta is not None and phase_residual <= RESIDUAL_TOL

    structure = _structure_report(psi.amp, theta)  # theta of the form over c: maxent_structure_check's, to rounding
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


def maxent_generate(n: int, theta: float, nu) -> PureState:
    """Maximally entangled state e^{i theta} sum_l nu_l e_l over the magic basis.

    ``theta`` must be finite and ``nu`` real with unit square sum, within NORM_TOL.
    """
    _require_maxent_qubits(n)
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (1 << n,):
        raise ValueError(f"nu must have length {1 << n} for n={n}, got {nu.shape}")
    with np.errstate(over="ignore"):  # an overflowing sum is inf, which the test rejects
        square_sum = float(np.sum(nu * nu))
    if not abs(square_sum - 1.0) <= NORM_TOL:  # also rejects NaN
        raise ValueError(f"nu must have unit square sum, got {square_sum:.12g}")
    amp = canonical_synthesize(n, nu)
    amp *= np.exp(1j * theta)
    return PureState(n, _freeze(amp))
