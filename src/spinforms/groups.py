"""Form-preservation tests, homomorphism witnesses, and SLOCC obstruction verdicts.

A local operation with unit determinant on every factor preserves the
spin-flip bilinear form.  Represented in a bi-orthonormal basis it therefore
lands in the complex orthogonal group (even n) or the symplectic group
(odd n); these representations are the homomorphism witnesses checked here.
Failure of form preservation rules out any local-operation connection
between states, giving a necessary-condition SLOCC test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (
    BasisSet,
    _minus_identity,
    _require_biorthonormal,
    canonical_coefficients,
    form_defect,
    unitarity_defect,
)
from .core import (
    RESIDUAL_TOL,
    GlobalOperator,
    LocalOperatorList,
    _kron,
    _norm,
    _quadratic_residual,
    _scaled,
    expand_local,
    random_sl2,
)
from .flip import FormKind, _form_gram, signed_reversal


@dataclass(frozen=True)
class FormPreservation:
    passed: bool
    residual: float


def is_form_preserving(op: GlobalOperator) -> FormPreservation:
    """Basis-free criterion flip(M)^dag M = I, i.e. form(M psi, M phi) = form(psi, phi), within RESIDUAL_TOL.

    With R the signed reversal, flip(M)^dag M = R G for the form Gram G = (R M)^T M of M's
    columns, and R is a signed permutation, so the residual is ||G - R^T||_F.  G is symmetric
    (even n) or antisymmetric (odd n) and is computed as one half-size product; R^T is r[k] at
    (~k, k) with r = R 1, the diagonal of the row-reversed view G[::-1], subtracted there in place.
    A residual that overflows is inf, not NaN.
    """

    def gram_defect(m, unit):
        gram = _form_gram(m)
        _minus_identity(gram[::-1], signed_reversal(np.full(op.dim, unit)))
        return np.linalg.norm(gram)

    residual = _quadratic_residual(gram_defect, op.mat)
    return FormPreservation(passed=residual <= RESIDUAL_TOL, residual=residual)


def _det(m: np.ndarray) -> complex | np.ndarray:
    """det over the last two axes of m from np.linalg.slogdet, so past the float range it reads inf or 0.0 with
    no warning.  Each part of the phase is multiplied by the magnitude on its own: an exactly-zero part stays
    0.0 where the complex product would give inf * 0 = NaN."""
    phase, log_magnitude = np.linalg.slogdet(m)
    with np.errstate(over="ignore"):
        magnitude = np.exp(log_magnitude)
    det = np.zeros(np.shape(phase), dtype=np.complex128)
    for part, out in ((phase.real, det.real), (phase.imag, det.imag)):
        np.multiply(part, magnitude, out=out, where=part != 0)
    return det[()]


@dataclass(frozen=True)
class LocalFormReport:
    dets: tuple
    max_det_gap: float
    passed: bool


def local_form_criterion(local: LocalOperatorList) -> LocalFormReport:
    """Per-factor form preservation: every factor in SL(2, C), i.e. |det A_i - 1| <= RESIDUAL_TOL.

    flip(A)^dag A = det(A) I exactly for a 2x2 A, so the determinant is the whole
    per-qubit form test.  This judges each factor, not the product: (2I, I/2) fails here
    although its product, the identity, is form-preserving.
    """
    dets = _det(np.stack(local.ops))
    gap = float(np.max(np.abs(dets - 1.0)))
    return LocalFormReport(dets=tuple(complex(d) for d in dets), max_det_gap=gap, passed=gap <= RESIDUAL_TOL)


def represent_in_basis(op: GlobalOperator, basis: BasisSet | None = None) -> np.ndarray:
    """Matrix of ``op`` in a bi-orthonormal basis: R[j, k] = <B_j | op B_k>.

    No basis, or a canonical one (magic_basis, product_biortho_basis), means the canonical basis V,
    bi-orthonormal by construction, so no Gram check runs:
    R = C(C(M)^H)^H = V^H M V with C = canonical_coefficients(n, .), in O(4^n).
    Any other basis is Gram-checked and represented densely, in O(8^n).
    """
    if basis is not None and op.n != basis.n:
        raise ValueError(f"qubit counts differ: operator {op.n} vs basis {basis.n}")
    if basis is None or basis.canonical:
        half = canonical_coefficients(op.n, op.mat).conj().T  # (V^H M)^H = M^H V
        return canonical_coefficients(op.n, half).conj().T
    _require_biorthonormal(basis)
    v = basis.matrix()
    return v.conj().T @ op.mat @ v


@dataclass(frozen=True)
class HomomorphismReport:
    n: int
    kind: FormKind
    trials: int
    seed: int
    form_residual: float
    max_multiplicativity_residual: float
    det_r: complex
    passed: bool


def homomorphism_check(local: LocalOperatorList, trials: int = 10, seed: int = 0) -> HomomorphismReport:
    """Witness that unit-determinant local operations represent orthogonally/symplectically.

    The input is represented in the parity-appropriate canonical basis; the
    report carries the form defect of that representation and, over random
    unit-determinant partners L', the worst defect of
    R(L L') - R(L) R(L') (the homomorphism property).  det R is reported but
    nothing is asserted about it.
    """
    check = local_form_criterion(local)
    if not check.passed:
        raise ValueError(f"local factors have determinants {check.dets}, expected 1")
    local = LocalOperatorList(tuple(a / np.sqrt(d) for a, d in zip(local.ops, check.dets)))
    n = local.n
    kind = FormKind.for_qubits(n)
    r = represent_in_basis(expand_local(local))
    form_residual = form_defect(r, kind)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        partner = LocalOperatorList(tuple(random_sl2(int(rng.integers(0, 2**63))) for _ in range(n)))
        composed = LocalOperatorList(tuple(a @ b for a, b in zip(local.ops, partner.ops)))
        r_partner, r_composed = (represent_in_basis(expand_local(x)) for x in (partner, composed))
        worst = max(worst, float(np.linalg.norm(r_composed - r @ r_partner)))

    return HomomorphismReport(
        n=n,
        kind=kind,
        trials=trials,
        seed=seed,
        form_residual=form_residual,
        max_multiplicativity_residual=worst,
        det_r=_det(r),
        passed=form_residual <= RESIDUAL_TOL and worst <= RESIDUAL_TOL,
    )


SLOCC_NOTE = "necessary condition only"


@dataclass(frozen=True)
class SloccVerdict:
    obstructed: bool
    residual: float
    note: str


def slocc_obstruction(op: GlobalOperator) -> SloccVerdict:
    """Obstructed iff ``op`` fails form preservation: no rescaling-free local
    operation can equal it, so states it connects lie in different SLOCC
    classes.  NotObstructed is inconclusive (necessary condition only).
    """
    check = is_form_preserving(op)
    return SloccVerdict(
        obstructed=not check.passed,
        residual=check.residual,
        note=SLOCC_NOTE,
    )


@dataclass(frozen=True)
class OperatorClassReport:
    is_unitary: bool
    unitary_residual: float
    is_form_preserving: bool
    form_residual: float
    dets: tuple | None


def classify_operator(op: GlobalOperator | LocalOperatorList) -> OperatorClassReport:
    """All-in-one classification: unitarity and form preservation.

    The form residual equals the group defect of op's representation in a
    bi-orthonormal basis (V and sigma_y^(x)n are unitary, so the Frobenius norms
    agree), so no representation is built; ``op represent`` and homomorphism_check
    report that defect.  A local list's unitarity comes from its factors,
    M^dag M = (x) A_i^dag A_i, in O(4^n), and reads inf or a finite value, never NaN; its
    form test runs on the expanded matrix.  Per-factor determinants (local_form_criterion's)
    are reported for local inputs only.
    """
    dets = None
    if isinstance(op, LocalOperatorList):
        dets = local_form_criterion(op).dets
        op, factors = expand_local(op), op.ops  # expand_local checks the operator cap before any 2^n x 2^n array
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed factor Gram times an underflowed one is NaN
            unitary_residual = float(np.linalg.norm(_minus_identity(_kron(a.conj().T @ a for a in factors))))
            if not np.isfinite(unitary_residual):  # again on the factors at 2^-e_i (core._scaled)
                scaled = [_scaled(a) for a in factors]
                gram = _kron(s.conj().T @ s for s, _ in scaled).view(np.float64)
                np.ldexp(gram, 2 * sum(e for _, e in scaled), out=gram)  # scaled back: each entry saturates to inf or 0
                unitary_residual = _norm(_minus_identity(gram.view(np.complex128)))  # finite where its entries are
                del gram  # freed before the form test
    else:
        unitary_residual = unitarity_defect(op.mat)
    preservation = is_form_preserving(op)
    return OperatorClassReport(
        is_unitary=unitary_residual <= RESIDUAL_TOL,
        unitary_residual=unitary_residual,
        is_form_preserving=preservation.passed,
        form_residual=preservation.residual,
        dets=dets,
    )
