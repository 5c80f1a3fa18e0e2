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

from .bases import BasisSet, _require_biorthonormal, canonical_basis, form_defect, unitarity_defect
from .core import (
    DEFAULT_TOL,
    GlobalOperator,
    LocalOperatorList,
    Tolerances,
    expand_local,
    random_sl2,
)
from .flip import FormKind, flip_local, flip_operator

# ||(det(A) - 1) I_2||_F = sqrt(2) |det(A) - 1|, so the flip criterion and the
# determinant criterion are the same test up to this factor.
DET_EQUIV_FACTOR = float(np.sqrt(2.0))


@dataclass(frozen=True)
class FormPreservation:
    passed: bool
    residual: float


def is_form_preserving(op: GlobalOperator, tol: Tolerances = DEFAULT_TOL) -> FormPreservation:
    """Basis-free criterion flip(M)^dag M = I, i.e. form(M psi, M phi) = form(psi, phi)."""
    residual = float(
        np.linalg.norm(flip_operator(op).mat.conj().T @ op.mat - np.eye(op.dim))
    )
    return FormPreservation(passed=residual <= tol.tol_residual, residual=residual)


@dataclass(frozen=True)
class QubitFormCheck:
    flip_residual: float
    det: complex
    det_gap: float
    passed: bool


@dataclass(frozen=True)
class LocalFormReport:
    per_qubit: tuple
    criteria_agree: bool
    passed: bool


def local_form_criterion(local: LocalOperatorList, tol: Tolerances = DEFAULT_TOL) -> LocalFormReport:
    """Per-qubit form preservation: flip(A)^dag A = I, equivalently det A = 1.

    flip(A)^dag A equals det(A) I exactly, so the two criteria must agree up
    to DET_EQUIV_FACTOR; a disagreement is reported and counts as failure.
    """
    checks = []
    agree = True
    for a in local.ops:
        flip_residual = float(np.linalg.norm(flip_local(a).conj().T @ a - np.eye(2)))
        det = complex(np.linalg.det(a))
        det_gap = abs(det - 1.0)
        pass_flip = flip_residual <= DET_EQUIV_FACTOR * tol.tol_residual
        pass_det = det_gap <= tol.tol_residual
        agree = agree and (pass_flip == pass_det)
        checks.append(
            QubitFormCheck(
                flip_residual=flip_residual, det=det, det_gap=det_gap, passed=pass_flip and pass_det
            )
        )
    return LocalFormReport(
        per_qubit=tuple(checks),
        criteria_agree=agree,
        passed=agree and all(c.passed for c in checks),
    )


def _represent(op: GlobalOperator, basis: BasisSet) -> np.ndarray:
    # R[j, k] = <B_j | op B_k>, with no check on the basis
    v = basis.matrix()
    return v.conj().T @ op.mat @ v


def represent_in_basis(
    op: GlobalOperator, basis: BasisSet, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Matrix of ``op`` in a bi-orthonormal basis: R[j, k] = <B_j | op B_k>."""
    if op.n != basis.n:
        raise ValueError(f"qubit counts differ: operator {op.n} vs basis {basis.n}")
    _require_biorthonormal(basis, tol)
    return _represent(op, basis)


def _renormalized_sl2(local: LocalOperatorList, tol: Tolerances) -> LocalOperatorList:
    ops = []
    for a in local.ops:
        det = np.linalg.det(a)
        if abs(det - 1.0) > tol.tol_residual:
            raise ValueError(f"local factor has determinant {det}, expected 1")
        ops.append(a / np.sqrt(det))
    return LocalOperatorList(tuple(ops))


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


def homomorphism_check(
    local: LocalOperatorList,
    trials: int = 10,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> HomomorphismReport:
    """Witness that unit-determinant local operations represent orthogonally/symplectically.

    The input is represented in the parity-appropriate canonical basis; the
    report carries the form defect of that representation and, over random
    unit-determinant partners L', the worst defect of
    R(L L') - R(L) R(L') (the homomorphism property).  det R is reported but
    nothing is asserted about it.
    """
    local = _renormalized_sl2(local, tol)
    n = local.n
    basis = canonical_basis(n)
    _require_biorthonormal(basis, tol)
    kind = FormKind.for_qubits(n)
    r = _represent(expand_local(local), basis)
    form_residual = form_defect(r, kind)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        partner = LocalOperatorList(
            tuple(random_sl2(int(rng.integers(0, 2**63))) for _ in range(n))
        )
        r_partner = _represent(expand_local(partner), basis)
        composed = LocalOperatorList(
            tuple(a @ b for a, b in zip(local.ops, partner.ops))
        )
        r_composed = _represent(expand_local(composed), basis)
        worst = max(worst, float(np.linalg.norm(r_composed - r @ r_partner)))

    return HomomorphismReport(
        n=n,
        kind=kind,
        trials=trials,
        seed=seed,
        form_residual=form_residual,
        max_multiplicativity_residual=worst,
        det_r=complex(np.linalg.det(r)),
        passed=form_residual <= tol.tol_residual and worst <= tol.tol_residual,
    )


SLOCC_NOTE = "necessary condition only"


@dataclass(frozen=True)
class SloccVerdict:
    obstructed: bool
    residual: float
    note: str


def slocc_obstruction(op: GlobalOperator, tol: Tolerances = DEFAULT_TOL) -> SloccVerdict:
    """Obstructed iff ``op`` fails form preservation: no rescaling-free local
    operation can equal it, so states it connects lie in different SLOCC
    classes.  NotObstructed is inconclusive (necessary condition only).
    """
    check = is_form_preserving(op, tol)
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
    basis_rep_residual: float
    dets: tuple | None


def classify_operator(
    op: GlobalOperator | LocalOperatorList, tol: Tolerances = DEFAULT_TOL
) -> OperatorClassReport:
    """All-in-one classification: unitarity, form preservation, basis representation defect.

    Per-factor determinants are reported for local inputs only.
    """
    dets = None
    if isinstance(op, LocalOperatorList):
        dets = tuple(complex(np.linalg.det(a)) for a in op.ops)
        op = expand_local(op)
    unitary_residual = unitarity_defect(op.mat)
    preservation = is_form_preserving(op, tol)
    rep = _represent(op, canonical_basis(op.n))
    return OperatorClassReport(
        is_unitary=unitary_residual <= tol.tol_residual,
        unitary_residual=unitary_residual,
        is_form_preserving=preservation.passed,
        form_residual=preservation.residual,
        basis_rep_residual=form_defect(rep, FormKind.for_qubits(op.n)),
        dets=dets,
    )
