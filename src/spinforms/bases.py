"""Bi-orthonormal bases: simultaneously orthonormal for the Hilbert inner
product and for the spin-flip bilinear form.

For even n the canonical example is the generalized magic basis, whose
vectors are fixed points of the spin flip; every bi-orthonormal basis is a
real orthogonal mix of it.  For odd n the canonical example is the product
basis built from {i|0>, |1>} on each qubit; every bi-orthonormal basis is a
unitary-symplectic mix of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import _I_POW, i_power, minus_i_power, parity_signs, popcount
from .core import DEFAULT_TOL, MAX_OPERATOR_QUBITS, PureState, Tolerances, _frozen_complex, _require_qubits
from .flip import FormKind, flip_state

MAGIC_ORDERING = "complement-pair representatives ascending, plus vector before minus"
PRODUCT_ORDERING = "complement pairs (k, ~k), member with +1 form pairing first"


@dataclass(frozen=True)
class BasisSet:
    """Ordered basis of n-qubit states held as one 2^n x 2^n matrix: column j is vector j.

    ``ordering`` documents the convention.  Being dense, a basis shares the
    operator cap MAX_OPERATOR_QUBITS.
    """

    n: int
    mat: np.ndarray
    ordering: str = ""

    def __post_init__(self):
        _require_qubits(self.n, MAX_OPERATOR_QUBITS)
        dim = 1 << self.n
        object.__setattr__(self, "mat", _frozen_complex(self.mat, (dim, dim)))

    @property
    def dim(self) -> int:
        return 1 << self.n

    def matrix(self) -> np.ndarray:
        """The stored read-only matrix; column j is the amplitude vector of basis vector j."""
        return self.mat


@dataclass(frozen=True)
class GramPair:
    """Both Gram matrices of a vector set: Hilbert and spin-flip form."""

    hilbert_gram: np.ndarray
    form_gram: np.ndarray


@dataclass(frozen=True)
class BiorthoReport:
    passed: bool
    hilbert_residual: float
    form_residual: float
    form_target: str
    kind: FormKind
    grams: GramPair


def representative_labels(n: int) -> np.ndarray:
    """Flat indices k with k < ~k (top bit 0): one per complement pair."""
    return np.arange(1 << (n - 1))


def canonical_j(dim: int) -> np.ndarray:
    """Block-diagonal symplectic pairing: [[0, 1], [-1, 0]] on consecutive pairs."""
    if dim % 2 != 0:
        raise ValueError("symplectic pairing needs even dimension")
    j = np.zeros((dim, dim))
    for m in range(dim // 2):
        j[2 * m, 2 * m + 1] = 1.0
        j[2 * m + 1, 2 * m] = -1.0
    return j


def magic_basis(n: int) -> BasisSet:
    """Generalized magic basis for even n: 2^(n-1) complement pairs, two vectors each.

    For each representative label k (top bit 0, ascending) with phase
    c = (-1)^popcount(k) * i^n:

        plus  = (|k> + c |~k>) / sqrt(2)
        minus = i (|k> - c |~k>) / sqrt(2)

    Every vector is fixed by the spin flip, and the set is bi-orthonormal.
    """
    if n % 2 != 0:
        raise ValueError("the magic basis requires an even qubit count")
    _require_qubits(n, MAX_OPERATOR_QUBITS)  # before the 2^n x 2^n allocation
    dim = 1 << n
    s2 = 1.0 / np.sqrt(2.0)
    k = representative_labels(n)
    comp = dim - 1 - k
    c = parity_signs(n - 1) * i_power(n)  # representatives are exactly the indices below 2^(n-1)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[k, 2 * k] = s2
    mat[comp, 2 * k] = c * s2
    mat[k, 2 * k + 1] = 1j * s2
    mat[comp, 2 * k + 1] = -1j * c * s2
    return BasisSet(n, mat, MAGIC_ORDERING)


def product_biortho_basis(n: int) -> BasisSet:
    """Product bi-orthonormal basis for odd n: per-qubit factors i|0> or |1>.

    The vector with label l has one nonzero amplitude, i^(number of zeros in
    l), at index l.  Its pairing with the complement partner is
    (-1)^popcount(l); vectors are ordered into complement pairs with the +1
    member first, so the form Gram is exactly the canonical block J.
    """
    if n % 2 != 1:
        raise ValueError("the product bi-orthonormal basis requires an odd qubit count")
    _require_qubits(n, MAX_OPERATOR_QUBITS)  # before the 2^n x 2^n allocation
    dim = 1 << n
    k = representative_labels(n)
    comp = dim - 1 - k
    plus_first = parity_signs(n - 1) > 0
    labels = np.empty(dim, dtype=np.int64)
    labels[0::2] = np.where(plus_first, k, comp)
    labels[1::2] = np.where(plus_first, comp, k)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[labels, np.arange(dim)] = np.asarray(_I_POW)[(n - popcount(labels)) % 4]
    return BasisSet(n, mat, PRODUCT_ORDERING)


def gram_pair(basis: BasisSet) -> GramPair:
    """Hilbert and form Gram matrices of a basis (no verdict)."""
    v = basis.matrix()
    hilbert = v.conj().T @ v
    weighted = parity_signs(basis.n)[:, None] * v[::-1, :]
    form = v.T @ weighted * minus_i_power(basis.n)
    return GramPair(hilbert_gram=hilbert, form_gram=form)


def check_biorthonormal(basis: BasisSet, tol: Tolerances = DEFAULT_TOL) -> BiorthoReport:
    """Verdict on bi-orthonormality.

    Passes iff the Hilbert Gram is the identity and the form Gram is the
    identity (even n) or the canonical block J (odd n) in the basis's given
    order, both within tol_gram.
    """
    grams = gram_pair(basis)
    dim = basis.dim
    kind = FormKind.for_qubits(basis.n)
    if kind is FormKind.ORTHOGONAL:
        target, target_name = np.eye(dim), "identity"
    else:
        target, target_name = canonical_j(dim), "canonical J"
    h_resid = float(np.linalg.norm(grams.hilbert_gram - np.eye(dim)))
    f_resid = float(np.linalg.norm(grams.form_gram - target))
    return BiorthoReport(
        passed=h_resid <= tol.tol_gram and f_resid <= tol.tol_gram,
        hilbert_residual=h_resid,
        form_residual=f_resid,
        form_target=target_name,
        kind=kind,
        grams=grams,
    )


def _require_biorthonormal(basis: BasisSet, tol: Tolerances) -> None:
    report = check_biorthonormal(basis, tol)
    if not report.passed:
        raise ValueError(
            "basis is not bi-orthonormal "
            f"(hilbert residual {report.hilbert_residual:.3e}, form residual {report.form_residual:.3e})"
        )


def state_coefficients(basis: BasisSet, psi: PureState) -> np.ndarray:
    """Expansion coefficients of ``psi`` over a Hilbert-orthonormal basis."""
    if basis.n != psi.n:
        raise ValueError(f"qubit counts differ: basis {basis.n} vs state {psi.n}")
    return basis.matrix().conj().T @ psi.amp


def _basis_from_matrix(reference: BasisSet, mix: np.ndarray, ordering: str) -> BasisSet:
    # new vector j = sum_l mix[j, l] * reference vector l
    return BasisSet(reference.n, reference.matrix() @ mix.T, ordering)


def basis_from_orthogonal(o: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> BasisSet:
    """Mix the magic basis by a real orthogonal matrix (rows give the new vectors)."""
    o = np.asarray(o)
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise ValueError("expected a square matrix")
    dim = o.shape[0]
    n = dim.bit_length() - 1
    if 1 << n != dim or n % 2 != 0:
        raise ValueError("dimension must be 2^n with n even")
    if np.iscomplexobj(o) and np.max(np.abs(o.imag)) > tol.tol_residual:
        raise ValueError("mixing matrix must be real")
    o = np.real(o).astype(float)
    defect = np.linalg.norm(o.T @ o - np.eye(dim))
    if defect > tol.tol_residual:
        raise ValueError(f"mixing matrix is not orthogonal (residual {defect:.3e})")
    return _basis_from_matrix(magic_basis(n), o.astype(np.complex128), "magic basis mixed by real orthogonal matrix")


def decompose_basis(basis: BasisSet, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Coefficient matrix of a bi-orthonormal basis over the magic basis.

    Returns the real orthogonal matrix C with basis vector j = sum_l C[j, l] e_l.
    Raises if the input is not bi-orthonormal, or if the recovered matrix is
    not real orthogonal (which a valid input cannot produce).
    """
    if basis.n % 2 != 0:
        raise ValueError("magic-basis decomposition requires an even qubit count")
    _require_biorthonormal(basis, tol)
    coeff = (magic_basis(basis.n).matrix().conj().T @ basis.matrix()).T
    imag_max = float(np.max(np.abs(coeff.imag)))
    defect = float(np.linalg.norm(coeff @ coeff.T - np.eye(basis.dim)))
    if imag_max > tol.tol_residual or abs(defect) > tol.tol_residual:
        raise RuntimeError(
            "bi-orthonormal basis decomposed to a non-real-orthogonal matrix "
            f"(imag {imag_max:.3e}, orthogonality defect {defect:.3e}); this should be impossible"
        )
    return np.real(coeff)


def random_real_orthogonal(dim: int, seed: int) -> np.ndarray:
    """Random real orthogonal matrix: QR of a Gaussian with sign-fixed R diagonal."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_unitary_symplectic(dim: int, seed: int) -> np.ndarray:
    """Random matrix that is simultaneously unitary and symplectic (w.r.t. canonical J).

    An anti-Hermitian Gaussian is orthogonally projected onto the subalgebra
    {X : X^T J + J X = 0} (equivalently: Gaussian coefficients on an
    orthonormal generator basis of the intersection algebra), then
    exponentiated.  The exponential uses an eigendecomposition, exact for
    normal matrices, so membership holds to machine precision.
    """
    if dim % 2 != 0:
        raise ValueError("unitary-symplectic matrices need even dimension")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = (g - g.conj().T) / 2.0
    j = canonical_j(dim)
    x = (x + j @ x.T @ j) / 2.0  # J^-1 = -J, so this is (x - J^-1 x^T J) / 2
    h = -1j * x
    w, u = np.linalg.eigh(h)
    return (u * np.exp(1j * w)) @ u.conj().T


def unitary_symplectic_residuals(s: np.ndarray) -> tuple[float, float]:
    """(unitarity residual, symplecticity residual) of a square matrix."""
    s = np.asarray(s, dtype=np.complex128)
    dim = s.shape[0]
    j = canonical_j(dim)
    unit = float(np.linalg.norm(s.conj().T @ s - np.eye(dim)))
    sympl = float(np.linalg.norm(s.T @ j @ s - j))
    return unit, sympl


def basis_from_unitary_symplectic(s: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> BasisSet:
    """Mix the product bi-orthonormal basis by a unitary-symplectic matrix."""
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("expected a square matrix")
    dim = s.shape[0]
    n = dim.bit_length() - 1
    if 1 << n != dim or n % 2 != 1:
        raise ValueError("dimension must be 2^n with n odd")
    unit, sympl = unitary_symplectic_residuals(s)
    if unit > tol.tol_residual:
        raise ValueError(f"mixing matrix is not unitary (residual {unit:.3e})")
    if sympl > tol.tol_residual:
        raise ValueError(f"mixing matrix is not symplectic (residual {sympl:.3e})")
    return _basis_from_matrix(product_biortho_basis(n), s, "product basis mixed by unitary-symplectic matrix")


@dataclass(frozen=True)
class SelfConjugacyReport:
    passed: bool
    max_residual: float


def self_conjugacy_coefficient_check(
    psi: PureState, tol: Tolerances = DEFAULT_TOL
) -> SelfConjugacyReport:
    """Verdict on whether the spin flip fixes ``psi``.

    Coefficient-wise this is psi_{~k} = conj(psi_k) * (-1)^popcount(k) * i^n
    for every index k; possible only for even n.
    """
    if psi.n % 2 != 0:
        raise ValueError("self-conjugate states require an even qubit count")
    resid = float(np.max(np.abs(flip_state(psi).amp - psi.amp)))
    return SelfConjugacyReport(passed=resid <= tol.tol_residual, max_residual=resid)
