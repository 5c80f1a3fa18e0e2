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
from functools import reduce

import numpy as np

from .bits import i_power, parity_signs
from .core import DEFAULT_TOL, MAX_OPERATOR_QUBITS, PureState, Tolerances, _frozen_complex, _require_qubits
from .flip import FormKind, flip_amplitudes, signed_reversal

MAGIC_ORDERING = "complement-pair representatives ascending, plus vector before minus"
PRODUCT_ORDERING = "complement pairs (k, ~k), member with +1 form pairing first"
_S2 = 1.0 / np.sqrt(2.0)


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
class BiorthoReport:
    passed: bool
    hilbert_residual: float
    form_residual: float
    form_target: str
    kind: FormKind


def canonical_j(dim: int) -> np.ndarray:
    """Block-diagonal symplectic pairing: [[0, 1], [-1, 0]] on consecutive pairs."""
    if dim % 2 != 0:
        raise ValueError("symplectic pairing needs even dimension")
    j = np.zeros((dim, dim))
    for m in range(dim // 2):
        j[2 * m, 2 * m + 1] = 1.0
        j[2 * m + 1, 2 * m] = -1.0
    return j


def unitarity_defect(x: np.ndarray) -> float:
    """||x^H x - I||_F: zero iff the square matrix x is unitary."""
    return float(np.linalg.norm(x.conj().T @ x - np.eye(x.shape[0])))


def form_defect(x: np.ndarray, kind: FormKind) -> float:
    """||x^T T x - T||_F with T = I (orthogonal) or canonical J (symplectic): zero iff x is in the group."""
    if kind is FormKind.ORTHOGONAL:
        return float(np.linalg.norm(x.T @ x - np.eye(x.shape[0])))
    j = canonical_j(x.shape[0])
    return float(np.linalg.norm(x.T @ j @ x - j))


def _magic_phases(n: int) -> np.ndarray:
    """(-1)^popcount(k) * i^n for the representatives k < 2^(n-1), as a column; real, since n is even."""
    return (parity_signs(n - 1) * i_power(n).real)[:, None]


def canonical_synthesize(n: int, coeffs) -> np.ndarray:
    """sum_l coeffs[l] * (canonical basis vector l), along axis 0, in O(2^n) per column.

    The canonical basis is magic_basis(n) for even n, a butterfly on each
    complement pair (k, ~k), and product_biortho_basis(n) for odd n, a
    permutation followed by a phase.  The output is written in place, with
    at most one half-size temporary; real input is never copied to complex.
    """
    coeffs = np.asarray(coeffs)
    dim, h = 1 << n, 1 << (n - 1)
    if coeffs.shape[:1] != (dim,):
        raise ValueError(f"expected {dim} coefficients along axis 0 for n={n}, got shape {coeffs.shape}")
    flat = coeffs.reshape(dim, -1)
    out = np.empty(flat.shape, dtype=np.complex128)
    if n % 2 == 1:
        pairs = np.stack([np.arange(h), np.arange(dim - 1, h - 1, -1)], axis=1)  # (k, ~k)
        plus_first = (parity_signs(n - 1) > 0)[:, None]
        out[np.where(plus_first, pairs, pairs[:, ::-1]).ravel()] = flat
        # i^(number of zeros in the label): the Kronecker product of [i, 1] per qubit, exact
        out *= reduce(lambda a, b: np.outer(a, b).ravel(), [np.array([1j, 1.0])] * n)[:, None]
    else:
        top, bottom = out[:h], out[::-1][:h]  # bottom[k] is row ~k
        i_odd = 1j * flat[1::2]
        np.add(flat[0::2], i_odd, out=top)
        np.subtract(flat[0::2], i_odd, out=bottom)
        top *= _S2
        bottom *= _magic_phases(n) * _S2
    return out.reshape(coeffs.shape)


def magic_coefficients(amp) -> np.ndarray:
    """Coefficients over magic_basis(n) along axis 0 (length 2^n, n even): the inverse butterfly.

    With c_k the phase of magic_basis, coefficient 2k is (psi_k + c_k psi_~k) / sqrt(2)
    and coefficient 2k+1 is -i (psi_k - c_k psi_~k) / sqrt(2); O(2^n) per column.
    """
    amp = np.asarray(amp)
    dim = amp.shape[0]
    n, h = dim.bit_length() - 1, dim // 2
    if n < 2 or n % 2 != 0 or dim != 1 << n:
        raise ValueError(f"magic coefficients need 2^n amplitudes with n even, got {dim}")
    flat = amp.reshape(dim, -1)
    out = np.empty(flat.shape, dtype=np.complex128)
    plus, minus = out[0::2], out[1::2]
    reflected = flat[::-1][:h] * _magic_phases(n)
    np.add(flat[:h], reflected, out=plus)
    np.subtract(flat[:h], reflected, out=minus)
    plus *= _S2
    minus *= -1j * _S2
    return out.reshape(amp.shape)


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
    return canonical_basis(n)


def product_biortho_basis(n: int) -> BasisSet:
    """Product bi-orthonormal basis for odd n: per-qubit factors i|0> or |1>.

    The vector with label l has one nonzero amplitude, i^(number of zeros in
    l), at index l.  Its pairing with the complement partner is
    (-1)^popcount(l); vectors are ordered into complement pairs with the +1
    member first, so the form Gram is exactly the canonical block J.
    """
    if n % 2 != 1:
        raise ValueError("the product bi-orthonormal basis requires an odd qubit count")
    return canonical_basis(n)


def canonical_basis(n: int) -> BasisSet:
    """Parity-appropriate canonical bi-orthonormal basis: canonical_synthesize applied to the identity."""
    _require_qubits(n, MAX_OPERATOR_QUBITS)  # before the 2^n x 2^n allocation
    ordering = MAGIC_ORDERING if n % 2 == 0 else PRODUCT_ORDERING
    # a bool identity: one byte per entry next to the 16-byte output
    return BasisSet(n, canonical_synthesize(n, np.eye(1 << n, dtype=bool)), ordering)


def gram_pair(basis: BasisSet) -> tuple[np.ndarray, np.ndarray]:
    """(Hilbert Gram, form Gram) of a basis (no verdict)."""
    v = basis.matrix()
    # form(v_a, v_b) = (-i)^n signed_reversal(v_a) . v_b: the reversal goes on the left factor
    return v.conj().T @ v, signed_reversal(v).T @ v * i_power(-basis.n)


def check_biorthonormal(basis: BasisSet, tol: Tolerances = DEFAULT_TOL) -> BiorthoReport:
    """Verdict on bi-orthonormality.

    Passes iff the Hilbert Gram is the identity and the form Gram is the
    identity (even n) or the canonical block J (odd n) in the basis's given
    order, both within tol_gram.
    """
    hilbert, form = gram_pair(basis)
    dim = basis.dim
    kind = FormKind.for_qubits(basis.n)
    if kind is FormKind.ORTHOGONAL:
        target, target_name = np.eye(dim), "identity"
    else:
        target, target_name = canonical_j(dim), "canonical J"
    h_resid = float(np.linalg.norm(hilbert - np.eye(dim)))
    f_resid = float(np.linalg.norm(form - target))
    return BiorthoReport(
        passed=h_resid <= tol.tol_gram and f_resid <= tol.tol_gram,
        hilbert_residual=h_resid,
        form_residual=f_resid,
        form_target=target_name,
        kind=kind,
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


def _mix_canonical_basis(mix, kind: FormKind, tol: Tolerances, ordering: str) -> BasisSet:
    # Rows of a unitary member of the form's group give a new bi-orthonormal basis:
    # new vector j = sum_l mix[j, l] * canonical vector l.
    # real input stays real, so the membership products run in real arithmetic
    mix = np.asarray(mix, dtype=np.complex128 if np.iscomplexobj(mix) else np.float64)
    if mix.ndim != 2 or mix.shape[0] != mix.shape[1]:
        raise ValueError("expected a square matrix")
    dim = mix.shape[0]
    n = dim.bit_length() - 1
    if 1 << n != dim or FormKind.for_qubits(n) is not kind:
        raise ValueError(f"dimension must be 2^n with n {'even' if kind is FormKind.ORTHOGONAL else 'odd'}")
    _require_qubits(n, MAX_OPERATOR_QUBITS)  # before the O(dim^3) products
    unit, form = unitarity_defect(mix), form_defect(mix, kind)
    if unit > tol.tol_residual or form > tol.tol_residual:
        raise ValueError(
            f"mixing matrix is not unitary {kind.value} (unitarity defect {unit:.3e}, form defect {form:.3e})"
        )
    if kind is FormKind.ORTHOGONAL:
        mix = mix.real  # unitary and complex orthogonal means real
    return BasisSet(n, canonical_synthesize(n, mix.T), ordering)


def basis_from_orthogonal(o: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> BasisSet:
    """Mix the magic basis by a real orthogonal matrix (rows give the new vectors)."""
    return _mix_canonical_basis(o, FormKind.ORTHOGONAL, tol, "magic basis mixed by real orthogonal matrix")


def decompose_basis(basis: BasisSet, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Coefficient matrix of a bi-orthonormal basis over the magic basis.

    Returns the real orthogonal matrix C with basis vector j = sum_l C[j, l] e_l.
    Raises if the input is not bi-orthonormal, or if the recovered matrix is
    not real orthogonal (which a valid input cannot produce).
    """
    if basis.n % 2 != 0:
        raise ValueError("magic-basis decomposition requires an even qubit count")
    _require_biorthonormal(basis, tol)
    coeff = magic_coefficients(basis.matrix()).T
    imag_max = float(np.max(np.abs(coeff.imag)))
    defect = form_defect(coeff.T, FormKind.ORTHOGONAL)  # C C^T - I
    if imag_max > tol.tol_residual or defect > tol.tol_residual:
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


def basis_from_unitary_symplectic(s: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> BasisSet:
    """Mix the product bi-orthonormal basis by a unitary-symplectic matrix (rows give the new vectors)."""
    return _mix_canonical_basis(s, FormKind.SYMPLECTIC, tol, "product basis mixed by unitary-symplectic matrix")


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
    resid = float(np.max(np.abs(flip_amplitudes(psi.amp) - psi.amp)))
    return SelfConjugacyReport(passed=resid <= tol.tol_residual, max_residual=resid)
