"""Bi-orthonormal bases: simultaneously orthonormal for the Hilbert inner
product and for the spin-flip bilinear form.

For even n the canonical example is the generalized magic basis, whose
vectors are fixed points of the spin flip; every bi-orthonormal basis is a
real orthogonal mix of it.  For odd n the canonical example is the product
basis built from {i|0>, |1>} on each qubit; every bi-orthonormal basis is a
unitary-symplectic mix of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .bits import i_power, parity_signs
from .core import (
    DEFAULT_TOL,
    MAX_OPERATOR_QUBITS,
    PureState,
    Tolerances,
    _freeze,
    _frozen_complex,
    _require_qubits,
    _value_eq,
)
from .flip import FormKind, _form_gram, flip_amplitudes

MAGIC_ORDERING = "complement-pair representatives ascending, plus vector before minus"
PRODUCT_ORDERING = "complement pairs (k, ~k), member with +1 form pairing first"
_S2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Ordered basis of n-qubit states held as one 2^n x 2^n matrix: column j is vector j.

    ``ordering`` documents the convention.  Being dense, a basis shares the
    operator cap MAX_OPERATOR_QUBITS.  ``canonical`` is set only by magic_basis
    and product_biortho_basis (it is not a constructor parameter): such a basis
    is bi-orthonormal by construction, so it is never Gram-checked and is used
    through the O(2^n) transforms; every other basis is checked.
    """

    n: int
    mat: np.ndarray
    ordering: str = ""
    canonical: bool = field(default=False, init=False, compare=False)

    def __post_init__(self):
        _require_qubits(self.n, MAX_OPERATOR_QUBITS)
        dim = 1 << self.n
        object.__setattr__(self, "mat", _frozen_complex(self.mat, (dim, dim)))

    def __reduce__(self):  # copies rebuild frozen; only a canonical basis rebuilds canonical
        if self.canonical:
            return _canonical_basis, (self.n, self.ordering)
        return BasisSet, (self.n, self.mat, self.ordering)

    __eq__ = _value_eq  # canonical is left out (compare=False)

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
    m = np.arange(0, dim, 2)
    j[m, m + 1], j[m + 1, m] = 1.0, -1.0
    return j


def _minus_identity(gram: np.ndarray) -> np.ndarray:
    """gram - I, in place on a square array the caller owns."""
    diag = np.arange(gram.shape[0])
    gram[diag, diag] -= 1.0
    return gram


def _minus_j(gram: np.ndarray) -> np.ndarray:
    """gram - canonical_j, in place on a square array of even size the caller owns."""
    even = np.arange(0, gram.shape[0], 2)
    gram[even, even + 1] -= 1.0
    gram[even + 1, even] += 1.0
    return gram


def unitarity_defect(x: np.ndarray) -> float:
    """||x^H x - I||_F: zero iff the square matrix x is unitary."""
    return float(np.linalg.norm(_minus_identity(x.conj().T @ x)))


def form_defect(x: np.ndarray, kind: FormKind) -> float:
    """||x^T T x - T||_F with T = I (orthogonal) or canonical J (symplectic): zero iff x is in the group."""
    if kind is FormKind.ORTHOGONAL:
        return float(np.linalg.norm(_minus_identity(x.T @ x)))
    pairs = x[0::2].T @ x[1::2]  # x^T J x = X - X^T with X over the row pairs (2m, 2m+1)
    return float(np.linalg.norm(_minus_j(np.subtract(pairs, pairs.T))))


def _magic_phases(n: int) -> np.ndarray:
    """(-1)^popcount(k) * i^n for the representatives k < 2^(n-1), as a column; real, since n is even."""
    return (parity_signs(n - 1) * i_power(n).real)[:, None]


def _product_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, phases) for odd n: product basis vector l is phases[rows[l]] at row rows[l]; rows runs over the
    complement pairs (k, ~k), +1 form member first, and phases[r] = i^(zeros in r), exact (kron of [i, 1])."""
    h = 1 << (n - 1)
    pairs = np.stack([np.arange(h), np.arange(2 * h - 1, h - 1, -1)], axis=1)  # (k, ~k)
    rows = np.where((parity_signs(n - 1) > 0)[:, None], pairs, pairs[:, ::-1]).ravel()
    return rows, reduce(lambda a, b: np.outer(a, b).ravel(), [np.array([1j, 1.0])] * n)[:, None]


def _columns(n: int, x) -> np.ndarray:
    """x as 2^n rows of columns, after checking its length along axis 0."""
    if np.shape(x)[:1] != (1 << n,):
        raise ValueError(f"expected {1 << n} entries along axis 0 for n={n}, got shape {np.shape(x)}")
    return np.asarray(x).reshape(1 << n, -1)


def canonical_synthesize(n: int, coeffs) -> np.ndarray:
    """V coeffs = sum_l coeffs[l] * (canonical basis vector l), along axis 0, in O(2^n) per column.

    Even n (magic_basis): a butterfly on each complement pair (k, ~k), in place with one half-size
    temporary.  Odd n (product_biortho_basis): a row scatter and a phase.  Real input is not copied to complex.
    """
    flat = _columns(n, coeffs)
    result = np.empty(np.shape(coeffs), dtype=np.complex128)  # owns its data, so it can be frozen and stored
    out = result.reshape(flat.shape)  # a view of result
    if n % 2 == 1:
        rows, phases = _product_layout(n)
        out[rows] = flat
        out *= phases
    else:
        h = 1 << (n - 1)
        top, bottom = out[:h], out[::-1][:h]  # bottom[k] is row ~k
        i_odd = 1j * flat[1::2]
        np.add(flat[0::2], i_odd, out=top)
        np.subtract(flat[0::2], i_odd, out=bottom)
        top *= _S2
        bottom *= _magic_phases(n) * _S2
    return result


def canonical_coefficients(n: int, x) -> np.ndarray:
    """Coefficients V^H x over the canonical basis, along axis 0: the inverse of canonical_synthesize.

    Even n, with c_k the phase of magic_basis: (x_k + c_k x_~k) / sqrt(2) at 2k and
    -i (x_k - c_k x_~k) / sqrt(2) at 2k+1.  Odd n: a row gather and the conjugate phase.  O(2^n) per column."""
    flat = _columns(n, x)
    if n % 2 == 1:
        rows, phases = _product_layout(n)
        return (flat[rows] * phases[rows].conj()).reshape(np.shape(x))
    h = 1 << (n - 1)
    out = np.empty(flat.shape, dtype=np.complex128)
    plus, minus = out[0::2], out[1::2]
    reflected = flat[::-1][:h] * _magic_phases(n)
    np.add(flat[:h], reflected, out=plus)
    np.subtract(flat[:h], reflected, out=minus)
    plus *= _S2
    minus *= -1j * _S2
    return out.reshape(np.shape(x))


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
    return _canonical_basis(n, MAGIC_ORDERING)


def product_biortho_basis(n: int) -> BasisSet:
    """Product bi-orthonormal basis for odd n: per-qubit factors i|0> or |1>.

    The vector with label l has one nonzero amplitude, i^(number of zeros in
    l), at index l.  Its pairing with the complement partner is
    (-1)^popcount(l); vectors are ordered into complement pairs with the +1
    member first, so the form Gram is exactly the canonical block J.
    """
    if n % 2 != 1:
        raise ValueError("the product bi-orthonormal basis requires an odd qubit count")
    return _canonical_basis(n, PRODUCT_ORDERING)


def _canonical_basis(n: int, ordering: str) -> BasisSet:
    """The dense canonical basis: canonical_synthesize applied to the identity."""
    _require_qubits(n, MAX_OPERATOR_QUBITS)  # before the 2^n x 2^n allocation
    # a bool identity: one byte per entry next to the 16-byte output
    basis = BasisSet(n, _freeze(canonical_synthesize(n, np.eye(1 << n, dtype=bool))), ordering)
    object.__setattr__(basis, "canonical", True)
    return basis


def check_biorthonormal(basis: BasisSet, tol: Tolerances = DEFAULT_TOL) -> BiorthoReport:
    """Verdict on bi-orthonormality.

    Passes iff the Hilbert Gram is the identity and the form Gram is the
    identity (even n) or the canonical block J (odd n) in the basis's given
    order, both within tol_gram.
    """
    v = basis.matrix()
    kind = FormKind.for_qubits(basis.n)
    odd = kind is FormKind.SYMPLECTIC
    minus_target, target_name = (_minus_j, "canonical J") if odd else (_minus_identity, "identity")
    # form(v_a, v_b) = (-i)^n signed_reversal(v_a) . v_b: the reversal goes on the left factor
    form = _form_gram(v)
    form *= i_power(-basis.n)
    h_resid = unitarity_defect(v)
    f_resid = float(np.linalg.norm(minus_target(form)))
    return BiorthoReport(
        passed=h_resid <= tol.tol_gram and f_resid <= tol.tol_gram,
        hilbert_residual=h_resid,
        form_residual=f_resid,
        form_target=target_name,
        kind=kind,
    )


def _require_biorthonormal(basis: BasisSet, tol: Tolerances) -> None:
    if basis.canonical:  # bi-orthonormal by construction
        return
    report = check_biorthonormal(basis, tol)
    if not report.passed:
        raise ValueError(
            "basis is not bi-orthonormal "
            f"(hilbert residual {report.hilbert_residual:.3e}, form residual {report.form_residual:.3e})"
        )


def state_coefficients(basis: BasisSet, psi: PureState) -> np.ndarray:
    """Expansion coefficients of ``psi`` over a Hilbert-orthonormal basis; O(2^n) for a canonical basis."""
    if basis.n != psi.n:
        raise ValueError(f"qubit counts differ: basis {basis.n} vs state {psi.n}")
    if basis.canonical:
        return canonical_coefficients(psi.n, psi.amp)
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
    return BasisSet(n, _freeze(canonical_synthesize(n, mix.T)), ordering)


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
    coeff = canonical_coefficients(basis.n, basis.matrix()).T
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
