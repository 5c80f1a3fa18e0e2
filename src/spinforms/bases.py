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
    GRAM_TOL,
    MAX_OPERATOR_QUBITS,
    RESIDUAL_TOL,
    PureState,
    _freeze,
    _frozen_complex,
    _quadratic_residual,
    _require_qubits,
    _value_eq,
)
from .flip import FormKind, _flip_defects, _form_gram, _signed_blocks, signed_reversal

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
    route: str  # "pairs" or "dense": how the Grams were summed (see _gram_residuals)


def canonical_j(dim: int) -> np.ndarray:
    """Block-diagonal symplectic pairing: [[0, 1], [-1, 0]] on consecutive pairs."""
    if dim % 2 != 0:
        raise ValueError("symplectic pairing needs even dimension")
    j = np.zeros((dim, dim))
    m = np.arange(0, dim, 2)
    j[m, m + 1], j[m + 1, m] = 1.0, -1.0
    return j


def _minus_identity(gram: np.ndarray, unit: complex | np.ndarray = 1.0) -> np.ndarray:
    """gram - unit * I on the last two axes, in place through their writable diagonal view, at any strides."""
    diagonal = np.einsum("...ii->...i", gram)
    diagonal -= unit
    return gram


def _minus_j(gram: np.ndarray, unit: complex) -> np.ndarray:
    """gram - unit * canonical_j on the last two axes, in place on the diagonals of the even-odd and odd-even views."""
    _minus_identity(gram[..., 0::2, 1::2], unit)
    _minus_identity(gram[..., 1::2, 0::2], -unit)
    return gram


def unitarity_defect(x: np.ndarray) -> float:
    """||x^H x - I||_F: zero iff the square matrix x is unitary; inf, not NaN, where it overflows."""
    return _quadratic_residual(lambda y, unit: np.linalg.norm(_minus_identity(y.conj().T @ y, unit)), x)


def form_defect(x: np.ndarray, kind: FormKind) -> float:
    """||x^T T x - T||_F with T = I (orthogonal) or canonical J (symplectic): zero iff x is in the group;
    inf, not NaN, where it overflows (core._quadratic_residual)."""

    def defect(y, unit):
        if kind is FormKind.ORTHOGONAL:
            return np.linalg.norm(_minus_identity(y.T @ y, unit))
        pairs = y[0::2].T @ y[1::2]  # y^T J y = Y - Y^T with Y over the row pairs (2m, 2m+1)
        return np.linalg.norm(_minus_j(np.subtract(pairs, pairs.T), unit))

    return _quadratic_residual(defect, x)


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

    Even n (magic_basis): a butterfly on each complement pair (k, ~k), written block by block into the
    output.  Odd n (product_biortho_basis): a row scatter and a phase.  Real input is not copied to complex.
    """
    flat = _columns(n, coeffs)
    result = np.empty(np.shape(coeffs), dtype=np.complex128)  # owns its data, so it can be frozen and stored
    out = result.reshape(flat.shape)  # a view of result
    if n % 2 == 1:
        rows, phases = _product_layout(n)
        out[rows] = flat
        out *= phases
    else:
        even, odd = flat[0::2], flat[1::2]
        # for even n the magic phase c_k is i^n times the reversal sign of row k: the tile carries c_k / sqrt(2)
        for rows, bottom, tile in _signed_blocks(out, 1 << (n - 1), i_power(n).real * _S2):  # bottom: rows ~k
            i_odd, top = 1j * odd[rows], out[rows]
            np.add(even[rows], i_odd, out=top)
            np.subtract(even[rows], i_odd, out=bottom)
            top *= _S2
            bottom *= tile
    return result


def canonical_coefficients(n: int, x) -> np.ndarray:
    """Coefficients V^H x over the canonical basis, along axis 0: the inverse of canonical_synthesize.

    Even n, with c_k the phase of magic_basis: (x_k + c_k x_~k) / sqrt(2) at 2k and
    -i (x_k - c_k x_~k) / sqrt(2) at 2k+1, block by block.  Odd n: a row gather and the conjugate phase.
    O(2^n) per column."""
    flat = _columns(n, x)
    if n % 2 == 1:
        rows, phases = _product_layout(n)
        return (flat[rows] * phases[rows].conj()).reshape(np.shape(x))
    out = np.empty(flat.shape, dtype=np.complex128)
    # c_k x_~k = i^n (R x)[k]: for even n the magic phase is i^n times the reversal sign of row k, the tile carries it
    for rows, block, tile in _signed_blocks(flat, 1 << (n - 1), i_power(n).real):
        plus, minus = out[0::2][rows], out[1::2][rows]
        reflected = np.multiply(block, tile, out=minus)  # held in the odd rows until they are written
        np.add(flat[rows], reflected, out=plus)
        np.subtract(flat[rows], reflected, out=minus)
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
    """The dense canonical basis V = canonical_synthesize(n, I), written entry by entry into zeros.

    Only the nonzero entries are written: two per column for even n (rows k and ~k, with the magic phase
    c_k taken from signed_reversal), one per column for odd n (from _product_layout).
    """
    _require_qubits(n, MAX_OPERATOR_QUBITS)  # before the 2^n x 2^n allocation
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    if n % 2 == 1:
        rows, phases = _product_layout(n)
        mat[rows, np.arange(dim)] = phases[rows, 0]
    else:
        h = dim // 2
        k = np.arange(h)
        c = signed_reversal(np.ones(dim), h) * (i_power(n).real * _S2)  # c_k / sqrt(2), real for even n
        # column 2k is (|k> + c_k |~k>) / sqrt(2), column 2k+1 is i (|k> - c_k |~k>) / sqrt(2)
        mat.real[k, 2 * k] = _S2
        mat.imag[k, 2 * k + 1] = _S2
        mat.real[dim - 1 - k, 2 * k] = c
        mat.imag[dim - 1 - k, 2 * k + 1] = -c
    basis = BasisSet(n, _freeze(mat), ordering)
    object.__setattr__(basis, "canonical", True)
    return basis


def _gram_residuals(v: np.ndarray, n: int) -> tuple[float, float, str]:
    """(||V^H V - I||_F, ||form Gram - T||_F, route) for the 2^n x 2^n basis matrix V, with T = I (even n)
    or canonical J (odd n) and form(v_a, v_b) = (-i)^n (R v_a) . v_b, R the signed reversal.

    Route "pairs" when every nonzero entry of V lies in a complement-pair block B_m = V[(m, ~m), (2m, 2m+1)],
    as in the canonical bases, their phase changes and their in-pair mixes.  R maps each row pair onto
    itself, so both Grams are block diagonal and their residuals are summed over the 2^(n-1) blocks:
    B_m^H B_m - I and (S_m B_m)^T B_m - i^n T_m, with S_m the rows swapped and signed as in R.  Route
    "dense" otherwise: two dense products.  Both routes take their residuals through
    core._quadratic_residual, so an overflowing residual is inf, not NaN.
    """
    dim = 1 << n
    # form - T = (-i)^n (F - i^n T) with F = (R V)^T V, so F is judged against i^n T
    minus_target, phase = _minus_j if n % 2 else _minus_identity, i_power(n)
    k = np.arange(dim // 2)
    rows = np.stack([k, dim - 1 - k], axis=1)[:, :, None]  # (m, ~m)
    blocks = v[rows, 2 * k[:, None, None] + np.arange(2)]  # blocks[m] = B_m
    if np.count_nonzero(v.view(np.float64)) == np.count_nonzero(blocks.view(np.float64)):
        signs = signed_reversal(np.ones(dim))[rows]  # row m of R x is signs[m] x[~m]

        def residuals(y, unit):
            hilbert = _minus_identity(y.conj().swapaxes(1, 2) @ y, unit)
            form = minus_target((signs * y[:, ::-1]).swapaxes(1, 2) @ y, unit * phase)
            return np.linalg.norm(hilbert), np.linalg.norm(form)

        return (*_quadratic_residual(residuals, blocks), "pairs")
    # form(v_a, v_b) = (-i)^n signed_reversal(v_a) . v_b: the reversal goes on the left factor
    form_residual = _quadratic_residual(lambda y, unit: np.linalg.norm(minus_target(_form_gram(y), unit * phase)), v)
    return unitarity_defect(v), form_residual, "dense"


def check_biorthonormal(basis: BasisSet) -> BiorthoReport:
    """Verdict on bi-orthonormality.

    Passes iff the Hilbert Gram is the identity and the form Gram is the
    identity (even n) or the canonical block J (odd n) in the basis's given
    order, both within GRAM_TOL.  ``route`` names how _gram_residuals summed the Grams.
    """
    kind = FormKind.for_qubits(basis.n)
    h_resid, f_resid, route = _gram_residuals(basis.matrix(), basis.n)
    return BiorthoReport(
        passed=h_resid <= GRAM_TOL and f_resid <= GRAM_TOL,
        hilbert_residual=h_resid,
        form_residual=f_resid,
        form_target="canonical J" if kind is FormKind.SYMPLECTIC else "identity",
        kind=kind,
        route=route,
    )


def _require_biorthonormal(basis: BasisSet) -> None:
    if basis.canonical:  # bi-orthonormal by construction
        return
    report = check_biorthonormal(basis)
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


def _mix_canonical_basis(mix, kind: FormKind, ordering: str) -> BasisSet:
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
    if unit > RESIDUAL_TOL or form > RESIDUAL_TOL:
        raise ValueError(
            f"mixing matrix is not unitary {kind.value} (unitarity defect {unit:.3e}, form defect {form:.3e})"
        )
    if kind is FormKind.ORTHOGONAL:
        mix = mix.real  # unitary and complex orthogonal means real
    return BasisSet(n, _freeze(canonical_synthesize(n, mix.T)), ordering)


def basis_from_orthogonal(o: np.ndarray) -> BasisSet:
    """Mix the magic basis by a real orthogonal matrix (rows give the new vectors)."""
    return _mix_canonical_basis(o, FormKind.ORTHOGONAL, "magic basis mixed by real orthogonal matrix")


def decompose_basis(basis: BasisSet) -> np.ndarray:
    """Coefficient matrix of a bi-orthonormal basis over the magic basis.

    Returns the real orthogonal matrix C with basis vector j = sum_l C[j, l] e_l: the real part of the
    transform, whose imaginary part is within about GRAM_TOL of zero once both Gram residuals are, as
    C^H C - C^T C = -2i (Im C)^T C.  Raises if the input is not bi-orthonormal.
    """
    if basis.n % 2 != 0:
        raise ValueError("magic-basis decomposition requires an even qubit count")
    _require_biorthonormal(basis)
    return np.real(canonical_coefficients(basis.n, basis.matrix()).T)


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


def basis_from_unitary_symplectic(s: np.ndarray) -> BasisSet:
    """Mix the product bi-orthonormal basis by a unitary-symplectic matrix (rows give the new vectors)."""
    return _mix_canonical_basis(s, FormKind.SYMPLECTIC, "product basis mixed by unitary-symplectic matrix")


@dataclass(frozen=True)
class SelfConjugacyReport:
    passed: bool
    max_residual: float


def self_conjugacy_coefficient_check(psi: PureState) -> SelfConjugacyReport:
    """Verdict on whether the spin flip fixes ``psi``.

    Coefficient-wise this is psi_{~k} = conj(psi_k) * (-1)^popcount(k) * i^n
    for every index k; possible only for even n.
    """
    if psi.n % 2 != 0:
        raise ValueError("self-conjugate states require an even qubit count")
    # max |flip(x) - x| over the blocks, with no flip of the whole state; NaN-propagating, as np.max over the whole is
    resid = float(reduce(np.maximum, (np.max(np.abs(defect)) for _, defect in _flip_defects(psi.amp)), 0.0))
    return SelfConjugacyReport(passed=resid <= RESIDUAL_TOL, max_residual=resid)
