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
    _FrozenValue,
    _freeze,
    _frozen_complex,
    _quadratic_residual,
    _require_qubits,
)
from .flip import FormKind, _flip_defects, _signed_blocks

MAGIC_ORDERING = "complement-pair representatives ascending, plus vector before minus"
PRODUCT_ORDERING = "complement pairs (k, ~k), member with +1 form pairing first"
_S2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class BasisSet(_FrozenValue):
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
        object.__setattr__(self, "mat", _frozen_complex(self.mat, (self.dim, self.dim)))

    def __reduce__(self):  # only a canonical basis rebuilds canonical
        if self.canonical:
            return _canonical_basis, (self.n, self.ordering)
        return super().__reduce__()

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


def _hilbert_defect(y: np.ndarray, unit) -> float:
    """||y^H y - unit * I||_F on the last two axes, summed over any leading (stack) axes."""
    return np.linalg.norm(_minus_identity(y.conj().swapaxes(-1, -2) @ y, unit))


def _group_defect(y: np.ndarray, unit, kind: FormKind) -> float:
    """||y^T T y - unit * T||_F with T = I (orthogonal) or canonical J (symplectic), as _hilbert_defect."""
    if kind is FormKind.ORTHOGONAL:
        return np.linalg.norm(_minus_identity(y.swapaxes(-1, -2) @ y, unit))
    pairs = y[..., 0::2, :].swapaxes(-1, -2) @ y[..., 1::2, :]  # y^T J y = Y - Y^T with Y over the row pairs
    return np.linalg.norm(_minus_j(np.subtract(pairs, pairs.swapaxes(-1, -2)), unit))


def unitarity_defect(x: np.ndarray) -> float:
    """||x^H x - I||_F, summed over a stack: zero iff x is unitary; inf, not NaN, where it overflows."""
    return _quadratic_residual(_hilbert_defect, x)


def form_defect(x: np.ndarray, kind: FormKind) -> float:
    """||x^T T x - T||_F with T = I (orthogonal) or canonical J (symplectic): zero iff x is in the group;
    inf, not NaN, where it overflows (core._quadratic_residual).  Summed over a stack, as unitarity_defect."""
    return _quadratic_residual(lambda y, unit: _group_defect(y, unit, kind), x)


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


def _pair_slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row r and its pair m = min(r, ~r): slot [r, m] of a basis's (2^n, 2^(n-1), 2) view holds columns 2m
    and 2m+1 of row r.  Canonical vectors 2m and 2m+1 live on rows m and ~m, so on these 2^(n+1) slots."""
    rows = np.arange(1 << n)
    return rows, np.minimum(rows, rows[::-1])


def _canonical_basis(n: int, ordering: str) -> BasisSet:
    """The dense canonical basis V, with canonical_synthesize(n, P) scattered over its pair slots.

    P is the pair identity, P[2m, 0] = P[2m+1, 1] = 1, so column j of V P sums the vectors 2m + j.  Those
    vectors share no row, so row r of V P is row r of V on its slot, and every other entry of V is zero.
    """
    _require_qubits(n, MAX_OPERATOR_QUBITS)  # before the 2^n x 2^n allocation
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat.reshape(dim, dim // 2, 2)[_pair_slots(n)] = canonical_synthesize(n, np.tile(np.eye(2), (dim // 2, 1)))
    basis = BasisSet(n, _freeze(mat), ordering)
    object.__setattr__(basis, "canonical", True)
    return basis


def _gram_residuals(v: np.ndarray, n: int) -> tuple[float, float, str]:
    """(||V^H V - I||_F, ||form Gram - T||_F, route) for the 2^n x 2^n basis matrix V, with T = I (even n)
    or canonical J (odd n): the defects of Q = C^H V, V's coefficients over the canonical basis C.  C is unitary
    and bi-orthonormal, so ||V^H V - I|| = ||Q^H Q - I|| and ||form Gram - T|| = ||Q^T T Q - T||.

    Route "pairs" when every nonzero entry of V lies in its pair slots (_pair_slots), as in the canonical
    bases, their row phase changes and their in-pair mixes: Q is block diagonal, and its 2 x 2 blocks are the
    transform of the 2^n x 2 slot matrix.  Route "dense" otherwise.  The transform runs inside
    core._quadratic_residual, so an overflowing residual is inf, not NaN.
    """
    kind, dim = FormKind.for_qubits(n), 1 << n
    slots = v.reshape(dim, dim // 2, 2)[_pair_slots(n)]
    pairs = np.count_nonzero(v.view(np.float64)) == np.count_nonzero(slots.view(np.float64))

    def residuals(y, unit):
        q = canonical_coefficients(n, y)
        if pairs:
            q = q.reshape(-1, 2, 2)
        return _hilbert_defect(q, unit), _group_defect(q, unit, kind)

    return (*_quadratic_residual(residuals, slots if pairs else v), "pairs" if pairs else "dense")


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
    # J x^T J, with J^-1 = -J: x^T with its 2 x 2 blocks reversed and signed, (2a+i, 2b+j) <- s_ij x^T[2a+1-i, 2b+1-j]
    swap = x.T.reshape(dim // 2, 2, dim // 2, 2)[:, ::-1, :, ::-1] * np.array([[-1.0, 1.0], [1.0, -1.0]])[:, None, :]
    x = (x + swap.reshape(dim, dim)) / 2.0  # (x - J^-1 x^T J) / 2
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
