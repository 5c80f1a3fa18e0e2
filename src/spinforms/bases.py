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
from functools import lru_cache, reduce

import numpy as np

from .bits import i_power, parity_signs, times_i_power
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
from .flip import FormKind, _form_gram, _signed_blocks, flip_amplitudes, signed_reversal

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
    route: str  # "nonzero" or "dense": how the Grams were summed (see _gram_residuals)


def canonical_j(dim: int) -> np.ndarray:
    """Block-diagonal symplectic pairing: [[0, 1], [-1, 0]] on consecutive pairs."""
    if dim % 2 != 0:
        raise ValueError("symplectic pairing needs even dimension")
    j = np.zeros((dim, dim))
    m = np.arange(0, dim, 2)
    j[m, m + 1], j[m + 1, m] = 1.0, -1.0
    return j


def _minus_identity(gram: np.ndarray, unit: float = 1.0) -> np.ndarray:
    """gram - unit * I, in place on a square array the caller owns."""
    diag = np.arange(gram.shape[0])
    gram[diag, diag] -= unit
    return gram


def _minus_j(gram: np.ndarray, unit: float) -> np.ndarray:
    """gram - unit * canonical_j, in place on a square array of even size the caller owns."""
    even = np.arange(0, gram.shape[0], 2)
    gram[even, even + 1] -= unit
    gram[even + 1, even] += unit
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

    Route "nonzero" when no row of V has more than two nonzero entries (the canonical bases, their row
    permutations, phase changes and in-pair mixes): both Grams are summed from those entries only, in
    one O(4^n) scan and O(2^n log 2^n) after it.  Route "dense" otherwise: two dense products.  Both routes
    take their residuals through core._quadratic_residual, so an overflowing residual is inf, not NaN.
    """
    dim = 1 << n
    nonzero = v != 0
    if np.count_nonzero(nonzero) <= 2 * dim:  # before the index array, which could be 4^n long
        at = np.flatnonzero(nonzero)  # row-major, so the entries of one row are adjacent
        rows = at >> n
        if not (rows[2:] == rows[:-2]).any():  # no row holds three
            return (*_nonzero_gram_residuals(n, rows, at & (dim - 1), v.ravel()[at]), "nonzero")
    # form(v_a, v_b) = (-i)^n signed_reversal(v_a) . v_b: the reversal goes on the left factor
    minus_target = _minus_j if n % 2 else _minus_identity
    form_residual = _quadratic_residual(
        lambda y, unit: np.linalg.norm(minus_target(times_i_power(_form_gram(y), -n), unit)), v
    )
    return unitarity_defect(v), form_residual, "dense"


def _nonzero_gram_residuals(n: int, rows, cols, values) -> tuple[float, float]:
    """Both Gram residuals of the matrix whose nonzero entries are values at (rows, cols), sorted by row,
    at most two per row.

    Row r goes into two slots (col[r], val[r]), zero-padded.  The Hilbert Gram is sum_r val[r]^H val[r]
    and the form Gram F = (R V)^T V is sum_r (R val)[r]^T val[r], where (R val)[r] sits in the columns
    of row ~r.  form - T = (-i)^n (F - i^n T) has the norm of F - i^n T, so the targets enter the sums
    as terms -I and -i^n T, and the terms are summed by (Gram, column, column) key.  The keys, their order
    and the sum boundaries depend on the columns only and are built once; the sums are taken through
    core._quadratic_residual on the slot values, so a residual too large for a float is inf, not NaN.
    """
    dim = 1 << n
    flat = 2 * rows  # slot 0 of each entry's row; the second entry of a row goes to slot 1
    flat[1:] += rows[1:] == rows[:-1]
    col, val = np.zeros((dim, 2), dtype=np.intp), np.zeros((dim, 2), dtype=np.complex128)
    col.ravel()[flat], val.ravel()[flat] = cols, values
    target_keys, targets, signs = _gram_targets(n)
    # left factors, Gram by Gram: conj(val) for the Hilbert Gram, R val (rows ~r, signed) for the form
    # Gram, whose columns are offset by dim so that its keys are offset by dim^2
    left_col = np.concatenate([col, col[::-1] + dim]).reshape(2, dim, 2, 1)
    keys = np.concatenate([(left_col * dim + col[:, None, :]).ravel(), target_keys])
    order = np.argsort(keys)
    keys = keys[order]
    firsts = np.empty(keys.size, dtype=bool)
    firsts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=firsts[1:])
    firsts = np.flatnonzero(firsts)
    split = 2 * np.searchsorted(keys[firsts], dim * dim)

    def residuals(y, unit):
        left = np.concatenate([y.conj(), y[::-1] * signs]).reshape(2, dim, 2, 1)
        terms = np.concatenate([(left * y[:, None, :]).ravel(), targets * unit])
        parts = np.add.reduceat(terms[order], firsts).view(np.float64)  # (real, imaginary) of each entry
        return tuple(np.sqrt(x @ x) for x in (parts[:split], parts[split:]))

    return _quadratic_residual(residuals, val)


@lru_cache(maxsize=MAX_OPERATOR_QUBITS)  # one entry per n; the arrays are read-only
def _gram_targets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, terms) of -I in the Hilbert Gram and -i^n T in the form Gram, keyed as in _nonzero_gram_residuals,
    and the signs of R's rows as a column; read-only."""
    dim = 1 << n
    rows = np.arange(dim)
    # T's entry in row a: 1 at (a, a) for I; for J, 1 at (a, a + 1) on even a and -1 at (a, a - 1) on odd a
    t_cols = rows ^ (n % 2)
    t_vals = np.where(rows % 2, 1.0, -1.0) if n % 2 else np.full(dim, -1.0)  # -T there
    keys = np.concatenate([rows * (dim + 1), dim * dim + rows * dim + t_cols])
    terms = np.concatenate([np.full(dim, -1.0 + 0j), times_i_power(t_vals.astype(np.complex128), n)])
    signs = signed_reversal(np.ones(dim))[:, None]  # row k of R x is signs[k] * x[~k]
    return _freeze(keys), _freeze(terms), _freeze(signs)


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

    Returns the real orthogonal matrix C with basis vector j = sum_l C[j, l] e_l.
    Raises if the input is not bi-orthonormal, or if the recovered matrix is
    not real orthogonal (which a valid input cannot produce).
    """
    if basis.n % 2 != 0:
        raise ValueError("magic-basis decomposition requires an even qubit count")
    _require_biorthonormal(basis)
    coeff = canonical_coefficients(basis.n, basis.matrix()).T
    imag_max = float(np.max(np.abs(coeff.imag)))
    defect = form_defect(coeff.T, FormKind.ORTHOGONAL)  # C C^T - I
    if imag_max > RESIDUAL_TOL or defect > RESIDUAL_TOL:
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
    resid = float(np.max(np.abs(flip_amplitudes(psi.amp) - psi.amp)))
    return SelfConjugacyReport(passed=resid <= RESIDUAL_TOL, max_residual=resid)
