"""Complex vector/matrix substrate: states, operators, tensor products, sampling.

Flat amplitude vectors are indexed so that qubit 1 is the MOST significant
bit of the index, matching the left-to-right order of a ket label
|j_1, j_2, ..., j_n>.  All values are immutable after construction and safe
to share across threads: a frozen array (read-only, C-contiguous complex128,
owning its data) is stored as given, and anything else is copied and frozen.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .bits import index_to_bits

#: Largest qubit count for a dense amplitude vector (memory budget of a desk machine).
MAX_STATE_QUBITS = 24
#: Largest qubit count for a dense 2^n x 2^n operator matrix.
MAX_OPERATOR_QUBITS = 12


# Thresholds of the verdicts, for double precision with at most 2^24 accumulations.
#: Largest gap from 1 of a squared norm that passes a state through unscaled, and of maxent_generate's sum of nu^2.
NORM_TOL = 1e-12
#: Both Gram residuals of check_biorthonormal.
GRAM_TOL = 1e-10
#: Every other verdict's residual; maxent_structure_check's relation residual is judged at 2 * RESIDUAL_TOL.
RESIDUAL_TOL = 1e-8


def _require_qubits(n: int, cap: int) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"qubit count must be in [1, {cap}], got {n}")


def _frozen_complex(values, shape) -> np.ndarray:
    """A read-only C-contiguous complex128 array of ``shape``.

    A frozen array (read-only, C-contiguous complex128 of this shape, owning its data) is stored
    as given; anything else is copied, so no caller's array is ever shared, and refused if not finite.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == np.complex128
        and values.shape == shape
        and values.flags.c_contiguous
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    # C order also for transposed views (basis files), so every stored matrix has one layout
    arr = np.array(values, dtype=np.complex128, order="C")
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    return _freeze(arr)


def _freeze(fresh: np.ndarray) -> np.ndarray:
    """Mark a fresh array (held by no caller) read-only and return it.

    PureState, GlobalOperator and BasisSet then store it as given, with no copy, when it owns its data.
    """
    fresh.setflags(write=False)
    return fresh


class _FrozenValue:
    """Base of PureState, GlobalOperator, LocalOperatorList and BasisSet.  Copies and pickles rebuild through the
    constructor from the init fields, so they are frozen again.  Equality is by value: the same type and every
    compared field equal by np.array_equal (the generated __eq__ would compare arrays with ==, which raises);
    defining __eq__ leaves __hash__ None, so the values are unhashable."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True, eq=False)
class PureState(_FrozenValue):
    """Pure state of ``n`` qubits as a flat vector of 2^n complex amplitudes."""

    n: int
    amp: np.ndarray

    def __post_init__(self):
        _require_qubits(self.n, MAX_STATE_QUBITS)
        object.__setattr__(self, "amp", _frozen_complex(self.amp, (self.dim,)))

    def norm(self) -> float:
        """Hilbert norm, with no over- or underflow at any finite amplitudes (see _norm)."""
        return _norm(self.amp)


def _scaled(amp: np.ndarray) -> tuple[np.ndarray, int]:
    """(amp * 2^-e, e) with 2^e the power of two just above the largest real or imaginary part.  The scaling is
    exact and no scaled square over- or underflows, so a norm or quotient of it is that of amp wherever amp's is.
    amp is complex128 or float64, and the result has its dtype."""
    parts = np.abs(amp.view(np.float64))
    _, exp = np.frexp(parts.max())
    return np.ldexp(amp.view(np.float64), -exp, out=parts).view(amp.dtype), int(exp)


def _norm(x: np.ndarray) -> float:
    """Frobenius norm taken at 2^-e (_scaled) and scaled back: no over- or underflow where it is in range."""
    scaled, exp = _scaled(x)
    return float(np.ldexp(np.linalg.norm(scaled), exp))


def _quadratic_residual(residual, x: np.ndarray) -> float | tuple[float, ...]:
    """residual(x, 1.0), for residuals ||G(x) - unit * T|| with G(x) quadratic in x, such as x^H x - I:
    one float, or a tuple of floats when residual returns a tuple.

    Where any value is not finite although x is (a product overflowed, and inf - inf gave NaN), all are taken
    again on x 2^-e (_scaled, exact) with the targets at 2^-2e and scaled back by 2^2e, so an overflowing
    residual is inf, not NaN.  Finite residuals take no further pass.  No numpy warning escapes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(residual(x, 1.0), dtype=np.float64)
        if not np.isfinite(values).all() and np.isfinite(x).all():
            scaled, exp = _scaled(np.ascontiguousarray(x))
            values = np.ldexp(np.asarray(residual(scaled, np.ldexp(1.0, -2 * exp)), dtype=np.float64), 2 * exp)
    return float(values) if values.ndim == 0 else tuple(values.tolist())


@dataclass(frozen=True, eq=False)
class GlobalOperator(_FrozenValue):
    """Dense 2^n x 2^n operator; rows/columns indexed like PureState amplitudes."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        _require_qubits(self.n, MAX_OPERATOR_QUBITS)
        object.__setattr__(self, "mat", _frozen_complex(self.mat, (self.dim, self.dim)))


@dataclass(frozen=True, eq=False)
class LocalOperatorList(_FrozenValue):
    """Ordered list of 2x2 operators A_1, ..., A_n, one per qubit (A_1 acts on the MSB), capped as states are."""

    ops: tuple

    def __post_init__(self):
        _require_qubits(len(self.ops), MAX_STATE_QUBITS)
        frozen = tuple(_frozen_complex(a, (2, 2)) for a in self.ops)
        object.__setattr__(self, "ops", frozen)

    @property
    def n(self) -> int:
        return len(self.ops)


def make_state(n: int, amp: Sequence[complex]) -> PureState:
    """Wrap raw amplitudes as an ``n``-qubit state.  No normalization is applied."""
    return PureState(n, amp)


def basis_state(n: int, k: int) -> PureState:
    """Computational basis vector |label(k)>, label read MSB-first."""
    index_to_bits(k, n)  # range check
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[k] = 1.0
    return PureState(n, amp)


def hilbert_inner(psi: PureState, phi: PureState) -> complex:
    """Hilbert inner product <psi|phi>, conjugate-linear in the first slot."""
    if psi.n != phi.n:
        raise ValueError(f"qubit counts differ: {psi.n} vs {phi.n}")
    return complex(np.vdot(psi.amp, phi.amp))


def normalize(psi: PureState) -> PureState:
    """Rescale to unit Hilbert norm, at any finite nonzero amplitudes."""
    scaled, _ = _scaled(psi.amp)
    norm = np.linalg.norm(scaled)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return PureState(psi.n, _freeze(scaled / norm))


def tensor_states(psi: PureState, phi: PureState) -> PureState:
    """Product state; amplitude at a concatenated bit label is the product of amplitudes."""
    amp = np.empty(psi.dim * phi.dim, dtype=np.complex128)  # np.kron would return a view, which is copied
    np.multiply(psi.amp[:, None], phi.amp, out=amp.reshape(psi.dim, phi.dim))
    return PureState(psi.n + phi.n, _freeze(amp))


def _kron(factors) -> np.ndarray:
    """A_1 (x) A_2 (x) ... (x) A_n of 2x2 factors, as a fresh writable complex128 array."""
    mat = np.ones((1, 1), dtype=np.complex128)
    for a in factors:
        # kron(mat, a) written into an array of its own (np.kron returns a view, which would be copied)
        h = mat.shape[0]
        out = np.empty((2 * h, 2 * h), dtype=np.complex128)
        np.multiply(mat[:, None, :, None], a[:, None, :], out=out.reshape(h, 2, h, 2))
        mat = out
    return mat


def expand_local(local: LocalOperatorList) -> GlobalOperator:
    """Materialize A_1 (x) A_2 (x) ... (x) A_n as a dense matrix."""
    if local.n > MAX_OPERATOR_QUBITS:
        raise ValueError(f"dense operators are capped at {MAX_OPERATOR_QUBITS} qubits")
    return GlobalOperator(local.n, _freeze(_kron(local.ops)))


def apply(op: GlobalOperator, psi: PureState) -> PureState:
    """Matrix-vector product ``op @ psi``."""
    if op.n != psi.n:
        raise ValueError(f"qubit counts differ: operator {op.n} vs state {psi.n}")
    return PureState(psi.n, _freeze(op.mat @ psi.amp))


def random_state(n: int, seed: int | np.random.Generator) -> PureState:
    """Haar-random state: i.i.d. standard complex Gaussian amplitudes, normalized.

    ``seed`` may also be a ``np.random.Generator``; it is then used as is
    (``np.random.default_rng`` returns it unchanged), so successive calls
    continue one stream.
    """
    _require_qubits(n, MAX_STATE_QUBITS)  # before drawing 2^n amplitudes
    rng = np.random.default_rng(seed)
    z = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(n, _freeze(z / np.linalg.norm(z)))


def random_operator(n: int, seed: int | np.random.Generator) -> GlobalOperator:
    """Complex Ginibre operator: i.i.d. standard complex Gaussian entries, real parts drawn first.

    ``seed`` may be a ``np.random.Generator``, as for ``random_state``.
    """
    _require_qubits(n, MAX_OPERATOR_QUBITS)  # before drawing 4^n entries
    rng = np.random.default_rng(seed)
    dim = 1 << n
    return GlobalOperator(n, _freeze(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))))


def random_sl2(seed: int) -> np.ndarray:
    """Random 2x2 complex matrix with determinant 1.

    A complex Ginibre sample is rescaled by a square root of its determinant;
    near-singular draws (|det| < 1e-6) are rejected and redrawn.
    """
    rng = np.random.default_rng(seed)
    for _ in range(100):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(g)
        if abs(det) >= 1e-6:
            return g / np.sqrt(det)
    raise RuntimeError("resampling limit reached while drawing an SL(2) matrix")


def random_su2(seed: int) -> np.ndarray:
    """Random SU(2) matrix, parametrized by a uniform point on the 3-sphere."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])
