"""Complex vector/matrix substrate: states, operators, tensor products, sampling.

Flat amplitude vectors are indexed so that qubit 1 is the MOST significant
bit of the index, matching the left-to-right order of a ket label
|j_1, j_2, ..., j_n>.  All values are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bits import index_to_bits

#: Largest qubit count for a dense amplitude vector (memory budget of a desk machine).
MAX_STATE_QUBITS = 24
#: Largest qubit count for a dense 2^n x 2^n operator matrix.
MAX_OPERATOR_QUBITS = 12


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used by verdict-producing checks.

    Defaults assume double precision with at most 2^24 accumulations.
    """

    tol_norm: float = 1e-12
    tol_gram: float = 1e-10
    tol_residual: float = 1e-8

    def __post_init__(self):
        for name in ("tol_norm", "tol_gram", "tol_residual"):
            if not getattr(self, name) >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


DEFAULT_TOL = Tolerances()


def _require_qubits(n: int, cap: int) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"qubit count must be in [1, {cap}], got {n}")


def _frozen_complex(values, shape) -> np.ndarray:
    # C order also for transposed views (basis files), so every stored matrix has one layout
    arr = np.array(values, dtype=np.complex128, order="C")
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Pure state of ``n`` qubits as a flat vector of 2^n complex amplitudes."""

    n: int
    amp: np.ndarray

    def __post_init__(self):
        _require_qubits(self.n, MAX_STATE_QUBITS)
        object.__setattr__(self, "amp", _frozen_complex(self.amp, (1 << self.n,)))

    @property
    def dim(self) -> int:
        return 1 << self.n

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))


@dataclass(frozen=True)
class GlobalOperator:
    """Dense 2^n x 2^n operator; rows/columns indexed like PureState amplitudes."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        _require_qubits(self.n, MAX_OPERATOR_QUBITS)
        dim = 1 << self.n
        object.__setattr__(self, "mat", _frozen_complex(self.mat, (dim, dim)))

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class LocalOperatorList:
    """Ordered list of 2x2 operators A_1, ..., A_n, one per qubit (A_1 acts on the MSB)."""

    ops: tuple

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("local operator list must not be empty")
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
    """Rescale to unit Hilbert norm."""
    norm = psi.norm()
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return PureState(psi.n, psi.amp / norm)


def tensor_states(psi: PureState, phi: PureState) -> PureState:
    """Product state; amplitude at a concatenated bit label is the product of amplitudes."""
    return PureState(psi.n + phi.n, np.kron(psi.amp, phi.amp))


def expand_local(local: LocalOperatorList) -> GlobalOperator:
    """Materialize A_1 (x) A_2 (x) ... (x) A_n as a dense matrix."""
    if local.n > MAX_OPERATOR_QUBITS:
        raise ValueError(f"dense operators are capped at {MAX_OPERATOR_QUBITS} qubits")
    mat = np.eye(1, dtype=np.complex128)
    for a in local.ops:
        mat = np.kron(mat, a)
    return GlobalOperator(local.n, mat)


def apply(op: GlobalOperator, psi: PureState) -> PureState:
    """Matrix-vector product ``op @ psi``."""
    if op.n != psi.n:
        raise ValueError(f"qubit counts differ: operator {op.n} vs state {psi.n}")
    return PureState(psi.n, op.mat @ psi.amp)


def random_state(n: int, seed: int | np.random.Generator) -> PureState:
    """Haar-random state: i.i.d. standard complex Gaussian amplitudes, normalized.

    ``seed`` may also be a ``np.random.Generator``; it is then used as is
    (``np.random.default_rng`` returns it unchanged), so successive calls
    continue one stream.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(n, z / np.linalg.norm(z))


def random_operator(n: int, seed: int | np.random.Generator) -> GlobalOperator:
    """Complex Ginibre operator: i.i.d. standard complex Gaussian entries, real parts drawn first.

    ``seed`` may be a ``np.random.Generator``, as for ``random_state``.
    """
    rng = np.random.default_rng(seed)
    dim = 1 << n
    return GlobalOperator(n, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


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
