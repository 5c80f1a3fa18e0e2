"""Independent reference computations that the benchmark checks spinforms against.

Nothing here imports spinforms.  Amplitude vectors use the package's
convention: qubit 1 is the most significant bit of the flat index, i.e.
axis 0 of the amplitudes reshaped to ``(2,) * n``.  Operators are applied one
axis at a time, so no 2^n x 2^n matrix is ever formed.
"""

from __future__ import annotations

import numpy as np


def apply_per_axis(amp: np.ndarray, mats) -> np.ndarray:
    """(A_1 (x) ... (x) A_n) amp, applying the 2x2 matrix A_q on axis q-1 of amp.reshape((2,)*n).

    Axis q of the ``(2,) * n`` view is the middle axis of the equivalent
    ``(2**q, 2, 2**(n-q-1))`` view, which numpy walks with contiguous inner
    blocks; that is the view used here.  Two buffers alternate between axes.
    """
    n = len(mats)
    x = np.array(amp, dtype=np.complex128, order="C")
    if x.shape != (1 << n,):
        raise ValueError(f"expected {1 << n} amplitudes for {n} operators, got {x.shape}")
    y = np.empty_like(x)
    scratch = np.empty(x.size // 2, dtype=np.complex128)
    for q, m in enumerate(mats):
        v, o = x.reshape(1 << q, 2, -1), y.reshape(1 << q, 2, -1)
        t = scratch.reshape(1 << q, -1)
        for row in (0, 1):
            np.multiply(v[:, 0], m[row][0], out=o[:, row])
            np.multiply(v[:, 1], m[row][1], out=t)
            o[:, row] += t
        x, y = y, x
    return x


def flip(a: np.ndarray) -> np.ndarray:
    """sigma_y^(x)n conj(a) for a vector of 2^n amplitudes, or for each column of a 2^n x m matrix.

    sigma_y is applied axis by axis over the row index: it sends (x_0, x_1)
    to (-i x_1, i x_0), and multiplying by +-i only swaps and negates parts,
    so the result is exact.
    """
    x = np.ascontiguousarray(np.conj(np.asarray(a, dtype=np.complex128)))
    n = x.shape[0].bit_length() - 1
    y = np.empty_like(x)
    for q in range(n):
        v, o = x.reshape(1 << q, 2, -1), y.reshape(1 << q, 2, -1)
        np.multiply(v[:, 1], -1j, out=o[:, 0])
        np.multiply(v[:, 0], 1j, out=o[:, 1])
        x, y = y, x
    return x


def form(psi: np.ndarray, phi: np.ndarray) -> complex:
    """The spin-flip bilinear form <flip(psi)|phi>."""
    return complex(np.vdot(flip(psi), phi))


def tangle(psi: np.ndarray) -> float:
    """|<flip(psi)|psi>| / <psi|psi>."""
    return abs(form(psi, psi)) / float(np.vdot(psi, psi).real)


def canonical_j(dim: int) -> np.ndarray:
    """[[0, 1], [-1, 0]] blocks on consecutive index pairs."""
    j = np.zeros((dim, dim))
    idx = np.arange(0, dim, 2)
    j[idx, idx + 1] = 1.0
    j[idx + 1, idx] = -1.0
    return j


def form_gram(mat: np.ndarray) -> np.ndarray:
    """G[j, k] = form(column j, column k)."""
    return flip(mat).conj().T @ mat


def haar_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normalized i.i.d. complex Gaussian amplitudes (a Haar-random pure state)."""
    z = rng.standard_normal(2 << n).view(np.complex128)
    return z / np.linalg.norm(z)


def ghz_amplitudes(n: int) -> np.ndarray:
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return amp


def product_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Tensor product of n random normalized one-qubit states, qubit 1 leftmost."""
    amp = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        a = rng.standard_normal(4).view(np.complex128)
        amp = np.kron(amp, a / np.linalg.norm(a))
    return amp


def su2(rng: np.random.Generator) -> np.ndarray:
    """Uniform SU(2) matrix from a uniform point on the 3-sphere."""
    q = rng.standard_normal(4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def real_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random real orthogonal matrix: QR of a Gaussian with the R diagonal made positive."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)
