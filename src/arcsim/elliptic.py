"""Zero-flux screened-Poisson solves for the repellent field.

At every time level the repellent w satisfies (delta*I - Lap) w = source with
reflecting Neumann boundaries. The operator is symmetric positive definite
for delta > 0 and is solved directly: a cached banded Cholesky factorization
in 1D, and the cosine-transform diagonalization of the reflection stencil in
2D (cell-centered DCT-II modes are its exact eigenvectors). The residual of
a solve has one definition, :func:`relative_residual`, which the diagnostics
evaluate at output times.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn
from scipy.linalg import cho_solve_banded, cholesky_banded

from .grid import laplacian_values

__all__ = ["solve_w_values", "relative_residual"]


@lru_cache(maxsize=32)
def _banded_cholesky(n: int, h: float, delta: float) -> np.ndarray:
    """Upper-banded Cholesky factor of the 1D operator delta*I - Lap."""
    inv_h2 = 1.0 / (h * h)
    ab = np.zeros((2, n))
    ab[0, 1:] = -inv_h2
    ab[1, :] = delta + 2.0 * inv_h2
    ab[1, 0] = delta + inv_h2   # reflecting ghost drops one neighbor
    ab[1, -1] = delta + inv_h2
    return cholesky_banded(ab, lower=False)


@lru_cache(maxsize=32)
def _dct_eigenvalues(shape: tuple[int, ...], spacing: tuple[float, ...]) -> np.ndarray:
    """Eigenvalues of -Lap on DCT-II modes, summed over axes.

    Along one axis with N cells, mode k has eigenvalue (2 - 2 cos(pi k/N))/h^2.
    """
    total = np.zeros(shape)
    for axis, (n, h) in enumerate(zip(shape, spacing)):
        lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / (h * h)
        expand = [1] * len(shape)
        expand[axis] = n
        total = total + lam.reshape(expand)
    total.setflags(write=False)
    return total


def solve_w_values(source: np.ndarray, spacing: tuple[float, ...], delta: float) -> np.ndarray:
    """Solve (delta*I - Lap) w = source with zero-flux boundaries on a raw cell array.

    Banded Cholesky in 1D, cosine-transform diagonalization in 2D.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    b = np.asarray(source, dtype=float)
    if np.ptp(b) == 0.0:
        # constant source: w = b/delta solves the discrete system exactly
        # (the stencil annihilates constants), so keep it bitwise flat
        return b / delta
    if b.ndim == 1:
        factor = _banded_cholesky(b.shape[0], spacing[0], delta)
        return cho_solve_banded((factor, False), b)
    lam = _dct_eigenvalues(b.shape, spacing)
    coeffs = dctn(b, type=2, norm="ortho")
    return idctn(coeffs / (delta + lam), type=2, norm="ortho")


def relative_residual(
    w: np.ndarray, source: np.ndarray, spacing: tuple[float, ...], delta: float
) -> float:
    """||(delta*I - Lap) w - source||_2 relative to ||source||_2 (absolute when it is zero)."""
    resid = np.linalg.norm((delta * w - laplacian_values(w, spacing) - source).ravel())
    src_norm = float(np.linalg.norm(np.asarray(source).ravel()))
    return float(resid / src_norm) if src_norm > 0.0 else float(resid)
