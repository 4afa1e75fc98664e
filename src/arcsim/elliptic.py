"""Zero-flux screened-Poisson solves for the repellent field.

At every time level the repellent w satisfies (delta*I - Lap) w = source with
reflecting Neumann boundaries. The operator is symmetric positive definite
for delta > 0 and is solved directly, with one cached solver per grid and
delta: a banded Cholesky factor and LAPACK's banded solve ``pbtrs`` in 1D,
and the cosine-transform diagonalization of the reflection stencil in 2D
(cell-centered DCT-II modes are its exact eigenvectors). The residual of
a solve has one definition, :func:`relative_residual`, which the diagnostics
evaluate at output times.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn
from scipy.linalg import LinAlgError, cholesky_banded, get_lapack_funcs

from .grid import laplacian_values

__all__ = ["solve_w_values", "relative_residual"]


@lru_cache(maxsize=32)
def _solver(shape: tuple[int, ...], spacing: tuple[float, ...], delta: float):
    """The direct solve of (delta*I - Lap) w = b for fields of ``shape``; cached, read-only.

    1D: the upper-banded Cholesky factor and LAPACK's banded triangular solve.
    2D: DCT-II modes, on which -Lap along an axis with N cells has eigenvalue
    (2 - 2 cos(pi k/N))/h^2, so the solve divides by delta plus their sum.
    """
    if len(shape) == 1:
        inv_h2 = 1.0 / (spacing[0] * spacing[0])
        ab = np.zeros((2, shape[0]))
        ab[0, 1:] = -inv_h2
        ab[1, :] = delta + 2.0 * inv_h2
        ab[1, 0] = delta + inv_h2   # reflecting ghost drops one neighbor
        ab[1, -1] = delta + inv_h2
        factor = cholesky_banded(ab, lower=False)
        factor.setflags(write=False)
        (pbtrs,) = get_lapack_funcs(("pbtrs",), (factor,))

        def solve(b):
            w, info = pbtrs(factor, b, lower=0)
            if info != 0:
                raise LinAlgError(f"banded triangular solve failed: info = {info}")
            return w

        return solve

    eigenvalues = np.zeros(shape)
    for axis, (n, h) in enumerate(zip(shape, spacing)):
        lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / (h * h)
        expand = [1] * len(shape)
        expand[axis] = n
        eigenvalues = eigenvalues + lam.reshape(expand)
    denom = delta + eigenvalues
    denom.setflags(write=False)

    def solve(b):
        coeffs = dctn(b, type=2, norm="ortho")
        coeffs /= denom
        return idctn(coeffs, type=2, norm="ortho", overwrite_x=True)

    return solve


def solve_w_values(source: np.ndarray, spacing: tuple[float, ...], delta: float) -> np.ndarray:
    """Solve (delta*I - Lap) w = source with zero-flux boundaries on a raw cell array.

    Banded Cholesky in 1D, cosine-transform diagonalization in 2D. The source
    must be finite: the 1D solve does not check it.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    b = np.asarray(source, dtype=float)
    if b.flat[0] == b.flat[-1] and b.min() == b.max():
        # constant source (end values screen out most others before two reductions):
        # w = b/delta, exact and bitwise flat, as the stencil annihilates constants
        return b / delta
    return _solver(b.shape, spacing, delta)(b)


def relative_residual(
    w: np.ndarray, source: np.ndarray, spacing: tuple[float, ...], delta: float
) -> float:
    """||(delta*I - Lap) w - source||_2 relative to ||source||_2 (absolute when it is zero)."""
    resid = np.linalg.norm((delta * w - laplacian_values(w, spacing) - source).ravel())
    src_norm = float(np.linalg.norm(np.asarray(source).ravel()))
    return float(resid / src_norm) if src_norm > 0.0 else float(resid)
