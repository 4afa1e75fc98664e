"""Zero-flux screened-Poisson solves for the repellent field.

At every time level the repellent w satisfies (delta*I - Lap) w = source with
reflecting Neumann boundaries. The operator is symmetric positive definite
for delta > 0 and is solved directly, with one cached solver per grid and
delta: a banded Cholesky factor and LAPACK's ``pbtrs`` in 1D; in 2D, the
stencil's cosine eigenbasis as cached orthonormal DCT-II matrices, O(n^3) per
solve on n x n cells. Against scipy.fft's DCT (numpy 2.4 with OpenBLAS, scipy
1.17, 2-vCPU x86) that is 2.3x faster at 64 cells per axis, even near 100 on
one BLAS thread or near 150 on two (OpenBLAS splits from ~128), and 1.4-2x
slower at 192. Its round-off grows faster too: relative residual 5e-12 at 64,
3e-11 at 128 and 1.7e-10 at 256 cells per axis (FFT: 2e-12, 8e-12, 3e-11).
:func:`relative_residual` is the one residual definition.

The 1D factor is the only use of scipy: ``scipy.linalg`` is imported when the
first 1D solver is built, so ``import arcsim`` and the 2D path need numpy only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import laplacian_values

__all__ = ["solve_w_values", "relative_residual"]


@lru_cache(maxsize=32)
def _solver(shape: tuple[int, ...], spacing: tuple[float, ...], delta: float):
    """The direct solve of (delta*I - Lap) w = b for fields of ``shape``; cached, read-only.

    1D: the upper-banded Cholesky factor and LAPACK's banded triangular solve.
    2D: per axis the DCT-II matrix C[k, j] = sqrt(2/N) cos(pi k (2j+1)/2N), row 0 times
    sqrt(1/2) (the phase k(2j+1) reduced mod 4N in exact integers keeps cos accurate), and
    a contiguous C^T. -Lap has eigenvalue (2 - 2 cos(pi k/N))/h^2 on mode k of an axis with
    N cells, so w = C0^T [(C0 b C1^T) / (delta + sums)] C1.
    """
    if len(shape) == 1:
        from scipy.linalg import LinAlgError, cholesky_banded, get_lapack_funcs

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

    bases, eigenvalues = [], []
    for n, h in zip(shape, spacing):
        k = np.arange(n)
        basis = np.sqrt(2.0 / n) * np.cos(np.pi / (2 * n) * (np.outer(k, 2 * k + 1) % (4 * n)))
        basis[0] *= np.sqrt(0.5)
        bases += [basis, np.ascontiguousarray(basis.T)]
        eigenvalues.append((2.0 - 2.0 * np.cos(np.pi * k / n)) / (h * h))
    c0, c0t, c1, c1t = bases
    denom = delta + np.add.outer(*eigenvalues)
    for array in (*bases, denom):
        array.setflags(write=False)

    def solve(b):
        coeffs = c0 @ b @ c1t
        coeffs /= denom
        return c0t @ coeffs @ c1

    return solve


def solve_w_values(source: np.ndarray, spacing: tuple[float, ...], delta: float) -> np.ndarray:
    """Solve (delta*I - Lap) w = source with zero-flux boundaries on a raw cell array.

    Banded Cholesky in 1D, cosine-basis matrix products in 2D. The source
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
