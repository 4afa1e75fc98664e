"""Zero-flux screened-Poisson solves for the repellent field.

At every time level the repellent w satisfies (delta*I - Lap) w = source with
reflecting Neumann boundaries. The operator is symmetric positive definite for
delta > 0 and is solved directly in numpy alone, by the one solver per grid
and delta in this module's cache, the only store of solvers. In 1D, the
inverse of the symmetric tridiagonal operator is semiseparable (Meurant, SIAM
J. Matrix Anal. Appl. 13 (1992) 707-728), so a solve is two running sums and a
few products, O(N), and a nonnegative source gives w >= 0 exactly. In 2D, the
stencil's cosine eigenbasis as orthonormal DCT-II matrices, O(n^3) per solve
on n x n cells. Against scipy.fft's DCT (numpy 2.4 with OpenBLAS, scipy 1.17,
2-vCPU x86) that is 2.3x faster at 64 cells per axis, even near 100 on one
BLAS thread or near 150 on two (OpenBLAS splits from ~128), and 1.4-2x slower
at 192. Its round-off grows faster too: relative residual 5e-12 at 64, 3e-11
at 128 and 1.7e-10 at 256 cells per axis (FFT: 2e-12, 8e-12, 3e-11). The solve
is linear, of sums, products and quotients alone, so scaling a source past
2^500 down by a power of two, and w back up, is exact.
:func:`relative_residual` is the one residual definition.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import laplacian_values

__all__ = ["solve_w_values", "relative_residual"]


# Largest growth of phi within one block of the 1D solve: every scaled term and
# prefix stays within e^300 (~1e130) of the source, far from overflow.
_BLOCK_GROWTH = 300.0
# A peak |b| >= 2^500 (~3e150) is scaled into [2^499, 2^500): then neither e^_BLOCK_GROWTH
# times the cell count (1D) nor the basis sums (2D) take a term past the double range.
_PEAK_BOUND = 2.0**500


def _interval_solver(n: int, h: float, delta: float):
    """The 1D solve from the closed-form inverse of the reflecting operator.

    phi solves the homogeneous recurrence from the left wall, built in
    difference form so that delta is never rounded into delta + 2/h^2:
    phi_0 = 1, d_0 = delta h^2, phi_{i+1} = phi_i + d_i, d_{i+1} = d_i + delta h^2 phi_{i+1}.
    With its mirror psi_i = phi_{n-1-i} and their Casoratian W = d_{n-1}/h^2,
    the inverse is G_ij = phi_min(i,j) psi_max(i,j)/W (Meurant 1992), and by
    summation by parts

        w_i = phi_i sum_{j>=i} k_j A_j,   A_j = sum_{l<=j} phi_l b_l,
        k_j = h^2/(phi_j phi_{j+1}) (j < n-1),   k_{n-1} = 1/(W phi_{n-1}).

    A solve is these two running sums and three products, O(n). Summing the
    two halves of G directly would cancel two large sums whenever the source
    has a small mean; the nested sums keep the relative residual at the
    round-off of the operator itself. phi grows like e^{i theta} (cosh theta
    = 1 + delta h^2/2), so the cells are cut into blocks over which phi grows by
    at most e^_BLOCK_GROWTH: phi is kept as a mantissa and an exact power of
    two, both sums of a block are scaled by phi at its first cell, and each
    block's end sum is carried into the next at the ratio of their scales.
    With one block (n theta <= _BLOCK_GROWTH) the sums run over all cells
    without block loops. Every weight is positive, so b >= 0 gives w >= 0.
    """
    s = delta * h * h
    if not math.isfinite(s):
        raise ValueError(f"delta * h^2 must be finite, got delta = {delta:g} and h = {h:g}")
    if s == 0.0:  # phi would stay 1 and the Casoratian W vanish: w = inf
        raise ValueError(f"delta * h^2 underflows to 0, got delta = {delta:g} and h = {h:g}")
    # phi_i = mant[i] 2^expo[i] and d_i = dmant[i] 2^expo[i]; rescaling by exact powers
    # of two leaves every rounding as in the unscaled recurrence
    mant, dmant = np.empty(n + 1), np.empty(n + 1)
    expo = np.empty(n + 1, dtype=np.int64)
    p, d, e = 1.0, s, 0
    for i in range(n + 1):
        mant[i], dmant[i], expo[i] = p, d, e
        p, k = math.frexp(p + d)
        d = math.ldexp(d, -k) + s * p
        e += k

    theta = 2.0 * math.asinh(0.5 * math.sqrt(s))
    length = -(-n // min(n, max(1, math.ceil(n * theta / _BLOCK_GROWTH))))
    first = np.arange(n) // length * length  # first cell of each cell's block
    starts = first[::length]
    # rho_j = phi_j/phi_first; kappa_j carries both scales, with phi_{j+1} (d_{n-1} = h^2 W
    # at the right wall) in its denominator; carry = phi_first/phi_next_first
    rho = np.ldexp(mant[:n] / mant[first], expo[:n] - expo[first])
    nxt, nxt_expo = np.append(mant[1:n], dmant[n - 1]), np.append(expo[1:n], expo[n - 1])
    kappa = np.ldexp(h * h * mant[first] ** 2 / (mant[:n] * nxt),
                     2 * expo[first] - expo[:n] - nxt_expo)
    carry = np.ldexp(mant[starts[:-1]] / mant[starts[1:]], expo[starts[:-1]] - expo[starts[1:]])
    for array in (rho, kappa):
        array.setflags(write=False)
    # per block: its slice, and the cell whose sum it takes over from its neighbour
    blocks = [slice(a, min(a + length, n)) for a in starts.tolist()]
    right = tuple(slice(n - blk.stop, n - blk.start) for blk in blocks)  # on the reversed cells
    into_right = tuple((blk, blk.start - 1, c) for blk, c in zip(blocks[1:], carry.tolist()))
    into_left = tuple((blk, blk.stop, c) for blk, c in zip(blocks[:-1], carry.tolist()))[::-1]
    blocks = tuple(blocks)

    if len(blocks) == 1:  # phi grows by at most e^_BLOCK_GROWTH: the sums run over all cells
        def solve(b):
            x = b * rho
            np.add.accumulate(x, 0, None, x)
            x *= kappa
            r = x[::-1]
            np.add.accumulate(r, 0, None, r)
            x *= rho
            return x
        return solve

    def solve(b):
        x = b * rho
        for blk in blocks:  # A_j, from the left wall
            seg = x[blk]
            np.add.accumulate(seg, out=seg)
        for blk, prev, c in into_right:
            x[blk] += x[prev] * c
        x *= kappa
        r = x[::-1]
        for blk in right:  # sum_{j>=i} k_j A_j, from the right wall
            seg = r[blk]
            np.add.accumulate(seg, out=seg)
        for blk, after, c in into_left:
            x[blk] += x[after] * c
        x *= rho
        return x

    return solve


@lru_cache(maxsize=32)
def _solver(shape: tuple[int, ...], spacing: tuple[float, ...], delta: float):
    """The direct solve of (delta*I - Lap) w = b for fields of ``shape``; cached, read-only.

    1D: :func:`_interval_solver`.
    2D: per axis the DCT-II matrix C[k, j] = sqrt(2/N) cos(pi k (2j+1)/2N), row 0 times
    sqrt(1/2) (the phase k(2j+1) reduced mod 4N in exact integers keeps cos accurate), and
    a contiguous C^T. -Lap has eigenvalue (2 - 2 cos(pi k/N))/h^2 on mode k of an axis with
    N cells, so w = C0^T [(C0 b C1^T) / (delta + sums)] C1.
    """
    if len(shape) == 1:
        return _interval_solver(shape[0], spacing[0], delta)

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

    The closed-form tridiagonal inverse in 1D, cosine-basis matrix products
    in 2D. The source must be finite: the 1D solve does not check it.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    b = np.asarray(source, dtype=float)
    return _screened_solve(b, spacing, delta, float(np.abs(b).max()))


def _screened_solve(b: np.ndarray, spacing: tuple[float, ...], delta: float, peak: float) -> np.ndarray:
    """:func:`solve_w_values` of a float array b whose max|b| is ``peak``, for delta > 0, unchecked."""
    if b.item(0) == b.item(-1) and np.minimum.reduce(b, None) == np.maximum.reduce(b, None):
        # constant source (end values screen out most others before two reductions):
        # w = b/delta, exact and bitwise flat, as the stencil annihilates constants
        return b / delta
    solve = _solver(b.shape, spacing, delta)
    if peak < _PEAK_BOUND:
        return solve(b)
    e = math.frexp(peak / _PEAK_BOUND)[1]  # b * 2^-e peaks in [2^499, 2^500); 0 for inf and NaN
    return np.ldexp(solve(np.ldexp(b, -e)), e)


def relative_residual(
    w: np.ndarray, source: np.ndarray, spacing: tuple[float, ...], delta: float
) -> float:
    """||(delta*I - Lap) w - source||_2 relative to ||source||_2 (absolute when it is zero).

    Where a squared norm overflows, both are taken again of the vectors scaled
    exactly, by a power of two near 1/max|source|, which keeps their ratio.
    """
    source = np.asarray(source).ravel()
    resid = (delta * w - laplacian_values(w, spacing)).ravel() - source
    with np.errstate(over="ignore"):  # an overflowing norm is taken again below
        resid_norm, src_norm = np.linalg.norm(resid), np.linalg.norm(source)
    if not (math.isfinite(resid_norm) and math.isfinite(src_norm)):
        scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(source))))[1])
        resid_norm, src_norm = np.linalg.norm(resid * scale), np.linalg.norm(source * scale)
    return float(resid_norm / src_norm) if src_norm > 0.0 else float(resid_norm)
