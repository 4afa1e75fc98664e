"""Manufactured-solution convergence verification for the 1D scheme.

Forcing terms are appended to every equation so that a chosen analytic
triplet solves the forced system exactly; the discrete solution must then
approach it at the scheme's design order. With the step size tied to the
diffusive limit (dt proportional to h^2), the explicit Euler error is also
O(h^2), so grid doubling should show second order overall.

The default triplet on [0, 1],

    u* = 2 + cos(pi x) e^-t,  v* = 1 + cos(pi x) e^-t / 2,
    w* = 3/4 + cos(pi x) e^-t / 4,

has vanishing normal derivatives at both ends, so it is compatible with the
zero-flux boundaries without boundary forcing.

Its forcing is tabulated per grid in a one-slot memo: a call with a new
centre array builds cos(pi x) and the coefficient arrays of each forcing
term; if the array is read-only (as ``cell_centers`` returns) the memo keeps
it and its table, and a later call with that same array object (``is``)
reuses the table, so every step of a grid but its first is a few array
operations in e^-t. A writeable array is never kept. The tabulated form
equals the closed form algebraically but rounds differently, by a few ulps
per value, which moves the study's errors by ~1e-11 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, cell_centers
from .kinetics import ModelParams
from .stepper import COMPLETED, Forcing, RunConfig, run

__all__ = ["ConvergenceResult", "default_params", "run_convergence", "ORDER_WINDOW"]

ORDER_WINDOW = (1.8, 2.2)
ROUNDOFF_ERROR = 1e-12


def default_params() -> ModelParams:
    return ModelParams(chi=1.0, xi=1.0, delta=1.0, K=1.0, gamma=1.0, alpha=0.5, l=1.0, n=1)


@dataclass(frozen=True)
class ManufacturedSolution:
    """Analytic triplet plus the forcing that makes it solve the system."""

    name: str
    u: callable
    v: callable
    w: callable
    forcing: Forcing


def cosine_solution(params: ModelParams) -> ManufacturedSolution:
    pi = math.pi
    pi2 = pi * pi
    chi, xi = params.chi, params.xi
    K, alpha = params.K, params.alpha
    gamma, l, delta = params.gamma, params.l, params.delta

    def u_exact(x, t):
        return 2.0 + np.cos(pi * x) * math.exp(-t)

    def v_exact(x, t):
        return 1.0 + 0.5 * np.cos(pi * x) * math.exp(-t)

    def w_exact(x, t):
        return 0.75 + 0.25 * np.cos(pi * x) * math.exp(-t)

    # With c = cos(pi x), s = sin(pi x) and e = e^-t, so that u* = 2 + c e and
    # v* = u*/2, each forcing is a few operations in e on arrays of x alone:
    #   force_u = P e + Q e^2,  P = (pi^2 - 1 - T) c,  Q = T (s^2 - c^2)/2,  T = (chi - xi/2) pi^2,
    #   force_v = (pi^2 - 1)/2 c e + K/2 (u*)^(alpha+1)              [= f(u*) v* + ...],
    #   force_w = 3 delta/4 + (delta + pi^2)/4 c e - gamma u* (1 + u*)^(l-1),
    # where for l = 1 the production -gamma (2 + c e) joins the constant and linear terms.
    taxis = (chi - 0.5 * xi) * pi2
    linear = l == 1.0
    w_const = 0.75 * delta - (2.0 * gamma if linear else 0.0)
    w_slope = 0.25 * (delta + pi2) - (gamma if linear else 0.0)
    # the last read-only x and its (P, Q, c, (pi^2 - 1)/2 c, w_slope c); holding x keeps it alive
    memo = [None, None]

    def table(x):
        if memo[0] is x:
            return memo[1]
        c = np.cos(pi * x)
        s = np.sin(pi * x)
        entry = ((pi2 - 1.0 - taxis) * c, 0.5 * taxis * (s * s - c * c), c,
                 0.5 * (pi2 - 1.0) * c, w_slope * c)
        if not x.flags.writeable:  # read-only, as cell_centers returns: safe to keep
            memo[:] = x, entry
        return entry

    def force_u(centers, t):
        e = math.exp(-t)
        p, q, _, _, _ = table(centers[0])
        out = q * e
        out += p
        out *= e
        return out

    def force_v(centers, t):
        e = math.exp(-t)
        _, _, c, v_lin, _ = table(centers[0])
        out = c * e
        out += 2.0
        out **= alpha + 1.0
        out *= 0.5 * K
        out += v_lin * e
        return out

    def force_w_source(centers, t):
        e = math.exp(-t)
        _, _, c, _, w_lin = table(centers[0])
        out = w_lin * e
        out += w_const
        if not linear:
            u_star = c * e
            u_star += 2.0
            produced = u_star + 1.0
            produced **= l - 1.0
            produced *= u_star
            produced *= gamma
            out -= produced
        return out

    return ManufacturedSolution(
        "cosine", u_exact, v_exact, w_exact, Forcing(force_u, force_v, force_w_source)
    )


def constant_solution(params: ModelParams) -> ManufacturedSolution:
    """Degenerate triplet the scheme represents exactly (round-off errors only)."""

    def u_exact(x, t):
        return np.full_like(x, 2.0)

    def v_exact(x, t):
        return np.ones_like(x)

    def w_exact(x, t):
        return np.full_like(x, 0.75)

    def force_v(centers, t):
        return np.full_like(centers[0], params.K * 2.0**params.alpha)

    def force_w_source(centers, t):
        g2 = params.gamma * 2.0 * 3.0 ** (params.l - 1.0)
        return np.full_like(centers[0], params.delta * 0.75 - g2)

    return ManufacturedSolution(
        "constant", u_exact, v_exact, w_exact, Forcing(None, force_v, force_w_source)
    )


@dataclass(frozen=True)
class ConvergenceResult:
    solution: str
    cells: tuple[int, ...]
    errors: tuple[float, ...]      # max over u, v, w of the sup-norm error at t_end
    orders: tuple[float, ...]      # log2 ratios between successive grids
    observed_order: float          # mean of the pairwise orders (nan when skipped)
    passed: bool
    skipped: bool                  # errors at round-off level, order not measurable

    def lines(self) -> list[str]:
        out = [f"manufactured solution: {self.solution}"]
        for i, (n, err) in enumerate(zip(self.cells, self.errors)):
            order = f"  order {self.orders[i - 1]:.3f}" if 0 < i <= len(self.orders) else ""
            out.append(f"  N = {n:5d}   sup error = {err:.6e}{order}")
        if self.skipped:
            out.append("errors at round-off; order test skipped")
        else:
            lo, hi = ORDER_WINDOW
            verdict = "PASS" if self.passed else "FAIL"
            out.append(f"observed order {self.observed_order:.3f} in [{lo}, {hi}]: {verdict}")
        return out


def _solve_on_grid(n: int, solution: ManufacturedSolution, params, t_end) -> float:
    spec = GridSpec.interval(n, 1.0)
    x = cell_centers(spec)[0]
    config = RunConfig(
        grid=spec,
        params=params,
        u0=ScalarField(spec, solution.u(x, 0.0)),
        v0=ScalarField(spec, solution.v(x, 0.0)),
        t_end=t_end,
        output_interval=t_end,
        blowup_factor=1e6,
    )
    _, final, termination = run(config, forcing=solution.forcing)
    if termination != COMPLETED:
        raise RuntimeError(f"manufactured run terminated with {termination} on N={n}")
    err_u = float(np.max(np.abs(final.u.values - solution.u(x, final.t))))
    err_v = float(np.max(np.abs(final.v.values - solution.v(x, final.t))))
    err_w = float(np.max(np.abs(final.w.values - solution.w(x, final.t))))
    return max(err_u, err_v, err_w)


def run_convergence(
    refinements: int,
    base_cells: int = 25,
    t_end: float = 0.1,
    params: ModelParams | None = None,
    variant: str = "cosine",
) -> ConvergenceResult:
    """Solve the forced system on ``refinements`` grids, doubling cells each time."""
    if refinements < 3:
        raise ValueError(f"refinements must be >= 3, got {refinements}")
    if params is None:
        params = default_params()
    solution = {"cosine": cosine_solution, "constant": constant_solution}[variant](params)

    cells = tuple(base_cells * 2**k for k in range(refinements))
    errors = tuple(_solve_on_grid(n, solution, params, t_end) for n in cells)

    if max(errors) < ROUNDOFF_ERROR:
        return ConvergenceResult(solution.name, cells, errors, (), math.nan, True, True)

    orders = tuple(
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    )
    observed = sum(orders) / len(orders)
    passed = ORDER_WINDOW[0] <= observed <= ORDER_WINDOW[1]
    return ConvergenceResult(solution.name, cells, errors, orders, observed, passed, False)
