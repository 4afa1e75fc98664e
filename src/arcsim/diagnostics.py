"""Per-output-time diagnostics: mass, norms, and the coupled monitor functional.

The central monitored quantity is y_p = int(u^p) + (chi^2/gamma)^p * int(|grad v|^(2p)),
whose boundedness along a run is the numerical shadow of the analytical
boundedness mechanism.

Two gradient discretizations are used on purpose. ``grad_v_sq`` comes from
:func:`grid.grad_sq_integral`, which sums squared interior face differences:
by summation by parts against the face-flux Laplacian this is exactly the
discrete Dirichlet energy -sum(v * Lap_h v) * |cell|. The y_p term needs
|grad v|^2 at cell centers, to be raised to the power p cell by cell, so it
uses axis-wise central differences, (v_1 - v_0)/(2h) in an end cell, whose
reflected ghost value is its own (the ghost convention of the operators).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import elliptic, grid, kinetics
from .grid import ScalarField

__all__ = ["DiagRecord", "default_p_diag", "y_functional", "record", "write_csv"]


def default_p_diag(n: int) -> float:
    """Monitor exponent: must exceed max(1, n/2) for the L^p bound to matter."""
    return 2.0 if n <= 3 else n / 2.0 + 0.5


def _cell_grad_sq(values: np.ndarray, spacing: tuple[float, ...]) -> np.ndarray:
    """|grad f|^2 at cell centers: central differences, (f_1 - f_0)/(2h) in an end cell."""
    total = np.zeros_like(values)
    for axis, h in enumerate(spacing):
        v = values.swapaxes(0, axis)
        g = np.empty_like(v)
        np.subtract(v[2:], v[:-2], out=g[1:-1])
        np.subtract(v[1:2], v[:1], out=g[:1])
        np.subtract(v[-1:], v[-2:-1], out=g[-1:])
        g /= 2.0 * h
        total += (g * g).swapaxes(0, axis)
    return total


def y_functional(u: ScalarField, v: ScalarField, p: float, chi: float, gamma: float) -> float:
    """int(u^p) + (chi^2/gamma)^p * int(|grad v|^(2p))."""
    if p <= 1.0:
        raise ValueError(f"p must be > 1, got {p}")
    return _y_from_int(float(np.sum(u.values**p)) * u.spec.cell_volume, v, p, chi, gamma)


def _y_from_int(int_u_p: float, v: ScalarField, p: float, chi: float, gamma: float) -> float:
    """y_p given its first term, int(u^p)."""
    grad_sq = _cell_grad_sq(v.values, v.spec.spacing)
    return int_u_p + (chi * chi / gamma) ** p * float(np.sum(grad_sq**p)) * v.spec.cell_volume


@dataclass(frozen=True)
class DiagRecord:
    """One diagnostics row; all quantities refer to a single output time."""

    t: float
    mass: float
    sup_u: float
    sup_v: float
    sup_w: float
    lp_u: float
    grad_v_sq: float
    y_p: float
    dt_current: float
    clipped_mass: float
    w_residual: float

    def is_finite(self) -> bool:
        return all(np.isfinite(v) for v in dataclasses.astuple(self))


def record(state, config, dt_current: float, w_source=None) -> DiagRecord:
    """Assemble a :class:`DiagRecord` from the current state.

    ``dt_current`` is the step size the run is using. ``w_source`` overrides
    the right-hand side used for the repellent residual check (runs with
    manufactured forcing need this); by default it is the production rate of
    the current u.
    """
    params = config.params
    p = config.p_diag if config.p_diag is not None else default_p_diag(params.n)
    u, v, w = state.u, state.v, state.w

    if w_source is None:
        w_source = kinetics.g_of(u.values, params)
    w_residual = elliptic.relative_residual(w.values, w_source, u.spec.spacing, params.delta)
    int_u_p = float(np.sum(u.values**p)) * u.spec.cell_volume  # recorded u >= 0: |u|^p = u^p

    return DiagRecord(
        t=state.t,
        mass=grid.integrate(u),
        sup_u=grid.sup_norm(u),
        sup_v=grid.sup_norm(v),
        sup_w=grid.sup_norm(w),
        lp_u=int_u_p ** (1.0 / p),
        grad_v_sq=grid.grad_sq_integral(v),
        y_p=_y_from_int(int_u_p, v, p, params.chi, params.gamma),
        dt_current=float(dt_current),
        clipped_mass=state.clipped_mass,
        w_residual=w_residual,
    )


_FIELDS = [f.name for f in dataclasses.fields(DiagRecord)]


def write_csv(records, path, metadata: dict | None = None) -> None:
    """Write records as CSV, full double precision, metadata as '#' comments."""
    with open(path, "w") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(_FIELDS) + "\n")
        row = ",".join(["%.17g"] * len(_FIELDS)) + "\n"
        for rec in records:
            fh.write(row % dataclasses.astuple(rec))
