"""Time integration of the coupled cell/attractant/repellent system.

One step advances the cell density u and the attractant v with explicit Euler
in conservative flux form, then re-solves the repellent w, which is slaved to
u through its elliptic equation:

    u <- u + dt * [Lap(u) - chi*div(u grad v) + xi*div(u grad w)]
    v <- v + dt * [Lap(v) - f(u_old) * v]
    w <- solve of (delta*I - Lap) w = g(u_new)

The step size obeys both the diffusive limit and an advective CFL limit on
the drift potential chi*v - xi*w. Negative u or v cells are clipped to zero;
the clipped u-mass is accumulated (as an absolute magnitude) so that mass
conservation remains auditable: away from clipping the flux form conserves
the discrete integral of u to round-off.

Growth of sup(u) beyond blowup_factor times its initial value stops the run
with a flag. The flag marks a numerically unresolved aggregation, not a
statement that the solution blows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diagnostics, elliptic
from .grid import GridSpec, ScalarField, cell_centers, div_u_grad_values, laplacian_values
from .kinetics import ModelParams, f_of, g_of

__all__ = [
    "COMPLETED",
    "BLOWUP_FLAGGED",
    "BREAKDOWN",
    "NumericalBreakdownError",
    "SimState",
    "RunConfig",
    "Forcing",
    "stable_dt",
    "step",
    "run",
]

COMPLETED = "completed"
BLOWUP_FLAGGED = "blowup_flagged"
BREAKDOWN = "breakdown"

DT_UNDERFLOW = 1e-12
POSITIVITY_MODES = ("clip", "upwind")


class NumericalBreakdownError(RuntimeError):
    """Non-finite field values or a vanishing stable step size."""


@dataclass
class SimState:
    """Snapshot of the evolving triplet (u, v, w) at time t.

    ``clipped_mass`` is the cumulative magnitude of u-mass adjusted by
    positivity clipping; it stays zero on well-resolved runs.
    """

    u: ScalarField
    v: ScalarField
    w: ScalarField
    t: float
    step: int
    clipped_mass: float = 0.0


@dataclass(frozen=True)
class Forcing:
    """Optional source terms, used by manufactured-solution verification.

    Each callable receives (cell-center coordinate arrays, time) and returns
    an array shaped like the field. ``w_source`` is added to the production
    rate inside the elliptic solve.
    """

    u: Callable | None = None
    v: Callable | None = None
    w_source: Callable | None = None


@dataclass
class RunConfig:
    """Everything one simulation needs: grid, coefficients, data, controls."""

    grid: GridSpec
    params: ModelParams
    u0: ScalarField
    v0: ScalarField
    t_end: float
    dt_safety: float = 0.4
    output_interval: float = 0.1
    positivity_mode: str = "clip"
    blowup_factor: float = 1e3
    p_diag: float | None = None  # None: picked from the ambient dimension

    def validate(self) -> None:
        if self.u0.spec != self.grid or self.v0.spec != self.grid:
            raise ValueError("initial fields must live on the configured grid")
        if np.any(self.u0.values < 0.0) or np.any(self.v0.values < 0.0):
            raise ValueError("initial data must be nonnegative")
        if not np.any(self.u0.values > 0.0):
            raise ValueError("u0 must not be identically zero")
        if not (self.u0.is_finite() and self.v0.is_finite()):
            raise ValueError("initial data must be finite")
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError(f"dt_safety must be in (0, 1], got {self.dt_safety}")
        if self.output_interval <= 0.0:
            raise ValueError(f"output_interval must be > 0, got {self.output_interval}")
        if self.positivity_mode not in POSITIVITY_MODES:
            raise ValueError(f"positivity_mode must be one of {POSITIVITY_MODES}")
        if self.blowup_factor < 1.0:
            raise ValueError(f"blowup_factor must be >= 1, got {self.blowup_factor}")
        if self.p_diag is not None and self.p_diag <= 1.0:
            raise ValueError(f"p_diag must be > 1, got {self.p_diag}")


def stable_dt(state: SimState, params: ModelParams, dt_safety: float = 0.4) -> float:
    """Largest safe explicit step: diffusive limit and drift CFL, scaled by dt_safety.

    The diffusive bound is 1/(2*sum(1/h_i^2)), i.e. h^2/(2*dim) on uniform
    spacing; the advective bound is h/max|face gradient of chi*v - xi*w| per
    axis (infinite when the drift is flat).
    """
    spacing = state.u.spec.spacing
    diff_bound = 0.5 / sum(1.0 / (h * h) for h in spacing)
    drift = params.chi * state.v.values - params.xi * state.w.values
    adv_bound = np.inf
    for axis, h in enumerate(spacing):
        peak = float(np.max(np.abs(np.diff(drift, axis=axis)))) / h
        if peak > 0.0:
            adv_bound = min(adv_bound, h / peak)
    dt = dt_safety * min(diff_bound, adv_bound)
    if dt < DT_UNDERFLOW:
        raise NumericalBreakdownError(f"stable step size underflow: dt = {dt:.3e}")
    return dt


def step(
    state: SimState,
    params: ModelParams,
    dt: float,
    positivity_mode: str = "clip",
    forcing: Forcing | None = None,
) -> SimState:
    """Advance one explicit step of size dt; see the module docstring for the scheme."""
    spec = state.u.spec
    spacing = spec.spacing
    u = state.u.values
    v = state.v.values
    w = state.w.values

    if positivity_mode == "upwind":
        # upwind donors only make sense for the combined drift potential
        drift = params.chi * v - params.xi * w
        taxis = -div_u_grad_values(u, drift, spacing, scheme="upwind")
    else:
        taxis = params.xi * div_u_grad_values(u, w, spacing) - params.chi * div_u_grad_values(
            u, v, spacing
        )
    rhs_u = laplacian_values(u, spacing) + taxis
    rhs_v = laplacian_values(v, spacing) - f_of(u, params) * v
    if forcing is not None:
        centers = cell_centers(spec)
        if forcing.u is not None:
            rhs_u = rhs_u + forcing.u(centers, state.t)
        if forcing.v is not None:
            rhs_v = rhs_v + forcing.v(centers, state.t)

    u_new = u + dt * rhs_u
    v_new = v + dt * rhs_v

    clipped = state.clipped_mass
    if np.any(u_new < 0.0):
        clipped += float(-u_new[u_new < 0.0].sum()) * spec.cell_volume
        np.maximum(u_new, 0.0, out=u_new)
    if np.any(v_new < 0.0):
        np.maximum(v_new, 0.0, out=v_new)

    if not (np.isfinite(u_new).all() and np.isfinite(v_new).all()):
        raise NumericalBreakdownError(f"non-finite field values at t = {state.t + dt:.6g}")

    t_new = state.t + dt
    w_source = g_of(u_new, params)
    if forcing is not None and forcing.w_source is not None:
        w_source = w_source + forcing.w_source(cell_centers(spec), t_new)
    w_new = elliptic.solve_w_values(w_source, spacing, params.delta)

    return SimState(
        u=ScalarField(spec, u_new),
        v=ScalarField(spec, v_new),
        w=ScalarField(spec, w_new),
        t=t_new,
        step=state.step + 1,
        clipped_mass=clipped,
    )


def initial_state(config: RunConfig, forcing: Forcing | None = None) -> SimState:
    """Build the t = 0 state, solving the repellent equation for the initial u."""
    source = g_of(config.u0.values, config.params)
    if forcing is not None and forcing.w_source is not None:
        source = source + forcing.w_source(cell_centers(config.grid), 0.0)
    w0 = elliptic.solve_w_values(source, config.grid.spacing, config.params.delta)
    return SimState(
        u=config.u0.copy(),
        v=config.v0.copy(),
        w=ScalarField(config.grid, w0),
        t=0.0,
        step=0,
    )


def run(
    config: RunConfig,
    forcing: Forcing | None = None,
    callback: Callable | None = None,
) -> tuple[list[diagnostics.DiagRecord], SimState, str]:
    """Advance from t = 0 to t_end with adaptive steps and periodic records.

    Returns (records, final state, termination), where termination is one of
    COMPLETED, BLOWUP_FLAGGED (sup(u) exceeded blowup_factor times its initial
    value) or BREAKDOWN (non-finite values or step underflow).
    ``callback(state, record)`` fires at every emitted record.
    """
    config.validate()
    params = config.params
    t_end = config.t_end
    eps = 1e-12 * max(1.0, t_end)

    def emit(state, records, dt_current, w_src):
        rec = diagnostics.record(state, config, dt_current=dt_current, w_source=w_src)
        if rec.is_finite():
            records.append(rec)
            if callback is not None:
                callback(state, rec)

    def current_w_source(state):
        if forcing is None or forcing.w_source is None:
            return None
        return g_of(state.u.values, params) + forcing.w_source(cell_centers(config.grid), state.t)

    records: list[diagnostics.DiagRecord] = []
    state = initial_state(config, forcing)

    blow_threshold = config.blowup_factor * float(np.max(config.u0.values))

    try:
        dt = stable_dt(state, params, config.dt_safety)
    except NumericalBreakdownError:
        return records, state, BREAKDOWN
    emit(state, records, dt, current_w_source(state))

    k_out = 1
    next_out = min(k_out * config.output_interval, t_end)
    termination = COMPLETED
    while t_end - state.t > eps:
        try:
            dt = stable_dt(state, params, config.dt_safety)
            lands = state.t + dt >= next_out - eps
            if lands:
                dt = next_out - state.t
            state = step(
                state,
                params,
                dt,
                positivity_mode=config.positivity_mode,
                forcing=forcing,
            )
        except NumericalBreakdownError:
            termination = BREAKDOWN
            emit(state, records, dt, current_w_source(state))
            break

        if float(np.max(state.u.values)) > blow_threshold:
            termination = BLOWUP_FLAGGED
            emit(state, records, dt, current_w_source(state))
            break

        if lands:
            emit(state, records, dt, current_w_source(state))
            k_out += 1
            next_out = min(k_out * config.output_interval, t_end)

    return records, state, termination
