"""Time integration of the coupled cell/attractant/repellent system.

One step advances the cell density u and the attractant v with explicit Euler
in conservative flux form, then re-solves the repellent w, which is slaved to
u through its elliptic equation:

    u <- u + dt * [Lap(u) - div(u_face grad(chi*v - xi*w))]
    v <- v + dt * [Lap(v) - f(u_old) * v]
    w <- solve of (delta*I - Lap) w = g(u_new)

The taxis terms -chi*div(u grad v) + xi*div(u grad w) form this one drift flux,
and the u bracket is the divergence of the single face flux
grad(u) - u_face grad(chi*v - xi*w). ``positivity_mode`` picks only its face
value u_face: the mean of the two adjacent cells in "clip" mode (second
order), the donor cell in "upwind" mode. A non-finite u, v or g(u) stops the
step before the elliptic solve.

Each step forms every quantity once. :func:`stable_dt` leaves the face
differences of the drift potential chi*v - xi*w on the state it was given,
tagged with (chi, xi) and the v and w arrays; :func:`step` reuses them when
these match and forms them itself otherwise. One pass per axis then builds
the u face flux and the face difference of v in one face array, in the
arithmetic order of ``drift_diffusion_values`` and ``laplacian_values``, and
the arrays the step makes become fields without being checked again.

The step size obeys both the diffusive limit and an advective CFL limit on
the drift potential. In either mode, negative u or v cells are clipped to
zero; the clipped u-mass is accumulated (as an absolute magnitude) so that
mass conservation remains auditable: away from clipping the flux form
conserves the discrete integral of u to round-off.

Growth of sup(u) beyond blowup_factor times its initial value stops the run
with a flag. The flag marks a numerically unresolved aggregation, not a
statement that the solution blows up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import diagnostics, elliptic
from .grid import (  # noqa: F401  (div_u_grad_values, laplacian_values: bindings perfbench traces)
    GridSpec,
    ScalarField,
    cell_centers,
    div_u_grad_values,
    drift_diffusion_laplacian_values,
    face_differences,
    laplacian_values,
)
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
    """Non-finite values or a vanishing stable step size; ``dt`` is the step size involved."""

    def __init__(self, message: str, dt: float):
        super().__init__(message)
        self.dt = dt


@dataclass
class SimState:
    """Snapshot of the evolving triplet (u, v, w) at time t.

    ``clipped_mass`` is the cumulative magnitude of u-mass adjusted by
    positivity clipping; it stays zero on well-resolved runs. ``_drift``
    holds the face differences of chi*v - xi*w once :func:`stable_dt` or
    :func:`step` has formed them, tagged with the (chi, xi) and the v and w
    arrays they came from; it is neither compared nor printed.
    """

    u: ScalarField
    v: ScalarField
    w: ScalarField
    t: float
    step: int
    clipped_mass: float = 0.0
    _drift: tuple | None = field(default=None, init=False, compare=False, repr=False)


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
        if not (self.u0.is_finite() and self.v0.is_finite()):
            raise ValueError("initial data must be finite")
        if np.any(self.u0.values < 0.0) or np.any(self.v0.values < 0.0):
            raise ValueError("initial data must be nonnegative")
        if not np.any(self.u0.values > 0.0):
            raise ValueError("u0 must not be identically zero")
        with np.errstate(over="ignore", invalid="ignore"):
            production = g_of(self.u0.values, self.params)
        if not np.isfinite(production).all():
            raise ValueError("production rate g(u0) of the initial data must be finite")
        if not np.isfinite(self.params.chi * float(np.max(self.v0.values))):
            raise ValueError("chi * max(v0) of the initial data must be finite")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError(f"dt_safety must be in (0, 1], got {self.dt_safety}")
        if not 0.0 < self.output_interval < np.inf:
            raise ValueError(f"output_interval must be finite and > 0, got {self.output_interval}")
        if self.positivity_mode not in POSITIVITY_MODES:
            raise ValueError(f"positivity_mode must be one of {POSITIVITY_MODES}")
        if not 1.0 <= self.blowup_factor < np.inf:
            raise ValueError(f"blowup_factor must be finite and >= 1, got {self.blowup_factor}")
        if self.p_diag is not None and not 1.0 < self.p_diag < np.inf:
            raise ValueError(f"p_diag must be finite and > 1, got {self.p_diag}")


def _drift_differences(state: SimState, params: ModelParams) -> tuple[np.ndarray, ...]:
    """Face differences of the drift potential chi*v - xi*w per axis, formed once per state.

    They are kept on the state, tagged with (chi, xi) and the identity of the
    v and w arrays, and formed afresh when any of these differ.
    """
    v = state.v.values
    w = state.w.values
    tag = (params.chi, params.xi)
    cached = state._drift
    if cached is not None and cached[0] == tag and cached[1] is v and cached[2] is w:
        return cached[3]
    dphis = face_differences(params.chi * v - params.xi * w)
    state._drift = (tag, v, w, dphis)
    return dphis


def stable_dt(state: SimState, params: ModelParams, dt_safety: float = 0.4) -> float:
    """Largest safe explicit step: diffusive limit and drift CFL, scaled by dt_safety.

    The diffusive bound is 1/(2*sum(1/h_i^2)), i.e. h^2/(2*dim) on uniform
    spacing; the advective bound is h/max|face gradient of chi*v - xi*w| per
    axis (infinite when the drift is flat). The drift's face differences stay
    on the state for the :func:`step` that follows.
    """
    spacing = state.u.spec.spacing
    adv_bound = np.inf
    for h, dphi in zip(spacing, _drift_differences(state, params)):
        peak = float(np.abs(dphi).max()) / h
        if peak > 0.0:
            adv_bound = min(adv_bound, h / peak)
    dt = dt_safety * min(state.u.spec.diffusive_bound, adv_bound)
    if dt < DT_UNDERFLOW:
        raise NumericalBreakdownError(f"stable step size underflow: dt = {dt:.3e}", dt)
    return dt


def _repellent_source(
    u: np.ndarray, t: float, params: ModelParams, forcing: Forcing | None, spec: GridSpec
) -> np.ndarray:
    """Right-hand side g(u) + forcing.w_source of the repellent equation at time t."""
    source = g_of(u, params)
    if forcing is not None and forcing.w_source is not None:
        source += forcing.w_source(cell_centers(spec), t)
    return source


def step(
    state: SimState,
    params: ModelParams,
    dt: float,
    positivity_mode: str = "clip",
    forcing: Forcing | None = None,
) -> SimState:
    """Advance one explicit step of size dt; see the module docstring for the scheme."""
    if positivity_mode not in POSITIVITY_MODES:
        raise ValueError(f"positivity_mode must be one of {POSITIVITY_MODES}")
    spec = state.u.spec
    spacing = spec.spacing
    u = state.u.values
    v = state.v.values
    w = state.w.values

    scheme = "upwind" if positivity_mode == "upwind" else "central"
    rhs = drift_diffusion_laplacian_values(u, v, _drift_differences(state, params), spacing, scheme)
    u_new, v_new = rhs
    consumption = f_of(u, params)
    consumption *= v
    v_new -= consumption
    if forcing is not None:
        centers = cell_centers(spec)
        if forcing.u is not None:
            u_new += forcing.u(centers, state.t)
        if forcing.v is not None:
            v_new += forcing.v(centers, state.t)

    # the right-hand sides become the updated fields in place
    rhs *= dt
    u_new += u
    v_new += v

    clipped = state.clipped_mass
    if not rhs.min() >= 0.0:  # a NaN also leaves the two checks below to decide
        if u_new.min() < 0.0:
            clipped += float(-u_new[u_new < 0.0].sum()) * spec.cell_volume
            np.maximum(u_new, 0.0, out=u_new)
        if v_new.min() < 0.0:
            np.maximum(v_new, 0.0, out=v_new)

    t_new = state.t + dt
    w_source = _repellent_source(u_new, t_new, params, forcing, spec)
    # g(u) is inf or NaN wherever u is, so a finite source also certifies u
    if not (np.isfinite(v_new).all() and np.isfinite(w_source).all()):
        raise NumericalBreakdownError(
            f"non-finite u, v or repellent source g(u) at t = {t_new:.6g}", dt
        )
    w_new = elliptic.solve_w_values(w_source, spacing, params.delta)

    return SimState(
        u=ScalarField._wrap(spec, u_new),
        v=ScalarField._wrap(spec, v_new),
        w=ScalarField._wrap(spec, w_new),
        t=t_new,
        step=state.step + 1,
        clipped_mass=clipped,
    )


def initial_state(config: RunConfig, forcing: Forcing | None = None) -> SimState:
    """Build the t = 0 state, solving the repellent equation for the initial u."""
    source = _repellent_source(config.u0.values, 0.0, config.params, forcing, config.grid)
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
    value) or BREAKDOWN (non-finite values or step underflow; the last record
    then carries the step size that failed as its ``dt_current``).
    ``callback(state, record)`` fires at every emitted record.
    """
    config.validate()
    params = config.params
    t_end = config.t_end
    eps = 1e-12 * max(1.0, t_end)

    records: list[diagnostics.DiagRecord] = []

    def emit(state, dt_current):
        w_source = _repellent_source(state.u.values, state.t, params, forcing, config.grid)
        rec = diagnostics.record(state, config, dt_current=dt_current, w_source=w_source)
        records.append(rec)
        if callback is not None:
            callback(state, rec)

    state = initial_state(config, forcing)
    blow_threshold = config.blowup_factor * float(np.max(config.u0.values))
    k_out = 1
    next_out = min(k_out * config.output_interval, t_end)
    termination = COMPLETED
    try:
        dt = stable_dt(state, params, config.dt_safety)
        emit(state, dt)
        while t_end - state.t > eps:
            if state.step > 0:  # the first step takes the bound computed above
                dt = stable_dt(state, params, config.dt_safety)
            lands = state.t + dt >= next_out - eps
            if lands:
                dt = next_out - state.t
            state = step(state, params, dt, positivity_mode=config.positivity_mode, forcing=forcing)
            if float(state.u.values.max()) > blow_threshold:
                termination = BLOWUP_FLAGGED
                emit(state, dt)
                break
            if lands:
                emit(state, dt)
                k_out += 1
                next_out = min(k_out * config.output_interval, t_end)
    except NumericalBreakdownError as exc:
        termination = BREAKDOWN
        emit(state, exc.dt)
    return records, state, termination
