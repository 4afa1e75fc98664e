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

Each step forms every quantity once, in a private per-grid workspace that
holds the grid, its cell centres, scratch buffers and one zero-walled face
array per axis, but no solver: each solve takes it from ``elliptic``'s cache, the one
store. Only :func:`run` keeps a workspace from step to step: it attaches one
to its initial state and to the two state shells its chain alternates, and
hands out only states on fresh copies of u, v and w. There every step
follows a :func:`stable_dt` of the same state and params, which leaves the
face differences of the drift potential chi*v - xi*w in the workspace for
the step to reuse. Any other call of :func:`stable_dt` or :func:`step` makes
a workspace for itself alone and attaches nothing: it leaves its argument as
it was, and the state a step returns is a plain value on new arrays, so
such states may be stepped in any order. The step writes u and v as the two
rows of one (2, cells) array, so the next step of the chain takes both
fields' face differences in one call; one pass per axis then builds the u
face flux and the face difference of v, in the arithmetic order of the
``np.diff`` oracle in ``tests/flux_oracle.py`` and of ``laplacian_values``.
A multiply by a chi, xi, K or gamma of 1.0 is skipped (x*1.0 == x). The
per-step calls reduce with ``np.maximum.reduce``/``np.minimum.reduce``, as
``ndarray.max`` and ``min`` add a Python frame, and pass ``out``
positionally.

Arguments are checked at the boundary: ``f_of``, ``g_of`` and
``elliptic.solve_w_values`` check theirs, :class:`RunConfig` checks a run's,
and the step calls their unchecked kernels, since its u is nonnegative by
construction. After the clip every u and v entry is >= 0 or NaN, so a finite
maximum per row certifies both fields; g(u) = gamma*u is then finite exactly
when gamma*sup u is, and any other source by the maximum of its magnitude.
The new state carries sup u privately for :func:`run`'s blow-up test.

The step size obeys both the diffusive limit and an advective CFL limit on
the drift potential; a non-finite drift ends the run there. In either mode,
negative u or v cells are clipped to zero; the clipped u-mass is accumulated
(as an absolute magnitude) so that mass conservation remains auditable: away
from clipping the flux form conserves the discrete integral of u to round-off.

Growth of sup(u) beyond blowup_factor times its initial value stops the run
with a flag. The flag marks a numerically unresolved aggregation, not a
statement that the solution blows up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import diagnostics, elliptic
# div_u_grad_values, laplacian_values and f_of are unused here: perfbench traces these bindings,
# and they stay only until the benchmark traces the step's kernels (ROADMAP item 1 (a))
from .grid import (  # noqa: F401
    GridSpec,
    ScalarField,
    axis_operators,
    cell_centers,
    div_u_grad_values,
    laplacian_values,
)
from .kinetics import ModelParams, _f, _g, _scaled, f_of, g_of  # noqa: F401

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


@dataclass(slots=True)
class SimState:
    """Snapshot of the evolving triplet (u, v, w) at time t.

    ``clipped_mass`` is the cumulative magnitude of u-mass adjusted by
    positivity clipping; it stays zero on well-resolved runs. ``_workspace``
    is the explicit scheme's per-grid state, set only on the states of
    :func:`run`'s own chain and None on every state it hands out, and
    ``_sup_u`` is sup u of a state a step made; neither is compared or
    printed.
    """

    u: ScalarField
    v: ScalarField
    w: ScalarField
    t: float
    step: int
    clipped_mass: float = 0.0
    _workspace: _Workspace | None = field(default=None, init=False, compare=False, repr=False)
    _sup_u: float | None = field(default=None, init=False, compare=False, repr=False)


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


class _Axis:
    """One axis of a :class:`_Workspace`: its slices and scratch, every view resolved once.

    Its face array, shape (2, faces) with zero walls, holds the u and v face
    fluxes; ``interior``, ``u_interior``, ``wrap``, ``faces_hi`` and
    ``faces_lo`` are views of it, and ``phi_hi``/``phi_lo`` views of the
    workspace's drift potential. ``dphi`` holds the drift's face differences
    and ``taxis`` is scratch of the same size.
    """

    __slots__ = ("lo", "hi", "h", "inv_h2", "phi_hi", "phi_lo", "dphi", "dphi_seams", "taxis",
                 "interior", "u_interior", "wrap", "faces_hi", "faces_lo", "div")

    def __init__(self, ax, h: float, phi: np.ndarray, size: int):
        self.lo, self.hi, self.h, self.inv_h2 = ax.lo, ax.hi, h, 1.0 / (h * h)
        self.phi_hi, self.phi_lo = phi[ax.hi], phi[ax.lo]
        self.dphi = np.empty(self.phi_hi.size)
        self.dphi_seams = None if ax.seams is None else self.dphi[ax.seams]
        self.taxis = np.empty(self.phi_hi.size)
        faces = np.zeros((2, ax.n_faces))
        self.interior = faces[:, ax.interior]
        self.u_interior = faces[0, ax.interior]
        self.wrap = None if ax.wrap is None else faces[:, ax.wrap]
        self.faces_hi, self.faces_lo = faces[:, ax.hi], faces[:, ax.lo]
        self.div = np.empty((2, size)) if ax.axis > 0 else None


class _Pair:
    """u and v as the rows of one (2, cells) array, and per axis in ``sides`` the views
    of the cells above and below each interior face, both rows and the u row.

    The pair also owns ``state``, one :class:`SimState` shell whose u and v wrap its
    rows: each step that writes the pair refreshes the shell's w, t, step, clipped
    mass and sup u in place and returns it. Only :func:`run`'s workspace writes a
    pair twice; a workspace made for one step writes its pair once, so that shell is new.
    """

    __slots__ = ("flat", "u", "v", "sides", "state")

    def __init__(self, ws: _Workspace):
        self.flat = np.empty((2, ws.size))
        self.u, self.v = self.flat.reshape(ws.pair_shape)
        self.sides = tuple((hi, lo, hi[0], lo[0]) for hi, lo in
                           ((self.flat[:, axis.hi], self.flat[:, axis.lo]) for axis in ws.axes))
        spec = ws.spec
        self.state = SimState(ScalarField._wrap(spec, self.u), ScalarField._wrap(spec, self.v),
                              ScalarField._wrap(spec, None), 0.0, 0)


class _Workspace:
    """The explicit scheme's per-grid state: for :func:`run`'s chain, or for one call.

    It keeps the grid, its cell centres, scratch buffers and the per-axis face
    arrays, and no solver. Its drift, the face differences of chi*v - xi*w, is
    the one :meth:`drift` last formed. It steps in two :class:`_Pair` buffers
    by turns: a step reads the pair the last step wrote, or copies u and v into
    the spare, and writes the other. So :func:`run`'s workspace hands out each
    pair's state shell again and again, refreshed in place, while one made for
    a single :func:`stable_dt` or :func:`step` is dropped with its spare pair.
    It writes only its own buffers; it is not for use by two threads at once.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.size = spec.total_cells
        self.pair_shape = (2, *spec.shape)
        self.centers = cell_centers(spec)
        self.scratch = np.empty(spec.shape)
        self.magnitude = np.empty(spec.shape)
        self.phi = np.empty(spec.shape)
        phi = self.phi.reshape(-1)
        self.axes = tuple(_Axis(ax, h, phi, self.size)
                          for ax, h in zip(axis_operators(spec.shape), spec.spacing))
        self.last = (_Pair(self), _Pair(self))  # the stacks the last step read and wrote

    def drift(self, v: np.ndarray, w: np.ndarray, params: ModelParams) -> tuple[_Axis, ...]:
        """The axes, with ``dphi`` holding the face differences of chi*v - xi*w."""
        np.subtract(_scaled(v, params.chi, self.scratch), _scaled(w, params.xi, self.phi), self.phi)
        for axis in self.axes:
            np.subtract(axis.phi_hi, axis.phi_lo, axis.dphi)
            if axis.dphi_seams is not None:
                axis.dphi_seams.fill(0.0)
        return self.axes

    def pairs(self, u: np.ndarray, v: np.ndarray) -> tuple[_Pair, _Pair]:
        """The stack whose rows are u and v, and the stack a step from them writes."""
        held, out = self.last
        if u is out.u and v is out.v:  # the state the last step made: its stack is at hand
            held, out = out, held
        else:  # a copy of u and v, into the spare stack
            held.u[...] = u
            held.v[...] = v
        self.last = held, out
        return held, out


def stable_dt(state: SimState, params: ModelParams, dt_safety: float = 0.4) -> float:
    """Largest safe explicit step: diffusive limit and drift CFL, scaled by dt_safety.

    The diffusive bound is 1/(2*sum(1/h_i^2)), i.e. h^2/(2*dim) on uniform
    spacing; the advective bound is h/max|face gradient of chi*v - xi*w| per
    axis (infinite when the drift is flat). In :func:`run`'s chain the drift's
    face differences stay in the workspace for the :func:`step` that follows;
    outside it the workspace is made for this call and the state is left as it was.

    A non-finite face difference of chi*v - xi*w raises :class:`NumericalBreakdownError`
    whose ``dt`` is the diffusive step dt_safety * diffusive bound; a step below
    ``DT_UNDERFLOW`` raises it with that step.
    """
    ws = state._workspace or _Workspace(state.u.spec)
    adv_bound = np.inf
    for axis in ws.drift(state.v.values, state.w.values, params):
        jump = float(np.maximum.reduce(np.absolute(axis.dphi, axis.taxis)))
        if not math.isfinite(jump):
            raise NumericalBreakdownError(
                f"non-finite face difference of the drift potential chi*v - xi*w at t = {state.t:.6g}",
                dt_safety * ws.spec.diffusive_bound,
            )
        peak = jump / axis.h
        if peak > 0.0:
            adv_bound = min(adv_bound, axis.h / peak)
    dt = dt_safety * min(ws.spec.diffusive_bound, adv_bound)
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
    u = state.u.values
    v = state.v.values
    ws = state._workspace
    if ws is None:  # outside run(): a workspace for this step; in run(), stable_dt left the drift
        ws = _Workspace(state.u.spec)
        ws.drift(v, state.w.values, params)
    held, out = ws.pairs(u, v)

    # per axis, the face flux grad(u) - u_face grad(phi) in row 0 and grad(v) in row 1,
    # then their divergence, summed over the axes into the one new (2, cells) array
    new = out.flat
    for axis, (hi, lo, hi_u, lo_u) in zip(ws.axes, held.sides):
        np.subtract(hi, lo, axis.interior)
        if positivity_mode == "clip":
            taxis = np.add(lo_u, hi_u, axis.taxis)
            taxis *= 0.5
        else:
            taxis = np.where(axis.dphi >= 0.0, lo_u, hi_u)
        taxis *= axis.dphi
        axis.u_interior -= taxis
        if axis.wrap is not None:
            axis.wrap.fill(0.0)
        div = new if axis.div is None else axis.div
        np.subtract(axis.faces_hi, axis.faces_lo, div)
        div *= axis.inv_h2
        if div is not new:
            new += div

    u_new, v_new = out.u, out.v
    consumption = _f(u, params)  # u >= 0: every state a step makes is clipped
    consumption *= v
    v_new -= consumption
    if forcing is not None:
        if forcing.u is not None:
            u_new += forcing.u(ws.centers, state.t)
        if forcing.v is not None:
            v_new += forcing.v(ws.centers, state.t)

    # the right-hand sides become the updated fields in place
    new *= dt
    new += held.flat

    clipped = state.clipped_mass
    if not np.minimum.reduce(new, None) >= 0.0:  # a NaN also leaves the certificate below to decide
        if u_new.min() < 0.0:
            clipped += float(-u_new[u_new < 0.0].sum()) * ws.spec.cell_volume
            np.maximum(u_new, 0.0, out=u_new)
        if v_new.min() < 0.0:
            np.maximum(v_new, 0.0, out=v_new)

    # each row is now >= 0 or holds a NaN, so a finite row maximum certifies every entry
    sup_u, sup_v = np.maximum.reduce(new, 1).tolist()
    t_new = state.t + dt
    forced = forcing is not None and forcing.w_source is not None
    if params.l == 1.0 and not forced:
        # gamma*u >= 0 is finite everywhere exactly when gamma*sup u is, x -> gamma*x being monotone
        w_source, source_peak = None, params.gamma * sup_u
    else:
        w_source = _scaled(u_new, params.gamma, ws.scratch) if params.l == 1.0 else _g(u_new, params)
        if forced:
            w_source = np.add(w_source, forcing.w_source(ws.centers, t_new), ws.scratch)
        source_peak = float(np.maximum.reduce(np.absolute(w_source, ws.magnitude), None))
    if not (math.isfinite(sup_u) and math.isfinite(sup_v) and math.isfinite(source_peak)):
        raise NumericalBreakdownError(
            f"non-finite u, v or repellent source g(u) at t = {t_new:.6g}", dt
        )
    if w_source is None:
        w_source = _scaled(u_new, params.gamma, ws.scratch)
    w_new = elliptic._screened_solve(w_source, ws.spec.spacing, params.delta, source_peak)

    child = out.state  # the pair's shell, which already wraps u_new and v_new
    child.w.values = w_new
    child.t = t_new
    child.step = state.step + 1
    child.clipped_mass = clipped
    child._sup_u = sup_u
    return child


def _copy(state: SimState) -> SimState:
    """The state on fresh copies of u, v and w, with no workspace: what :func:`run` hands out.
    w is copied too, as the next drift reads it: a caller writing into w must not reach it."""
    return replace(state, u=state.u.copy(), v=state.v.copy(), w=state.w.copy())


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
    ``callback(state, record)`` fires at every emitted record, under the
    caller's numpy error state. The rest of the run, the forcing's callables
    included, ignores numpy's overflow and invalid-value warnings: the step's
    certificate and :func:`stable_dt`'s checks name every non-finite u, v, w
    and drift, and a record whose u^p overflows carries ``lp_u`` and ``y_p``
    as inf.
    """
    config.validate()
    params = config.params
    t_end = config.t_end
    eps = 1e-12 * max(1.0, t_end)
    dt_safety, mode = config.dt_safety, config.positivity_mode
    caller_errors = np.geterr()

    records: list[diagnostics.DiagRecord] = []

    def emit(state, dt_current):
        state = _copy(state)
        w_source = _repellent_source(state.u.values, state.t, params, forcing, config.grid)
        rec = diagnostics.record(state, config, dt_current=dt_current, w_source=w_source)
        records.append(rec)
        if callback is not None:
            with np.errstate(**caller_errors):
                callback(state, rec)

    with np.errstate(over="ignore", invalid="ignore"):
        state = initial_state(config, forcing)
        ws = state._workspace = _Workspace(state.u.spec)
        for pair in ws.last:
            pair.state._workspace = ws
        blow_threshold = config.blowup_factor * float(np.max(config.u0.values))
        k_out = 1
        next_out = min(k_out * config.output_interval, t_end)
        termination = COMPLETED
        try:
            dt = stable_dt(state, params, dt_safety)
            emit(state, dt)
            while t_end - state.t > eps:
                if state.step > 0:  # the first step takes the bound computed above
                    dt = stable_dt(state, params, dt_safety)
                lands = state.t + dt >= next_out - eps
                if lands:
                    dt = next_out - state.t
                state = step(state, params, dt, mode, forcing)
                if state._sup_u > blow_threshold:
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
        finally:  # the pairs' shells refer back to the workspace: drop them, freeing both
            ws.last = ()
    return records, _copy(state), termination
