"""Time-stepping tests: step-size control, conservation, comparison bounds, termination."""

import dataclasses
import gc
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flux_oracle
from arcsim import diagnostics, elliptic, grid, stepper
from arcsim.grid import GridSpec, ScalarField, cell_centers, integrate
from arcsim.kinetics import ModelParams, f_of, g_of
from arcsim.stepper import (
    BLOWUP_FLAGGED,
    BREAKDOWN,
    COMPLETED,
    DT_UNDERFLOW,
    Forcing,
    NumericalBreakdownError,
    RunConfig,
    SimState,
    run,
    stable_dt,
    step,
)


def make_params(**overrides):
    base = dict(chi=1.0, xi=1.0, delta=1.0, K=1.0, gamma=1.0, alpha=0.5, l=1.0, n=1)
    base.update(overrides)
    return ModelParams(**base)


def homogeneous_state(spec, params, a=2.0, b=1.0):
    source = np.full(spec.shape, float(g_of(a, params)))
    w = elliptic.solve_w_values(source, spec.spacing, params.delta)
    return SimState(
        u=ScalarField.full(spec, a),
        v=ScalarField.full(spec, b),
        w=ScalarField(spec, w),
        t=0.0,
        step=0,
    )


def fields_bytes(state):
    return [f.values.tobytes() for f in (state.u, state.v, state.w)]


def shares_memory(a, b):
    """Whether any of u, v and w of state a shares memory with any of state b."""
    return any(np.shares_memory(x.values, y.values) for x in (a.u, a.v, a.w) for y in (b.u, b.v, b.w))


def recording_workspaces(monkeypatch):
    """Have stepper make each workspace as a subclass that records a weak reference to it and
    its two pairs' (2, cells) arrays; returns both lists."""
    made, buffers = [], []

    class Workspace(stepper._Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))
            buffers.extend(pair.flat for pair in self.last)

    monkeypatch.setattr(stepper, "_Workspace", Workspace)
    return made, buffers


def bump_config(n=64, t_end=0.1, **overrides):
    spec = GridSpec.interval(n)
    x = cell_centers(spec)[0]
    params = overrides.pop("params", make_params())
    defaults = dict(
        grid=spec,
        params=params,
        u0=ScalarField(spec, 1.0 + 0.5 * np.cos(np.pi * x)),
        v0=ScalarField(spec, np.full(n, 1.0)),
        t_end=t_end,
        output_interval=t_end / 4.0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestStableDt:
    def test_flat_fields_hit_diffusive_limit(self):
        spec = GridSpec.interval(50)
        params = make_params()
        state = homogeneous_state(spec, params)
        h = spec.spacing[0]
        assert stable_dt(state, params, dt_safety=0.4) == pytest.approx(0.4 * h * h / 2.0)

    def test_2d_diffusive_limit(self):
        spec = GridSpec.rectangle((16, 16))
        params = make_params(n=2)
        state = homogeneous_state(spec, params)
        h = spec.spacing[0]
        assert stable_dt(state, params, dt_safety=1.0) == pytest.approx(h * h / 4.0)

    def test_halving_h_quarters_bound(self):
        params = make_params()
        coarse = stable_dt(homogeneous_state(GridSpec.interval(32), params), params)
        fine = stable_dt(homogeneous_state(GridSpec.interval(64), params), params)
        assert fine == pytest.approx(coarse / 4.0)

    def test_stronger_attraction_weakly_decreases_dt(self):
        spec = GridSpec.interval(64)
        x = cell_centers(spec)[0]
        state = SimState(
            u=ScalarField.full(spec, 1.0),
            v=ScalarField(spec, 1.0 + 0.5 * np.sin(np.pi * x)),
            w=ScalarField.full(spec, 0.0),
            t=0.0,
            step=0,
        )
        dts = [stable_dt(state, make_params(chi=c, xi=1e-12)) for c in (1.0, 2.0, 200.0, 400.0)]
        assert all(b <= a for a, b in zip(dts, dts[1:]))
        assert dts[-1] < dts[0]

    def test_underflow_raises(self):
        spec = GridSpec.interval(16)
        x = cell_centers(spec)[0]
        state = SimState(
            u=ScalarField.full(spec, 1.0),
            v=ScalarField(spec, x),
            w=ScalarField.full(spec, 0.0),
            t=0.0,
            step=0,
        )
        with pytest.raises(NumericalBreakdownError):
            stable_dt(state, make_params(chi=1e30))

    def test_row_ends_are_not_neighbours(self):
        # along the last axis of a 2D grid, the last cell of a row and the first of the
        # next share no face: v's rows are flat, so the axis-0 differences alone bound dt
        spec = GridSpec.rectangle((3, 4), (3.0, 1.0))
        state = SimState(
            u=ScalarField.full(spec, 1.0),
            v=ScalarField(spec, np.repeat([[0.0], [10.0], [20.0]], 4, axis=1)),
            w=ScalarField.full(spec, 0.0),
            t=0.0,
            step=0,
        )
        h = spec.spacing[0]
        advective = h / (100.0 / h)  # chi = 10 times each axis-0 difference of 10
        assert advective < spec.diffusive_bound
        assert stable_dt(state, make_params(chi=10.0, n=2), 0.4) == 0.4 * advective

    @pytest.mark.parametrize("spec", [GridSpec.interval(16), GridSpec.rectangle((6, 5))])
    @pytest.mark.parametrize("case", ["nan in w", "inf in w", "a difference overflows"])
    def test_nonfinite_drift_is_named(self, spec, case):
        # no step size is formed from a drift whose face differences are not all finite;
        # the error carries the diffusive step
        w = np.zeros(spec.shape)
        if case == "nan in w":
            w.flat[-1] = np.nan
        elif case == "inf in w":
            w.flat[-1] = np.inf
        else:  # chi*v - xi*w is finite, the difference of its last two cells is not
            w.flat[-2:] = (1.5e308, -1.5e308)
        state = SimState(ScalarField.full(spec, 1.0), ScalarField.full(spec, 1.0),
                         ScalarField(spec, w), 0.5, 3)
        message = r"^non-finite face difference of the drift potential chi\*v - xi\*w at t = 0\.5$"
        with np.errstate(over="ignore"), pytest.raises(NumericalBreakdownError, match=message) as info:
            stable_dt(state, make_params(n=spec.dim), 0.4)
        assert info.value.dt == 0.4 * spec.diffusive_bound


class TestStep:
    def test_homogeneous_fixed_point_for_u(self):
        spec = GridSpec.interval(32)
        params = make_params(chi=0.8, xi=0.7)
        state = homogeneous_state(spec, params, a=2.0, b=1.0)
        dt = stable_dt(state, params)
        for _ in range(50):
            state = step(state, params, dt)
        assert np.all(state.u.values == 2.0)
        assert np.all(state.w.values == state.w.values.flat[0])

    def test_unknown_positivity_mode_rejected(self):
        spec = GridSpec.interval(8)
        params = make_params()
        state = homogeneous_state(spec, params)
        message = r"^positivity_mode must be one of \('clip', 'upwind'\)$"
        with pytest.raises(ValueError, match=message):
            step(state, params, 1e-3, positivity_mode="bogus")

    def test_repellent_near_the_double_range_is_solved(self):
        # a finite source near 1e307 is solved scaled by a power of two, so the step's w is
        # finite and solved; the next step's u then overflows and its certificate names it
        spec = GridSpec.interval(32)
        x = cell_centers(spec)[0]
        params = make_params(gamma=10.0, xi=1e-300)
        config = RunConfig(spec, params, ScalarField.full(spec, 1e306),
                           ScalarField(spec, 1.0 + 0.5 * np.cos(np.pi * x)), t_end=0.01)
        state = stepper.initial_state(config)
        dt = stable_dt(state, params)
        assert dt == 0.4 * spec.diffusive_bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = step(state, params, dt)
        w = state.w.values
        assert np.isfinite(w).all() and w.max() > 1e307
        assert elliptic.relative_residual(w, 10.0 * state.u.values, spec.spacing, 1.0) <= 1e-12
        next_dt = stable_dt(state, params)
        message = r"^non-finite u, v or repellent source g\(u\) at t = 0\.000199802$"
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalBreakdownError, match=message) as info:
                step(state, params, next_dt)
            records, final, termination = run(config)
        assert info.value.dt == next_dt
        # the run ends on the solved state, recording the step that overflowed
        assert termination == BREAKDOWN and final.step == 1
        assert np.array_equal(final.w.values, w)
        assert (records[-1].t, records[-1].dt_current) == (dt, next_dt)
        assert records[-1].sup_w == w.max() and records[-1].w_residual <= 1e-12

    def test_homogeneous_v_follows_euler_ode(self):
        spec = GridSpec.interval(16)
        params = make_params()
        state = homogeneous_state(spec, params, a=2.0, b=1.0)
        rate = float(f_of(2.0, params))
        dt = 1e-3
        for k in range(10):
            state = step(state, params, dt)
        expected = (1.0 - dt * rate) ** 10
        assert state.v.values.flat[0] == pytest.approx(expected, rel=1e-13)

    def test_v_monotone_under_consumption(self):
        spec = GridSpec.interval(24)
        params = make_params()
        x = cell_centers(spec)[0]
        state = SimState(
            u=ScalarField(spec, 1.0 + x),
            v=ScalarField.full(spec, 2.0),
            w=ScalarField.full(spec, 0.0),
            t=0.0,
            step=0,
        )
        new = step(state, params, stable_dt(state, params))
        assert np.all(new.v.values <= 2.0)
        assert np.all(new.v.values < 2.0)  # f(u) > 0 everywhere here

    def test_clipping_accounting_is_exact(self):
        # an oversized step drives u negative; the audit must account for
        # exactly the mass the clip added
        spec = GridSpec.interval(32)
        params = make_params(chi=4.0)
        x = cell_centers(spec)[0]
        state = SimState(
            u=ScalarField(spec, 0.01 + 0.99 * (x < 0.5)),
            v=ScalarField(spec, np.exp(-20.0 * (x - 0.5) ** 2)),
            w=ScalarField.full(spec, 0.0),
            t=0.0,
            step=0,
        )
        mass0 = integrate(state.u)
        big_dt = 50.0 * stable_dt(state, params)
        new = step(state, params, big_dt)
        assert new.clipped_mass > 0.0
        assert integrate(new.u) - mass0 == pytest.approx(new.clipped_mass, rel=1e-10)

    def test_nonfinite_update_raises(self):
        spec = GridSpec.interval(16)
        params = make_params()
        x = cell_centers(spec)[0]
        state = SimState(
            u=ScalarField(spec, 1.0 + x),
            v=ScalarField(spec, 1.0 + x * x),
            w=ScalarField.full(spec, 0.0),
            t=0.0,
            step=0,
        )
        with np.errstate(over="ignore"), pytest.raises(NumericalBreakdownError):
            step(state, params, 1e308)  # overflows the boundary cells to inf

    def test_nonfinite_v_with_negative_u_is_a_breakdown(self):
        # an oversized step drives u negative while the forcing puts a NaN in v alone:
        # u is clipped as usual, and the NaN ends the step as a breakdown
        spec = GridSpec.interval(32)
        params = make_params(chi=4.0)
        x = cell_centers(spec)[0]
        state = SimState(
            u=ScalarField(spec, 0.01 + 0.99 * (x < 0.5)),
            v=ScalarField(spec, np.exp(-20.0 * (x - 0.5) ** 2)),
            w=ScalarField.full(spec, 0.0),
            t=0.0,
            step=0,
        )
        nan_in_v = Forcing(v=lambda c, t: np.where(c[0] > 0.9, np.nan, 0.0))
        with pytest.raises(NumericalBreakdownError, match="non-finite"):
            step(state, params, 50.0 * stable_dt(state, params), forcing=nan_in_v)

    @pytest.mark.parametrize("spec", [GridSpec.interval(8), GridSpec.rectangle((6, 5))])
    def test_nonfinite_repellent_source_raises(self, spec):
        # u itself is finite, but g(u) = u*(u+1) overflows: the solve must not see it
        params = make_params(l=2.0)
        state = SimState(
            u=ScalarField.full(spec, 1e160),
            v=ScalarField.full(spec, 1.0),
            w=ScalarField.full(spec, 0.0),
            t=0.0,
            step=0,
        )
        with np.errstate(over="ignore"), pytest.raises(NumericalBreakdownError, match="repellent"):
            step(state, params, 1e-6)

    @pytest.mark.parametrize(
        "specs",
        [
            (GridSpec.interval(24, 1.0), GridSpec.interval(24, 2.0)),
            (GridSpec.rectangle((10, 8)), GridSpec.rectangle((10, 8), (1.0, 3.0))),
        ],
    )
    def test_cached_operators_are_per_grid_and_delta(self, specs):
        # equal shapes, different spacings and deltas: interleaved steps, a chain whose
        # delta changes and changes back, and a chain whose solver cache is emptied between
        # its steps must each give bitwise the states of one-delta chains never cleared
        cases = [(spec, make_params(delta=delta)) for spec in specs for delta in (1.0, 2.5)]

        def start(spec, params):
            centers = cell_centers(spec)
            u0 = ScalarField(spec, 1.0 + 0.25 * sum(np.cos(np.pi * x) for x in centers))
            v0 = ScalarField(spec, 1.0 + 0.3 * sum(centers))
            return stepper.initial_state(RunConfig(spec, params, u0, v0, t_end=1.0))

        def clear_caches():
            grid.axis_operators.cache_clear()
            elliptic._solver.cache_clear()

        def chain(state, params, steps, between=lambda: None):
            states = []
            for _ in range(steps):
                between()
                state = step(state, params, 1e-4)
                states.append(state)
            return states

        def assert_same(states, expected):
            assert len(states) == len(expected)
            for a, b in zip(states, expected):
                for name in ("u", "v", "w"):
                    assert np.array_equal(getattr(a, name).values, getattr(b, name).values)

        alone = []
        for spec, params in cases:
            clear_caches()
            alone.append(chain(start(spec, params), params, 5))

        clear_caches()
        states = [start(spec, params) for spec, params in cases]
        for _ in range(5):
            states = [step(s, params, 1e-4) for s, (_, params) in zip(states, cases)]
        assert_same(states, [expected[-1] for expected in alone])

        for (spec, params), expected in zip(cases, alone):
            assert_same(chain(start(spec, params), params, 5, elliptic._solver.cache_clear), expected)

        # delta 1.0 for two steps, 2.5 for two, then 1.0 again: each stretch must be the
        # one-delta chain from a copy of its first state, and no step outside run() writes
        # into an array that an earlier state exposes
        for spec in specs:
            state = start(spec, make_params(delta=1.0))
            made = []
            for delta, steps in ((1.0, 2), (2.5, 2), (1.0, 1)):
                params = make_params(delta=delta)
                expected = chain(dataclasses.replace(state), params, steps)
                states = chain(state, params, steps)
                assert_same(states, expected)
                made += [(s, fields_bytes(s)) for s in (state, *states, *expected)]
                state = states[-1]
            assert all(fields_bytes(s) == saved for s, saved in made)


def reference_stable_dt(state, params, dt_safety):
    """The step bound formed from its own drift, as before the drift was shared with the step."""
    spacing = state.u.spec.spacing
    drift = params.chi * state.v.values - params.xi * state.w.values
    adv_bound = np.inf
    for axis, h in enumerate(spacing):
        peak = float(np.max(np.abs(np.diff(drift, axis=axis)))) / h
        if peak > 0.0:
            adv_bound = min(adv_bound, h / peak)
    return dt_safety * min(0.5 / sum(1.0 / (h * h) for h in spacing), adv_bound)


def reference_step(state, params, dt, positivity_mode, forcing):
    """One explicit step composed of the oracle's drift-diffusion flux and Laplacian and the kinetics."""
    spec = state.u.spec
    u, v = state.u.values, state.v.values
    drift = params.chi * v - params.xi * state.w.values
    scheme = "upwind" if positivity_mode == "upwind" else "central"
    u_new = flux_oracle.drift_diffusion(u, drift, spec.spacing, scheme)
    v_new = flux_oracle.laplacian(v, spec.spacing)
    v_new -= params.K * u**params.alpha * v  # the rate laws multiply by K and gamma even at 1.0
    if forcing is not None:
        u_new += forcing.u(cell_centers(spec), state.t)
        v_new += forcing.v(cell_centers(spec), state.t)
    u_new = u_new * dt + u
    v_new = v_new * dt + v
    clipped = state.clipped_mass
    if u_new.min() < 0.0:
        clipped += float(-u_new[u_new < 0.0].sum()) * spec.cell_volume
        u_new = np.maximum(u_new, 0.0)
    v_new = np.maximum(v_new, 0.0)
    t_new = state.t + dt
    source = params.gamma * u_new * (u_new + 1.0) ** (params.l - 1.0)
    if forcing is not None:
        source = source + forcing.w_source(cell_centers(spec), t_new)
    w_new = elliptic.solve_w_values(source, spec.spacing, params.delta)
    return u_new, v_new, w_new, t_new, clipped


# a forcing with every term nonzero and varying in time, on either dimension
WAVY = Forcing(
    u=lambda c, t: 0.3 * np.cos(3.0 * c[0] + t),
    v=lambda c, t: 0.2 * np.sin(2.0 * c[-1] - t),
    w_source=lambda c, t: 0.5 + 0.25 * np.cos(c[0] * c[-1] + t),
)


# a coefficient the step skips multiplying by when it is exactly 1.0
coefficient = st.one_of(st.just(1.0), st.floats(0.01, 20.0))


class TestStepAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        n_cells=st.lists(st.integers(3, 30), min_size=1, max_size=2),
        lengths=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
        coefficients=st.tuples(coefficient, coefficient),  # chi, xi
        other=st.tuples(st.floats(0.01, 20.0), st.floats(0.01, 20.0)),
        kinetics=st.tuples(
            st.floats(0.01, 1.0),  # alpha in (0, 1]
            st.one_of(st.just(1.0), st.floats(1.0, 3.0, exclude_min=True)),  # l
            st.floats(0.01, 20.0),  # delta
            coefficient,  # K
            coefficient,  # gamma
        ),
        mode=st.sampled_from(["clip", "upwind"]),
        forced=st.booleans(),
        path=st.sampled_from(["bound first", "no bound", "stale coefficients", "replaced v",
                              "siblings", "delta changed", "parent after child"]),
        stretch=st.floats(0.25, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_the_composed_step(
        self, n_cells, lengths, coefficients, other, kinetics, mode, forced, path, stretch, seed
    ):
        # the step that reuses its workspace (drift, stacked fields, solver, buffers) against
        # the step composed from the operators, on every state of a path that shares one
        # workspace; stretch > 1 oversizes dt, so u and v clip
        spec = GridSpec(len(n_cells), tuple(n_cells), lengths[: len(n_cells)])
        alpha, l, delta, K, gamma = kinetics
        params = make_params(chi=coefficients[0], xi=coefficients[1], delta=delta, K=K,
                             gamma=gamma, alpha=alpha, l=l, n=spec.dim)
        rng = np.random.default_rng(seed)
        state = SimState(
            u=ScalarField(spec, 3.0 * rng.random(spec.shape)),
            v=ScalarField(spec, 2.0 * rng.random(spec.shape)),
            w=ScalarField(spec, rng.random(spec.shape)),
            t=float(rng.random()),
            step=3,
            clipped_mass=0.25,
        )
        forcing = WAVY if forced else None
        made = []  # every state made, with the bytes it had then

        def checked_step(state, params, scale=1.0, bound_first=True):
            dt = reference_stable_dt(state, params, 0.4)
            if bound_first:
                assert stable_dt(state, params, 0.4) == dt
            dt *= stretch * scale
            expected = reference_step(state, params, dt, mode, forcing)
            new = step(state, params, dt, positivity_mode=mode, forcing=forcing)
            for got, want in zip((new.u.values, new.v.values, new.w.values), expected):
                assert got.shape == spec.shape
                assert got.tobytes() == want.tobytes()
            assert (new.t, new.clipped_mass, new.step) == (*expected[3:], state.step + 1)
            made.append((new, [f.values.tobytes() for f in (new.u, new.v, new.w)]))
            return new

        if path == "bound first":
            checked_step(state, params)
        elif path == "no bound":
            checked_step(state, params, bound_first=False)
        elif path == "stale coefficients":
            stale = make_params(chi=other[0], xi=other[1], n=spec.dim)
            assert stable_dt(state, stale, 0.4) == reference_stable_dt(state, stale, 0.4)
            checked_step(state, params, bound_first=False)
        elif path == "replaced v":
            assert stable_dt(state, params, 0.4) == reference_stable_dt(state, params, 0.4)
            state.v = ScalarField(spec, 2.0 * rng.random(spec.shape))
            checked_step(state, params, bound_first=False)
        elif path == "siblings":  # two children of one parent, stepped alternately
            first, second = checked_step(state, params), checked_step(state, params, scale=0.5)
            for _ in range(2):
                first, second = checked_step(first, params), checked_step(second, params)
        elif path == "delta changed":
            changed = dataclasses.replace(params, delta=other[0])
            checked_step(checked_step(checked_step(state, params), changed), params)
        else:  # the parent stepped again after its child, then the child
            child = checked_step(state, params)
            checked_step(state, params, scale=0.5)
            checked_step(child, params, bound_first=False)

        # no step wrote into an array that an earlier state exposes
        for made_state, saved in made:
            assert [f.values.tobytes() for f in (made_state.u, made_state.v, made_state.w)] == saved

    def test_cached_drift_is_neither_compared_nor_printed(self):
        # outside run(), stable_dt and step hold the drift in a workspace of their own:
        # a state is its six fields alone, and neither call changes the state it reads
        assert [f.name for f in dataclasses.fields(SimState)] == [
            "u", "v", "w", "t", "step", "clipped_mass"]
        spec = GridSpec.interval(8)
        params = make_params()
        fresh = homogeneous_state(spec, params)
        bounded = homogeneous_state(spec, params)
        stable_dt(bounded, params)
        assert repr(bounded) == repr(fresh) and fields_bytes(bounded) == fields_bytes(fresh)
        child = step(bounded, params, 1e-4)
        assert repr(bounded) == repr(fresh) and fields_bytes(bounded) == fields_bytes(fresh)
        assert child.step == 1 and not shares_memory(child, bounded)

    @pytest.mark.parametrize("mode", ["clip", "upwind"])
    @pytest.mark.parametrize("spec", [GridSpec.interval(20), GridSpec.rectangle((9, 7))])
    def test_lone_calls_leave_their_argument_alone(self, spec, mode):
        # rough data and an oversized dt, so the step clips; the argument's arrays stay
        # bitwise as they were, and the step's result is on arrays of its own
        params = make_params(chi=4.0, n=spec.dim)
        rng = np.random.default_rng(7)
        state = SimState(*(ScalarField(spec, rng.random(spec.shape)) for _ in range(3)), 0.5, 2)
        saved = fields_bytes(state)
        dt = stable_dt(state, params)
        assert fields_bytes(state) == saved
        child = step(state, params, 3.0 * dt, mode, WAVY)
        assert fields_bytes(state) == saved and (state.t, state.step) == (0.5, 2)
        assert child.clipped_mass > 0.0 and not shares_memory(child, state)

    def test_a_pickled_state_steps_alike(self):
        spec = GridSpec.rectangle((6, 5))
        params = make_params(n=2)
        x, y = cell_centers(spec)
        state = SimState(ScalarField(spec, 1.0 + x * y), ScalarField(spec, 1.0 + x),
                         ScalarField(spec, y), 0.0, 0)
        state = step(state, params, stable_dt(state, params))
        copy = pickle.loads(pickle.dumps(state))
        a, b = step(state, params, 1e-3), step(copy, params, 1e-3)
        for name in ("u", "v", "w"):
            assert getattr(a, name).values.tobytes() == getattr(b, name).values.tobytes()

    def test_finite_entries_whose_sum_overflows_step_on(self):
        # every g(u) is finite but their sum is not: the step certifies entries, prints nothing
        spec = GridSpec.interval(32)
        params = make_params(gamma=10.0)
        state = SimState(ScalarField.full(spec, 1e306), ScalarField.full(spec, 1.0),
                         ScalarField.full(spec, 0.0), 0.0, 0)
        with np.errstate(over="ignore"):
            assert not np.isfinite(g_of(state.u.values, params).sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = step(state, params, 1e-6)
        assert np.all(new.u.values == 1e306)
        assert np.all(new.w.values == 1e307)

    @pytest.mark.parametrize("spec", [GridSpec.interval(16), GridSpec.rectangle((6, 5))])
    @pytest.mark.parametrize("case", ["nan in v", "inf in u", "gamma sup u overflows",
                                      "source of -inf", "g(u) overflows at l = 1.5"])
    def test_named_breakdown_without_a_warning(self, spec, case):
        # each non-finite entry ends the step by name, before the solve; only where g(u)
        # itself overflows does numpy see an overflow, and that one is silenced here
        def one_cell(c, value):
            return np.where(c[0] == c[0].flat[-1], value, 0.0)

        params, u, forcing = make_params(), 1.0, None
        if case == "nan in v":
            forcing = Forcing(v=lambda c, t: one_cell(c, np.nan))
        elif case == "inf in u":
            forcing = Forcing(u=lambda c, t: one_cell(c, np.inf))
        elif case == "gamma sup u overflows":
            params, u = make_params(gamma=1e300), 1e10
        elif case == "source of -inf":
            forcing = Forcing(w_source=lambda c, t: one_cell(c, -np.inf))
        else:
            params, u = make_params(l=1.5), 1e250
        state = SimState(ScalarField.full(spec, u), ScalarField.full(spec, 1.0),
                         ScalarField.full(spec, 0.0), 0.0, 0)
        overflow = "ignore" if case.startswith("g(u)") else "warn"
        message = r"^non-finite u, v or repellent source g\(u\) at t = 1e-06$"
        with warnings.catch_warnings(), np.errstate(over=overflow):
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdownError, match=message):
                step(state, params, 1e-6, forcing=forcing)


def plain_loop(config, forcing=None):
    """run() as a plain loop of initial_state, stable_dt, step and diagnostics.record."""
    params, t_end = config.params, config.t_end
    eps = 1e-12 * max(1.0, t_end)
    threshold = config.blowup_factor * float(np.max(config.u0.values))
    records = []

    def emit(state, dt):
        source = g_of(state.u.values, params)
        if forcing is not None and forcing.w_source is not None:
            source += forcing.w_source(cell_centers(config.grid), state.t)
        records.append(diagnostics.record(state, config, dt_current=dt, w_source=source))

    state = stepper.initial_state(config, forcing)
    k, termination = 1, COMPLETED
    try:
        emit(state, stable_dt(state, params, config.dt_safety))
        while t_end - state.t > eps:
            dt = stable_dt(state, params, config.dt_safety)
            next_out = min(k * config.output_interval, t_end)
            lands = state.t + dt >= next_out - eps
            if lands:
                dt = next_out - state.t
            state = step(state, params, dt, config.positivity_mode, forcing)
            if state.u.values.max() > threshold:
                termination = BLOWUP_FLAGGED
                emit(state, dt)
                break
            if lands:
                emit(state, dt)
                k += 1
    except NumericalBreakdownError as exc:
        termination = BREAKDOWN
        emit(state, exc.dt)
    return records, state, termination


def records_bytes(records):
    return np.array([dataclasses.astuple(r) for r in records]).tobytes()


def assert_run_is_plain_loop(config, forcing=None):
    """run() gives bitwise the records, final fields and termination of the plain loop."""
    records, final, termination = run(config, forcing)
    expected, state, expected_termination = plain_loop(config, forcing)
    assert termination == expected_termination
    assert records_bytes(records) == records_bytes(expected)
    for name in ("u", "v", "w"):
        assert getattr(final, name).values.tobytes() == getattr(state, name).values.tobytes()
    assert (final.t, final.step, final.clipped_mass) == (state.t, state.step, state.clipped_mass)
    return final, termination


def nan_in_v_after(t_nan, forcing=None):
    """``forcing`` plus a NaN in every v from time t_nan on: a breakdown mid-run."""
    base = forcing or Forcing()

    def v(c, t):
        nan = np.full(c[0].shape, np.nan if t >= t_nan else 0.0)
        return nan if base.v is None else nan + base.v(c, t)

    return Forcing(u=base.u, v=v, w_source=base.w_source)


class TestRunAgainstPlainLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        n_cells=st.lists(st.integers(3, 12), min_size=1, max_size=2),
        coefficients=st.tuples(coefficient, coefficient, coefficient, coefficient),  # chi xi K gamma
        l=st.one_of(st.just(1.0), st.floats(1.0, 2.5, exclude_min=True)),
        mode=st.sampled_from(["clip", "upwind"]),
        dt_safety=st.floats(0.2, 1.0),
        steps=st.integers(2, 60),
        records=st.integers(1, 5),
        blowup_factor=st.sampled_from([1.0, 1.5, 1e3]),
        forced=st.booleans(),
        breaks_at=st.one_of(st.none(), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_is_bitwise_the_plain_loop(self, n_cells, coefficients, l, mode, dt_safety, steps,
                                           records, blowup_factor, forced, breaks_at, seed):
        # run() steps in two recycled buffers and state shells and hands out copies; the
        # plain loop makes a new state every step; rough random data and large dt_safety
        # make u and v clip; a smooth forcing of u, v and the repellent source takes the
        # forced source path, at l = 1 and l > 1
        spec = GridSpec(len(n_cells), tuple(n_cells), (1.0,) * len(n_cells))
        chi, xi, K, gamma = coefficients
        params = make_params(chi=chi, xi=xi, K=K, gamma=gamma, l=l, n=spec.dim)
        rng = np.random.default_rng(seed)
        t_end = steps * dt_safety * spec.diffusive_bound
        config = RunConfig(spec, params, ScalarField(spec, 0.1 + 3.0 * rng.random(spec.shape)),
                           ScalarField(spec, 2.0 * rng.random(spec.shape)), t_end=t_end,
                           dt_safety=dt_safety, output_interval=t_end / records,
                           positivity_mode=mode, blowup_factor=blowup_factor)
        forcing = WAVY if forced else None
        if breaks_at is not None:
            forcing = nan_in_v_after(breaks_at * t_end, forcing)
        assert_run_is_plain_loop(config, forcing)

    @pytest.mark.parametrize("mode", ["clip", "upwind"])
    @pytest.mark.parametrize("spec", [GridSpec.interval(32), GridSpec.rectangle((12, 10))])
    @pytest.mark.parametrize("case", ["clips", "blows up", "breaks down"])
    def test_named_runs_are_the_plain_loop(self, case, spec, mode):
        rng = np.random.default_rng(0)
        u0, v0 = ScalarField(spec, rng.random(spec.shape)), ScalarField(spec, rng.random(spec.shape))
        if case == "blows up":  # attraction to a peak of v gathers the flat u
            u0 = ScalarField.full(spec, 1.0)
            v0 = ScalarField(spec, np.exp(-20.0 * sum((x - 0.5) ** 2 for x in cell_centers(spec))))
        config = RunConfig(spec, make_params(chi=5.0, n=spec.dim), u0, v0, t_end=0.02,
                           dt_safety=1.0, output_interval=0.005, positivity_mode=mode,
                           blowup_factor=1.0 if case == "blows up" else 1e3)
        forcing = nan_in_v_after(0.01) if case == "breaks down" else None
        final, termination = assert_run_is_plain_loop(config, forcing)
        if case == "clips":
            assert termination == COMPLETED and final.clipped_mass > 0.0
        elif case == "blows up":
            assert termination == BLOWUP_FLAGGED and final.t < 0.02
        else:
            assert termination == BREAKDOWN and final.step > 0

    @pytest.mark.parametrize("spec", [GridSpec.interval(48), GridSpec.rectangle((16, 12))])
    def test_states_handed_to_the_callback_stay_as_they_were(self, spec, monkeypatch):
        centers = cell_centers(spec)
        config = RunConfig(spec, make_params(chi=3.0, n=spec.dim),
                           ScalarField(spec, 1.0 + 0.5 * np.cos(np.pi * centers[0])),
                           ScalarField(spec, 1.0 + 0.3 * centers[-1]), t_end=0.02,
                           output_interval=0.004)
        kept = []

        def keep(state, record):
            # the state shares no memory with the run's pairs or their shells' w
            for pair in made[0]().last:
                assert not shares_memory(state, pair.state)
                assert not any(np.shares_memory(f.values, pair.flat) for f in (state.u, state.v))
            kept.append((state, fields_bytes(state)))

        made, _ = recording_workspaces(monkeypatch)
        records, final, _ = run(config, callback=keep)
        assert len(made) == 1 and len(kept) == len(records) == 6
        assert final.step > 4 * len(records)  # each buffer was written between records
        for state, saved in kept:
            assert fields_bytes(state) == saved and not shares_memory(state, final)

    def test_only_the_recycled_chain_reuses_its_states(self, monkeypatch):
        # run()'s workspace steps into two state shells by turns; a plain chain makes a
        # new state on arrays of its own each step, so every earlier state keeps its values
        config = bump_config(n=16, t_end=0.01)
        params = config.params
        shells = []

        def keeping(*args):
            shells.append(original(*args))
            return shells[-1]

        original = stepper.step
        monkeypatch.setattr(stepper, "step", keeping)
        _, final, termination = run(config)
        monkeypatch.undo()
        assert termination == COMPLETED and len(shells) == final.step > 4
        assert all(s is shells[i % 2] for i, s in enumerate(shells)) and shells[0] is not shells[1]
        assert not shares_memory(shells[0], shells[1])

        fresh = [stepper.initial_state(config)]
        saved = [fields_bytes(fresh[0])]
        for _ in range(4):
            fresh.append(step(fresh[-1], params, 1e-4))
            saved.append(fields_bytes(fresh[-1]))
        assert len({id(state) for state in fresh}) == 5
        assert [fields_bytes(state) for state in fresh] == saved
        assert not any(shares_memory(a, b) for i, a in enumerate(fresh) for b in fresh[:i])

    def test_near_overflow_run_warns_nothing(self):
        # u0 = 1e306: the divergence and the record's u^p overflow before the step's
        # certificate names the breakdown; run() prints none of numpy's warnings
        spec = GridSpec.interval(32)
        x = cell_centers(spec)[0]
        config = RunConfig(spec, make_params(gamma=10.0, xi=1e-300), ScalarField.full(spec, 1e306),
                           ScalarField(spec, 1.0 + 0.5 * np.cos(np.pi * x)), t_end=0.01,
                           output_interval=0.0025)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records, final, termination = run(config)
        with np.errstate(over="ignore", invalid="ignore"):
            expected, state, expected_termination = plain_loop(config)
        assert termination == expected_termination == BREAKDOWN
        assert records_bytes(records) == records_bytes(expected)
        assert (final.t, final.step) == (state.t, state.step) == (records[-1].t, 1)
        assert records[-1].y_p == math.inf

    def test_callback_runs_under_the_callers_error_state(self):
        seen = []
        with np.errstate(over="raise", invalid="warn"):
            run(bump_config(n=16, t_end=0.01), callback=lambda state, rec: seen.append(np.geterr()))
            assert np.geterr()["over"] == "raise"
        assert len(seen) == 5
        assert all((e["over"], e["invalid"]) == ("raise", "warn") for e in seen)

    @pytest.mark.parametrize("forcing", [None, nan_in_v_after(0.005)], ids=["completed", "breakdown"])
    def test_workspace_is_freed_when_run_returns(self, monkeypatch, forcing):
        # nothing refers back to the workspace, so reference counting alone frees its
        # buffers when run() returns, with the cyclic collector off
        made, _ = recording_workspaces(monkeypatch)
        gc.disable()
        try:
            _, _, termination = run(bump_config(n=16, t_end=0.01), forcing)
            assert termination == (COMPLETED if forcing is None else BREAKDOWN)
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()


class TestRun:
    def test_homogeneous_run_completes_and_conserves(self):
        spec = GridSpec.interval(32)
        params = make_params()
        config = RunConfig(
            grid=spec,
            params=params,
            u0=ScalarField.full(spec, 1.5),
            v0=ScalarField.full(spec, 1.0),
            t_end=0.5,
            output_interval=0.1,
        )
        records, final, termination = run(config)
        assert termination == COMPLETED
        masses = [r.mass for r in records]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-12 * masses[0]
        assert final.clipped_mass == 0.0
        assert len(records) == 6  # t = 0 plus five output intervals
        times = [r.t for r in records]
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], abs=1e-9)

    def test_heat_relaxation_rate(self):
        # negligible taxis and no attractant: u obeys the insulated heat
        # equation, whose slowest mode decays at the discrete rate lam_h
        spec = GridSpec.interval(64)
        params = make_params(chi=1e-14, xi=1e-14)
        x = cell_centers(spec)[0]
        config = RunConfig(
            grid=spec,
            params=params,
            u0=ScalarField(spec, 1.0 + 0.5 * np.cos(np.pi * x)),
            v0=ScalarField.full(spec, 0.0),
            t_end=0.2,
            output_interval=0.05,
        )
        records, final, termination = run(config)
        assert termination == COMPLETED
        amp0 = records[0].sup_u - 1.0
        amp1 = records[-1].sup_u - 1.0
        rate = -math.log(amp1 / amp0) / (records[-1].t - records[0].t)
        h = spec.spacing[0]
        lam_h = (2.0 - 2.0 * math.cos(math.pi * h)) / h**2
        assert rate == pytest.approx(lam_h, rel=1e-3)
        assert rate == pytest.approx(math.pi**2, rel=5e-3)
        # the mean is untouched by diffusion
        assert records[-1].mass == pytest.approx(records[0].mass, rel=1e-13)

    def test_mass_conserved_over_many_steps(self):
        config = bump_config(n=48, t_end=0.3, dt_safety=0.8)
        records, final, termination = run(config)
        assert termination == COMPLETED
        assert final.step > 1500
        m0 = records[0].mass
        assert abs(records[-1].mass - final.clipped_mass - m0) <= 1e-12 * m0
        assert final.clipped_mass <= 1e-8 * m0

    def test_attractant_comparison_bound(self):
        config = bump_config(n=48, t_end=0.2)
        records, _, termination = run(config)
        assert termination == COMPLETED
        v0_sup = records[0].sup_v
        assert all(r.sup_v <= v0_sup * (1.0 + 1e-10) for r in records)
        sups = [r.sup_v for r in records]
        assert all(b <= a + 1e-10 for a, b in zip(sups, sups[1:]))

    def test_monitored_energies_stay_bounded(self):
        # admissible parameters: the attractant gradient energy stays below a
        # run-level constant and the monitor functional never exceeds its
        # initial value on this relaxing run
        config = bump_config(n=48, t_end=0.2)
        records, _, termination = run(config)
        assert termination == COMPLETED
        assert max(r.grad_v_sq for r in records) <= 0.01
        assert max(r.y_p for r in records) <= records[0].y_p * (1.0 + 1e-12)

    def test_blowup_flagging_at_unit_factor(self):
        # attraction concentrates u at the attractant peak, so sup u grows
        # immediately; with factor 1 the first record already trips the flag
        spec = GridSpec.interval(48)
        x = cell_centers(spec)[0]
        params = make_params(chi=5.0, xi=1e-6)
        config = RunConfig(
            grid=spec,
            params=params,
            u0=ScalarField.full(spec, 1.0),
            v0=ScalarField(spec, np.exp(-30.0 * (x - 0.5) ** 2)),
            t_end=1.0,
            output_interval=0.05,
            blowup_factor=1.0,
        )
        records, final, termination = run(config)
        assert termination == BLOWUP_FLAGGED
        assert records[-1].sup_u > records[0].sup_u
        assert final.t < 1.0

    def test_breakdown_on_dt_underflow(self):
        spec = GridSpec.interval(16)
        x = cell_centers(spec)[0]
        params = make_params(chi=1e30)
        config = RunConfig(
            grid=spec,
            params=params,
            u0=ScalarField.full(spec, 1.0),
            v0=ScalarField(spec, x),
            t_end=0.1,
            output_interval=0.05,
        )
        records, final, termination = run(config)
        assert termination == BREAKDOWN
        # the state the first step size underflowed on is recorded, with that size
        assert len(records) == 1
        assert records[0].t == 0.0 and final.t == 0.0
        assert 0.0 < records[0].dt_current < DT_UNDERFLOW

    def test_one_stable_dt_per_step(self, monkeypatch):
        calls = []
        original = stepper.stable_dt

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(stepper, "stable_dt", counting)
        _, final, termination = run(bump_config(n=32, t_end=0.01))
        assert termination == COMPLETED
        assert len(calls) == final.step

    def test_final_state_holds_no_workspace(self, monkeypatch):
        # the run's workspace is freed while its final state lives, with the cyclic collector
        # off, and the final state shares no memory with its pairs; stepping the final state
        # makes a new workspace
        config = bump_config(n=16, t_end=0.01)
        made, buffers = recording_workspaces(monkeypatch)
        gc.disable()
        try:
            _, final, termination = run(config)
            assert termination == COMPLETED and len(made) == 1 and made[0]() is None
        finally:
            gc.enable()
        monkeypatch.undo()
        assert not any(np.shares_memory(f.values, b) for f in (final.u, final.v, final.w) for b in buffers)
        dt = stable_dt(final, config.params)
        expected = reference_step(final, config.params, dt, "clip", None)
        assert step(final, config.params, dt).u.values.tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("spec", [GridSpec.interval(8), GridSpec.rectangle((6, 5))])
    def test_overflowing_production_rejected(self, spec):
        # g(u0) = u0*(u0+1) overflows although u0 is finite
        config = RunConfig(
            grid=spec,
            params=make_params(l=2.0),
            u0=ScalarField.full(spec, 1e200),
            v0=ScalarField.full(spec, 1.0),
            t_end=1e-3,
        )
        with pytest.raises(ValueError, match="production rate"):
            run(config)

    def test_overflowing_attractant_peak_rejected(self):
        # chi*max(v0) overflows although chi and v0 are finite
        v0 = ScalarField.full(GridSpec.interval(64), 1e10)
        config = bump_config(params=make_params(chi=1e300), v0=v0)
        with pytest.raises(ValueError, match=r"^chi \* max\(v0\) of the initial data must be"):
            run(config)

    def test_upwind_mode_also_conserves(self):
        config = bump_config(n=48, t_end=0.1, positivity_mode="upwind", params=make_params(chi=2.0))
        records, final, termination = run(config)
        assert termination == COMPLETED
        m0 = records[0].mass
        assert abs(records[-1].mass - m0 - final.clipped_mass) <= 1e-12 * m0

    def test_nonfinite_records_are_kept(self):
        # lp_u and y_p overflow on u0 = 1e200; every record must still reach the caller
        spec = GridSpec.interval(8)
        config = RunConfig(
            grid=spec,
            params=make_params(),
            u0=ScalarField.full(spec, 1e200),
            v0=ScalarField.full(spec, 1.0),
            t_end=1e-3,
            output_interval=2.5e-4,
        )
        with np.errstate(over="ignore"):
            records, _, termination = run(config)
        assert termination == COMPLETED
        assert len(records) == 5
        assert all(r.y_p == math.inf for r in records)

    def test_records_deterministic(self):
        config = bump_config(n=32, t_end=0.05)
        first = run(config)[0]
        second = run(bump_config(n=32, t_end=0.05))[0]
        assert [r.mass for r in first] == [r.mass for r in second]
        assert [r.y_p for r in first] == [r.y_p for r in second]


class TestRunConfigValidation:
    def test_rejects_bad_initial_data(self):
        spec = GridSpec.interval(8)
        params = make_params()
        good = ScalarField.full(spec, 1.0)
        with pytest.raises(ValueError):
            RunConfig(spec, params, ScalarField.full(spec, -1.0), good, t_end=1.0).validate()
        with pytest.raises(ValueError):
            RunConfig(spec, params, ScalarField.full(spec, 0.0), good, t_end=1.0).validate()

    def test_rejects_bad_controls(self):
        spec = GridSpec.interval(8)
        params = make_params()
        u0 = ScalarField.full(spec, 1.0)
        v0 = ScalarField.full(spec, 1.0)
        with pytest.raises(ValueError):
            RunConfig(spec, params, u0, v0, t_end=0.0).validate()
        with pytest.raises(ValueError):
            RunConfig(spec, params, u0, v0, t_end=1.0, dt_safety=1.5).validate()
        with pytest.raises(ValueError):
            RunConfig(spec, params, u0, v0, t_end=1.0, positivity_mode="none").validate()
        with pytest.raises(ValueError):
            RunConfig(spec, params, u0, v0, t_end=1.0, blowup_factor=0.5).validate()
        with pytest.raises(ValueError):
            RunConfig(spec, params, u0, v0, t_end=1.0, p_diag=1.0).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["t_end", "output_interval", "blowup_factor", "p_diag"])
    def test_rejects_nonfinite_controls(self, field, value):
        config = bump_config(n=8, **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be "):
            config.validate()

    def test_grid_mismatch(self):
        params = make_params()
        u0 = ScalarField.full(GridSpec.interval(8), 1.0)
        v0 = ScalarField.full(GridSpec.interval(8), 1.0)
        with pytest.raises(ValueError):
            RunConfig(GridSpec.interval(9), params, u0, v0, t_end=1.0).validate()
