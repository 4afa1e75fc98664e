"""Time-stepping tests: step-size control, conservation, comparison bounds, termination."""

import math

import numpy as np
import pytest

from arcsim import elliptic
from arcsim.grid import GridSpec, ScalarField, cell_centers, integrate
from arcsim.kinetics import ModelParams, f_of, g_of
from arcsim.stepper import (
    BLOWUP_FLAGGED,
    BREAKDOWN,
    COMPLETED,
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
        _, _, termination = run(config)
        assert termination == BREAKDOWN

    def test_upwind_mode_also_conserves(self):
        config = bump_config(n=48, t_end=0.1, positivity_mode="upwind", params=make_params(chi=2.0))
        records, final, termination = run(config)
        assert termination == COMPLETED
        m0 = records[0].mass
        assert abs(records[-1].mass - m0 - final.clipped_mass) <= 1e-12 * m0

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

    def test_grid_mismatch(self):
        params = make_params()
        u0 = ScalarField.full(GridSpec.interval(8), 1.0)
        v0 = ScalarField.full(GridSpec.interval(8), 1.0)
        with pytest.raises(ValueError):
            RunConfig(GridSpec.interval(9), params, u0, v0, t_end=1.0).validate()
