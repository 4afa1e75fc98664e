"""Manufactured-solution module tests (the full study runs in the acceptance suite)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsim import mms
from arcsim.grid import GridSpec, ScalarField, cell_centers
from arcsim.kinetics import ModelParams
from arcsim.stepper import RunConfig, run


class TestForcingConsistency:
    def test_forced_run_tracks_exact_solution(self):
        # one moderately fine grid: the discrete solution should stay within
        # the expected truncation distance of the analytic triplet
        params = mms.default_params()
        solution = mms.cosine_solution(params)
        spec = GridSpec.interval(100)
        x = cell_centers(spec)[0]
        config = RunConfig(
            grid=spec,
            params=params,
            u0=ScalarField(spec, solution.u(x, 0.0)),
            v0=ScalarField(spec, solution.v(x, 0.0)),
            t_end=0.05,
            output_interval=0.05,
        )
        _, final, termination = run(config, forcing=solution.forcing)
        assert termination == "completed"
        h = spec.spacing[0]
        tol = 5.0 * h * h  # generous multiple of the h^2 truncation error
        assert np.max(np.abs(final.u.values - solution.u(x, final.t))) <= tol
        assert np.max(np.abs(final.v.values - solution.v(x, final.t))) <= tol
        assert np.max(np.abs(final.w.values - solution.w(x, final.t))) <= tol

    def test_initial_repellent_matches_exact(self):
        params = mms.default_params()
        solution = mms.cosine_solution(params)
        spec = GridSpec.interval(200)
        x = cell_centers(spec)[0]
        config = RunConfig(
            grid=spec,
            params=params,
            u0=ScalarField(spec, solution.u(x, 0.0)),
            v0=ScalarField(spec, solution.v(x, 0.0)),
            t_end=1.0,
        )
        from arcsim.stepper import initial_state

        state = initial_state(config, solution.forcing)
        assert np.max(np.abs(state.w.values - solution.w(x, 0.0))) <= 1e-4


class TestConvergence:
    def test_cosine_second_order(self):
        result = mms.run_convergence(3, base_cells=20, t_end=0.05)
        assert not result.skipped
        assert result.passed
        assert 1.8 <= result.observed_order <= 2.2
        assert result.errors[0] > result.errors[-1]

    def test_constant_variant_exact(self):
        result = mms.run_convergence(3, base_cells=8, t_end=0.01, variant="constant")
        assert result.skipped
        assert result.passed
        assert max(result.errors) < 1e-12

    def test_refinement_guard(self):
        with pytest.raises(ValueError):
            mms.run_convergence(2)

    def test_report_lines(self):
        result = mms.run_convergence(3, base_cells=10, t_end=0.02)
        text = "\n".join(result.lines())
        assert "N =" in text and "order" in text


def closed_form_forcing(params):
    """The cosine solution's forcing evaluated term by term from cos and sin at every call."""
    pi = math.pi
    pi2 = pi * pi
    chi, xi, K, alpha = params.chi, params.xi, params.K, params.alpha
    gamma, l, delta = params.gamma, params.l, params.delta

    def force_u(x, t):
        a = np.cos(pi * x) * math.exp(-t)
        s = np.sin(pi * x) * math.exp(-t)
        cross_v = 0.5 * pi2 * (s * s - a * (2.0 + a))
        cross_w = 0.5 * cross_v
        return -a + pi2 * a + chi * cross_v - xi * cross_w

    def force_v(x, t):
        a = np.cos(pi * x) * math.exp(-t)
        return -0.5 * a + 0.5 * pi2 * a + K * (2.0 + a) ** alpha * (1.0 + 0.5 * a)

    def force_w_source(x, t):
        a = np.cos(pi * x) * math.exp(-t)
        w_star = 0.75 + 0.25 * a
        return delta * w_star + 0.25 * pi2 * a - gamma * (2.0 + a) * (3.0 + a) ** (l - 1.0)

    # the largest term each expression sums, for an absolute floor where the terms cancel
    scales = (
        pi2 * (2.0 + 3.0 * (chi + xi)),
        pi2 + K * 3.0**alpha * 1.5,
        delta + pi2 + gamma * 3.0 * 4.0 ** (l - 1.0),
    )
    return (force_u, force_v, force_w_source), scales


def read_only(values):
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


coefficient = st.floats(0.01, 10.0)
admissible_params = st.builds(
    lambda chi, xi, delta, K, gamma, alpha, l: ModelParams(
        chi=chi, xi=xi, delta=delta, K=K, gamma=gamma, alpha=alpha, l=l, n=1
    ),
    coefficient, coefficient, coefficient, coefficient, coefficient,
    st.floats(0.01, 0.99),
    st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
)


class TestTabulatedForcing:
    @settings(max_examples=200, deadline=None)
    @given(
        params=admissible_params,
        x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        times=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
        writeable=st.booleans(),
    )
    def test_matches_the_closed_form(self, params, x, times, writeable):
        x = np.array(x) if writeable else read_only(x)
        tabulated = mms.cosine_solution(params).forcing
        closed, scales = closed_form_forcing(params)
        for t in times:
            for force, reference, scale in zip(
                (tabulated.u, tabulated.v, tabulated.w_source), closed, scales
            ):
                expected = reference(x, t)
                np.testing.assert_allclose(force((x,), t), expected, rtol=1e-12, atol=1e-12 * scale)

    def test_grids_never_read_each_others_tables(self):
        params = mms.default_params()
        specs = [GridSpec.interval(50), GridSpec.interval(50, 2.0), GridSpec.interval(80)]
        shared = mms.cosine_solution(params).forcing
        alone = {spec: mms.cosine_solution(params).forcing for spec in specs}
        for t in (0.0, 0.3, 0.3, 1.7):
            for spec in specs + specs[::-1]:
                centers = cell_centers(spec)
                for name in ("u", "v", "w_source"):
                    got = getattr(shared, name)(centers, t)
                    want = getattr(alone[spec], name)(centers, t)
                    assert got.tobytes() == want.tobytes()

    def test_tables_follow_the_array_not_its_address(self):
        # a table holds its read-only array, so a later array cannot take over its
        # identity; a writeable array may change, so it is never tabulated
        params = mms.default_params()
        forcing = mms.cosine_solution(params).forcing
        closed, scales = closed_form_forcing(params)
        for k in range(5):
            x = read_only(np.linspace(0.0, 1.0, 7) * (k + 1) / 5.0)
            np.testing.assert_allclose(forcing.u((x,), 0.5), closed[0](x, 0.5),
                                       rtol=1e-12, atol=1e-12 * scales[0])
            del x
        x = np.linspace(0.0, 1.0, 7)
        forcing.v((x,), 0.5)
        x *= 0.5
        np.testing.assert_allclose(forcing.v((x,), 0.5), closed[1](x, 0.5),
                                   rtol=1e-12, atol=1e-12 * scales[1])
