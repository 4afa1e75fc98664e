"""Repellent-equation solver tests: exactness, mean identity, positivity, dense oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcsim import elliptic
from arcsim.grid import GridSpec, ScalarField, cell_centers, integrate, laplacian_values


def random_source(spec, seed, lo=0.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return ScalarField(spec, lo + (hi - lo) * rng.random(spec.shape))


def solve(source, delta):
    spec = source.spec
    return ScalarField(spec, elliptic.solve_w_values(source.values, spec.spacing, delta))


def residual(w, source, delta):
    return elliptic.relative_residual(w.values, source.values, source.spec.spacing, delta)


random_specs = st.one_of(
    st.builds(GridSpec.interval, st.integers(3, 200), st.floats(0.2, 5.0)),
    st.builds(
        GridSpec.rectangle,
        st.tuples(st.integers(3, 24), st.integers(3, 24)),
        st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
    ),
)


def dense_operator(spec, delta):
    """delta*I - Lap assembled column by column from unit vectors."""
    n = spec.total_cells
    columns = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        columns.append(delta * e - laplacian_values(e.reshape(spec.shape), spec.spacing).ravel())
    return np.column_stack(columns)


def exact_solve(spec, delta, b):
    """np.linalg.solve on the assembled delta*I - Lap, refined twice against the unassembled one.

    The assembled diagonal delta + 2/h^2 rounds delta off by up to eps*(2/h^2),
    so the dense solve alone errs by up to ~2e-12 in 2D on small delta and h;
    residuals that apply delta and Lap separately remove that error.
    """
    dense = dense_operator(spec, delta)
    w = np.linalg.solve(dense, b.ravel())
    for _ in range(2):
        r = b.ravel() - (delta * w - laplacian_values(w.reshape(spec.shape), spec.spacing).ravel())
        w += np.linalg.solve(dense, r)
    return w


class TestConstantSolution:
    @pytest.mark.parametrize("delta,c", [(1.0, 3.0), (0.5, 3.0), (2.0, -1.25)])
    def test_constant_source(self, delta, c):
        spec = GridSpec.interval(32)
        source = ScalarField.full(spec, delta * c)
        w = solve(source, delta)
        assert np.all(w.values == c)
        assert residual(w, source, delta) <= 1e-14

    @pytest.mark.parametrize("spec", [GridSpec.interval(32), GridSpec.rectangle((8, 6))])
    def test_constant_source_is_b_over_delta_bitwise(self, spec):
        b = np.full(spec.shape, 0.1)
        w = elliptic.solve_w_values(b, spec.spacing, 0.3)
        assert np.array_equal(w, b / 0.3)

    def test_constant_source_2d(self):
        spec = GridSpec.rectangle((8, 8))
        w = solve(ScalarField.full(spec, 2.0), 0.5)
        assert np.all(w.values == 4.0)


class TestEigenfunctionOracle:
    def test_1d_cosine(self):
        spec = GridSpec.interval(200)
        x = cell_centers(spec)[0]
        source = ScalarField(spec, np.cos(np.pi * x))
        w = solve(source, 1.0)
        resid = residual(w, source, 1.0)
        # continuum solution cos(pi x)/(1 + pi^2), matched at second order
        err = np.max(np.abs(w.values - np.cos(np.pi * x) / (1.0 + np.pi**2)))
        assert err <= 2.0e-6
        # the discrete system is solved essentially exactly
        h = spec.spacing[0]
        lam = (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
        assert np.max(np.abs(w.values - np.cos(np.pi * x) / (1.0 + lam))) <= 1e-12
        assert resid <= 1e-12

    def test_1d_second_order_convergence(self):
        errors = []
        for n in (50, 100, 200):
            spec = GridSpec.interval(n)
            x = cell_centers(spec)[0]
            w = solve(ScalarField(spec, np.cos(np.pi * x)), 1.0)
            errors.append(np.max(np.abs(w.values - np.cos(np.pi * x) / (1.0 + np.pi**2))))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.9 <= o <= 2.1 for o in orders)

    def test_2d_product_eigenfunction(self):
        spec = GridSpec.rectangle((48, 64))
        X, Y = cell_centers(spec)
        f = np.cos(np.pi * X) * np.cos(2 * np.pi * Y)
        w = solve(ScalarField(spec, f), 0.7)
        resid = residual(w, ScalarField(spec, f), 0.7)
        hx, hy = spec.spacing
        lam = (2 - 2 * np.cos(np.pi * hx)) / hx**2 + (2 - 2 * np.cos(2 * np.pi * hy)) / hy**2
        assert np.max(np.abs(w.values - f / (0.7 + lam))) <= 1e-12
        assert resid <= 1e-12


class TestMeanIdentity:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_1d(self, delta, seed):
        spec = GridSpec.interval(128)
        source = random_source(spec, seed)
        w = solve(source, delta)
        assert delta * integrate(w) == pytest.approx(integrate(source), rel=1e-12)

    @pytest.mark.parametrize("delta", [0.5, 2.0])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_2d(self, delta, seed):
        spec = GridSpec.rectangle((24, 40), (1.0, 2.0))
        source = random_source(spec, seed)
        w = solve(source, delta)
        assert delta * integrate(w) == pytest.approx(integrate(source), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(spec=random_specs, delta=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1))
    @example(spec=GridSpec.rectangle((24, 24), (0.2, 0.2)), delta=0.05, seed=0)
    @example(spec=GridSpec.rectangle((3, 24), (5.0, 0.2)), delta=0.05, seed=1)
    def test_random_shapes(self, spec, delta, seed):
        source = random_source(spec, seed)
        w = solve(source, delta)
        assert delta * integrate(w) == pytest.approx(integrate(source), rel=1e-12)

    def test_1d_at_small_h_and_delta(self):
        spec = GridSpec.interval(200, 0.2)
        source = random_source(spec, 0)
        w = solve(source, 0.05)
        assert 0.05 * integrate(w) == pytest.approx(integrate(source), rel=1e-12)


def check_1d_positive_finite_and_solved(n, length, delta, seed):
    """A nonnegative source with zeros and spikes: w >= 0 exactly, finite, residual <= 1e-10."""
    spec = GridSpec.interval(n, length)
    rng = np.random.default_rng(seed)
    b = rng.random(n) * (rng.random(n) < rng.random()) + 1e3 * (rng.random(n) < 0.01)
    b[rng.integers(n)] += 1.0
    w = elliptic.solve_w_values(b, spec.spacing, delta)
    assert np.all(np.isfinite(w))
    assert np.min(w) >= 0.0
    assert elliptic.relative_residual(w, b, spec.spacing, delta) <= 1e-10


class TestMaximumPrinciple:
    @pytest.mark.parametrize("seed", range(6))
    def test_nonnegative_source_gives_nonnegative_w(self, seed):
        spec = GridSpec.interval(64) if seed % 2 == 0 else GridSpec.rectangle((16, 16))
        source = random_source(spec, seed, 0.0, 3.0)
        w = solve(source, 1.0)
        # exact in 1D, where every weight of the solve is positive; round-off in 2D
        assert np.min(w.values) >= (0.0 if spec.dim == 1 else -1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(3, 2000),
        length=st.floats(0.2, 5.0),
        log_kappa=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_1d_positive_finite_and_solved(self, n, length, log_kappa, seed):
        """Random grids and delta = 4/(h^2 kappa): kappa = 4/(h^2 delta) bounds how far the
        operator's own evaluation rounds (relative residual ~ eps*kappa), so 1e-10 holds to 1e6."""
        h = length / n
        check_1d_positive_finite_and_solved(n, length, 4.0 / (h * h * 10.0**log_kappa), seed)

    @pytest.mark.parametrize(
        "n,length,delta", [(2000, 1.0, 1e6), (200, 1.0, 1e7), (997, 0.5, 1e9), (50, 3.0, 1e300)]
    )
    def test_1d_past_the_overflow_of_unscaled_factors(self, n, length, delta):
        # phi grows like e^{n theta}: n theta ~ 990, 1100, 5500 and 3.4e4 here, past
        # the ~709 at which an unscaled phi overflows
        check_1d_positive_finite_and_solved(n, length, delta, 0)


class TestDenseOracle:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec.interval(3),
            GridSpec.interval(64, 2.0),
            GridSpec.rectangle((3, 5)),
            GridSpec.rectangle((16, 24), (1.0, 2.0)),
            GridSpec.rectangle((32, 32)),
        ],
    )
    def test_matches_dense_solve(self, spec, delta):
        source = random_source(spec, spec.total_cells, -1.0, 1.0)
        w = solve(source, delta)
        exact = np.linalg.solve(dense_operator(spec, delta), source.values.ravel())
        err = np.max(np.abs(w.values.ravel() - exact)) / np.max(np.abs(exact))
        assert err <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(spec=random_specs, delta=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1))
    @example(spec=GridSpec.rectangle((24, 24), (0.2, 0.2)), delta=0.05, seed=0)
    @example(spec=GridSpec.rectangle((3, 24), (5.0, 0.2)), delta=0.05, seed=1)
    def test_random_shapes(self, spec, delta, seed):
        source = random_source(spec, seed, -1.0, 1.0)
        w = solve(source, delta)
        exact = exact_solve(spec, delta, source.values)
        err = np.max(np.abs(w.values.ravel() - exact)) / np.max(np.abs(exact))
        assert err <= 1e-12

    @pytest.mark.parametrize(
        "n,length,delta,blocks",
        [(64, 2.0, 1.0, 1), (300, 1.0, 1e4, 1), (400, 1.0, 1e6, 3), (600, 2.0, 1e5, 3)],
    )
    def test_1d_one_block_and_several_blocks_match_dense_solve(self, n, length, delta, blocks):
        # phi grows by e^(n theta): past e^_BLOCK_GROWTH the solve carries sums between blocks
        h = length / n
        theta = 2.0 * math.asinh(0.5 * math.sqrt(delta * h * h))
        assert max(1, math.ceil(n * theta / elliptic._BLOCK_GROWTH)) == blocks
        spec = GridSpec.interval(n, length)
        source = random_source(spec, n, -1.0, 1.0)
        w = solve(source, delta)
        exact = np.linalg.solve(dense_operator(spec, delta), source.values)
        assert np.max(np.abs(w.values - exact)) / np.max(np.abs(exact)) <= 1e-12

    @pytest.mark.parametrize(
        "spec", [GridSpec.interval(3), GridSpec.interval(64, 2.0), GridSpec.rectangle((16, 24), (1.0, 2.0))]
    )
    def test_equal_end_values_still_solved(self, spec):
        source = random_source(spec, 7, -1.0, 1.0)
        source.values.flat[-1] = source.values.flat[0]
        w = solve(source, 1.0)
        exact = np.linalg.solve(dense_operator(spec, 1.0), source.values.ravel())
        err = np.max(np.abs(w.values.ravel() - exact)) / np.max(np.abs(exact))
        assert err <= 1e-12


scaling_cases = pytest.mark.parametrize(
    "spec,delta",
    [
        (GridSpec.interval(200), 1.0),  # one block
        (GridSpec.interval(400), 1e6),  # three blocks
        (GridSpec.rectangle((16, 24), (1.0, 2.0)), 0.5),
    ],
    ids=["1d one block", "1d three blocks", "2d"],
)


class TestPowerOfTwoScaling:
    @scaling_cases
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-200, 1000), seed=st.integers(0, 2**32 - 1))
    @example(k=500, seed=0)  # max|b| is in [0.5, 1): its peak is just below 2^500
    @example(k=501, seed=0)  # and just past it
    @example(k=1000, seed=1)
    def test_scaled_source_gives_scaled_w_bitwise(self, spec, delta, k, seed):
        # the solve is linear in sums, products and quotients: while every value stays
        # normal, b * 2^k gives w * 2^k exactly, on either side of the peak bound 2^500
        b = random_source(spec, seed, -1.0, 1.0).values
        w = elliptic.solve_w_values(b, spec.spacing, delta)
        scaled = elliptic.solve_w_values(np.ldexp(b, k), spec.spacing, delta)
        assert np.array_equal(scaled, np.ldexp(w, k))

    @scaling_cases
    def test_source_near_the_double_range_is_solved(self, spec, delta):
        # unscaled, the 1D running sums and the 2D basis sums pass 1.8e308 on this source
        b = 1e307 * (1.0 + 0.5 * random_source(spec, 3).values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = elliptic.solve_w_values(b, spec.spacing, delta)
        assert np.isfinite(w).all()
        # eps times the condition number 4/(h^2 delta) ~ 1.6e5 of the one-block case
        assert elliptic.relative_residual(w, b, spec.spacing, delta) <= 1e-10


class TestValidation:
    def test_delta_positive_required(self):
        spec = GridSpec.interval(8)
        with pytest.raises(ValueError):
            solve(ScalarField.full(spec, 1.0), 0.0)

    def test_1d_overflowing_delta_h_squared_is_named(self):
        source = np.random.default_rng(0).random(20)
        message = r"^delta \* h\^2 must be finite, got delta = 1e\+305 and h = 50$"
        with pytest.raises(ValueError, match=message):
            elliptic.solve_w_values(source, (50.0,), 1e305)

    def test_1d_underflowing_delta_h_squared_is_named(self):
        # delta*h^2 = 2.5e-343 rounds to 0: the exact w is finite (mean(b)/delta ~ 5e299),
        # but the solve would return inf
        source = np.random.default_rng(0).random(20)
        message = r"^delta \* h\^2 underflows to 0, got delta = 1e-300 and h = 5e-22$"
        with pytest.raises(ValueError, match=message):
            elliptic.solve_w_values(source, (5e-22,), 1e-300)
        w = elliptic.solve_w_values(source, (5e-12,), 1e-300)  # delta*h^2 subnormal, not 0
        assert np.isfinite(w).all()

    @pytest.mark.parametrize("spec", [GridSpec.interval(32), GridSpec.rectangle((12, 10))])
    def test_residual_of_fields_whose_squared_norm_overflows(self, spec):
        # scaling w and its source by a power of two scales the residual exactly while the
        # stencil stays finite, so the relative residual keeps its bits past ||source||^2 > 1e308
        source = random_source(spec, 5)
        w = solve(source, 1.3)
        unscaled = residual(w, source, 1.3)
        assert 0.0 < unscaled <= 1e-12
        for power in (515, 1000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = residual(ScalarField(spec, np.ldexp(w.values, power)),
                                  ScalarField(spec, np.ldexp(source.values, power)), 1.3)
            assert scaled == unscaled

    def test_residual_definition(self):
        spec = GridSpec.interval(32)
        source = random_source(spec, 13)
        w = solve(source, 1.3)
        resid = residual(w, source, 1.3)
        r = 1.3 * w.values - laplacian_values(w.values, spec.spacing) - source.values
        expected = np.linalg.norm(r) / np.linalg.norm(source.values)
        assert resid == pytest.approx(expected, rel=1e-6, abs=1e-18)
