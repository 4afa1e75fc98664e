"""Repellent-equation solver tests: exactness, mean identity, positivity, dense oracle."""

import numpy as np
import pytest

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


def dense_operator(spec, delta):
    """delta*I - Lap assembled column by column from unit vectors."""
    n = spec.total_cells
    columns = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        columns.append(delta * e - laplacian_values(e.reshape(spec.shape), spec.spacing).ravel())
    return np.column_stack(columns)


class TestConstantSolution:
    @pytest.mark.parametrize("delta,c", [(1.0, 3.0), (0.5, 3.0), (2.0, -1.25)])
    def test_constant_source(self, delta, c):
        spec = GridSpec.interval(32)
        source = ScalarField.full(spec, delta * c)
        w = solve(source, delta)
        assert np.all(w.values == c)
        assert residual(w, source, delta) <= 1e-14

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


class TestMaximumPrinciple:
    @pytest.mark.parametrize("seed", range(6))
    def test_nonnegative_source_gives_nonnegative_w(self, seed):
        spec = GridSpec.interval(64) if seed % 2 == 0 else GridSpec.rectangle((16, 16))
        source = random_source(spec, seed, 0.0, 3.0)
        w = solve(source, 1.0)
        assert np.min(w.values) >= -1e-12


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


class TestValidation:
    def test_delta_positive_required(self):
        spec = GridSpec.interval(8)
        with pytest.raises(ValueError):
            solve(ScalarField.full(spec, 1.0), 0.0)

    def test_residual_definition(self):
        spec = GridSpec.interval(32)
        source = random_source(spec, 13)
        w = solve(source, 1.3)
        resid = residual(w, source, 1.3)
        r = 1.3 * w.values - laplacian_values(w.values, spec.spacing) - source.values
        expected = np.linalg.norm(r) / np.linalg.norm(source.values)
        assert resid == pytest.approx(expected, rel=1e-6, abs=1e-18)
