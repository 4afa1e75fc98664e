"""Diagnostics tests: monitor functional, record assembly, CSV format."""

import csv

import numpy as np
import pytest

from arcsim import diagnostics, elliptic
from arcsim.diagnostics import DiagRecord, default_p_diag, record, y_functional, write_csv
from arcsim.grid import GridSpec, ScalarField, cell_centers, integrate
from arcsim.kinetics import ModelParams, g_of
from arcsim.stepper import RunConfig, SimState


def make_params(**overrides):
    base = dict(chi=1.0, xi=1.0, delta=2.0, K=1.0, gamma=1.0, alpha=0.5, l=1.0, n=1)
    base.update(overrides)
    return ModelParams(**base)


def homogeneous_setup(a=3.0, b=1.0, n=32, **param_overrides):
    spec = GridSpec.interval(n)
    params = make_params(**param_overrides)
    config = RunConfig(
        grid=spec,
        params=params,
        u0=ScalarField.full(spec, a),
        v0=ScalarField.full(spec, b),
        t_end=1.0,
        output_interval=0.5,
    )
    source = np.full(spec.shape, float(g_of(a, params)))
    w = elliptic.solve_w_values(source, spec.spacing, params.delta)
    state = SimState(
        ScalarField.full(spec, a), ScalarField.full(spec, b), ScalarField(spec, w), 0.25, 10, 0.0
    )
    return state, config


class TestDefaultP:
    def test_rule(self):
        assert default_p_diag(1) == 2.0
        assert default_p_diag(3) == 2.0
        assert default_p_diag(4) == 2.5
        assert default_p_diag(6) == 3.5


class TestYFunctional:
    def test_flat_fields_unit_domain(self):
        spec = GridSpec.interval(16)
        u = ScalarField.full(spec, 1.0)
        v = ScalarField.full(spec, 5.0)
        assert y_functional(u, v, 2.0, chi=1.0, gamma=1.0) == pytest.approx(1.0)

    def test_flat_u_squared(self):
        spec = GridSpec.interval(16)
        u = ScalarField.full(spec, 2.0)
        v = ScalarField.full(spec, 0.0)
        assert y_functional(u, v, 2.0, chi=1.0, gamma=1.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_first_term_scaling(self, c):
        spec = GridSpec.rectangle((8, 8))
        rng = np.random.default_rng(5)
        u = ScalarField(spec, rng.random(spec.shape) + 0.1)
        v = ScalarField.full(spec, 1.0)  # flat: second term drops out
        p = 2.5
        base = y_functional(u, v, p, 1.0, 1.0)
        scaled = y_functional(ScalarField(spec, c * u.values), v, p, 1.0, 1.0)
        assert scaled == pytest.approx(c**p * base, rel=1e-12)

    def test_gradient_term_matches_analytic(self):
        # v = x has unit gradient at every cell, so the second term is
        # (chi^2/gamma)^p exactly
        spec = GridSpec.interval(200)
        u = ScalarField.full(spec, 0.0)
        v = ScalarField.from_function(spec, lambda x: x)
        value = y_functional(u, v, 2.0, chi=2.0, gamma=1.0)
        # boundary cells see a halved one-sided difference; their deficit
        # vanishes with the cell fraction 2/N
        assert value == pytest.approx(16.0, rel=2.0 / 200 * 1.1)

    def test_p_guard(self):
        spec = GridSpec.interval(8)
        u = ScalarField.full(spec, 1.0)
        with pytest.raises(ValueError):
            y_functional(u, u, 1.0, 1.0, 1.0)


class TestRecord:
    def test_homogeneous_values(self):
        state, config = homogeneous_setup(a=3.0, b=1.0)
        rec = record(state, config, dt_current=1e-4)
        assert rec.mass == pytest.approx(3.0)
        assert rec.sup_u == 3.0
        assert rec.sup_v == 1.0
        assert rec.grad_v_sq == 0.0
        assert rec.t == 0.25
        assert rec.clipped_mass == 0.0

    def test_sup_w_is_scaled_production(self):
        state, config = homogeneous_setup(a=3.0, delta=2.0, gamma=1.5)
        rec = record(state, config, dt_current=1e-4)
        assert rec.sup_w == pytest.approx(1.5 * 3.0 / 2.0, abs=1e-9)
        assert rec.w_residual <= 1e-10

    def test_y_p_consistency(self):
        spec = GridSpec.interval(40)
        params = make_params()
        x = cell_centers(spec)[0]
        u0 = ScalarField(spec, 1.0 + 0.3 * np.cos(np.pi * x))
        v0 = ScalarField(spec, 1.0 + 0.1 * np.sin(2 * np.pi * x) ** 2)
        config = RunConfig(spec, params, u0, v0, t_end=1.0, p_diag=2.0)
        w = elliptic.solve_w_values(np.asarray(g_of(u0.values, params)), spec.spacing, params.delta)
        state = SimState(u0, v0, ScalarField(spec, w), 0.0, 0, 0.0)
        rec = record(state, config, dt_current=1e-4)
        independent = y_functional(u0, v0, 2.0, params.chi, params.gamma)
        assert rec.y_p == pytest.approx(independent, rel=1e-14)
        assert rec.lp_u == pytest.approx(integrate(ScalarField(spec, u0.values**2)) ** 0.5)

    def test_is_finite(self):
        state, config = homogeneous_setup()
        assert record(state, config, dt_current=1e-4).is_finite()
        bad = DiagRecord(0, float("nan"), 0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert not bad.is_finite()


class TestCsv:
    def test_format_and_precision(self, tmp_path):
        state, config = homogeneous_setup()
        recs = [record(state, config, dt_current=1e-4)]
        path = tmp_path / "diag.csv"
        write_csv(recs, path, metadata={"run.t_end": 1.0, "note": "x"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# run.t_end = 1.0"
        assert lines[1] == "# note = x"
        header = lines[2].split(",")
        assert header[0] == "t" and "y_p" in header and "w_residual" in header

        with open(path) as fh:
            rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
        assert len(rows) == 1
        assert float(rows[0]["mass"]) == recs[0].mass  # 17 digits round-trip exactly
        assert float(rows[0]["y_p"]) == recs[0].y_p
