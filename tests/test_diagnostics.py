"""Diagnostics tests: monitor functional, record assembly, CSV format."""

import csv

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arcsim import diagnostics, elliptic
from arcsim.diagnostics import DiagRecord, default_p_diag, record, y_functional, write_csv
from arcsim.grid import GridSpec, ScalarField, cell_centers, integrate, lp_norm
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


def padded_grad_sq(values, spacing):
    """|grad f|^2 from central differences on an edge-padded array (the reference)."""
    total = np.zeros_like(values)
    nd = values.ndim
    for axis, h in enumerate(spacing):
        padded = np.pad(values, [(1, 1) if ax == axis else (0, 0) for ax in range(nd)], mode="edge")
        hi = padded[(slice(None),) * axis + (slice(2, None),)]
        lo = padded[(slice(None),) * axis + (slice(None, -2),)]
        g = (hi - lo) / (2.0 * h)
        total += g * g
    return total


class TestCellGradSq:
    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(3, 200)), st.tuples(st.integers(3, 40), st.integers(3, 40))
        ),
        lengths=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
        scale=st.floats(1e-300, 1e300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_edge_padding(self, shape, lengths, scale, seed):
        spacing = tuple(L / n for L, n in zip(lengths, shape))
        values = scale * np.random.default_rng(seed).standard_normal(shape)
        with np.errstate(over="ignore"):
            got = diagnostics._cell_grad_sq(values, spacing)
            assert np.array_equal(got, padded_grad_sq(values, spacing))


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

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(3, 200)), st.tuples(st.integers(3, 40), st.integers(3, 40))
        ),
        n=st.integers(1, 6),
        p_diag=st.sampled_from([2.0, 2.5, None]),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lp_u_and_y_p_bitwise_equal_to_public_functions(self, shape, n, p_diag, scale, seed):
        rng = np.random.default_rng(seed)
        spec = GridSpec(len(shape), shape, tuple(rng.uniform(0.2, 5.0, len(shape))))
        u_values = scale * rng.random(shape)
        u_values[rng.random(shape) < 0.2] = 0.0
        u_values[rng.random(shape) < 0.2] = -0.0
        u = ScalarField(spec, u_values)
        v = ScalarField(spec, rng.random(shape))
        params = make_params(n=n)
        config = RunConfig(spec, params, u, v, t_end=1.0, p_diag=p_diag)
        state = SimState(u, v, ScalarField(spec, rng.random(shape)), 0.0, 0, 0.0)
        p = p_diag if p_diag is not None else default_p_diag(n)  # n/2 + 0.5 from n = 4 on
        rec = record(state, config, dt_current=1e-4, w_source=rng.random(shape))
        assert rec.lp_u == lp_norm(u, p)
        assert rec.y_p == y_functional(u, v, p, params.chi, params.gamma)

    def test_is_finite(self):
        state, config = homogeneous_setup()
        assert record(state, config, dt_current=1e-4).is_finite()
        bad = DiagRecord(0, float("nan"), 0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert not bad.is_finite()


def reference_csv(records, metadata):
    """The CSV text written one f-string per value."""
    lines = [f"# {key} = {value}" for key, value in (metadata or {}).items()]
    lines.append(",".join(diagnostics._FIELDS))
    for rec in records:
        lines.append(",".join(f"{v:.17g}" for v in dataclasses.astuple(rec)))
    return "\n".join(lines) + "\n"


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

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(
            st.lists(st.floats(), min_size=len(diagnostics._FIELDS), max_size=len(diagnostics._FIELDS)),
            max_size=5,
        )
    )
    def test_bytes_match_per_value_writer(self, rows, tmp_path):
        recs = [DiagRecord(*row) for row in rows]
        path = tmp_path / "diag.csv"
        write_csv(recs, path, metadata={"run.t_end": 1.0})
        assert path.read_text() == reference_csv(recs, {"run.t_end": 1.0})

    def test_nonfinite_record_kept(self, tmp_path):
        state, config = homogeneous_setup()
        rec = dataclasses.replace(record(state, config, dt_current=1e-4), y_p=float("inf"))
        path = tmp_path / "diag.csv"
        write_csv([rec], path)
        text = path.read_text()
        assert text == reference_csv([rec], None)
        assert text.splitlines()[1].split(",")[diagnostics._FIELDS.index("y_p")] == "inf"

