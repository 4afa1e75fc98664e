"""Grid, field, and zero-flux operator tests."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flux_oracle
from arcsim.grid import (
    GridSpec,
    ScalarField,
    cell_centers,
    div_u_grad_values,
    grad_sq_integral,
    integrate,
    laplacian_values,
    load_snapshot,
    lp_norm,
    save_snapshot,
    sup_norm,
)


def random_field(spec, seed, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return ScalarField(spec, lo + (hi - lo) * rng.random(spec.shape))


class TestGridSpec:
    def test_spacing_and_counts(self):
        spec = GridSpec(2, (10, 20), (1.0, 4.0))
        assert spec.spacing == (0.1, 0.2)
        assert spec.total_cells == 200
        assert spec.cell_volume == pytest.approx(0.02)
        assert spec.shape == (10, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(3, (4, 4, 4), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            GridSpec(1, (2,), (1.0,))
        with pytest.raises(ValueError):
            GridSpec(1, (8,), (0.0,))
        with pytest.raises(ValueError):
            GridSpec(2, (8,), (1.0, 1.0))

    @pytest.mark.parametrize("length", [np.nan, np.inf])
    def test_nonfinite_length_rejected(self, length):
        with pytest.raises(ValueError, match="length entries must be finite"):
            GridSpec(2, (8, 8), (1.0, length))

    def test_centers(self):
        spec = GridSpec.interval(4)
        assert np.allclose(cell_centers(spec)[0], [0.125, 0.375, 0.625, 0.875])

    def test_field_size_mismatch(self):
        spec = GridSpec.interval(8)
        with pytest.raises(ValueError):
            ScalarField(spec, np.zeros(7))


class TestIntegrate:
    def test_constant_one_unit_domain(self):
        spec = GridSpec.interval(10)
        assert integrate(ScalarField.full(spec, 1.0)) == pytest.approx(1.0)

    def test_zero_field(self):
        spec = GridSpec.rectangle((5, 5))
        assert integrate(ScalarField.full(spec, 0.0)) == 0.0

    def test_linear_exact_midpoint(self):
        # midpoint quadrature integrates linear functions exactly
        spec = GridSpec.interval(4)
        f = ScalarField.from_function(spec, lambda x: x)
        assert integrate(f) == 0.5

    def test_2d_constant_scales_with_area(self):
        spec = GridSpec.rectangle((8, 8), (2.0, 3.0))
        assert integrate(ScalarField.full(spec, 1.5)) == pytest.approx(9.0)


class TestLaplacian:
    def test_constant_is_zero(self):
        spec = GridSpec.rectangle((6, 9))
        lap = laplacian_values(np.full(spec.shape, 3.7), spec.spacing)
        assert np.all(lap == 0.0)

    def test_cosine_eigenfunction(self):
        # cos(pi x) satisfies the reflecting boundaries exactly, so the only
        # error is the interior truncation, of size h^2 pi^4/12
        spec = GridSpec.interval(200)
        x = cell_centers(spec)[0]
        lap = laplacian_values(np.cos(np.pi * x), spec.spacing)
        err = np.max(np.abs(lap + np.pi**2 * np.cos(np.pi * x)))
        h = spec.spacing[0]
        assert err <= 5.0 * h**2 * np.pi**4
        assert err <= 1.1 * h**2 * np.pi**4 / 12.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_second_order_convergence(self, k):
        errors = []
        for n in (50, 100, 200):
            spec = GridSpec.interval(n)
            x = cell_centers(spec)[0]
            lap = laplacian_values(np.cos(k * np.pi * x), spec.spacing)
            errors.append(np.max(np.abs(lap + (k * np.pi) ** 2 * np.cos(k * np.pi * x))))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.9 <= o <= 2.1 for o in orders)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spec", [GridSpec.interval(33), GridSpec.rectangle((9, 14), (1.0, 2.0))])
    def test_integrates_to_zero(self, spec, seed):
        f = random_field(spec, seed, -2.0, 2.0)
        lap = ScalarField(spec, laplacian_values(f.values, spec.spacing))
        scale = integrate(ScalarField(spec, np.abs(lap.values))) + 1e-300
        assert abs(integrate(lap)) / scale <= 1e-12

    def test_2d_eigenfunction(self):
        spec = GridSpec.rectangle((128, 128))
        X, Y = cell_centers(spec)
        f = ScalarField(spec, np.cos(np.pi * X) * np.cos(2 * np.pi * Y))
        lap = laplacian_values(f.values, spec.spacing)
        expected = -(np.pi**2 + (2 * np.pi) ** 2) * f.values
        assert np.max(np.abs(lap - expected)) <= 0.01


class TestDivUGradPhi:
    def test_constant_phi_gives_zero(self):
        spec = GridSpec.interval(12)
        u = random_field(spec, 3)
        out = div_u_grad_values(u.values, np.full(spec.shape, 4.0), spec.spacing)
        assert np.all(out == 0.0)

    def test_unit_u_matches_laplacian_bitwise(self):
        spec = GridSpec.rectangle((7, 11))
        phi = random_field(spec, 4, -1.0, 1.0)
        one = np.ones(spec.shape)
        out = div_u_grad_values(one, phi.values, spec.spacing)
        assert np.array_equal(out, laplacian_values(phi.values, spec.spacing))

    def test_constant_u_scales_laplacian(self):
        spec = GridSpec.interval(40)
        phi = random_field(spec, 5, -1.0, 1.0)
        out = div_u_grad_values(np.full(spec.shape, 2.5), phi.values, spec.spacing)
        expected = 2.5 * laplacian_values(phi.values, spec.spacing)
        assert np.allclose(out, expected, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("scheme", ["central", "upwind"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_integrates_to_zero(self, scheme, seed):
        spec = GridSpec.rectangle((13, 8))
        u = random_field(spec, seed)
        phi = random_field(spec, seed + 100, -3.0, 3.0)
        div = div_u_grad_values(u.values, phi.values, spec.spacing, scheme=scheme)
        out = ScalarField(spec, div)
        scale = integrate(ScalarField(spec, np.abs(out.values))) + 1e-300
        assert abs(integrate(out)) / scale <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        n_cells=st.lists(st.integers(3, 40), min_size=1, max_size=2),
        lengths=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
        chi=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
        xi=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_central_is_linear_in_phi(self, n_cells, lengths, chi, xi, seed):
        # the stepper's single drift flux equals the two cross-diffusion terms;
        # coefficients stop short of subnormals, where round-off is not relative
        spec = GridSpec(len(n_cells), tuple(n_cells), tuple(lengths[: len(n_cells)]))
        rng = np.random.default_rng(seed)
        u = 5.0 * rng.random(spec.shape)
        v = rng.uniform(-3.0, 3.0, spec.shape)
        w = rng.uniform(-3.0, 3.0, spec.shape)
        attract = chi * div_u_grad_values(u, v, spec.spacing)
        repel = xi * div_u_grad_values(u, w, spec.spacing)
        drift = div_u_grad_values(u, chi * v - xi * w, spec.spacing)
        bound = 1e-14 * (np.max(np.abs(attract)) + np.max(np.abs(repel)))
        assert np.max(np.abs(drift - (attract - repel))) <= bound

    def test_unknown_scheme_raises(self):
        spec = GridSpec.interval(8)
        with pytest.raises(ValueError):
            div_u_grad_values(np.ones(spec.shape), np.ones(spec.shape), spec.spacing, scheme="qick")


grids = st.builds(
    lambda n_cells, lengths: GridSpec(len(n_cells), tuple(n_cells), tuple(lengths[: len(n_cells)])),
    st.lists(st.integers(3, 40), min_size=1, max_size=2),
    st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
)


class TestDriftDiffusion:
    @settings(max_examples=300, deadline=None)
    @given(spec=grids, scheme=st.sampled_from(["central", "upwind"]), seed=st.integers(0, 2**32 - 1))
    def test_equals_laplacian_minus_drift(self, spec, scheme, seed):
        # the stepper's one u flux grad(u) - u_face grad(phi), as the oracle forms it,
        # against the two operators
        rng = np.random.default_rng(seed)
        u = 5.0 * rng.random(spec.shape)
        phi = rng.uniform(-3.0, 3.0, spec.shape)
        lap = laplacian_values(u, spec.spacing)
        div = div_u_grad_values(u, phi, spec.spacing, scheme)
        fused = flux_oracle.drift_diffusion(u, phi, spec.spacing, scheme)
        bound = 1e-14 * (np.max(np.abs(lap)) + np.max(np.abs(div)))
        assert np.max(np.abs(fused - (lap - div))) <= bound

    @settings(max_examples=200, deadline=None)
    @given(spec=grids, scheme=st.sampled_from(["central", "upwind"]), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equals_axis_differences(self, spec, scheme, seed):
        # the flattened Laplacian and the cross-diffusion divergence against the same
        # arithmetic on np.diff along each axis
        rng = np.random.default_rng(seed)
        u = 5.0 * rng.random(spec.shape)
        v = rng.random(spec.shape)
        phi = rng.uniform(-3.0, 3.0, spec.shape)
        pairs = (
            (laplacian_values(v, spec.spacing), flux_oracle.laplacian(v, spec.spacing)),
            (div_u_grad_values(u, phi, spec.spacing, scheme),
             flux_oracle.div_u_grad(u, phi, spec.spacing, scheme)),
        )
        for got, expected in pairs:
            assert got.shape == spec.shape
            assert got.tobytes() == expected.tobytes()


class TestGradSqIntegral:
    def test_constant_is_zero(self):
        assert grad_sq_integral(ScalarField.full(GridSpec.rectangle((5, 5)), 2.0)) == 0.0

    @pytest.mark.parametrize("n", [8, 16, 128])
    def test_linear_approaches_one(self, n):
        # interior faces see exact unit slopes; only the boundary cells miss
        f = ScalarField.from_function(GridSpec.interval(n), lambda x: x)
        value = grad_sq_integral(f)
        assert value == pytest.approx((n - 1) / n)
        assert abs(value - 1.0) <= 2.0 / n

    def test_quadratic_scaling(self):
        spec = GridSpec.interval(20)
        f = random_field(spec, 11, -1.0, 1.0)
        g = ScalarField(spec, 3.0 * f.values)
        assert grad_sq_integral(g) == pytest.approx(9.0 * grad_sq_integral(f), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "spec", [GridSpec.interval(37, 2.0), GridSpec.rectangle((11, 17), (1.0, 3.0))]
    )
    def test_equals_dirichlet_energy(self, spec, seed):
        # summation by parts of the face-flux Laplacian: the face-difference
        # integral is exactly -sum(f * Lap_h f) * cell volume
        f = random_field(spec, seed, -1.0, 1.0)
        lap = laplacian_values(f.values, spec.spacing)
        energy = -float(np.sum(f.values * lap)) * spec.cell_volume
        assert grad_sq_integral(f) == pytest.approx(energy, rel=1e-12)


class TestNorms:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_constant_on_unit_domain(self, p):
        spec = GridSpec.interval(16)
        assert lp_norm(ScalarField.full(spec, -2.0), p) == pytest.approx(2.0)

    def test_sup_norm(self):
        spec = GridSpec.interval(4)
        assert sup_norm(ScalarField(spec, [-3.0, 2.0, 0.0, 1.0])) == 3.0

    def test_l2_consistency_with_integrate(self):
        spec = GridSpec.rectangle((6, 7))
        f = random_field(spec, 12, -2.0, 2.0)
        sq = integrate(ScalarField(spec, f.values**2))
        assert lp_norm(f, 2.0) ** 2 == pytest.approx(sq, rel=1e-12)

    def test_p_below_one_raises(self):
        with pytest.raises(ValueError):
            lp_norm(ScalarField.full(GridSpec.interval(4), 1.0), 0.5)


class TestDeterminism:
    def test_bitwise_repeatability(self):
        spec = GridSpec.rectangle((10, 10))
        u = random_field(spec, 21)
        phi = random_field(spec, 22, -1.0, 1.0)
        a = div_u_grad_values(u.values, phi.values, spec.spacing)
        b = div_u_grad_values(u.values, phi.values, spec.spacing)
        assert np.array_equal(a, b)
        lap = laplacian_values(u.values, spec.spacing)
        assert np.array_equal(lap, laplacian_values(u.values, spec.spacing))


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
SNAPSHOT_GRIDS = [GridSpec.interval(n) for n in (3, 6, 12, 17, 200)] + [
    GridSpec.rectangle(shape) for shape in ((6, 4), (5, 9), (64, 64))
]


def reference_snapshot(f, time):
    """The snapshot text written one f-string per value, six values to a line."""
    spec = f.spec
    lines = [
        f"dim {spec.dim}",
        "n_cells " + " ".join(str(n) for n in spec.n_cells),
        "length " + " ".join(f"{L:.17g}" for L in spec.length),
        f"time {time:.17g}",
    ]
    flat = f.values.ravel()
    for start in range(0, flat.size, 6):
        lines.append(" ".join(f"{x:.17g}" for x in flat[start : start + 6]))
    return "\n".join(lines) + "\n"


def snapshot_field(spec, seed, specials, finite):
    """Doubles from random bit patterns with ``specials`` written over random cells."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64, size=spec.total_cells, dtype=np.uint64).view(np.float64)
    cells = rng.choice(spec.total_cells, size=min(len(specials), spec.total_cells), replace=False)
    values[cells] = specials[: cells.size]
    if finite:
        values[~np.isfinite(values)] = 1.0
    return ScalarField(spec, values)


# each example rewrites the same file under tmp_path, so sharing it is safe
snapshot_settings = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
snapshot_cases = dict(
    spec=st.sampled_from(SNAPSHOT_GRIDS),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.sampled_from(SPECIAL_VALUES), max_size=len(SPECIAL_VALUES)),
    time=st.floats(allow_nan=False, allow_infinity=False),
)


class TestSnapshots:
    @snapshot_settings
    @given(**snapshot_cases)
    def test_bytes_match_per_value_writer(self, spec, seed, specials, time, tmp_path):
        f = snapshot_field(spec, seed, specials, finite=False)
        path = tmp_path / "snap.dat"
        save_snapshot(f, time, path)
        assert path.read_text() == reference_snapshot(f, time)

    @snapshot_settings
    @given(**snapshot_cases)
    def test_finite_values_round_trip_bitwise(self, spec, seed, specials, time, tmp_path):
        f = snapshot_field(spec, seed, specials, finite=True)
        path = tmp_path / "snap.dat"
        save_snapshot(f, time, path)
        g, t = load_snapshot(path)
        assert g.spec == spec
        assert np.array_equal(g.values.view(np.uint64), f.values.view(np.uint64))
        assert np.float64(t).view(np.uint64) == np.float64(time).view(np.uint64)

    @pytest.mark.parametrize("spec", SNAPSHOT_GRIDS, ids=lambda s: "x".join(map(str, s.n_cells)))
    def test_six_values_per_line_and_no_empty_line(self, spec, tmp_path):
        f = snapshot_field(spec, 5, SPECIAL_VALUES, finite=False)
        path = tmp_path / "snap.dat"
        save_snapshot(f, 0.5, path)
        text = path.read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        counts = [len(line.split()) for line in text.splitlines()[4:]]
        full, rest = divmod(spec.total_cells, 6)
        assert counts == [6] * full + ([rest] if rest else [])

    @pytest.mark.parametrize(
        "text,missing",
        [("", "dim"), ("dim 2\nn_cells 4 4\n", "length"), ("dim 1\nn_cells 4\nlength 1\n", "time")],
    )
    def test_missing_header_line_is_named(self, text, missing, tmp_path):
        path = tmp_path / "short.dat"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"short.dat: missing header line '{missing}'"):
            load_snapshot(path)

    def test_wrong_value_count_is_named(self, tmp_path):
        path = tmp_path / "count.dat"
        path.write_text("dim 2\nn_cells 4 4\nlength 1 1\ntime 0\n" + "1 " * 15 + "\n")
        with pytest.raises(ValueError, match="count.dat: 15 values, 16 cells"):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "spec", [GridSpec.interval(17, 2.0), GridSpec.rectangle((5, 9), (1.0, 3.0))]
    )
    def test_round_trip(self, spec, tmp_path):
        f = random_field(spec, 31, -5.0, 5.0)
        path = tmp_path / "snap.dat"
        save_snapshot(f, 0.125, path)
        g, t = load_snapshot(path)
        assert t == 0.125
        assert g.spec == spec
        assert np.array_equal(g.values, f.values)
