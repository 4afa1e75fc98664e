"""Acceptance suite: one test per criterion, each printing a pass line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The two long simulations (criteria 5/6 and 10) are module-scoped
fixtures so they execute once.
"""

import math
import time

import numpy as np
import pytest

from arcsim import elliptic, mms, theory
from arcsim.cli import main
from arcsim.config import build_profile
from arcsim.grid import GridSpec, ScalarField, cell_centers, integrate
from arcsim.kinetics import ModelParams
from arcsim.stepper import COMPLETED, RunConfig, run

# reference comparison-curve closed forms, written out independently of the
# theory module (the package path must reproduce them, not the reverse)
REFERENCE_REPULSION_COEFF = {
    3: (36 / 5) * (6 / 5) ** (2 / 3),
    4: (32 / 3) * math.sqrt(5 / 3),
    5: (50 / 7) * (5 / 7) ** (2 / 5) * 2 ** (1 / 5) * 3 ** (4 / 5),
    6: 9 * (21 / 2) ** (1 / 3),
}
REFERENCE_LOGISTIC = {
    3: lambda x: 3 * 39 ** (1 / 3) * 2 ** (-2 / 3) * x ** (2 / 3) + 3900 * x**6,
    4: lambda x: (24 / 5) * (51 / 5) ** (1 / 4) * x ** (1 / 2)
    + (1279488 / 25) * (714 / 5) ** (1 / 2) * x**8,
    5: lambda x: (10 / 3) * 2 ** (3 / 5) * 35 ** (1 / 5) * x ** (2 / 5) + 152409600 * x**10,
    6: lambda x: (30 / 7) * (3 / 7) ** (1 / 6) * 10 ** (1 / 2) * x ** (1 / 3)
    + (3833280000000 / 343) * (165 / 7) ** (1 / 2) * x**12,
}
CROSSOVER_TARGETS = {3: 0.598, 4: 0.456, 5: 0.353, 6: 0.285}


def report(k, text):
    print(f"\nACCEPTANCE {k:2d} PASS: {text}")


@pytest.fixture(scope="module")
def bump_run_1d():
    """1D reference run: N=200, linear production, sublinear consumption."""
    spec = GridSpec.interval(200)
    params = ModelParams(chi=1.0, xi=1.0, delta=1.0, K=1.0, gamma=1.0, alpha=0.5, l=1.0, n=1)
    u0 = build_profile(spec, "cosine-bump", 1.0, 0.5, (0.5,), (0.5,))
    v0 = ScalarField.full(spec, 1.0)
    config = RunConfig(
        grid=spec,
        params=params,
        u0=u0,
        v0=v0,
        t_end=1.0,
        dt_safety=0.8,
        output_interval=0.1,
    )
    start = time.perf_counter()
    records, final, termination = run(config)
    elapsed = time.perf_counter() - start
    return config, records, final, termination, elapsed


@pytest.fixture(scope="module")
def bump_run_2d():
    """2D bounded-regime run: N=64^2, admissible consumption, any repulsion."""
    spec = GridSpec.rectangle((64, 64))
    params = ModelParams(chi=1.0, xi=0.5, delta=1.0, K=1.0, gamma=1.0, alpha=0.9, l=1.0, n=2)
    u0 = build_profile(spec, "gaussian-bump", 1.0, 0.5, (0.5, 0.5), (0.15, 0.15))
    v0 = build_profile(spec, "gaussian-bump", 0.5, 0.5, (0.5, 0.5), (0.2, 0.2))
    config = RunConfig(
        grid=spec,
        params=params,
        u0=u0,
        v0=v0,
        t_end=5.0,
        dt_safety=0.8,
        output_interval=0.1,
    )
    start = time.perf_counter()
    records, final, termination = run(config)
    elapsed = time.perf_counter() - start
    return config, records, final, termination, elapsed


def test_criterion_01_critical_coefficients_match_reference_curves():
    for n, expected in REFERENCE_REPULSION_COEFF.items():
        got = theory.critical_coefficient(n)
        assert got == pytest.approx(expected, rel=1e-9), f"n={n}"
    report(1, "critical repulsion coefficients match all four reference curve "
              "coefficients to 1e-9 relative")


def test_criterion_02_threshold_specializes_at_half_dimension():
    for n in range(3, 9):
        coeff = theory.critical_coefficient(n)
        for s in (0.1, 1.0, 10.0):
            lhs = theory.xi_threshold(n / 2.0, n, s)
            rhs = coeff * s ** (4.0 / n)
            assert lhs == pytest.approx(rhs, rel=1e-12), f"n={n}, s={s}"
    report(2, "xi threshold at p = n/2 equals coefficient * s^(4/n) to 1e-12 "
              "relative for n in 3..8, s in {0.1, 1, 10}")


def test_criterion_03_crossover_abscissas():
    values = {n: theory.crossover_abscissa(n) for n in (3, 4, 5, 6)}
    for n, target in CROSSOVER_TARGETS.items():
        assert values[n] == pytest.approx(target, abs=0.01), f"n={n}"
    ordered = [values[n] for n in (3, 4, 5, 6)]
    assert all(b < a for a, b in zip(ordered, ordered[1:]))
    report(3, "matched-curve crossover abscissas reproduce (0.598, 0.456, 0.353, "
              "0.285) within 0.01 and decrease strictly in n")


def test_criterion_04_figure_data_reproduction(tmp_path):
    assert main(["figures", "fig1", "--out", str(tmp_path), "--samples", "50"]) == 0
    import csv

    for n in (3, 4, 5, 6):
        with open(tmp_path / f"fig1_n{n}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        for row in rows:
            s = float(row["s"])
            mu, xi = float(row["C_mu"]), float(row["C_xi"])
            if s == 0.0:
                assert mu == 0.0 and xi == 0.0
                continue
            assert mu == pytest.approx(REFERENCE_LOGISTIC[n](s), rel=1e-9)
            assert xi == pytest.approx(REFERENCE_REPULSION_COEFF[n] * s ** (4.0 / n), rel=1e-9)
    report(4, "figure CSV output matches the reference per-dimension curve "
              "closed forms at 50 sample points to 1e-9 relative")


def test_criterion_05_mass_conservation(bump_run_1d):
    config, records, final, termination, elapsed = bump_run_1d
    assert termination == COMPLETED
    m0 = integrate(config.u0)
    drift = max(abs(r.mass - m0) for r in records)
    assert drift + final.clipped_mass <= 1e-10 * m0
    report(5, f"1D N=200 run to t=1 ({final.step} steps, {elapsed:.1f}s): "
              f"|mass drift| + clipped mass = {drift + final.clipped_mass:.3e} "
              f"<= 1e-10 * m0 = {1e-10 * m0:.3e}")


def test_criterion_06_attractant_comparison_bound(bump_run_1d):
    config, records, final, termination, elapsed = bump_run_1d
    v0_sup = float(np.max(config.v0.values))
    worst = max(r.sup_v for r in records)
    assert worst <= v0_sup * (1.0 + 1e-10)
    report(6, f"same run: max sup(v) over records = {worst:.12f} never exceeds "
              f"sup(v0) = {v0_sup} beyond 1e-10 relative")


def test_criterion_07_homogeneous_ode_oracle():
    spec = GridSpec.interval(64)
    params = ModelParams(chi=1.0, xi=1.0, delta=1.0, K=1.0, gamma=1.0, alpha=0.5, l=1.0, n=1)
    config = RunConfig(
        grid=spec,
        params=params,
        u0=ScalarField.full(spec, 2.0),
        v0=ScalarField.full(spec, 1.0),
        t_end=1.0,
        output_interval=0.25,
    )
    start = time.perf_counter()
    records, final, termination = run(config)
    elapsed = time.perf_counter() - start
    assert termination == COMPLETED
    assert np.all(final.u.values == 2.0)  # exactly constant, not approximately
    expected = math.exp(-math.sqrt(2.0))
    v_err = abs(float(final.v.values.flat[0]) - expected) / expected
    assert v_err <= 1e-4
    w_err = float(np.max(np.abs(final.w.values - 2.0)))
    assert w_err <= 1e-9
    report(7, f"homogeneous run ({elapsed:.1f}s): u stays exactly 2, "
              f"|v(1) - exp(-sqrt(2))| rel = {v_err:.2e} <= 1e-4, "
              f"|w - g(2)/delta| = {w_err:.2e} <= 1e-9")


def test_criterion_08_elliptic_mean_identity():
    rng = np.random.default_rng(2024)
    deltas = (0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    start = time.perf_counter()
    for case in range(20):
        if case < 10:
            spec = GridSpec.interval(128 + 16 * case)
        else:
            spec = GridSpec.rectangle((16 + 4 * (case - 10), 24))
        delta = deltas[case % len(deltas)]
        source = ScalarField(spec, 0.05 + rng.random(spec.shape))
        w = ScalarField(spec, elliptic.solve_w_values(source.values, spec.spacing, delta))
        lhs, rhs = delta * integrate(w), integrate(source)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    report(8, f"mean identity delta*int(w) = int(source) on 20 randomized 1D/2D "
              f"solves ({elapsed:.1f}s): worst relative error {worst:.2e} <= 1e-10")


def test_criterion_09_manufactured_solution_order():
    start = time.perf_counter()
    result = mms.run_convergence(4, base_cells=25, t_end=0.1)
    elapsed = time.perf_counter() - start
    assert not result.skipped
    assert 1.8 <= result.observed_order <= 2.2
    report(9, f"manufactured-solution study over grids {result.cells} ({elapsed:.1f}s): "
              f"observed order {result.observed_order:.3f} in [1.8, 2.2]")


def test_criterion_10_bounded_regime_2d(bump_run_2d):
    config, records, final, termination, elapsed = bump_run_2d
    assert termination == COMPLETED
    early = [r for r in records if r.t <= 1.0 + 1e-12]
    assert early, "no records before t = 1"
    sup_u_early = max(r.sup_u for r in early)
    sup_u_all = max(r.sup_u for r in records)
    assert sup_u_all <= 10.0 * sup_u_early
    y_early = max(r.y_p for r in early)
    y_all = max(r.y_p for r in records)
    assert all(np.isfinite(r.y_p) for r in records)
    assert y_all <= 10.0 * y_early
    report(10, f"2D 64x64 run to t=5 ({final.step} steps, {elapsed:.0f}s): completed; "
               f"max sup(u) = {sup_u_all:.4f} <= 10x early max {sup_u_early:.4f}; "
               f"y_2 bounded (max {y_all:.4f} vs early {y_early:.4f})")


def test_criterion_11_interpolation_exponents_valid():
    count = 0
    for l in (1.25, 1.5, 2.0, 3.0):
        for n in (1, 2, 3, 4, 5):
            lo = max(theory.p_admissible_range(l, n)[0], n / 2.0, 1.0)
            for bump in np.linspace(0.05, 12.0, 10):
                p = lo + float(bump)
                theta1 = theory.production_exponent(l, n, p)
                theta = theory.absorption_exponent(n, p)
                assert 0.0 < theta1 < 1.0
                assert 0.0 < theta < 1.0
                assert (p + l) / p * theta1 < 1.0
                count += 1
    assert count == 200
    report(11, "interpolation exponents lie in (0,1) and satisfy the "
               "absorbability bound on a 200-point admissible (l, n, p) grid")
