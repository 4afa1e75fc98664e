"""Rate-law and hypothesis-check tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arcsim import theory
from arcsim.kinetics import ModelParams, f_of, g_of, validate_hypotheses


def make_params(**overrides):
    base = dict(chi=1.0, xi=1.0, delta=1.0, K=1.0, gamma=1.0, alpha=0.5, l=1.0, n=2)
    base.update(overrides)
    return ModelParams(**base)


class TestModelParams:
    @pytest.mark.parametrize("field", ["chi", "xi", "delta", "K", "gamma", "alpha"])
    def test_positive_required(self, field):
        with pytest.raises(ValueError):
            make_params(**{field: 0.0})

    def test_l_and_n_ranges(self):
        with pytest.raises(ValueError):
            make_params(l=0.5)
        with pytest.raises(ValueError):
            make_params(n=0)
        assert make_params(n=3.0).n == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["chi", "xi", "delta", "K", "gamma", "alpha", "l", "n"])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            make_params(**{field: value})


class TestRates:
    def test_f_values(self):
        params = make_params(K=1.0, alpha=0.5)
        assert f_of(0.0, params) == 0.0
        assert f_of(4.0, params) == pytest.approx(2.0)
        for alpha in (0.25, 0.5, 0.9):
            assert f_of(1.0, make_params(K=3.0, alpha=alpha)) == pytest.approx(3.0)

    def test_g_values(self):
        assert g_of(0.0, make_params(l=1.0)) == 0.0
        assert g_of(5.0, make_params(gamma=2.0, l=1.0)) == pytest.approx(10.0)
        assert g_of(1.0, make_params(gamma=1.0, l=2.0)) == pytest.approx(2.0)

    def test_negative_argument_rejected(self):
        params = make_params()
        with pytest.raises(ValueError):
            f_of(-1.0, params)
        with pytest.raises(ValueError):
            g_of(np.array([0.5, -0.1]), params)

    def test_linear_production_exact(self):
        params = make_params(gamma=1.3, l=1.0)
        s = np.linspace(0.0, 10.0, 101)
        assert np.array_equal(g_of(s, params), 1.3 * s)

    @settings(max_examples=300, deadline=None)
    @given(
        s=arrays(np.float64, st.integers(1, 50), elements=st.floats(0.0, 1e308)),
        gamma=st.floats(1e-6, 1e6),
    )
    def test_linear_production_is_the_general_law_bitwise(self, s, gamma):
        params = make_params(gamma=gamma, l=1.0)
        with np.errstate(over="ignore"):
            expected = gamma * s * (s + 1.0) ** 0.0
            got = g_of(s, params)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("l", [1.0, 1.5, 2.0, 3.0])
    def test_production_envelope(self, l):
        params = make_params(gamma=0.7, l=l)
        s = np.linspace(0.0, 5.0, 201)
        g = g_of(s, params)
        lower = 0.7 * s**l
        upper = 0.7 * s * (s + 1.0) ** (l - 1.0)
        assert np.all(g >= lower - 1e-14)
        assert np.all(g <= upper + 1e-14)
        if l > 1.0:
            # lower envelope is strict except at the origin
            assert np.all(g[1:] > lower[1:])

    def test_consumption_saturates_envelope(self):
        params = make_params(K=2.0, alpha=0.3)
        s = np.linspace(0.0, 4.0, 101)
        assert np.allclose(f_of(s, params), 2.0 * s**0.3)

    @pytest.mark.parametrize("l", [1.0, 2.0])
    def test_rates_nondecreasing(self, l):
        params = make_params(l=l, alpha=0.8)
        s = np.linspace(0.0, 8.0, 400)
        assert np.all(np.diff(f_of(s, params)) >= 0.0)
        assert np.all(np.diff(g_of(s, params)) >= 0.0)


def _expected_verdict(params, chi_v0_sup):
    """(satisfied, xi_required, warning count), straight from the theory module."""
    alpha_ok = params.alpha < theory.alpha_upper_bound(params.n)
    if params.l > 1.0 or params.n <= 2:
        xi_required, xi_ok = 0.0, True
    elif chi_v0_sup is None:
        xi_required, xi_ok = None, None
    else:
        xi_required = theory.repulsion_curve(chi_v0_sup, params.n)
        xi_ok = params.xi > xi_required
    return (xi_ok if alpha_ok else False), xi_required, (not alpha_ok) + (xi_ok is not True)


class TestValidateHypotheses:
    def test_report_is_a_frozen_verdict(self):
        report = validate_hypotheses(make_params())
        assert [f.name for f in dataclasses.fields(report)] == [
            "satisfied", "xi_required", "warnings"
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.satisfied = False

    def test_low_dimension_linear(self):
        report = validate_hypotheses(make_params(alpha=0.9, l=1.0, n=2))
        assert report.xi_required == 0.0
        assert report.satisfied is True
        assert report.warnings == ()

    def test_alpha_out_of_range_n3(self):
        report = validate_hypotheses(make_params(alpha=0.9, n=3), chi_v0_sup=1.0)
        assert report.satisfied is False
        assert any("(0, 5/6)" in w for w in report.warnings)

    def test_superlinear_any_xi(self):
        report = validate_hypotheses(make_params(alpha=0.5, l=2.0, n=4, xi=1e-9))
        assert report.satisfied is True
        assert report.xi_required == 0.0
        assert report.warnings == ()

    def test_threshold_comparison(self):
        s = 0.8
        needed = theory.critical_coefficient(3) * s ** (4.0 / 3.0)
        low = validate_hypotheses(make_params(n=3, xi=needed * 0.99), chi_v0_sup=s)
        high = validate_hypotheses(make_params(n=3, xi=needed * 1.01), chi_v0_sup=s)
        assert low.xi_required == pytest.approx(needed)
        assert low.satisfied is False
        assert high.satisfied is True
        assert len(low.warnings) == 1 and high.warnings == ()

    def test_unknown_attractant_peak(self):
        report = validate_hypotheses(make_params(n=3))
        assert report.xi_required is None
        assert report.satisfied is None
        assert any("chi*sup(v0)" in w for w in report.warnings)

    def test_never_raises_outside_ranges(self):
        report = validate_hypotheses(make_params(alpha=2.0, n=5, l=1.0), chi_v0_sup=10.0)
        assert report.satisfied is False
        assert len(report.warnings) == 2

    @pytest.mark.parametrize("chi_v0_sup", [np.inf, np.nan, -1.0])
    def test_bad_attractant_peak_is_named(self, chi_v0_sup):
        for n in (1, 3):
            with pytest.raises(ValueError, match="^chi_v0_sup must be >= 0 and finite"):
                validate_hypotheses(make_params(n=n), chi_v0_sup=chi_v0_sup)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 8),
        l=st.one_of(st.just(1.0), st.floats(1.0, 3.0, exclude_min=True)),
        alpha=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
        xi=st.floats(1e-6, 1e3),
        chi_v0_sup=st.one_of(st.none(), st.floats(0.0, 50.0)),
    )
    def test_verdict_matches_the_theory(self, n, l, alpha, xi, chi_v0_sup):
        params = make_params(n=n, l=l, alpha=alpha, xi=xi)
        report = validate_hypotheses(params, chi_v0_sup=chi_v0_sup)
        satisfied, xi_required, n_warnings = _expected_verdict(params, chi_v0_sup)
        assert report.satisfied is satisfied
        assert report.xi_required == xi_required
        assert len(report.warnings) == n_warnings
