"""Closed-form constant, exponent, and comparison-curve tests.

Frozen reference numbers were computed independently with 40-digit mpmath
arithmetic from the defining expressions; crossover references come from the
per-dimension closed forms (the leading terms cancel, leaving a pure power
equation solvable by hand).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsim import theory

# independently computed at 40 digits, truncated to double precision
TILDE_15_3 = 8.693832296519182
CRITICAL = {
    3: 8.130551289532086,
    4: 13.770607453181927,
    5: 17.271249298477801,
    6: 19.707836129495502,
    7: 21.603195853015537,
    8: 23.204163051699979,
}
CROSSOVER_CLOSED_FORM = {
    3: 0.5964101714334400,
    4: 0.4560793596570562,
    5: 0.3514555355423111,
    6: 0.2843305042146756,
}

# reference per-dimension logistic comparison curves (one term in s^(2/n),
# one in s^(2n)); the general formula must reproduce them
REFERENCE_LOGISTIC = {
    3: lambda x: 3 * 39 ** (1 / 3) * 2 ** (-2 / 3) * x ** (2 / 3) + 3900 * x**6,
    4: lambda x: (24 / 5) * (51 / 5) ** 0.25 * x**0.5
    + (1279488 / 25) * (714 / 5) ** 0.5 * x**8,
    5: lambda x: (10 / 3) * 2**0.6 * 35**0.2 * x**0.4 + 152409600 * x**10,
    6: lambda x: (30 / 7) * (3 / 7) ** (1 / 6) * 10**0.5 * x ** (1 / 3)
    + (3833280000000 / 343) * (165 / 7) ** 0.5 * x**12,
}
REFERENCE_REPULSION_COEFF = {
    3: (36 / 5) * (6 / 5) ** (2 / 3),
    4: (32 / 3) * math.sqrt(5 / 3),
    5: (50 / 7) * (5 / 7) ** 0.4 * 2**0.2 * 3**0.8,
    6: 9 * (21 / 2) ** (1 / 3),
}


class TestThresholdConstant:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [1.5, 2.0, 7.0])
    def test_vanishes_in_low_dimension(self, n, p):
        assert theory.threshold_constant(p, n) == 0.0

    def test_rational_value(self):
        assert theory.threshold_constant(2.0, 3) == pytest.approx(2432.0 / 27.0, rel=1e-15)

    def test_frozen_value(self):
        assert theory.threshold_constant(1.5, 3) == pytest.approx(TILDE_15_3, rel=1e-13)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            theory.threshold_constant(1.0, 3)
        with pytest.raises(ValueError):
            theory.threshold_constant(0.5, 3)

    @pytest.mark.parametrize("p", [10.0, 30.0, 49.0])
    def test_log_branch_matches_direct(self, p):
        direct = theory.threshold_constant(p, 5)
        via_log = math.exp(theory._ln_threshold_constant(p, 5))
        assert via_log == pytest.approx(direct, rel=1e-12)

    def test_large_p_behavior(self):
        # around p = 100 the log branch still represents the value; far past
        # that the constant overflows double range while the threshold,
        # which takes its p-th root, stays finite and well scaled
        assert math.isfinite(theory.threshold_constant(100.0, 3))
        assert theory.threshold_constant(200.0, 3) == math.inf
        thr = theory.xi_threshold(200.0, 3, 2.0)
        assert math.isfinite(thr) and 1.0 < thr < 1e4


class TestXiThreshold:
    @pytest.mark.parametrize("p", [1.2, 2.0, 5.0])
    @pytest.mark.parametrize("s", [0.0, 0.5, 3.0])
    def test_zero_in_low_dimension(self, p, s):
        assert theory.xi_threshold(p, 2, s) == 0.0

    def test_zero_at_origin(self):
        assert theory.xi_threshold(2.0, 5, 0.0) == 0.0

    def test_frozen_value(self):
        assert theory.xi_threshold(1.5, 3, 1.0) == pytest.approx(8.130551289532086, rel=1e-13)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_strictly_increasing_in_s(self, n):
        values = [theory.xi_threshold(2.0, n, s) for s in np.linspace(0.1, 10.0, 25)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_large_p_log_path(self):
        value = theory.xi_threshold(120.0, 3, 2.0)
        assert math.isfinite(value) and value > 0.0


class TestCriticalCoefficient:
    def test_low_dimensions(self):
        assert theory.critical_coefficient(1) == 0.0
        assert theory.critical_coefficient(2) == 0.0

    @pytest.mark.parametrize("n", sorted(CRITICAL))
    def test_frozen_values(self, n):
        assert theory.critical_coefficient(n) == pytest.approx(CRITICAL[n], rel=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_reference_leading_coefficients(self, n):
        assert theory.critical_coefficient(n) == pytest.approx(
            REFERENCE_REPULSION_COEFF[n], rel=1e-9
        )

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_half_n_specialization_identity(self, n, s):
        lhs = theory.xi_threshold(n / 2.0, n, s)
        rhs = theory.critical_coefficient(n) * s ** (4.0 / n)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestAdmissibleRange:
    def test_examples(self):
        assert theory.p_admissible_range(1.0, 2) == (1.0, math.inf)
        assert theory.p_admissible_range(1.0, 1) == (1.0, math.inf)
        lo, hi = theory.p_admissible_range(2.0, 3)
        assert lo == pytest.approx(8.0 / 3.0)
        assert hi == math.inf

    def test_invalid_l(self):
        with pytest.raises(ValueError):
            theory.p_admissible_range(0.9, 2)


class TestProductionExponent:
    def test_exact_values(self):
        assert theory.production_exponent(2.0, 2, 4.0) == pytest.approx(0.5)
        assert theory.production_exponent(2.0, 3, 3.0) == pytest.approx(9.0 / 16.0)

    def test_vanishes_as_l_approaches_one(self):
        assert theory.production_exponent(1.0 + 1e-9, 2, 4.0) < 1e-8

    def test_preconditions(self):
        with pytest.raises(ValueError):
            theory.production_exponent(1.0, 2, 4.0)
        with pytest.raises(ValueError):
            theory.production_exponent(2.0, 3, 2.0)  # below max(l, l(nl-2)/n) = 8/3


class TestAbsorptionExponent:
    def test_exact_values(self):
        assert theory.absorption_exponent(2, 2.0) == pytest.approx(0.5)
        assert theory.absorption_exponent(1, 2.0) == pytest.approx(1.0 / 3.0)

    def test_limit_toward_one(self):
        assert theory.absorption_exponent(3, 1e6) == pytest.approx(1.0, abs=1e-5)

    def test_precondition(self):
        with pytest.raises(ValueError):
            theory.absorption_exponent(4, 2.0)


def admissible_grid():
    """200 admissible (l, n, p) combinations for both exponents."""
    cases = []
    for l in (1.25, 1.5, 2.0, 3.0):
        for n in (1, 2, 3, 4, 5):
            lo = max(theory.p_admissible_range(l, n)[0], n / 2.0, 1.0)
            for bump in np.linspace(0.05, 12.0, 10):
                cases.append((l, n, lo + bump))
    assert len(cases) == 200
    return cases


class TestExponentProperties:
    @pytest.mark.parametrize("l,n,p", admissible_grid())
    def test_open_unit_interval_and_absorbability(self, l, n, p):
        theta1 = theory.production_exponent(l, n, p)
        theta = theory.absorption_exponent(n, p)
        assert 0.0 < theta1 < 1.0
        assert 0.0 < theta < 1.0
        assert (p + l) / p * theta1 < 1.0


class TestLogisticThreshold:
    def test_zero_at_origin(self):
        for n in (2, 3, 6):
            assert theory.logistic_threshold(0.0, n) == 0.0

    def test_frozen_value(self):
        assert theory.logistic_threshold(0.1, 3) == pytest.approx(1.3846746123773833, rel=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_general_formula_matches_reference(self, n):
        smax = theory.COMPARISON_S_MAX[n]
        for s in np.linspace(0.05, smax, 20):
            assert theory.logistic_threshold(float(s), n) == pytest.approx(
                REFERENCE_LOGISTIC[n](s), rel=1e-9
            )

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            theory.logistic_threshold(0.5, 1)

    def test_strictly_increasing(self):
        values = [theory.logistic_threshold(s, 4) for s in np.linspace(0.01, 0.5, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestRepulsionCurve:
    def test_values(self):
        assert theory.repulsion_curve(0.0, 3) == 0.0
        expected = CRITICAL[3] * 0.3 ** (4.0 / 3.0)
        assert theory.repulsion_curve(0.3, 3) == pytest.approx(expected, rel=1e-13)
        assert theory.repulsion_curve(0.2, 4) == pytest.approx(CRITICAL[4] * 0.2, rel=1e-13)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            theory.repulsion_curve(0.5, 2)

    def test_strictly_increasing(self):
        values = [theory.repulsion_curve(s, 5) for s in np.linspace(0.01, 1.0, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestMatchedCurves:
    def test_small_s_ratio_dimension_three(self):
        # leading coefficients 36/5 vs 6/5 share the same radical
        mu, xi = theory.matched_p_curves(3, 1e-9)
        assert xi / mu == pytest.approx(6.0, rel=1e-6)

    def test_dimension_four_value(self):
        mu, xi = theory.matched_p_curves(4, 0.1)
        assert xi == pytest.approx((32.0 / 3.0) * math.sqrt(5.0 / 3.0) * 0.1, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ordering_flips_across_crossover(self, n):
        rho = theory.crossover_abscissa(n)
        mu_lo, xi_lo = theory.matched_p_curves(n, 0.5 * rho)
        mu_hi, xi_hi = theory.matched_p_curves(n, min(1.5 * rho, theory.MATCHED_S_MAX[n]))
        assert mu_lo < xi_lo
        assert mu_hi > xi_hi

    def test_untabulated_dimension(self):
        with pytest.raises(ValueError):
            theory.matched_p_curves(7, 0.1)


class TestCrossover:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_closed_form(self, n):
        assert theory.crossover_abscissa(n) == pytest.approx(
            CROSSOVER_CLOSED_FORM[n], abs=2e-10
        )

    def test_strictly_decreasing(self):
        values = [theory.crossover_abscissa(n) for n in (3, 4, 5, 6)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_untabulated_dimension(self):
        with pytest.raises(ValueError):
            theory.crossover_abscissa(2)


class TestTheoryReport:
    """The constants of the theory, each evaluated at one (n, p, l, s) point."""

    def test_linear_production_report(self):
        assert theory.threshold_constant(2.0, 3) == pytest.approx(2432.0 / 27.0, rel=1e-14)
        with pytest.raises(ValueError, match="l must be > 1"):
            theory.production_exponent(1.0, 3, 2.0)  # linear production has no such exponent
        assert 0.0 < theory.absorption_exponent(3, 2.0) < 1.0
        assert theory.alpha_upper_bound(3) == pytest.approx(5.0 / 6.0)
        assert theory.xi_threshold(2.0, 3, 1.0) == pytest.approx(math.sqrt(2.0 * 2432.0 / 27.0))

    def test_superlinear_report(self):
        assert theory.threshold_constant(4.0, 2) == 0.0
        assert theory.production_exponent(2.0, 2, 4.0) == pytest.approx(0.5)
        assert theory.p_admissible_range(2.0, 2)[0] == pytest.approx(2.0)

    def test_nan_p_named(self):
        with pytest.raises(ValueError, match="p must be > 1 and finite, got nan"):
            theory.threshold_constant(math.nan, 3)


@st.composite
def admissible_points(draw):
    """(n, l, p): n in 1..8, l in {1} or (1, 3], p in (max(1, n/2, p-range lower bound), 1e3]."""
    n = draw(st.integers(1, 8))
    l = draw(st.one_of(st.just(1.0), st.floats(1.0, 3.0, exclude_min=True)))
    lo = max(1.0, n / 2.0, theory.p_admissible_range(l, n)[0])
    return n, l, draw(st.floats(lo, 1e3, exclude_min=True))


class TestInvariantsOverAdmissiblePoints:
    @settings(max_examples=300, deadline=None)
    @given(point=admissible_points())
    def test_threshold_constant_vanishes_exactly_below_dimension_three(self, point):
        n, _, p = point
        const = theory.threshold_constant(p, n)
        assert const >= 0.0
        assert (const == 0.0) == (n <= 2)

    @settings(max_examples=300, deadline=None)
    @given(point=admissible_points())
    def test_exponents_in_open_unit_interval(self, point):
        n, l, p = point
        assert 0.0 < theory.absorption_exponent(n, p) < 1.0
        if l > 1.0:
            assert 0.0 < theory.production_exponent(l, n, p) < 1.0


class TestNonFiniteArguments:
    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_p_rejected(self, p):
        for call in (lambda: theory.threshold_constant(p, 3), lambda: theory.xi_threshold(p, 3, 1.0)):
            with pytest.raises(ValueError, match=f"p must be > 1 and finite, got {p}"):
                call()

    @pytest.mark.parametrize("s", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize(
        "curve",
        [
            lambda s: theory.xi_threshold(2.0, 3, s),
            lambda s: theory.xi_threshold(2.0, 2, s),
            lambda s: theory.logistic_threshold(s, 3),
            lambda s: theory.repulsion_curve(s, 3),
            lambda s: theory.matched_p_curves(3, s),
        ],
        ids=["xi_threshold", "xi_threshold_n2", "logistic", "repulsion", "matched"],
    )
    def test_s_rejected(self, curve, s):
        with pytest.raises(ValueError, match=f"s must be >= 0 and finite, got {s}"):
            curve(s)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "exponent",
        [
            lambda p: theory.absorption_exponent(3, p),
            lambda p: theory.production_exponent(2.0, 2, p),
        ],
        ids=["absorption", "production"],
    )
    def test_exponent_p_rejected(self, exponent, p):
        with pytest.raises(ValueError, match=f"p.*{p}"):
            exponent(p)

    @pytest.mark.parametrize("l", [math.nan, math.inf, -math.inf])
    def test_l_rejected(self, l):
        with pytest.raises(ValueError, match=f"l must be > 1 and finite, got {l}"):
            theory.production_exponent(l, 2, 3.0)
        with pytest.raises(ValueError, match=f"l must be >= 1 and finite, got {l}"):
            theory.p_admissible_range(l, 2)
