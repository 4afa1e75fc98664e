"""Closed-form constants, exponents, and comparison curves of the boundedness theory.

Everything here is explicit arithmetic: the constant behind the repulsion
threshold, the threshold itself, the interpolation exponents entering the
absorptive differential inequality, and the two comparison curves
(minimum logistic damping vs minimum repulsion sensitivity) together with
their crossover point. No simulation state is involved; all functions are
pure and stateless.
"""

from __future__ import annotations

import math

__all__ = [
    "threshold_constant",
    "xi_threshold",
    "critical_coefficient",
    "p_admissible_range",
    "production_exponent",
    "absorption_exponent",
    "alpha_upper_bound",
    "logistic_threshold",
    "repulsion_curve",
    "matched_p_curves",
    "crossover_abscissa",
    "COMPARISON_S_MAX",
    "MATCHED_S_MAX",
    "CURVE_DIMENSIONS",
]

# s-domains over which the two comparison figures are tabulated, per dimension
COMPARISON_S_MAX = {3: 0.4, 4: 0.28, 5: 0.22, 6: 0.1758}
MATCHED_S_MAX = {3: 0.7, 4: 0.6, 5: 0.5, 6: 0.4}
CURVE_DIMENSIONS = (3, 4, 5, 6)

# beyond this, p**(2p+1) style factors approach double overflow; go log-domain
_DIRECT_P_LIMIT = 50.0


def _check_p(p: float) -> None:
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must be > 1 and finite, got {p}")


def _check_s(s: float) -> None:
    if not 0.0 <= s < math.inf:
        raise ValueError(f"s must be >= 0 and finite, got {s}")


def _check_n(n: int) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    return int(n)


def _ln_threshold_constant(p: float, n: int) -> float:
    return (
        p * math.log(2.0)
        + (2.0 * p + 1.0) * math.log(p)
        + math.log(p - 1.0)
        + math.log(4.0 * p * p + n)
        - (p + 1.0) * math.log(p + 1.0)
    )


def threshold_constant(p: float, n: int) -> float:
    """Constant driving the repulsion threshold at analysis exponent p.

    Zero in dimensions 1 and 2 (no threshold needed); for n >= 3 it equals
    2**p * p**(2p+1) * (p-1) * (4p^2+n) / (p+1)**(p+1), which grows
    super-exponentially in p, hence the log-domain branch. Past p ~ 125 the
    true value exceeds double range and inf is returned; :func:`xi_threshold`
    stays finite there because only the p-th root of the constant enters it.
    """
    _check_p(p)
    n = _check_n(n)
    if n <= 2:
        return 0.0
    if p <= _DIRECT_P_LIMIT:
        return 2.0**p * p ** (2.0 * p + 1.0) * (p - 1.0) * (4.0 * p * p + n) / (p + 1.0) ** (p + 1.0)
    ln_val = _ln_threshold_constant(p, n)
    return math.exp(ln_val) if ln_val < 709.0 else math.inf


def xi_threshold(p: float, n: int, s: float) -> float:
    """Minimum repulsion sensitivity (4*C*s^2/p)**(1/p) with C = threshold_constant.

    ``s`` is chi*sup(v0), the attraction strength times the initial attractant
    peak. Returns 0 whenever the constant vanishes (n <= 2) or s = 0.
    """
    _check_p(p)
    n = _check_n(n)
    _check_s(s)
    if n <= 2 or s == 0.0:
        return 0.0
    if p <= _DIRECT_P_LIMIT:
        return (4.0 * threshold_constant(p, n) * s * s / p) ** (1.0 / p)
    ln_val = (math.log(4.0) + _ln_threshold_constant(p, n) + 2.0 * math.log(s) - math.log(p)) / p
    return math.exp(ln_val)


def critical_coefficient(n: int) -> float:
    """Coefficient of s**(4/n) in the dimension-level repulsion condition.

    This is the threshold specialized to p = n/2: ((8/n) * C(n/2, n))**(2/n),
    and 0 for n in {1, 2}.
    """
    n = _check_n(n)
    if n <= 2:
        return 0.0
    return ((8.0 / n) * threshold_constant(n / 2.0, n)) ** (2.0 / n)


def p_admissible_range(l: float, n: int) -> tuple[float, float]:
    """Open interval of analysis exponents p compatible with production power l."""
    if not 1.0 <= l < math.inf:
        raise ValueError(f"l must be >= 1 and finite, got {l}")
    n = _check_n(n)
    return (max(l, l * (n * l - 2.0) / n), math.inf)


def production_exponent(l: float, n: int, p: float) -> float:
    """Interpolation exponent controlling the superlinear-production estimate.

    Defined for l > 1 and p in the admissible range; the value lies in (0, 1)
    and satisfies (p+l)/p times it < 1, which is what makes the production
    term absorbable.
    """
    if not 1.0 < l < math.inf:
        raise ValueError(f"l must be > 1 and finite, got {l}")
    lo, _ = p_admissible_range(l, n)
    if p <= lo:
        raise ValueError(f"p={p} outside the admissible range ({lo}, inf)")
    _check_p(p)
    return (1.0 - 1.0 / l) / (1.0 + 2.0 / (n * p) - 1.0 / p)


def absorption_exponent(n: int, p: float) -> float:
    """Interpolation exponent of the absorptive inequality, in (0, 1).

    Requires p > max(1, n/2), the range in which an L^p bound upgrades to a
    uniform bound.
    """
    n = _check_n(n)
    if p <= max(1.0, n / 2.0):
        raise ValueError(f"p must exceed max(1, n/2) = {max(1.0, n / 2.0)}, got {p}")
    _check_p(p)
    return (n * p / 2.0) * (1.0 - 1.0 / p) / (1.0 - n / 2.0 + n * p / 2.0)


def alpha_upper_bound(n: int) -> float:
    """Upper end of the admissible consumption-exponent range (0, min(1, 1/2+1/n))."""
    return min(1.0, 0.5 + 1.0 / n)


def logistic_threshold(s: float, n: int) -> float:
    """Minimum logistic damping mu ensuring boundedness in the comparison model.

    Two-term closed form with leading behavior s**(2/n) and tail s**(2n);
    defined for n >= 2 (both terms vanish identically at n = 1).
    """
    n = _check_n(n)
    if n < 2:
        raise ValueError(f"logistic threshold needs n >= 2, got {n}")
    _check_s(s)
    base = (n - 1.0) * (4.0 * n * n + n) / (n + 1.0)
    term1 = 4.0 ** (1.0 / n) * (n - 1.0) * n / (n + 1.0) * base ** (1.0 / n) * s ** (2.0 / n)
    half = (n - 1.0) / 2.0
    term2 = (
        2.0 ** (half + n + 1.0)
        * (2.0 * n - 1.0)
        / (n + 1.0)
        * ((2.0 * n - 1.0) * base) ** half
        * s ** (2.0 * n)
    )
    return term1 + term2


def repulsion_curve(s: float, n: int) -> float:
    """Minimum repulsion sensitivity as a curve in s = chi*sup(v0), n >= 3.

    The exponent on s is 4/n, not 2/n: s enters the threshold squared before
    the 1/p root is taken, so specializing to p = n/2 yields s**(4/n). The
    tabulated matched curves all carry the same power.
    """
    n = _check_n(n)
    if n < 3:
        raise ValueError(f"repulsion curve needs n >= 3, got {n}")
    _check_s(s)
    return critical_coefficient(n) * s ** (4.0 / n)


# Matched-exponent comparison curves (both conditions evaluated at p = n/2),
# tabulated per dimension; the matched logistic ones have no general-p form.
_MATCHED_LOGISTIC = {
    3: lambda s: (6.0 / 5.0) * (6.0 / 5.0) ** (2.0 / 3.0) * s ** (4.0 / 3.0)
    + (56.0 / 5.0) * (21.0 / 5.0) ** 0.25 * s**3,
    4: lambda s: (8.0 / 3.0) * math.sqrt(5.0 / 3.0) * s
    + (400.0 / 3.0) * math.sqrt(2.0 / 3.0) * s**4,
    5: lambda s: (15.0 / 7.0) * (5.0 / 7.0) ** 0.4 * 2.0**0.2 * 3.0**0.8 * s**0.8
    + (624.0 / 7.0) * 2.0**0.25 * math.sqrt(3.0) * (65.0 / 7.0) ** 0.75 * s**5,
    6: lambda s: 3.0 * (21.0 / 2.0) ** (1.0 / 3.0) * s ** (2.0 / 3.0) + 10752.0 * s**6,
}


def matched_p_curves(n: int, s: float) -> tuple[float, float]:
    """(logistic, repulsion) thresholds at the matched exponent p = n/2.

    Only tabulated for n in {3, 4, 5, 6}. The repulsion curve is already a
    p = n/2 quantity, so it coincides with :func:`repulsion_curve`.
    """
    if n not in _MATCHED_LOGISTIC:
        raise ValueError(f"matched curves tabulated for n in {CURVE_DIMENSIONS}, got {n}")
    _check_s(s)
    return _MATCHED_LOGISTIC[n](s), repulsion_curve(s, n)


def crossover_abscissa(n: int) -> float:
    """Abscissa where the matched logistic and repulsion curves intersect.

    Below it the two stabilization demands are comparable; above it the
    logistic one grows much faster. Found by bisection on (1e-6, 1) to a
    bracket narrower than 1e-10.
    """
    if n not in _MATCHED_LOGISTIC:
        raise ValueError(f"crossover tabulated for n in {CURVE_DIMENSIONS}, got {n}")

    def gap(s: float) -> float:
        mu, xi = matched_p_curves(n, s)
        return mu - xi

    lo, hi = 1e-6, 1.0
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0.0:
        raise ValueError(f"no sign change on ({lo}, {hi}) for n={n}; curve data inconsistent")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_mid == 0.0:
            return mid
        if g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)
