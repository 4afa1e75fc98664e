"""Consumption/production rate laws, model parameters, and hypothesis checks.

The attractant is consumed at rate f(u) = K*u**alpha and the repellent is
produced at rate g(u) = gamma*u*(u+1)**(l-1). These prototypes saturate the
envelopes K*s**alpha and [gamma*s**l, gamma*s*(s+1)**(l-1)] that the
boundedness theory assumes, so they are the sharpest test case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import theory

__all__ = ["ModelParams", "f_of", "g_of", "HypothesisReport", "validate_hypotheses"]


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the chemotaxis system plus the ambient dimension n.

    chi and xi scale attraction and repulsion, delta is the repellent decay
    rate, K/alpha shape the consumption law, gamma/l the production law.
    n is the space dimension used by the theory checks; it may exceed the
    simulated grid dimension.
    """

    chi: float
    xi: float
    delta: float
    K: float
    gamma: float
    alpha: float
    l: float
    n: int

    def __post_init__(self):
        for name in ("chi", "xi", "delta", "K", "gamma", "alpha"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 1.0 <= self.l < np.inf:
            raise ValueError(f"l must be finite and >= 1, got {self.l}")
        if not 1 <= self.n < np.inf or int(self.n) != self.n:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


def f_of(s, params: ModelParams):
    """Consumption rate K*s**alpha; accepts scalars or arrays, s >= 0."""
    s = np.asarray(s, dtype=float)
    if (s < 0.0).any():
        raise ValueError("consumption rate is defined for s >= 0 only")
    return _f(s, params)


def g_of(s, params: ModelParams):
    """Production rate gamma*s*(s+1)**(l-1); exactly gamma*s when l = 1."""
    s = np.asarray(s, dtype=float)
    if (s < 0.0).any():
        raise ValueError("production rate is defined for s >= 0 only")
    return _g(s, params)


def _f(s: np.ndarray, params: ModelParams) -> np.ndarray:
    """:func:`f_of` without its checks, for a float array s >= 0."""
    return _scaled(s**params.alpha, params.K)


def _g(s: np.ndarray, params: ModelParams) -> np.ndarray:
    """:func:`g_of` without its checks, for a float array s >= 0."""
    if params.l == 1.0:
        return params.gamma * s  # bitwise gamma*s*(s+1)**0.0, without the pow
    return params.gamma * s * (s + 1.0) ** (params.l - 1.0)


def _scaled(x, c: float, out: np.ndarray | None = None):
    """c*x, into ``out`` if given; x itself when c == 1.0, since x*1.0 == x in IEEE arithmetic."""
    return x if c == 1.0 else np.multiply(x, c, out=out)


@dataclass(frozen=True)
class HypothesisReport:
    """Verdict of the boundedness hypotheses: ``satisfied`` is None when undecidable.

    ``xi_required`` is the value xi must exceed, 0 when any xi > 0 does. Advisory only:
    a failed check produces warnings, never an abort, so the unproved regime stays explorable.
    """

    satisfied: bool | None
    xi_required: float | None
    warnings: tuple[str, ...]


def validate_hypotheses(params: ModelParams, chi_v0_sup: float | None = None) -> HypothesisReport:
    """Check parameters against the global-boundedness hypotheses.

    Every case needs alpha in (0, min(1, 1/2 + 1/n)). Linear production
    (l = 1) in dimension n <= 2, or superlinear production (l > 1), then
    holds for any xi > 0; l = 1 in dimension n >= 3 demands xi above an
    explicit threshold in chi*sup(v0), evaluated when that product is passed
    as ``chi_v0_sup``.
    """
    if chi_v0_sup is not None and not 0.0 <= chi_v0_sup < np.inf:
        raise ValueError(f"chi_v0_sup must be >= 0 and finite, got {chi_v0_sup}")
    n = params.n
    warnings = []
    alpha_ok = params.alpha < theory.alpha_upper_bound(n)
    if not alpha_ok:
        bound = min(Fraction(1, 2) + Fraction(1, n), 1)
        warnings.append(f"alpha={params.alpha:g} outside (0, {bound})")

    if params.l > 1.0 or n <= 2:
        xi_required, xi_ok = 0.0, True
    elif chi_v0_sup is None:
        xi_required, xi_ok = None, None
        warnings.append("xi threshold for n >= 3 not evaluated: chi*sup(v0) unknown")
    else:
        xi_required = theory.repulsion_curve(chi_v0_sup, n)
        xi_ok = params.xi > xi_required
        if not xi_ok:
            warnings.append(f"xi={params.xi:g} below the boundedness threshold {xi_required:.6g}")
    return HypothesisReport(xi_ok if alpha_ok else False, xi_required, tuple(warnings))
