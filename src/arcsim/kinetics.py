"""Consumption/production rate laws, model parameters, and hypothesis checks.

The attractant is consumed at rate f(u) = K*u**alpha and the repellent is
produced at rate g(u) = gamma*u*(u+1)**(l-1). These prototypes saturate the
envelopes K*s**alpha and [gamma*s**l, gamma*s*(s+1)**(l-1)] that the
boundedness theory assumes, so they are the sharpest test case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    return params.K * s**params.alpha


def g_of(s, params: ModelParams):
    """Production rate gamma*s*(s+1)**(l-1); exactly gamma*s when l = 1."""
    s = np.asarray(s, dtype=float)
    if (s < 0.0).any():
        raise ValueError("production rate is defined for s >= 0 only")
    if params.l == 1.0:
        return params.gamma * s  # bitwise gamma*s*(s+1)**0.0, without the pow
    return params.gamma * s * (s + 1.0) ** (params.l - 1.0)


@dataclass
class HypothesisReport:
    """Outcome of checking parameters against the boundedness hypotheses.

    Advisory only: a failed check produces warnings, never an abort, so the
    unproved regime stays explorable.
    """

    n: int
    l: float
    alpha: float
    xi: float
    regime: str                       # "linear" or "superlinear" production
    alpha_range: tuple[float, float]
    alpha_admissible: bool
    xi_required: float | None = None  # minimum xi; None if it needs chi*sup(v0)
    xi_satisfied: bool | None = None
    chi_v0_sup: float | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def satisfied(self) -> bool | None:
        """Whether all theorem hypotheses hold; None when undecidable."""
        if not self.alpha_admissible:
            return False
        if self.xi_satisfied is None and self.regime == "linear" and self.n >= 3:
            return None
        return self.xi_satisfied is not False

    def summary_lines(self) -> list[str]:
        lines = [
            f"production exponent l = {self.l:g}: {self.regime} production regime",
            f"alpha = {self.alpha:g}, admissible range (0, {_format_bound(self.n)}): "
            + ("ok" if self.alpha_admissible else "VIOLATED"),
        ]
        if self.regime == "superlinear":
            lines.append("any xi > 0 suffices (superlinear production)")
        elif self.n <= 2:
            lines.append(f"n = {self.n} <= 2: any xi > 0 suffices")
        elif self.xi_required is None:
            lines.append("xi threshold needs chi*sup(v0); not supplied")
        else:
            status = "ok" if self.xi_satisfied else "VIOLATED"
            lines.append(
                f"xi = {self.xi:g} vs required > {self.xi_required:.6g} "
                f"(chi*sup(v0) = {self.chi_v0_sup:g}): {status}"
            )
        return lines


def _format_bound(n: int) -> str:
    bound = Fraction(1, 2) + Fraction(1, n)
    return "1" if bound >= 1 else str(bound)


def validate_hypotheses(params: ModelParams, chi_v0_sup: float | None = None) -> HypothesisReport:
    """Check parameters against the global-boundedness hypotheses.

    Linear production (l = 1) in dimension n >= 3 demands a repulsion
    sensitivity above an explicit threshold in chi*sup(v0); pass that
    product as ``chi_v0_sup`` to evaluate it. Superlinear production, or
    dimension below 3, needs no threshold at all.
    """
    n = params.n
    upper = theory.alpha_upper_bound(n)
    admissible = 0.0 < params.alpha < upper
    regime = "linear" if params.l == 1.0 else "superlinear"
    report = HypothesisReport(
        n=n,
        l=params.l,
        alpha=params.alpha,
        xi=params.xi,
        regime=regime,
        alpha_range=(0.0, upper),
        alpha_admissible=admissible,
        chi_v0_sup=chi_v0_sup,
    )
    if not admissible:
        report.warnings.append(f"alpha={params.alpha:g} outside (0, {_format_bound(n)})")

    if regime == "superlinear" or n <= 2:
        # any positive xi works; ModelParams already enforces xi > 0
        report.xi_required = 0.0
        report.xi_satisfied = True
        return report

    if chi_v0_sup is None:
        report.warnings.append("xi threshold for n >= 3 not evaluated: chi*sup(v0) unknown")
        return report

    report.xi_required = theory.repulsion_curve(chi_v0_sup, n)
    report.xi_satisfied = params.xi > report.xi_required
    if not report.xi_satisfied:
        report.warnings.append(
            f"xi={params.xi:g} below the boundedness threshold {report.xi_required:.6g}"
        )
    return report
