"""Attraction-repulsion chemotaxis: desk-scale simulator and theory constants.

The model couples a cell density u, a consumed chemoattractant v, and a
produced chemorepellent w on an insulated interval or rectangle. The package
simulates the system with a conservative finite-volume scheme and evaluates
every explicit constant of the boundedness theory, so the analytical
invariants (mass conservation, attractant comparison bound, monitor
functional boundedness, repulsion thresholds) can be checked numerically.
"""

from .diagnostics import DiagRecord, default_p_diag, record, y_functional
from .elliptic import relative_residual, solve_w_values
from .grid import (
    GridSpec,
    ScalarField,
    grad_sq_integral,
    integrate,
    laplacian_values,
    load_snapshot,
    lp_norm,
    save_snapshot,
    sup_norm,
)
from .kinetics import HypothesisReport, ModelParams, f_of, g_of, validate_hypotheses
from .stepper import (
    BLOWUP_FLAGGED,
    BREAKDOWN,
    COMPLETED,
    Forcing,
    NumericalBreakdownError,
    RunConfig,
    SimState,
    run,
    stable_dt,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "ScalarField",
    "integrate",
    "laplacian_values",
    "grad_sq_integral",
    "lp_norm",
    "sup_norm",
    "save_snapshot",
    "load_snapshot",
    "ModelParams",
    "f_of",
    "g_of",
    "validate_hypotheses",
    "HypothesisReport",
    "solve_w_values",
    "relative_residual",
    "SimState",
    "RunConfig",
    "Forcing",
    "stable_dt",
    "step",
    "run",
    "COMPLETED",
    "BLOWUP_FLAGGED",
    "BREAKDOWN",
    "NumericalBreakdownError",
    "DiagRecord",
    "record",
    "y_functional",
    "default_p_diag",
]
