"""Line-oriented run configuration: ``section.key = value`` with '#' comments.

The schema is flat and typed; unknown or malformed keys fail with the key
name and the line number. Initial conditions are named analytic profiles
(constant, cosine-bump, gaussian-bump) with amplitude/offset/center/width
knobs, so a run is fully reproducible from its text config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, cell_centers
from .kinetics import ModelParams
from .stepper import POSITIVITY_MODES, RunConfig

__all__ = ["ConfigError", "parse_config", "serialize_config", "build_run_config", "SCHEMA"]

PROFILES = ("constant", "cosine-bump", "gaussian-bump")


class ConfigError(ValueError):
    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.key = key
        self.line = line


@dataclass(frozen=True)
class _Key:
    kind: str                  # int | float | str | ints | floats
    required: bool = False
    default: object = None
    choices: tuple | None = None


SCHEMA: dict[str, _Key] = {
    "grid.dim": _Key("int", required=True),
    "grid.n_cells": _Key("ints", required=True),
    "grid.length": _Key("floats"),
    "params.chi": _Key("float", default=1.0),
    "params.xi": _Key("float", default=1.0),
    "params.delta": _Key("float", default=1.0),
    "params.K": _Key("float", default=1.0),
    "params.gamma": _Key("float", default=1.0),
    "params.alpha": _Key("float", default=0.5),
    "params.l": _Key("float", default=1.0),
    "params.n": _Key("int"),   # defaults to grid.dim
    "initial.u0.profile": _Key("str", required=True, choices=PROFILES),
    "initial.u0.amplitude": _Key("float", default=1.0),
    "initial.u0.offset": _Key("float", default=0.0),
    "initial.u0.center": _Key("floats"),
    "initial.u0.width": _Key("floats"),
    "initial.v0.profile": _Key("str", default="constant", choices=PROFILES),
    "initial.v0.amplitude": _Key("float", default=1.0),
    "initial.v0.offset": _Key("float", default=0.0),
    "initial.v0.center": _Key("floats"),
    "initial.v0.width": _Key("floats"),
    "run.t_end": _Key("float", required=True),
    "run.dt_safety": _Key("float", default=0.4),
    "run.output_interval": _Key("float"),  # defaults to t_end/10
    "run.positivity_mode": _Key("str", default="clip", choices=POSITIVITY_MODES),
    "run.blowup_factor": _Key("float", default=1e3),
    "run.p_diag": _Key("float"),
    "output.prefix": _Key("str", default="run"),
}


def _parse_value(raw: str, kind: str, key: str, line: int):
    parts = raw.replace(",", " ").split()
    try:
        if kind == "int":
            return int(raw.strip())
        if kind == "float":
            return float(raw.strip())
        if kind == "ints":
            return tuple(int(p) for p in parts)
        if kind == "floats":
            return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad {kind} value {raw.strip()!r} for key '{key}'", key, line) from None
    return raw.strip()


def parse_config(text: str) -> dict:
    """Parse config text into a typed, schema-checked {key: value} dict."""
    values: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value', got {raw_line.strip()!r}", line=line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown key '{key}'", key, line_no)
        if key in values:
            raise ConfigError(f"duplicate key '{key}'", key, line_no)
        spec = SCHEMA[key]
        value = _parse_value(raw_value, spec.kind, key, line_no)
        if spec.choices is not None and value not in spec.choices:
            raise ConfigError(
                f"key '{key}' must be one of {', '.join(spec.choices)}; got {value!r}", key, line_no
            )
        values[key] = value
    for key, spec in SCHEMA.items():
        if spec.required and key not in values:
            raise ConfigError(f"missing required key '{key}'", key)
    return values


def format_value(value) -> str:
    if isinstance(value, tuple):
        return " ".join(format_value(v) for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def serialize_config(values: dict) -> str:
    """Canonical text form (schema order); parses back to the same dict."""
    lines = [f"{key} = {format_value(values[key])}" for key in SCHEMA if key in values]
    return "\n".join(lines) + "\n"


def _per_axis(value, dim: int, key: str):
    if value is None:
        return None
    if len(value) == 1:
        return tuple(value) * dim
    if len(value) != dim:
        raise ConfigError(f"key '{key}' needs 1 or {dim} entries, got {len(value)}", key)
    return tuple(value)


def build_profile(
    spec: GridSpec, profile: str, amplitude: float, offset: float, center, width
) -> ScalarField:
    """Evaluate a named analytic profile at cell centers.

    The field is offset + amplitude * shape(x); the cosine bump is a raised
    cosine supported on |x - center| <= width/2 per axis, the gaussian uses
    width as its standard deviation.
    """
    center = center or tuple(L / 2.0 for L in spec.length)
    width = width or tuple(L / 2.0 for L in spec.length)
    if not all(0.0 < w < np.inf for w in width):
        raise ValueError(f"profile width must be finite and > 0, got {width}")
    if not all(np.isfinite(c) for c in center):
        raise ValueError(f"profile center must be finite, got {center}")
    shape = np.ones(spec.shape)
    if profile != "constant":
        for axis, x in enumerate(cell_centers(spec)):
            r = x - center[axis]
            if profile == "cosine-bump":
                inside = np.abs(r) <= width[axis] / 2.0
                shape = shape * np.where(
                    inside, 0.5 * (1.0 + np.cos(2.0 * np.pi * r / width[axis])), 0.0
                )
            else:  # gaussian-bump
                shape = shape * np.exp(-0.5 * (r / width[axis]) ** 2)
    return ScalarField(spec, offset + amplitude * shape)


def build_run_config(values: dict) -> tuple[RunConfig, str]:
    """Materialize a RunConfig (plus the output file prefix) from parsed values."""
    filled = {key: spec.default for key, spec in SCHEMA.items()}
    filled.update(values)

    dim = filled["grid.dim"]
    length = _per_axis(filled["grid.length"], dim, "grid.length") or (1.0,) * dim
    n_cells = filled["grid.n_cells"]
    if len(n_cells) == 1 and dim == 2:
        n_cells = n_cells * 2
    try:
        grid = GridSpec(dim, n_cells, length)
        params = ModelParams(
            chi=filled["params.chi"],
            xi=filled["params.xi"],
            delta=filled["params.delta"],
            K=filled["params.K"],
            gamma=filled["params.gamma"],
            alpha=filled["params.alpha"],
            l=filled["params.l"],
            n=filled["params.n"] if filled["params.n"] is not None else dim,
        )
        fields = {}
        for name in ("u0", "v0"):
            fields[name] = build_profile(
                grid,
                filled[f"initial.{name}.profile"],
                filled[f"initial.{name}.amplitude"],
                filled[f"initial.{name}.offset"],
                _per_axis(filled[f"initial.{name}.center"], dim, f"initial.{name}.center"),
                _per_axis(filled[f"initial.{name}.width"], dim, f"initial.{name}.width"),
            )
        t_end = filled["run.t_end"]
        interval = filled["run.output_interval"]
        config = RunConfig(
            grid=grid,
            params=params,
            u0=fields["u0"],
            v0=fields["v0"],
            t_end=t_end,
            dt_safety=filled["run.dt_safety"],
            output_interval=t_end / 10.0 if interval is None else interval,
            positivity_mode=filled["run.positivity_mode"],
            blowup_factor=filled["run.blowup_factor"],
            p_diag=filled["run.p_diag"],
        )
        config.validate()
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return config, filled["output.prefix"]
