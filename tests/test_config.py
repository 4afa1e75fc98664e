"""Config parsing, serialization round-trip, and profile construction."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsim.config import (
    SCHEMA,
    ConfigError,
    build_profile,
    build_run_config,
    parse_config,
    serialize_config,
)
from arcsim.grid import GridSpec, cell_centers, integrate

GOOD = """
# one-dimensional smoke configuration
grid.dim = 1
grid.n_cells = 64
grid.length = 1.0
params.chi = 1.0
params.alpha = 0.5          # consumption exponent
initial.u0.profile = cosine-bump
initial.u0.amplitude = 0.5
initial.u0.offset = 1.0
initial.v0.profile = constant
initial.v0.amplitude = 1.0
run.t_end = 0.5
run.output_interval = 0.1
"""


class TestParsing:
    def test_good_config(self):
        values = parse_config(GOOD)
        assert values["grid.n_cells"] == (64,)
        assert values["params.alpha"] == 0.5
        assert values["initial.u0.profile"] == "cosine-bump"

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.dim = 1\ngrid.ncells = 8\n")
        assert "grid.ncells" in str(err.value)
        assert "line 2" in str(err.value)
        assert err.value.line == 2

    def test_missing_required_key_named(self):
        text = GOOD.replace("grid.n_cells = 64", "")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "grid.n_cells" in str(err.value)

    def test_bad_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.dim = one\n")
        assert "grid.dim" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("grid.dim = 1\ngrid.dim = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("grid.dim 1\n")

    def test_choice_validation(self):
        text = GOOD.replace("cosine-bump", "triangle-bump")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "initial.u0.profile" in str(err.value)


FINITE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e308]), st.floats(allow_nan=False, allow_infinity=False)
)
PREFIX_CHARS = string.ascii_letters + string.digits + "_-"


def value_strategy(spec):
    if spec.choices is not None:
        return st.sampled_from(spec.choices)
    return {
        "int": st.integers(),
        "float": FINITE_FLOATS,
        "ints": st.lists(st.integers(), min_size=1, max_size=2).map(tuple),
        "floats": st.lists(FINITE_FLOATS, min_size=1, max_size=2).map(tuple),
        "str": st.text(PREFIX_CHARS),
    }[spec.kind]


@st.composite
def schema_valid_configs(draw):
    """Every required key plus a random subset of the optional ones, each a parseable value."""
    optional = [key for key, spec in SCHEMA.items() if not spec.required]
    keys = [key for key, spec in SCHEMA.items() if spec.required]
    keys += draw(st.lists(st.sampled_from(optional), unique=True))
    return {key: draw(value_strategy(SCHEMA[key])) for key in keys}


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        values = parse_config(GOOD)
        text = serialize_config(values)
        assert parse_config(text) == values
        # serialization is canonical: a second pass is byte-identical
        assert serialize_config(parse_config(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(values=schema_valid_configs())
    def test_random_configs_round_trip(self, values):
        text = serialize_config(values)
        assert parse_config(text) == values
        assert serialize_config(parse_config(text)) == text


class TestBuild:
    def test_build_run_config(self):
        config, prefix = build_run_config(parse_config(GOOD))
        assert prefix == "run"
        assert config.grid == GridSpec.interval(64)
        assert config.params.n == 1  # defaults to grid dimension
        assert config.output_interval == 0.1
        assert np.all(config.u0.values >= 1.0)
        assert np.all(config.v0.values == 1.0)

    def test_output_interval_defaults_to_tenth(self):
        text = GOOD.replace("run.output_interval = 0.1", "")
        config, _ = build_run_config(parse_config(text))
        assert config.output_interval == pytest.approx(0.05)

    def test_zero_output_interval_rejected(self):
        text = GOOD.replace("run.output_interval = 0.1", "run.output_interval = 0")
        with pytest.raises(ConfigError, match="output_interval"):
            build_run_config(parse_config(text))

    def test_2d_build_broadcasts(self):
        text = """
grid.dim = 2
grid.n_cells = 16 12
grid.length = 1.0 2.0
initial.u0.profile = gaussian-bump
initial.u0.offset = 0.1
initial.u0.width = 0.2
initial.v0.profile = constant
run.t_end = 0.1
"""
        config, _ = build_run_config(parse_config(text))
        assert config.grid.shape == (16, 12)
        assert config.grid.length == (1.0, 2.0)
        peak = np.unravel_index(np.argmax(config.u0.values), config.u0.values.shape)
        X, Y = cell_centers(config.grid)
        assert abs(X[peak] - 0.5) <= config.grid.spacing[0]
        assert abs(Y[peak] - 1.0) <= config.grid.spacing[1]

    def test_invalid_physics_becomes_config_error(self):
        text = GOOD.replace("params.chi = 1.0", "params.chi = -1.0")
        with pytest.raises(ConfigError):
            build_run_config(parse_config(text))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["initial.u0.center", "initial.u0.width"])
    def test_nonfinite_profile_geometry_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"profile {key.rsplit('.', 1)[1]} must be finite"):
            build_run_config(parse_config(GOOD + f"{key} = {value}\n"))

    def test_nan_amplitude_is_nonfinite_initial_data(self):
        text = GOOD.replace("initial.u0.amplitude = 0.5", "initial.u0.amplitude = nan")
        with pytest.raises(ConfigError, match="initial data must be finite"):
            build_run_config(parse_config(text))

    def test_negative_initial_data_rejected(self):
        text = GOOD.replace("initial.u0.offset = 1.0", "initial.u0.offset = -2.0")
        with pytest.raises(ConfigError):
            build_run_config(parse_config(text))


class TestProfiles:
    def test_constant(self):
        spec = GridSpec.interval(8)
        f = build_profile(spec, "constant", 2.0, 0.5, None, None)
        assert np.all(f.values == 2.5)

    def test_cosine_bump_support_and_peak(self):
        spec = GridSpec.interval(200)
        f = build_profile(spec, "cosine-bump", 1.0, 0.0, (0.5,), (0.4,))
        x = cell_centers(spec)[0]
        outside = np.abs(x - 0.5) > 0.2
        assert np.all(f.values[outside] == 0.0)
        assert f.values.max() == pytest.approx(1.0, abs=1e-3)
        assert np.all(f.values >= 0.0)

    def test_gaussian_bump(self):
        spec = GridSpec.interval(101)
        f = build_profile(spec, "gaussian-bump", 2.0, 1.0, (0.5,), (0.1,))
        assert f.values.max() == pytest.approx(3.0, abs=1e-3)
        assert f.values.min() >= 1.0

    def test_bump_mass_positive(self):
        spec = GridSpec.rectangle((32, 32))
        f = build_profile(spec, "cosine-bump", 1.0, 0.0, (0.5, 0.5), (0.5, 0.5))
        assert integrate(f) > 0.0
