"""Property tests: config and profile round trips, malformed float fields, the
profile range, and the exponential profile against 50-digit arithmetic.

Examples are derandomized, so every run draws the same cases and the suite
stays deterministic.
"""

import json
import math
import numbers

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dystress.encoder import NONLINEARITIES, EncoderSpec, OptimizerSettings
from dystress.errors import ValidationError
from dystress.harness import ExperimentConfig, config_from_dict
from dystress.loss import LossMode
from dystress.metrics import KNN_WEIGHT_TEMPERATURE_FLOOR
from dystress.synthetic import SyntheticSpec
from dystress.temperature import (
    PROFILE_FORMS,
    SCALE_RANGE,
    SHARPNESS_RANGE,
    TAU_MIN_FLOOR,
    TemperatureProfile,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def profiles(draw):
    """Any valid profile of any variant."""
    variant = draw(st.sampled_from(list(PROFILE_FORMS)))
    temperature = st.floats(TAU_MIN_FLOOR, allow_infinity=False)
    tau_min, tau_max = sorted(draw(temperature) for _ in range(2))
    if variant == "constant":
        return TemperatureProfile("constant", tau_min, tau_min)
    extras = {}
    if variant == "cosine_shifted":
        extras["shift"] = draw(st.floats(-1.0, 1.0))
        extras["scale"] = draw(st.floats(*SCALE_RANGE))
    if variant == "exponential":
        extras["sharpness"] = draw(st.floats(*SHARPNESS_RANGE))
    return TemperatureProfile(variant, tau_min, tau_max, **extras)


@st.composite
def configs(draw):
    ambient_dim = draw(st.integers(2, 64))
    hidden = draw(st.lists(st.integers(1, 64), max_size=3))
    return ExperimentConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        synthetic=SyntheticSpec(
            num_classes=draw(st.integers(2, 100)),
            samples_per_class=draw(st.integers(1, 1000)),
            ambient_dim=ambient_dim,
            intra_class_sigma=draw(POSITIVE),
            augment_sigma=draw(NON_NEGATIVE),
            long_tail_rho=draw(st.floats(0.0, 1.0, exclude_min=True)),
        ),
        encoder=EncoderSpec(
            layer_widths=(ambient_dim, *hidden, draw(st.integers(2, 64))),
            nonlinearity=draw(st.sampled_from(NONLINEARITIES)),
            init_scale=draw(POSITIVE),
        ),
        profile=draw(profiles()),
        loss_mode=draw(st.sampled_from(list(LossMode))),
        optimizer=OptimizerSettings(
            lr=draw(POSITIVE),
            momentum=draw(st.floats(0.0, 1.0, exclude_max=True)),
            weight_decay=draw(NON_NEGATIVE),
        ),
        batch_size=draw(st.integers(2, 4096)),
        epochs=draw(st.integers(0, 10_000)),
        eval_every=draw(st.integers(1, 1000)),
        knn_k=draw(st.integers(1, 1000)),
        knn_weight_temperature=draw(st.floats(KNN_WEIGHT_TEMPERATURE_FLOOR, allow_infinity=False)),
        out_dir=draw(st.sampled_from([None, "runs/exp0"])),
    )


@PROPERTY
@given(configs())
def test_config_round_trips_through_json(config):
    assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config


def float_leaves(section: dict, prefix: tuple = ()) -> dict:
    """{path: value} of every float in a nested config dict."""
    leaves = {}
    for key, value in section.items():
        if isinstance(value, dict):
            leaves.update(float_leaves(value, prefix + (key,)))
        elif isinstance(value, float):
            leaves[prefix + (key,)] = value
    return leaves


DEFAULT_DICT = ExperimentConfig().to_dict()
# the exit-code fuzz pool: non-finite, extreme, bool, non-number, and too large for a double
FUZZ_POOL = [math.nan, math.inf, -math.inf, 0, -1, 1e300, 1e-300, 5e-324, True, False, "x", [], {}, None,
             2**64, 10**400]


@PROPERTY
@given(st.sampled_from(sorted(float_leaves(DEFAULT_DICT))), st.sampled_from(FUZZ_POOL))
def test_malformed_float_field_rejected_at_parse(path, value):
    raw = json.loads(json.dumps(DEFAULT_DICT))
    *sections, key = path
    target = raw
    for section in sections:
        target = target[section]
    target[key] = value
    try:
        config = config_from_dict(raw)
    except ValidationError:
        return
    parsed = config.to_dict()
    for leaf in float_leaves(DEFAULT_DICT):
        field = parsed
        for part in leaf:
            field = field[part]
        assert isinstance(field, numbers.Real) and not isinstance(field, bool)
        assert math.isfinite(field)


@PROPERTY
@given(profiles())
def test_spec_string_round_trip(profile):
    assert TemperatureProfile.from_spec_string(profile.spec_string()) == profile


@PROPERTY
@given(profiles(), st.floats(-1.0, 1.0))
def test_tau_stays_in_range(profile, s):
    tau = profile.tau(s)
    assert profile.tau_min <= tau <= profile.tau_max
    taus = profile.tau(np.array([-1.0, s, 1.0]))
    assert np.all((profile.tau_min <= taus) & (taus <= profile.tau_max))


def exponential_reference(profile, s):
    """tau(s) and dtau/ds of an exponential profile, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a, m = mpmath.mpf(profile.sharpness), abs(mpmath.mpf(s))
        dt = mpmath.mpf(profile.tau_max) - mpmath.mpf(profile.tau_min)
        denominator = mpmath.expm1(a)
        tau = mpmath.mpf(profile.tau_min) + dt * mpmath.expm1(a * m) / denominator
        slope = dt * a * mpmath.sign(s) * mpmath.exp(a * m) / denominator
        return float(tau), float(slope)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(
    st.floats(TAU_MIN_FLOOR, 10.0),
    st.floats(0.0, 1e6),
    st.floats(*SHARPNESS_RANGE),
    st.floats(-1.0, 1.0),
)
def test_exponential_matches_high_precision(tau_min, spread, sharpness, s):
    profile = TemperatureProfile("exponential", tau_min, tau_min + spread, sharpness=sharpness)
    tau, slope = exponential_reference(profile, s)
    assert abs(profile.tau(s) - tau) <= 1e-12 * tau
    assert abs(profile.dtau_ds(s) - slope) <= 1e-12 * abs(slope) + 1e-300
