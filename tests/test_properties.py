"""Property tests: config and profile round trips, and the profile range.

Examples are derandomized, so every run draws the same cases and the suite
stays deterministic.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from dystress.encoder import NONLINEARITIES, EncoderSpec, OptimizerSettings
from dystress.harness import ExperimentConfig, config_from_dict
from dystress.loss import LossMode
from dystress.synthetic import SyntheticSpec
from dystress.temperature import PROFILE_FORMS, SCALE_RANGE, SHARPNESS_RANGE, TemperatureProfile

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


def six_digits(x: float) -> float:
    """`x` rounded to the six significant digits a spec string keeps."""
    return float(f"{x:g}")


@st.composite
def profiles(draw, rounded=lambda x: x):
    """Any valid profile of any variant; `rounded` is applied to every value."""
    variant = draw(st.sampled_from(list(PROFILE_FORMS)))
    tau_min, tau_max = sorted(rounded(draw(POSITIVE)) for _ in range(2))
    if variant == "constant":
        return TemperatureProfile.constant(tau_min)
    extras = {}
    if variant == "cosine_shifted":
        extras["shift"] = rounded(draw(st.floats(-1.0, 1.0)))
        extras["scale"] = rounded(draw(st.floats(*SCALE_RANGE)))
    if variant == "exponential":
        extras["sharpness"] = rounded(draw(st.floats(*SHARPNESS_RANGE)))
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
        knn_weight_temperature=draw(POSITIVE),
        out_dir=draw(st.sampled_from([None, "runs/exp0"])),
    )


@PROPERTY
@given(configs())
def test_config_round_trips_through_json(config):
    assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config


@PROPERTY
@given(profiles(rounded=six_digits))
def test_spec_string_round_trip(profile):
    assert TemperatureProfile.from_spec_string(profile.spec_string()) == profile


@PROPERTY
@given(profiles(), st.floats(-1.0, 1.0))
def test_tau_stays_in_range(profile, s):
    tau = profile.tau(s)
    assert profile.tau_min <= tau <= profile.tau_max
    taus = profile.tau(np.array([-1.0, s, 1.0]))
    assert np.all((profile.tau_min <= taus) & (taus <= profile.tau_max))
