"""Temperature profile family and ODE slope-verification tests."""

import math
import tracemalloc

import numpy as np
import pytest

from dystress.errors import DomainError, NumericError, ValidationError, from_section
from dystress.numeric import Rng
from dystress.temperature import (
    TAU_MIN_FLOOR,
    OdeParams,
    TemperatureProfile,
    boundary_constants,
    family_bounds,
    ode_curve,
    profile_curve,
    sample_constants,
    slope_sign_cell,
    summarize_ode_report,
    verify_proposition1,
)

ALL_PROFILES = [
    TemperatureProfile("constant", 0.13, 0.13),
    TemperatureProfile("cosine_vanilla", 0.1, 0.2),
    TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=-0.4, scale=0.7),
    TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=0.2, scale=0.6),
    TemperatureProfile("linear", 0.07, 0.3),
    TemperatureProfile("exponential", 0.07, 0.3, sharpness=2.0),
    TemperatureProfile("monotonic_cosine", 0.1, 0.2),
]


CLIP_PROFILES = ALL_PROFILES + [
    TemperatureProfile("cosine_vanilla", 0.07, 0.5),
    TemperatureProfile("exponential", 0.07, 0.3, sharpness=700.0),
] + [
    TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=s, scale=k)
    for s, k in [(0.0, 0.5), (0.4, 0.7), (-0.2, 0.6), (0.6, 1.3), (-1.0, 2.0)]
]


def unclipped_tau(profile, s):
    """Each variant's formula as `TemperatureProfile.tau` writes it, before its final clip."""
    dt = profile.tau_max - profile.tau_min
    if profile.variant == "constant":
        return np.full_like(s, profile.tau_min)
    if profile.variant == "cosine_vanilla":
        return profile.tau_min + 0.5 * dt * (1.0 + np.cos(np.pi * (1.0 + s)))
    if profile.variant == "cosine_shifted":
        ds, k = profile.shift, profile.scale
        in_window = ((ds <= 0) & (s <= -ds)) | ((ds >= 0) & (s >= -ds))
        cosine = profile.tau_min + 0.5 * dt * (1.0 + np.cos((np.pi / k) * (ds + s)))
        return np.where(in_window, cosine, profile.tau_max)
    if profile.variant == "linear":
        return profile.tau_min + dt * np.abs(s)
    if profile.variant == "exponential":
        a, m = profile.sharpness, np.abs(s)
        return profile.tau_min + dt * np.exp(a * (m - 1.0)) * np.expm1(-a * m) / math.expm1(-a)
    assert profile.variant == "monotonic_cosine"
    return profile.tau_min + 0.5 * dt * (1.0 - np.cos(np.pi * (1.0 + s) / 2.0))


def unclipped_dtau(profile, s):
    """Each variant's derivative written out on its own, in the operation order `dtau_ds` keeps."""
    dt = profile.tau_max - profile.tau_min
    if profile.variant == "constant":
        return np.zeros_like(s)
    if profile.variant == "cosine_vanilla":
        return -0.5 * dt * np.pi * np.sin(np.pi * (1.0 + s))
    if profile.variant == "cosine_shifted":
        ds, k = profile.shift, profile.scale
        in_window = ((ds <= 0) & (s <= -ds)) | ((ds >= 0) & (s >= -ds))
        return np.where(in_window, -0.5 * dt * (np.pi / k) * np.sin((np.pi / k) * (ds + s)), 0.0)
    if profile.variant == "linear":
        return dt * np.sign(s)
    if profile.variant == "exponential":
        a = profile.sharpness
        return dt * a * np.sign(s) * np.exp(a * (np.abs(s) - 1.0)) / -math.expm1(-a)
    assert profile.variant == "monotonic_cosine"
    return 0.5 * dt * (np.pi / 2.0) * np.sin(np.pi * (1.0 + s) / 2.0)


def window_edge_grid(profile):
    """An even grid over [-1, 1], plus each cosine window edge inside it and the doubles beside it."""
    edges = [-1.0, 1.0, -profile.shift, -profile.shift - profile.scale, -profile.shift + profile.scale]
    edges = np.array([e for e in edges if -1.0 <= e <= 1.0])
    s = np.linspace(-1.0, 1.0, 20001)
    return np.clip(np.concatenate([s, edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0)]), -1.0, 1.0)


class TestTau:
    def test_vanilla_endpoints_and_minimum(self):
        p = TemperatureProfile("cosine_vanilla", 0.1, 0.2)
        assert abs(p.tau(-1.0) - 0.2) < 1e-12
        assert abs(p.tau(1.0) - 0.2) < 1e-12
        assert abs(p.tau(0.0) - 0.1) < 1e-12

    def test_vanilla_quarter_period(self):
        p = TemperatureProfile("cosine_vanilla", 0.1, 0.2)
        assert abs(p.tau(0.5) - 0.15) < 1e-12

    def test_shifted_examples(self):
        p = TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=-0.4, scale=0.7)
        assert abs(p.tau(-0.3) - 0.1) < 1e-12  # cosine argument is exactly -pi
        assert abs(p.tau(0.4) - 0.2) < 1e-12   # cosine argument is exactly 0
        assert abs(p.tau(0.9) - 0.2) < 1e-12   # outside the window: pinned to tau_max

    def test_shifted_continuity_at_window_boundary(self):
        for shift, scale in [(-0.4, 0.7), (0.2, 0.6), (0.0, 0.5), (0.6, 1.3)]:
            p = TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=shift, scale=scale)
            boundary = -shift
            if abs(boundary) <= 1.0:
                left = p.tau(max(-1.0, boundary - 1e-13))
                right = p.tau(min(1.0, boundary + 1e-13))
                assert abs(left - right) < 1e-12

    def test_constant(self):
        p = TemperatureProfile("constant", 0.07, 0.07)
        for s in (-1.0, -0.2, 0.0, 0.9, 1.0):
            assert p.tau(s) == 0.07

    def test_monotonic_cosine_endpoints(self):
        p = TemperatureProfile("monotonic_cosine", 0.1, 0.2)
        assert abs(p.tau(-1.0) - 0.1) < 1e-12
        assert abs(p.tau(1.0) - 0.2) < 1e-12

    def test_linear_and_exponential_extremes(self):
        lin = TemperatureProfile("linear", 0.07, 0.3)
        exp = TemperatureProfile("exponential", 0.07, 0.3)
        for p in (lin, exp):
            assert abs(p.tau(0.0) - 0.07) < 1e-12
            assert abs(p.tau(1.0) - 0.3) < 1e-12
            assert abs(p.tau(-1.0) - 0.3) < 1e-12

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.spec_string())
    def test_range_contract(self, profile):
        s = np.linspace(-1.0, 1.0, 4001)
        tau = profile.tau(s)
        assert np.all(tau >= profile.tau_min - 1e-12)
        assert np.all(tau <= profile.tau_max + 1e-12)

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.spec_string())
    def test_tau_in_place_matches_tau(self, profile):
        s = np.concatenate([np.linspace(-1.0, 1.0, 2001), Rng(6).uniform(500) * 2.0 - 1.0])
        out = s.copy()
        assert profile.tau_in_place(out) is out
        assert np.array_equal(out, profile.tau(s))
        with pytest.raises(DomainError):  # the check stays with tau
            profile.tau(np.array([0.0, 1.1]))

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.spec_string())
    def test_tau_allocates_only_its_output_tile(self, profile):
        s = Rng(4).uniform((256, 256)) * 2.0 - 1.0
        tile, mask = s.nbytes, s.size  # bytes of a float64 tile and of a bool mask
        # exponential holds its expm1 factor beside the output; the shifted
        # cosine's window takes three masks
        allowed = (2 if profile.variant == "exponential" else 1) * tile + 3 * mask + 4096
        profile.tau(s)  # warm up any one-off allocation
        tracemalloc.start()
        try:
            out = profile.tau(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == s.shape
        assert peak <= allowed, f"tau peaked at {peak / tile:.2f} tiles"

    @pytest.mark.parametrize("profile", CLIP_PROFILES, ids=lambda p: p.spec_string())
    def test_final_clip_moves_only_round_off(self, profile):
        # the clip is there for cos() round-off; a formula error would hide behind it
        s = np.linspace(-1.0, 1.0, 20001)
        edges = [-1.0, 1.0, -profile.shift, -profile.shift - profile.scale, -profile.shift + profile.scale]
        edges = np.array([e for e in edges if -1.0 <= e <= 1.0])
        s = np.concatenate([s, edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0)])
        s = np.clip(s, -1.0, 1.0)
        reference = unclipped_tau(profile, s)
        assert np.array_equal(
            profile.tau(s), np.clip(reference, profile.tau_min, profile.tau_max)
        )
        ulp = 4 * np.spacing(profile.tau_max)  # the larger of the two ends' ulp
        assert np.all(reference >= profile.tau_min - ulp), reference.min() - profile.tau_min
        assert np.all(reference <= profile.tau_max + ulp), reference.max() - profile.tau_max

    @pytest.mark.parametrize("profile", CLIP_PROFILES, ids=lambda p: p.spec_string())
    def test_dtau_ds_bits(self, profile):
        # COUPLED training multiplies by these slopes, so their bits are pinned, window edges included
        s = window_edge_grid(profile)
        assert np.array_equal(profile.dtau_ds(s), unclipped_dtau(profile, s))
        assert profile.dtau_ds(s[-1]) == unclipped_dtau(profile, s[-1:])[0]  # a scalar s takes the same path

    def test_domain_error_beyond_slack(self):
        p = TemperatureProfile("cosine_vanilla", 0.1, 0.2)
        with pytest.raises(DomainError):
            p.tau(1.1)
        assert abs(p.tau(1.0 + 1e-10) - 0.2) < 1e-12  # inside the slack: clamped

    def test_numeric_slope_signs(self):
        # valley profiles fall on (-1, 0) and rise on (0, 1);
        # the monotonic profile never falls
        h = 1e-4
        s_neg = np.linspace(-0.999, -0.001, 101)
        s_pos = np.linspace(0.001, 0.999, 101)
        for profile in (
            TemperatureProfile("cosine_vanilla", 0.1, 0.2),
            TemperatureProfile("linear", 0.1, 0.2),
            TemperatureProfile("exponential", 0.1, 0.2),
        ):
            dneg = (profile.tau(s_neg + h) - profile.tau(s_neg - h)) / (2 * h)
            dpos = (profile.tau(s_pos + h) - profile.tau(s_pos - h)) / (2 * h)
            assert np.all(dneg < 0), profile.variant
            assert np.all(dpos > 0), profile.variant
        mono = TemperatureProfile("monotonic_cosine", 0.1, 0.2)
        s_all = np.linspace(-0.999, 0.999, 201)
        dall = (mono.tau(s_all + h) - mono.tau(s_all - h)) / (2 * h)
        assert np.all(dall >= 0)

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.spec_string())
    def test_analytic_derivative_matches_finite_differences(self, profile):
        # away from kinks and window boundaries
        rng = Rng(5)
        s = -0.95 + 1.9 * rng.uniform(200)
        keep = np.abs(s) > 1e-3
        if profile.variant == "cosine_shifted":
            keep &= np.abs(s + profile.shift) > 1e-3
        s = s[keep]
        h = 1e-7
        fd = (profile.tau(s + h) - profile.tau(s - h)) / (2 * h)
        assert np.max(np.abs(profile.dtau_ds(s) - fd)) < 1e-6

    def test_validation(self):
        with pytest.raises(ValidationError):
            TemperatureProfile("cosine_vanilla", 0.2, 0.1)
        with pytest.raises(ValidationError):
            TemperatureProfile("cosine_vanilla", 0.0, 0.1)
        with pytest.raises(ValidationError):
            TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=0.0, scale=2.5)
        with pytest.raises(ValidationError):
            TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=1.5, scale=0.5)
        with pytest.raises(ValidationError):
            TemperatureProfile("exponential", 0.1, 0.2, sharpness=0.0)

    def test_tau_min_floor(self):
        # the loss shifts every logit by 1/tau_min; below 1/350 its smallest
        # exp, exp(-2/tau_min), would leave the normal doubles
        assert TAU_MIN_FLOOR == 1.0 / 350.0
        TemperatureProfile("constant", TAU_MIN_FLOOR, TAU_MIN_FLOOR)
        TemperatureProfile("cosine_vanilla", TAU_MIN_FLOOR, 0.2)
        for variant in ("constant", "cosine_vanilla", "exponential"):
            with pytest.raises(ValidationError, match="1/350"):
                TemperatureProfile(variant, 1.0 / 351.0, 1.0 / 351.0)

    def test_exponential_does_not_overflow_at_large_sharpness(self):
        # exp(a|s|) overflows for a = 700 near |s| = 1; the profile must still
        # follow its formula there instead of clipping inf to tau_max
        p = TemperatureProfile("exponential", 0.1, 1e6, sharpness=700.0)
        with np.errstate(over="raise"):
            assert abs(p.tau(0.999) - 496585.3541328788) < 1e-6
            assert abs(p.tau(-0.999) - 496585.3541328788) < 1e-6
            assert p.tau(1.0) == 1e6
            assert np.isfinite(p.dtau_ds(0.999))

    def test_spec_string_round_trip(self):
        for profile in ALL_PROFILES:
            again = TemperatureProfile.from_spec_string(profile.spec_string())
            assert again == profile

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("constant:0.1", TemperatureProfile("constant", 0.1, 0.1)),
            ("cosine:0.1:0.2", TemperatureProfile("cosine_vanilla", 0.1, 0.2)),
            ("Cosine_Vanilla:0.1:0.2", TemperatureProfile("cosine_vanilla", 0.1, 0.2)),
            ("shifted:0.1:0.2:-0.4:0.7", TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=-0.4, scale=0.7)),
            ("cosine_shifted:0.1:0.2:-0.4:0.7", TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=-0.4, scale=0.7)),
            ("linear:0.1:0.2", TemperatureProfile("linear", 0.1, 0.2)),
            ("exp:0.1:0.2", TemperatureProfile("exponential", 0.1, 0.2)),
            ("exp:0.1:0.2:3", TemperatureProfile("exponential", 0.1, 0.2, sharpness=3.0)),
            ("exponential:0.1:0.2", TemperatureProfile("exponential", 0.1, 0.2)),
            ("exponential:0.1:0.2:3", TemperatureProfile("exponential", 0.1, 0.2, sharpness=3.0)),
            ("monotonic:0.1:0.2", TemperatureProfile("monotonic_cosine", 0.1, 0.2)),
            ("monotonic_cosine:0.1:0.2", TemperatureProfile("monotonic_cosine", 0.1, 0.2)),
        ],
    )
    def test_spec_string_spellings(self, spec, expected):
        assert TemperatureProfile.from_spec_string(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        [
            "constant", "constant:0.1:0.2", "cosine:0.1", "cosine:0.1:0.2:0.3",
            "shifted:0.1:0.2:-0.4", "shifted:0.1:0.2:-0.4:0.7:1", "exp:0.1", "exp:0.1:0.2:3:4",
            "vanilla:0.1:0.2", "cosine:0.1:x",
        ],
    )
    def test_spec_string_rejected(self, spec):
        with pytest.raises(ValidationError):
            TemperatureProfile.from_spec_string(spec)

    def test_spec_string_output(self):
        assert [p.spec_string() for p in ALL_PROFILES] == [
            "constant:0.13", "cosine:0.1:0.2", "shifted:0.1:0.2:-0.4:0.7", "shifted:0.1:0.2:0.2:0.6",
            "linear:0.07:0.3", "exponential:0.07:0.3:2", "monotonic:0.1:0.2",
        ]

    def test_parameters_that_break_the_formula_rejected(self):
        # sharpness 800 overflows exp(a); below ~1e-16 exp(a) - 1 is 0; a
        # subnormal scale makes pi / scale infinite
        for sharpness in (800.0, 1e-17, float("nan")):
            with pytest.raises(ValidationError, match="sharpness"):
                TemperatureProfile("exponential", 0.1, 0.2, sharpness=sharpness)
        for scale in (5e-324, float("nan")):
            with pytest.raises(ValidationError, match="scale"):
                TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=0.0, scale=scale)
        with pytest.raises(ValidationError):
            TemperatureProfile("cosine_vanilla", 0.1, float("inf"))

    def test_dict_round_trip_and_unknown_fields(self):
        p = TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=-0.2, scale=0.6)
        assert from_section(TemperatureProfile, p.to_dict(), "profile") == p
        with pytest.raises(ValidationError):
            from_section(
                TemperatureProfile, {"variant": "constant", "tau_min": 0.1, "tau_max": 0.1, "oops": 1}, "profile"
            )


    @pytest.mark.parametrize(
        "variant, field, value",
        [
            ("cosine_vanilla", "shift", 0.5),
            ("constant", "scale", 0.5),
            ("linear", "sharpness", 2.0),
            ("exponential", "shift", -0.2),
            ("monotonic_cosine", "sharpness", float("nan")),
            ("constant", "tau_max", 0.2),
        ],
    )
    def test_field_the_variant_ignores_rejected(self, variant, field, value):
        accepted = {"tau_min": 0.1, "tau_max": 0.1 if variant == "constant" else 0.2}
        with pytest.raises(ValidationError, match=f"takes no {field}"):
            TemperatureProfile(variant, **{**accepted, field: value})
        # the default value is the field's absence, so it is accepted; a
        # constant profile's tau_max, given or not, ends up as its tau_min
        default = TemperatureProfile.__dataclass_fields__[field].default
        TemperatureProfile(variant, **{field: default, **accepted})


class TestProfileCurve:
    def test_shape_and_span(self):
        table = profile_curve(TemperatureProfile("cosine_vanilla", 0.1, 0.2), 5)
        assert table.shape == (5, 2)
        assert table[0, 0] == -1.0 and table[-1, 0] == 1.0


class TestBoundaryConstants:
    def test_frozen_values(self):
        # delta*K = 10, tau_max = 0.2, evaluated with scalar arithmetic
        c_minus, c_plus = boundary_constants(1.0, 10.0, 0.2)
        assert abs(c_minus - (-10.0 - math.exp(-5.0))) < 1e-12
        assert abs(c_plus - (10.0 - math.exp(5.0))) < 1e-12
        assert abs(c_minus - (-10.006737946999085)) < 1e-12
        assert abs(c_plus - (-138.4131591025766)) < 1e-12

    def test_large_tau_limit(self):
        # exp(+-1/tau_max) -> 1: c_minus -> -delta*K - 1, c_plus -> delta*K - 1
        c_minus, c_plus = boundary_constants(1.0, 10.0, 1e12)
        assert abs(c_minus - (-11.0)) < 1e-9
        assert abs(c_plus - 9.0) < 1e-9

    def test_ordering(self):
        # delta*K - e^(1/t) < -delta*K - e^(-1/t)  <=>  delta*K < sinh(1/t)
        rng = Rng(2)
        outcomes = set()
        for _ in range(50):
            delta = 0.01 + 5 * float(rng.uniform())
            big_k = 0.1 + 100 * float(rng.uniform())
            tau_max = 0.05 + float(rng.uniform())
            c_minus, c_plus = boundary_constants(delta, big_k, tau_max)
            below = c_plus < c_minus
            assert below == (delta * big_k < math.sinh(1.0 / tau_max))
            outcomes.add(below)
            c_low, c_high = family_bounds(delta, big_k, tau_max)
            assert c_low < c_high
        assert outcomes == {True, False}

    def test_family_bounds_frozen_values(self):
        # delta*K = 10, tau_max = 0.2, evaluated with scalar arithmetic
        c_low, c_high = family_bounds(1.0, 10.0, 0.2)
        assert abs(c_low - (-10.0 - math.exp(5.0))) < 1e-12
        assert abs(c_low - (-158.4131591025766)) < 1e-12
        assert c_high == boundary_constants(1.0, 10.0, 0.2)[0]

    def test_family_lower_bound_solves_minus_tau_max(self):
        # log(-delta*K - c_low) = 1/tau_max, so tau(-1) = -tau_max (invalid, kept)
        c_low, _ = family_bounds(1.0, 10.0, 0.2)
        tau, valid = ode_curve(OdeParams(1.0, 10.0, c_low), [-1.0])
        assert not valid[0]
        assert abs(tau[0] + 0.2) < 1e-10

    def test_overflow_guard(self):
        with pytest.raises(NumericError):
            boundary_constants(1.0, 1.0, 1.0 / 800.0)

    def test_positivity_validation(self):
        with pytest.raises(ValidationError):
            boundary_constants(0.0, 1.0, 0.2)
        with pytest.raises(ValidationError):
            family_bounds(1.0, 0.0, 0.2)
        for bad in (float("nan"), float("inf"), -1.0):
            for args in ((bad, 10.0, 0.2), (1.0, bad, 0.2), (1.0, 10.0, bad)):
                with pytest.raises(ValidationError, match="positive and finite"):
                    family_bounds(*args)
                with pytest.raises(ValidationError, match="positive and finite"):
                    boundary_constants(*args)
            for args in ((bad, 10.0), (1.0, bad)):
                with pytest.raises(ValidationError, match="positive and finite"):
                    OdeParams(*args, c=-11.0)
        with pytest.raises(NumericError):
            family_bounds(1.0, 1.0, 1.0 / 800.0)


class TestOdeCurve:
    def test_boundary_condition_at_minus_one(self):
        c_minus, _ = boundary_constants(1.0, 10.0, 0.2)
        tau, valid = ode_curve(OdeParams(1.0, 10.0, c_minus), [-1.0])
        assert valid[0]
        assert abs(tau[0] - 0.2) < 1e-10

    def test_boundary_condition_at_plus_one(self):
        _, c_plus = boundary_constants(1.0, 10.0, 0.2)
        tau, valid = ode_curve(OdeParams(1.0, 10.0, c_plus), [1.0])
        assert valid[0]
        assert abs(tau[0] - 0.2) < 1e-10

    def test_singular_band_flagged(self):
        c_minus, _ = boundary_constants(1.0, 10.0, 0.2)
        s_star = -0.9006737946999085  # root of delta*K*s - c = 1, scalar solve
        grid = [s_star - 1e-3, s_star - 1e-7, s_star, s_star + 1e-7, s_star + 1e-3]
        tau, valid = ode_curve(OdeParams(1.0, 10.0, c_minus), grid)
        assert valid[0]
        assert not valid[1] and not valid[2] and not valid[3]
        # just right of the singularity tau < 0: invalid but present
        assert not valid[4]
        assert tau[4] < 0

    def test_nonpositive_argument_flagged_not_dropped(self):
        tau, valid = ode_curve(OdeParams(1.0, 1.0, 2.0), [-1.0, 0.0, 1.0])
        assert len(tau) == 3
        assert not valid.all()

    def test_grid_domain_checked(self):
        with pytest.raises(DomainError):
            ode_curve(OdeParams(1.0, 1.0, -5.0), [-2.0, 0.0])


class TestProposition1:
    def test_paper_cell_positive_half_rises(self):
        # c = c_plus = delta*K - exp(1/tau_max) < -1: the log argument exceeds 1
        # on all of [-1, 1], so the negative half is entirely invalid (tau < 0)
        # and the positive half, which ends at tau(+1) = tau_max, must rise
        # everywhere
        c_minus, c_plus = boundary_constants(1.0, 10.0, 0.2)
        grid = np.linspace(-1.0, 1.0, 2001)
        tau, valid = ode_curve(OdeParams(1.0, 10.0, c_plus), grid)
        pos = valid & (grid > 0)
        assert pos.sum() > 900
        assert not np.any(valid & (grid < 0))
        diffs = np.diff(tau[pos])
        assert np.all(diffs > 0)

    def test_cell_report_passes_on_interior_constant(self):
        c_low, c_high = family_bounds(1.0, 10.0, 0.2)
        c = 0.5 * (c_low + c_high)
        cell = slope_sign_cell(OdeParams(1.0, 10.0, c), np.linspace(-1, 1, 2001))
        assert not cell.insufficient_samples
        assert cell.frac_correct_sign == 1.0
        assert cell.valid_points > 500

    def test_high_dk_cell_samples_family_interior(self):
        # delta*K = 100 > sinh(5) reverses the anchors (c_minus < c_plus), but
        # the verifier samples the interior of family_bounds, below c_minus,
        # so the cell passes with the unmasked slope check
        c_low, c_high = family_bounds(2.0, 50.0, 0.2)
        c_minus, c_plus = boundary_constants(2.0, 50.0, 0.2)
        assert c_high == c_minus < c_plus
        cells = verify_proposition1([2.0], [50.0], 0.2, c_count=8, s_count=2001)
        cs = np.array([cell.c for cell in cells])
        assert np.all((cs > c_low) & (cs < c_high))
        assert len(cells) == 8 and all(cell.passed for cell in cells)

    def test_single_point_grid_insufficient(self):
        cell = slope_sign_cell(OdeParams(1.0, 10.0, -20.0), np.array([0.5]))
        assert cell.insufficient_samples
        assert cell.valid_points == 0
        assert math.isnan(cell.frac_correct_sign) and not cell.passed

    def test_sample_constants_interior(self):
        cs = sample_constants(-158.0, -10.0, 8)
        assert len(cs) == 8
        assert np.all(cs > -158.0) and np.all(cs < -10.0)
        with pytest.raises(ValidationError):
            sample_constants(-158.0, -10.0, 1)

    def test_small_grid_report(self):
        cells = verify_proposition1([1.0], [10.0], 0.2, c_count=4, s_count=501)
        assert len(cells) == 4
        assert all(cell.passed for cell in cells)
        assert summarize_ode_report(cells).startswith("summary: PASS (4/4 cells")
        assert summarize_ode_report([]).startswith("summary: FAIL (0/0 cells")

    @pytest.mark.parametrize("tau_max, checked_negative", [(0.2, 0), (0.5, 9)])
    def test_negative_half_coverage(self, tau_max, checked_negative):
        # c02's grid: at tau_max 0.2 no cell has a checked s < 0 point; at 0.5
        # nine do, and each of those fails the sign check there
        cells = verify_proposition1([0.5, 1, 2], [5, 10, 50], tau_max, c_count=8, s_count=2001)
        negative = [cell for cell in cells if cell.negative_points > 0]
        assert len(negative) == checked_negative
        assert all(cell.valid_points > cell.negative_points for cell in cells)
        assert not any(cell.passed for cell in negative)
        assert all(cell.passed for cell in cells if cell.negative_points == 0)
        summary = summarize_ode_report(cells)
        assert f"{checked_negative} cells checked s < 0, 72 checked s > 0" in summary

    def test_empty_grids_rejected(self):
        with pytest.raises(ValidationError):
            verify_proposition1([], [1.0], 0.2, 4, 101)
