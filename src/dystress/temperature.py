"""Similarity-dependent temperature profiles and the ODE slope verifier.

The vanilla profile is a cosine of the cosine similarity with minimum
tau_min at s = 0 and maximum tau_max at s = +-1. Shifted variants move the
minimum along the similarity axis and rescale the period so the extremes
keep tau_max; they are implemented exactly as printed in their source
algorithm, including the branch that pins tau to tau_max outside the cosine
window. Linear / exponential / monotonic-cosine variants share the same
[tau_min, tau_max] range contract.

The verifier numerically differentiates the closed-form curve
tau(s) = s / log(delta*K*s - c) and checks that the slope sign matches the
sign of s over a grid of (delta, K, c) cells.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericError, ValidationError, check_float, check_int, from_section
from .numeric import fmt

DOMAIN_SLACK = 1e-9
SINGULARITY_BAND = 1e-6
SLOPE_SIGN_EXCLUSION = 1e-3

SCALE_RANGE = (1e-6, 2.0)  # pi / scale stays finite
SHARPNESS_RANGE = (1e-6, 700.0)  # exp(-a) stays normal at the top
TAU_MIN_FLOOR = 1.0 / 350.0  # exp(-2 / tau_min), the loss's smallest shifted exp, stays normal


class ProfileForm(NamedTuple):
    """How a variant is named and which of its fields a spec string carries."""

    names: tuple[str, ...]  # accepted spellings; the first is the spec-string name
    values: tuple[str, ...]  # fields a spec string carries, in order
    required: int  # how many of them a spec string must give


PROFILE_FORMS = {
    "constant": ProfileForm(("constant",), ("tau_min",), 1),
    "cosine_vanilla": ProfileForm(("cosine", "cosine_vanilla"), ("tau_min", "tau_max"), 2),
    "cosine_shifted": ProfileForm(
        ("shifted", "cosine_shifted"), ("tau_min", "tau_max", "shift", "scale"), 4
    ),
    "linear": ProfileForm(("linear",), ("tau_min", "tau_max"), 2),
    "exponential": ProfileForm(("exponential", "exp"), ("tau_min", "tau_max", "sharpness"), 2),
    "monotonic_cosine": ProfileForm(("monotonic", "monotonic_cosine"), ("tau_min", "tau_max"), 2),
}
PROFILE_NAMES = tuple(name for form in PROFILE_FORMS.values() for name in form.names)


def variant_named(name: str) -> str:
    """The variant that a spelling in PROFILE_FORMS names (case-insensitive)."""
    for variant, form in PROFILE_FORMS.items():
        if name.lower() in form.names:
            return variant
    raise ValidationError(f"unknown profile name {name!r}")


@dataclass(frozen=True)
class TemperatureProfile:
    """Tagged temperature function tau(s) over cosine similarity s in [-1, 1].

    Every variant maps into [tau_min, tau_max]. Use the classmethod
    constructors rather than building instances by hand.
    """

    variant: str
    tau_min: float
    tau_max: float
    shift: float = 0.0      # cosine_shifted only (delta-s)
    scale: float = 1.0      # cosine_shifted only (k)
    sharpness: float = 1.0  # exponential only (a)

    def __post_init__(self):
        if self.variant not in PROFILE_FORMS:
            raise ValidationError(f"unknown profile variant {self.variant!r}")
        carried = PROFILE_FORMS[self.variant].values
        for f in fields(self):  # a shape field the variant ignores must keep its default
            value = getattr(self, f.name)
            if f.default is not MISSING and f.name not in carried and value != f.default:
                raise ValidationError(f"{self.variant} profile takes no {f.name} (got {value!r})")
        if self.variant == "constant" and self.tau_max != self.tau_min:  # its spec string drops tau_max
            raise ValidationError(
                f"constant profile takes no tau_max other than tau_min {self.tau_min!r} (got {self.tau_max!r})"
            )
        check_float("tau_min", self.tau_min, TAU_MIN_FLOOR)
        check_float("tau_max", self.tau_max, self.tau_min)
        # a shape field the variant ignores holds its default, which lies in range
        check_float("shift", self.shift, -1.0, 1.0)
        check_float("scale", self.scale, *SCALE_RANGE)
        check_float("sharpness", self.sharpness, *SHARPNESS_RANGE)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, tau: float) -> "TemperatureProfile":
        return cls("constant", tau, tau)

    @classmethod
    def cosine_vanilla(cls, tau_min: float, tau_max: float) -> "TemperatureProfile":
        return cls("cosine_vanilla", tau_min, tau_max)

    @classmethod
    def cosine_shifted(
        cls, tau_min: float, tau_max: float, shift: float, scale: float
    ) -> "TemperatureProfile":
        return cls("cosine_shifted", tau_min, tau_max, shift=shift, scale=scale)

    @classmethod
    def linear(cls, tau_min: float, tau_max: float) -> "TemperatureProfile":
        return cls("linear", tau_min, tau_max)

    @classmethod
    def exponential(cls, tau_min: float, tau_max: float, sharpness: float = 1.0) -> "TemperatureProfile":
        return cls("exponential", tau_min, tau_max, sharpness=sharpness)

    @classmethod
    def monotonic_cosine(cls, tau_min: float, tau_max: float) -> "TemperatureProfile":
        return cls("monotonic_cosine", tau_min, tau_max)

    # -- evaluation --------------------------------------------------------

    def _check_domain(self, s: np.ndarray) -> np.ndarray:
        """A clipped float64 copy of s; DomainError if some |s| exceeds 1 by more than the slack."""
        s = np.asarray(s, dtype=np.float64)
        limit = 1.0 + DOMAIN_SLACK
        if s.size and (s.min() < -limit or s.max() > limit):  # NaN passes, as it did
            bad = float(s.flat[int(np.argmax(np.abs(s)))])
            raise DomainError(f"cosine similarity {bad} outside [-1, 1]")
        return np.clip(s, -1.0, 1.0, out=np.empty_like(s))

    def tau(self, s):
        """Temperature per entry; accepts scalars or arrays, s in [-1, 1]."""
        scalar = np.isscalar(s) or np.ndim(s) == 0
        out = self.tau_in_place(self._check_domain(s))
        return float(out) if scalar else out

    def tau_in_place(self, out: np.ndarray) -> np.ndarray:
        """Overwrite a float64 array of similarities, already clipped to [-1, 1], with tau.

        No domain check: the caller clipped `out`. Each formula runs in place,
        in its written order; returns `out`.
        """
        dt = self.tau_max - self.tau_min
        if self.variant == "constant":
            out.fill(self.tau_min)
        elif self.variant == "cosine_vanilla":
            # tau_min + 0.5 dt (1 + cos(pi (1 + s)))
            out += 1.0
            out *= np.pi
            np.cos(out, out=out)
            out += 1.0
            out *= 0.5 * dt
            out += self.tau_min
        elif self.variant == "cosine_shifted":
            # tau_min + 0.5 dt (1 + cos((pi / k) (ds + s))) in the window, tau_max outside
            ds, k = self.shift, self.scale
            in_window = ((ds <= 0) & (out <= -ds)) | ((ds >= 0) & (out >= -ds))
            out += ds
            out *= np.pi / k
            np.cos(out, out=out)
            out += 1.0
            out *= 0.5 * dt
            out += self.tau_min
            np.copyto(out, self.tau_max, where=~in_window)
        elif self.variant == "linear":
            # tau_min + dt |s|
            np.abs(out, out=out)
            out *= dt
            out += self.tau_min
        elif self.variant == "exponential":
            # tau_min + dt exp(a (|s| - 1)) expm1(-a |s|) / expm1(-a): (exp(a|s|) - 1) /
            # (exp(a) - 1), scaled by exp(-a) so nothing overflows
            a = self.sharpness
            np.abs(out, out=out)
            tail = out.copy()
            tail *= -a
            np.expm1(tail, out=tail)
            out -= 1.0
            out *= a
            np.exp(out, out=out)
            out *= dt
            out *= tail
            out /= math.expm1(-a)
            out += self.tau_min
        else:  # monotonic_cosine
            # tau_min + 0.5 dt (1 - cos(pi (1 + s) / 2))
            out += 1.0
            out *= np.pi
            out /= 2.0
            np.cos(out, out=out)
            np.subtract(1.0, out, out=out)
            out *= 0.5 * dt
            out += self.tau_min
        # cos() round-off can leak a few ulp past the band
        return np.clip(out, self.tau_min, self.tau_max, out=out)

    def dtau_ds(self, s):
        """Analytic derivative of tau w.r.t. s (sub-gradient 0 at kinks)."""
        scalar = np.isscalar(s) or np.ndim(s) == 0
        s = self._check_domain(s)
        dt = self.tau_max - self.tau_min
        if self.variant == "constant":
            out = np.zeros_like(s)
        elif self.variant == "cosine_vanilla":
            out = -0.5 * dt * np.pi * np.sin(np.pi * (1.0 + s))
        elif self.variant == "cosine_shifted":
            ds, k = self.shift, self.scale
            in_window = ((ds <= 0) & (s <= -ds)) | ((ds >= 0) & (s >= -ds))
            slope = -0.5 * dt * (np.pi / k) * np.sin((np.pi / k) * (ds + s))
            out = np.where(in_window, slope, 0.0)
        elif self.variant == "linear":
            out = dt * np.sign(s)
        elif self.variant == "exponential":
            a = self.sharpness
            out = dt * a * np.sign(s) * np.exp(a * (np.abs(s) - 1.0)) / -math.expm1(-a)
        else:  # monotonic_cosine
            out = 0.5 * dt * (np.pi / 2.0) * np.sin(np.pi * (1.0 + s) / 2.0)
        return float(out) if scalar else out

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = {"variant": self.variant, "tau_min": self.tau_min, "tau_max": self.tau_max}
        d.update((name, getattr(self, name)) for name in PROFILE_FORMS[self.variant].values)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TemperatureProfile":
        return from_section(cls, d, "profile")

    def spec_string(self) -> str:
        """Compact CLI form, e.g. cosine:0.1:0.2 or shifted:0.1:0.2:-0.4:0.7."""
        form = PROFILE_FORMS[self.variant]
        return ":".join([form.names[0]] + [f"{getattr(self, name):g}" for name in form.values])

    @classmethod
    def from_spec_string(cls, spec: str) -> "TemperatureProfile":
        """Profile from a spelling in PROFILE_FORMS and its values in spec-string order."""
        name, *args = spec.split(":")
        try:
            values = [float(x) for x in args]
        except ValueError as err:
            raise ValidationError(f"bad profile spec {spec!r}: {err}") from err
        variant = variant_named(name)
        form = PROFILE_FORMS[variant]
        if not form.required <= len(values) <= len(form.values):
            raise ValidationError(f"{name} takes the values {':'.join(form.values)}, got {len(values)}")
        return getattr(cls, variant)(*values)


def profile_curve(profile: TemperatureProfile, samples: int) -> np.ndarray:
    """(s, tau) table over `samples` evenly spaced s in [-1, 1]."""
    s = np.linspace(-1.0, 1.0, check_int("samples", samples, 2))
    return np.column_stack([s, profile.tau(s)])


def write_profile_csv(path: str | Path, profile: TemperatureProfile, samples: int) -> None:
    table = profile_curve(profile, samples)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("s,tau\n")
        for s, t in table:
            fh.write(f"{fmt(s)},{fmt(t)}\n")


# ---------------------------------------------------------------------------
# Closed-form ODE curve and the slope-sign verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdeParams:
    """Parameters of the closed-form curve tau(s) = s / log(delta*K*s - c)."""

    delta: float
    bigK: float
    tau_max: float
    c: float

    def __post_init__(self):
        _check_curve_args(self.delta, self.bigK, self.tau_max)


@dataclass
class OdeCurve:
    """Sampled curve with a validity mask (invalid points kept, not dropped)."""

    s: np.ndarray
    tau: np.ndarray
    valid: np.ndarray
    params: OdeParams


def _check_curve_args(delta: float, bigK: float, tau_max: float) -> None:
    """The curve parameters must be positive and finite."""
    for name, value in (("delta", delta), ("bigK", bigK), ("tau_max", tau_max)):
        check_float(name, value, 0.0, open_low=True)


def _check_constant_args(delta: float, bigK: float, tau_max: float) -> float:
    """Validate the curve parameters and return delta*K."""
    _check_curve_args(delta, bigK, tau_max)
    if 1.0 / tau_max > 709.0:
        raise NumericError(f"exp(1/tau_max) overflows float64 for tau_max = {tau_max}")
    return delta * bigK


def boundary_constants(delta: float, bigK: float, tau_max: float) -> tuple[float, float]:
    """Integral constants anchoring the curve family at the similarity extremes.

    Returns (c_minus, c_plus) with c_minus = -delta*K - exp(-1/tau_max), which
    solves tau(-1) = tau_max, and c_plus = delta*K - exp(1/tau_max), which
    solves tau(+1) = tau_max. c_plus < c_minus exactly when
    delta*K < sinh(1/tau_max); otherwise the order is reversed.
    """
    dk = _check_constant_args(delta, bigK, tau_max)
    c_minus = -dk - math.exp(-1.0 / tau_max)
    c_plus = dk - math.exp(1.0 / tau_max)
    return c_minus, c_plus


def family_bounds(delta: float, bigK: float, tau_max: float) -> tuple[float, float]:
    """Interval of integral constants the Proposition 1 verifier samples.

    Returns (c_low, c_high) = (-delta*K - exp(1/tau_max), -delta*K - exp(-1/tau_max)):
    the constants at which the log argument at s = -1 is exp(+-1/tau_max), so
    that tau(-1) = -tau_max and tau(-1) = tau_max. c_high is c_minus of
    boundary_constants; c_low anchors no endpoint. c_low < c_high always.
    """
    dk = _check_constant_args(delta, bigK, tau_max)
    return -dk - math.exp(1.0 / tau_max), -dk - math.exp(-1.0 / tau_max)


def ode_curve(params: OdeParams, grid: Sequence[float]) -> OdeCurve:
    """Evaluate tau(s) = s / log(delta*K*s - c) over the grid.

    Grid points where the log argument is non-positive, within the
    singularity band |arg - 1| < 1e-6 (or within 1e-6 of the root of
    arg = 1 in s), or where tau <= 0, are flagged invalid but kept.
    """
    s = np.asarray(grid, dtype=np.float64)
    if np.any(np.abs(s) > 1.0 + DOMAIN_SLACK):
        raise DomainError("ODE grid must lie within [-1, 1]")
    dk = params.delta * params.bigK
    arg = dk * s - params.c
    tau = np.full_like(s, np.nan)
    pos = arg > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_arg = np.log(arg[pos])
        tau[pos] = np.where(log_arg != 0.0, s[pos] / log_arg, np.nan)
    s_star = (1.0 + params.c) / dk  # where the log argument crosses 1
    valid = (
        pos
        & (np.abs(arg - 1.0) >= SINGULARITY_BAND)
        & (np.abs(s - s_star) >= SINGULARITY_BAND)
        & np.isfinite(tau)
        & (tau > 0)
    )
    return OdeCurve(s=s, tau=tau, valid=valid, params=params)


@dataclass
class SlopeCell:
    """Sign-check summary for one (delta, K, c) combination."""

    delta: float
    bigK: float
    c: float
    frac_correct_sign: float
    valid_points: int  # checked points
    negative_points: int  # checked points with s < 0; the rest have s > 0
    insufficient_samples: bool

    @property
    def passed(self) -> bool:
        return not self.insufficient_samples and self.frac_correct_sign == 1.0


@dataclass
class Proposition1Report:
    cells: list[SlopeCell] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return bool(self.cells) and all(c.passed for c in self.cells)


def slope_sign_cell(params: OdeParams, grid: np.ndarray) -> SlopeCell:
    """Central-difference slope signs of one curve against sign(s).

    Points near the stationary point (|s| < 1e-3), invalid points, and points
    whose finite-difference neighbors are invalid are excluded.
    """
    curve = ode_curve(params, grid)
    s, tau, valid = curve.s, curve.tau, curve.valid
    checked = valid[1:-1] & valid[:-2] & valid[2:] & (np.abs(s[1:-1]) >= SLOPE_SIGN_EXCLUSION)
    count = int(checked.sum())
    if count == 0:  # also every grid of fewer than 3 points
        return SlopeCell(params.delta, params.bigK, params.c, float("nan"), 0, 0, True)
    slope = (tau[2:] - tau[:-2]) / (s[2:] - s[:-2])
    correct = np.sign(slope[checked]) == np.sign(s[1:-1][checked])
    frac = float(np.count_nonzero(correct)) / count
    negative = int(np.count_nonzero(s[1:-1][checked] < 0))
    return SlopeCell(params.delta, params.bigK, params.c, frac, count, negative, False)


def sample_constants(c_high: float, c_low: float, c_count: int) -> np.ndarray:
    """c values for the verifier: midpoints of c_count equal subintervals.

    The interval is [c_low, c_high] of family_bounds. Its endpoints are
    excluded deliberately: the c_high curve (c_minus) is the boundary member
    of the family and its negative-half branch runs into the log singularity
    (slope sign undefined as a family property there), so the verifier
    samples the interior.
    """
    edges = np.linspace(c_low, c_high, check_int("c_count", c_count, 2) + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def verify_proposition1(
    delta_grid: Sequence[float],
    bigK_grid: Sequence[float],
    tau_max: float,
    c_count: int,
    s_count: int,
) -> Proposition1Report:
    """Check sign(dtau/ds) == sign(s) over a (delta, K, c) grid of curves."""
    if len(delta_grid) == 0 or len(bigK_grid) == 0:
        raise ValidationError("delta and K grids must be non-empty")
    grid = np.linspace(-1.0, 1.0, check_int("s_count", s_count, 0))
    report = Proposition1Report()
    for delta in delta_grid:
        for bigK in bigK_grid:
            c_low, c_high = family_bounds(delta, bigK, tau_max)
            for c in sample_constants(c_high, c_low, c_count):
                cell = slope_sign_cell(OdeParams(delta, bigK, tau_max, float(c)), grid)
                report.cells.append(cell)
    return report


def write_ode_report_csv(path: str | Path, report: Proposition1Report) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("delta,bigk,c,frac_correct_sign,valid_points\n")
        for cell in report.cells:
            fh.write(
                f"{fmt(cell.delta)},{fmt(cell.bigK)},{fmt(cell.c)},"
                f"{fmt(cell.frac_correct_sign)},{cell.valid_points}\n"
            )


def summarize_ode_report(report: Proposition1Report) -> str:
    n = len(report.cells)
    insufficient = sum(c.insufficient_samples for c in report.cells)
    failed = sum(1 for c in report.cells if not c.passed)
    negative = sum(c.negative_points > 0 for c in report.cells)
    positive = sum(c.valid_points > c.negative_points for c in report.cells)
    status = "PASS" if report.all_pass else "FAIL"
    return (
        f"summary: {status} ({n - failed}/{n} cells with slope-sign fraction 1.0, "
        f"{insufficient} insufficient; {negative} cells checked s < 0, {positive} checked s > 0)"
    )
