"""Similarity-dependent temperature profiles and the ODE slope verifier.

The three cosine variants are one formula over the cosine similarity s,
tau_min + 0.5 dt (1 + sign cos((pi / k) (ds + s))) with dt = tau_max - tau_min,
where (ds, k, sign) is (1, 1, +1) for the vanilla profile (tau_min at s = 0,
tau_max at s = +-1), (1, 2, -1) for the monotonic one and (shift, scale, +1)
for the shifted one. The shifted profile moves the minimum and rescales the
period; as printed in its source algorithm, it is pinned to tau_max outside
its cosine window. Linear and exponential variants share the range contract.

The verifier works on plain arrays: `ode_curve` evaluates the closed-form
curve tau(s) = s / log(delta*K*s - c) of an `OdeParams(delta, bigK, c)` and
returns (tau, valid), and `verify_proposition1` checks by central
differences that the slope sign matches the sign of s on every curve of a
(delta, K, c) grid, returning one `SlopeCell` per curve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericError, ValidationError, check_float, check_int
from .numeric import fmt

DOMAIN_SLACK = 1e-9
SINGULARITY_BAND = 1e-6
SLOPE_SIGN_EXCLUSION = 1e-3

SCALE_RANGE = (1e-6, 2.0)  # pi / scale stays finite
SHARPNESS_RANGE = (1e-6, 700.0)  # exp(-a) stays normal at the top
TAU_MIN_FLOOR = 1.0 / 350.0  # exp(-2 / tau_min), the loss's smallest shifted exp, stays normal
# (ds, k, sign, pinned) of the windowless cosine variants; cosine_shifted's are its own fields
COSINE_FORMS = {"cosine_vanilla": (1.0, 1.0, 1.0, None), "monotonic_cosine": (1.0, 2.0, -1.0, None)}


class ProfileForm(NamedTuple):
    """How a variant is named and which fields it takes."""

    names: tuple[str, ...]  # accepted spellings; the first is the spec-string name
    values: tuple[str, ...]  # fields the variant takes, in spec-string order
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


def variant_named(name: str) -> str:
    """The variant that a spelling in PROFILE_FORMS names (case-insensitive)."""
    for variant, form in PROFILE_FORMS.items():
        if name.lower() in form.names:
            return variant
    raise ValidationError(f"unknown profile name {name!r}")


@dataclass(frozen=True)
class TemperatureProfile:
    """Tagged temperature function tau(s) over cosine similarity s in [-1, 1].

    Every variant maps into [tau_min, tau_max] and takes the shape fields
    PROFILE_FORMS lists for it; the others keep their defaults. A constant's
    tau_max, when given, must be its tau_min, which is what it defaults to.
    """

    variant: str
    tau_min: float
    tau_max: float | None = None
    shift: float = 0.0      # delta-s of the shifted cosine window
    scale: float = 1.0      # k, its period scale
    sharpness: float = 1.0  # a of the exponential

    def __post_init__(self):
        if self.variant not in PROFILE_FORMS:
            raise ValidationError(f"unknown profile variant {self.variant!r}")
        carried = ("tau_max", *PROFILE_FORMS[self.variant].values)  # a constant's tau_max is checked below
        for f in fields(self):  # a shape field the variant ignores must keep its default
            value = getattr(self, f.name)
            if f.default is not MISSING and f.name not in carried and value != f.default:
                raise ValidationError(f"{self.variant} profile takes no {f.name} (got {value!r})")
        if self.tau_max is None:  # a constant's spec string drops it
            if self.variant != "constant":
                raise ValidationError(f"{self.variant} profile needs a tau_max")
            object.__setattr__(self, "tau_max", self.tau_min)
        elif self.variant == "constant" and self.tau_max != self.tau_min:
            raise ValidationError(
                f"constant profile takes no tau_max other than tau_min {self.tau_min!r} (got {self.tau_max!r})"
            )
        check_float("tau_min", self.tau_min, TAU_MIN_FLOOR)
        check_float("tau_max", self.tau_max, self.tau_min)
        # a shape field the variant ignores holds its default, which lies in range
        check_float("shift", self.shift, -1.0, 1.0)
        check_float("scale", self.scale, *SCALE_RANGE)
        check_float("sharpness", self.sharpness, *SHARPNESS_RANGE)

    # -- evaluation --------------------------------------------------------

    def _cosine(self, s: np.ndarray):
        """(ds, k, sign, pinned) of a cosine variant's formula (see COSINE_FORMS), else None.

        Only cosine_shifted pins entries to tau_max: the s outside its window, and NaN.
        """
        if self.variant != "cosine_shifted":
            return COSINE_FORMS.get(self.variant)
        ds = self.shift
        return ds, self.scale, 1.0, ~(((ds <= 0) & (s <= -ds)) | ((ds >= 0) & (s >= -ds)))

    def _on_domain(self, formula, s):
        """`formula` of a clipped float64 copy of s, a float for a scalar s; DomainError if |s| > 1 + slack."""
        scalar = np.isscalar(s) or np.ndim(s) == 0
        s = np.asarray(s, dtype=np.float64)
        if s.size and (s.min() < -1.0 - DOMAIN_SLACK or s.max() > 1.0 + DOMAIN_SLACK):  # NaN passes
            bad = float(s.flat[int(np.argmax(np.abs(s)))])
            raise DomainError(f"cosine similarity {bad} outside [-1, 1]")
        out = formula(np.clip(s, -1.0, 1.0, out=np.empty_like(s)))
        return float(out) if scalar else out

    def tau(self, s):
        """Temperature per entry; accepts scalars or arrays, s in [-1, 1]."""
        return self._on_domain(self.tau_in_place, s)

    def tau_in_place(self, out: np.ndarray) -> np.ndarray:
        """Overwrite a float64 array of similarities, already clipped to [-1, 1], with tau.

        No domain check: the caller clipped `out`. Each formula runs in place,
        in its written order; returns `out`.
        """
        dt = self.tau_max - self.tau_min
        if self.variant == "constant":
            out.fill(self.tau_min)
        elif (cosine := self._cosine(out)) is not None:
            # tau_min + 0.5 dt (1 + sign cos((pi / k) (ds + s))), tau_max where pinned
            ds, k, sign, pinned = cosine
            out += ds
            out *= np.pi / k
            np.cos(out, out=out)
            (np.subtract if sign < 0 else np.add)(1.0, out, out=out)  # 1 + sign cos, NaN keeps its sign
            out *= 0.5 * dt
            out += self.tau_min
            if pinned is not None:
                np.copyto(out, self.tau_max, where=pinned)
        elif self.variant == "linear":
            # tau_min + dt |s|
            np.abs(out, out=out)
            out *= dt
            out += self.tau_min
        else:  # exponential
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
        # cos() round-off can leak a few ulp past the band
        return np.clip(out, self.tau_min, self.tau_max, out=out)

    def dtau_ds(self, s):
        """Analytic derivative of tau w.r.t. s (sub-gradient 0 at kinks); accepts scalars or arrays."""
        return self._on_domain(self._slope, s)

    def _slope(self, s: np.ndarray):
        dt = self.tau_max - self.tau_min
        if self.variant == "constant":
            return np.zeros_like(s)
        if (cosine := self._cosine(s)) is not None:
            ds, k, sign, pinned = cosine
            out = -0.5 * sign * dt * (np.pi / k) * np.sin((np.pi / k) * (ds + s))
            return out if pinned is None else np.where(pinned, 0.0, out)
        if self.variant == "linear":
            return dt * np.sign(s)
        a = self.sharpness  # exponential
        return dt * a * np.sign(s) * np.exp(a * (np.abs(s) - 1.0)) / -math.expm1(-a)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = {"variant": self.variant, "tau_min": self.tau_min, "tau_max": self.tau_max}
        d.update((name, getattr(self, name)) for name in PROFILE_FORMS[self.variant].values)
        return d

    def spec_string(self) -> str:
        """Compact CLI form, e.g. cosine:0.1:0.2 or shifted:0.1:0.2:-0.4:0.7, that parses back to this profile."""
        form = PROFILE_FORMS[self.variant]
        values = [fmt(getattr(self, name)).removesuffix(".0") for name in form.values]
        return ":".join([form.names[0]] + values)

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
        return cls(variant, **dict(zip(form.values, values)))


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
    c: float

    def __post_init__(self):
        for name in ("delta", "bigK"):
            check_float(name, getattr(self, name), 0.0, open_low=True)


def _anchor_product(delta: float, bigK: float, tau_max: float) -> float:
    """delta*K, once delta, K and tau_max are positive and finite and exp(1/tau_max) fits a double."""
    for name, value in (("delta", delta), ("bigK", bigK), ("tau_max", tau_max)):
        check_float(name, value, 0.0, open_low=True)
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
    dk = _anchor_product(delta, bigK, tau_max)
    return -dk - math.exp(-1.0 / tau_max), dk - math.exp(1.0 / tau_max)


def family_bounds(delta: float, bigK: float, tau_max: float) -> tuple[float, float]:
    """Interval of integral constants the Proposition 1 verifier samples.

    Returns (c_low, c_high) = (-delta*K - exp(1/tau_max), -delta*K - exp(-1/tau_max)):
    the constants at which the log argument at s = -1 is exp(+-1/tau_max), so
    that tau(-1) = -tau_max and tau(-1) = tau_max. c_high is c_minus of
    boundary_constants; c_low anchors no endpoint. c_low < c_high always.
    """
    dk = _anchor_product(delta, bigK, tau_max)
    return -dk - math.exp(1.0 / tau_max), -dk - math.exp(-1.0 / tau_max)


def ode_curve(params: OdeParams, grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(tau, valid): tau(s) = s / log(delta*K*s - c) over the grid, and its validity mask.

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
    return tau, valid


@dataclass
class SlopeCell:
    """Sign-check summary for one (delta, K, c) curve."""

    delta: float
    bigK: float
    c: float
    frac_correct_sign: float  # NaN when no point was checked
    valid_points: int  # checked points
    negative_points: int  # checked points with s < 0; the rest have s > 0

    @property
    def insufficient_samples(self) -> bool:
        return self.valid_points == 0

    @property
    def passed(self) -> bool:
        return self.frac_correct_sign == 1.0


def slope_sign_cell(params: OdeParams, grid: np.ndarray) -> SlopeCell:
    """Central-difference slope signs of one curve against sign(s).

    Points near the stationary point (|s| < 1e-3), invalid points, and points
    whose finite-difference neighbors are invalid are excluded; a grid of
    fewer than 3 points checks none.
    """
    s = np.asarray(grid, dtype=np.float64)
    tau, valid = ode_curve(params, s)
    checked = valid[1:-1] & valid[:-2] & valid[2:] & (np.abs(s[1:-1]) >= SLOPE_SIGN_EXCLUSION)
    s_checked = s[1:-1][checked]
    count = s_checked.size
    slope = (tau[2:] - tau[:-2]) / (s[2:] - s[:-2])
    correct = np.count_nonzero(np.sign(slope[checked]) == np.sign(s_checked))
    frac = correct / count if count else math.nan
    return SlopeCell(params.delta, params.bigK, params.c, frac, count, int(np.count_nonzero(s_checked < 0)))


def sample_constants(c_low: float, c_high: float, c_count: int) -> np.ndarray:
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
) -> list[SlopeCell]:
    """Check sign(dtau/ds) == sign(s) over a (delta, K, c) grid of curves, one cell per curve."""
    if len(delta_grid) == 0 or len(bigK_grid) == 0:
        raise ValidationError("delta and K grids must be non-empty")
    grid = np.linspace(-1.0, 1.0, check_int("s_count", s_count, 0))
    return [
        slope_sign_cell(OdeParams(delta, bigK, float(c)), grid)
        for delta, bigK in itertools.product(delta_grid, bigK_grid)
        for c in sample_constants(*family_bounds(delta, bigK, tau_max), c_count)
    ]


def write_ode_report_csv(path: str | Path, cells: Sequence[SlopeCell]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("delta,bigk,c,frac_correct_sign,valid_points\n")
        for cell in cells:
            fh.write(
                f"{fmt(cell.delta)},{fmt(cell.bigK)},{fmt(cell.c)},"
                f"{fmt(cell.frac_correct_sign)},{cell.valid_points}\n"
            )


def summarize_ode_report(cells: Sequence[SlopeCell]) -> str:
    """One summary line; PASS only when there are cells and every one passed."""
    n = len(cells)
    passed = sum(cell.passed for cell in cells)
    insufficient = sum(cell.insufficient_samples for cell in cells)
    negative = sum(cell.negative_points > 0 for cell in cells)
    positive = sum(cell.valid_points > cell.negative_points for cell in cells)
    status = "PASS" if 0 < n == passed else "FAIL"
    return (
        f"summary: {status} ({passed}/{n} cells with slope-sign fraction 1.0, "
        f"{insufficient} insufficient; {negative} cells checked s < 0, {positive} checked s > 0)"
    )
