"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError (and subclasses) -> 1,
NumericError -> 2, OSError -> 3. The helpers at the end check values and
build config dataclasses from JSON sections: every integer rule goes through
`check_int` and every real-number rule through `check_float`.
"""

import dataclasses
import math
import numbers


class DystressError(Exception):
    """Base class for all package errors."""


class ValidationError(DystressError, ValueError):
    """Bad user input: configs, out-of-domain arguments, malformed files."""


class DegenerateInputError(ValidationError):
    """Input is numerically degenerate (e.g. a near-zero vector to normalize)."""


class BatchTooSmallError(ValidationError):
    """Batch has fewer than 2 samples; the contrastive loss is degenerate."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class NumericError(DystressError, ArithmeticError):
    """Non-finite values or overflow encountered during computation."""


def check_int(name: str, value, low: int, high=math.inf) -> int:
    """`value` as an int; ValidationError unless it is an integer from `low` to `high`.

    Bools and integral floats such as 2.0 are rejected, not converted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
        most = "" if high == math.inf else f" and at most {high}"
        raise ValidationError(f"{name} must be an integer of at least {low}{most}, got {value!r}")
    return int(value)


def check_float(name: str, value, low, high=math.inf, *, open_low=False, open_high=False) -> float:
    """`value` as a float; ValidationError unless it is a finite real number from `low` to `high`.

    Both ends are closed unless opened. Bools and other non-reals are rejected,
    and so is an int too large for a double.
    """
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        x = math.nan
    if math.isfinite(x) and (low < x if open_low else low <= x) and (x < high if open_high else x <= high):
        return x
    if (low, high) == (0, math.inf):
        rule = "be positive and finite" if open_low else "be non-negative and finite"
    else:
        closing = ")" if open_high or high == math.inf else "]"
        rule = f"lie in {'(' if open_low else '['}{_show(low)}, {_show(high)}{closing}"
    raise ValidationError(f"{name} must {rule}, got {value!r}")


def _show(bound) -> str:
    """`bound` in %g form, or as 1/n where that is exact and %g is not (1/350)."""
    n = round(1 / bound) if 0 < bound < 1 else 0
    return f"1/{n}" if n and 1 / n == bound and float(f"{bound:g}") != bound else f"{bound:g}"


def check_fields(section, allowed, where: str) -> None:
    """ValidationError unless `section` is a dict whose keys all lie in `allowed`."""
    if not isinstance(section, dict):
        raise ValidationError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown fields in {where}: {sorted(unknown)}")


def from_section(cls, section, where: str):
    """Build the dataclass `cls` from a config section, a dict of its fields.

    Missing fields take the dataclass defaults and the dataclass runs its own
    checks; a TypeError or ValueError from them becomes a ValidationError
    that names the section.
    """
    check_fields(section, [f.name for f in dataclasses.fields(cls)], where)
    try:
        return cls(**section)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"{where}: {err}") from err
