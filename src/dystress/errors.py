"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError (and subclasses) -> 1,
NumericError -> 2, OSError -> 3. The helpers at the end check config
fields and build config dataclasses from JSON sections.
"""

import dataclasses
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


def check_int(name: str, value, low: int) -> int:
    """`value` as an int; ValidationError unless it is an integer >= `low`.

    Bools and integral floats such as 2.0 are rejected, not converted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer of at least {low}, got {value!r}")
    return int(value)


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
