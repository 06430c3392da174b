"""Exception types shared across the package, and the type check that
raises ConfigurationError for every config dataclass and object."""

from dataclasses import fields


class AdqError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AdqError):
    """Invalid architecture, quantizer, or experiment configuration."""


class InputError(AdqError):
    """Invalid runtime input (bad labels, out-of-range values, missing data)."""


class UsageError(AdqError):
    """API misuse, e.g. backward called with a stale or foreign cache."""


class TrainingDiverged(AdqError):
    """A non-finite training loss; run is the ScheduleRun as it stood then."""

    def __init__(self, message, run=None):
        super().__init__(message)
        self.run = run


# an annotation -> (the JSON types it takes, how to name them)
_FIELD_TYPES = {"int": (int, "an integer"),
                "float": ((int, float), "a number"),
                "bool": (bool, "true or false"),
                "str": (str, "a string"),
                "tuple[int, ...]": ((list, tuple), "a list of integers")}


def _holds(value, annotation):
    allowed = _FIELD_TYPES[annotation][0]
    if annotation == "tuple[int, ...]":
        return (isinstance(value, allowed)
                and all(_holds(v, "int") for v in value))
    return (isinstance(value, bool) == (allowed is bool)
            and isinstance(value, allowed))


def check_type(name, value, annotation):
    """Raise ConfigurationError unless value holds the JSON type that the
    annotation names; a config file can give any.

    A bool is not a number, an ``X | None`` annotation also takes None, and
    ``tuple[int, ...]`` takes a list of integers. Other annotations are not
    checked. Annotations are read as strings (``from __future__ import
    annotations``).
    """
    base = annotation.removesuffix(" | None")
    if (base in _FIELD_TYPES and not (value is None and base != annotation)
            and not _holds(value, base)):
        raise ConfigurationError(
            f"{name} must be {_FIELD_TYPES[base][1]}, got {value!r}")


def check_field_types(obj):
    """check_type for every field of the dataclass obj."""
    for f in fields(obj):
        check_type(f.name, getattr(obj, f.name), f.type)
