"""Exception types shared across the package, and the typed field check
that raises ConfigurationError for every config dataclass."""

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
    """Training produced a non-finite loss; a diagnostic checkpoint may exist."""

    def __init__(self, message, checkpoint_path=None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


# a field's annotation -> (the JSON types it takes, how to name them)
_FIELD_TYPES = {"int": (int, "an integer"),
                "float": ((int, float), "a number"),
                "bool": (bool, "true or false")}


def check_field_types(obj):
    """Raise ConfigurationError unless every int, float and bool field of the
    dataclass obj holds that JSON type; a config file can give any.

    A bool is not a number, and an ``X | None`` field may also be None.
    Other annotations are not checked. Annotations are read as strings
    (``from __future__ import annotations``).
    """
    for f in fields(obj):
        name = f.type.removesuffix(" | None")
        value = getattr(obj, f.name)
        if name not in _FIELD_TYPES or (value is None and name != f.type):
            continue
        allowed, kind = _FIELD_TYPES[name]
        if (isinstance(value, bool) != (allowed is bool)
                or not isinstance(value, allowed)):
            raise ConfigurationError(f"{f.name} must be {kind}, got {value!r}")
