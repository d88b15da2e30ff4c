"""Exception types shared across modules (CLI maps these to exit codes)."""

from numbers import Integral


class ConfigError(ValueError):
    """A configuration value or combination is invalid or infeasible."""


def field_error(name: str, rule: str, value) -> ConfigError:
    """The error for config field ``name``, named with the flag that sets it."""
    return ConfigError(f"{name} (--{name.replace('_', '-')}) must be {rule}, got {value!r}")


def require_ints(config, names: tuple[str, ...]) -> None:
    """Raise the field error of the first of ``names`` not holding an int (a bool is not one)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise field_error(name, "an int", value)


class FormatError(ValueError):
    """An on-disk artifact is malformed; messages carry byte positions."""


class TrainingAbort(RuntimeError):
    """Training stopped on a fatal numerical condition (e.g. NaN gradient)."""
