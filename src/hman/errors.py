"""Exception types shared across modules (CLI maps these to exit codes)."""


class ConfigError(ValueError):
    """A configuration value or combination is invalid or infeasible."""


def field_error(name: str, rule: str, value) -> ConfigError:
    """The error for config field ``name``, named with the flag that sets it."""
    return ConfigError(f"{name} (--{name.replace('_', '-')}) must be {rule}, got {value!r}")


class FormatError(ValueError):
    """An on-disk artifact is malformed; messages carry byte positions."""


class TrainingAbort(RuntimeError):
    """Training stopped on a fatal numerical condition (e.g. NaN gradient)."""
