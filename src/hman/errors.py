"""Exception types shared across modules (CLI maps these to exit codes), and
the declared type and range of every config field and command-line option."""

import dataclasses
import math
from numbers import Integral, Real
from typing import Any, Callable, Mapping, NamedTuple


class ConfigError(ValueError):
    """A configuration value or combination is invalid or infeasible."""


def flag(name: str) -> str:
    """The command-line flag that sets option or field ``name``."""
    return "--" + name.replace("_", "-")


def field_error(name: str, rule: str, value, source: str | None = None) -> ConfigError:
    """The error for config field ``name``, named with what sets it: ``source``,
    or by default its same-named flag."""
    return ConfigError(f"{name} ({source or flag(name)}) must be {rule}, got {value!r}")


class Rule(NamedTuple):
    """A field's declared type, and its range: the values that ``allows`` and
    ``text`` admit.  An ``optional`` field also takes None (unset)."""

    type: type
    text: str
    allows: Callable[[Any], bool]
    optional: bool = False


# the classes each declared type admits (a bool only as a bool), and its name
_TYPES = {int: (Integral, "an int"), float: (Real, "a number"), str: (str, "a string"),
          bool: (bool, "a bool")}
POSITIVE = Rule(float, "positive and finite", lambda v: 0 < v < math.inf)
NON_NEGATIVE = Rule(float, "non-negative and finite", lambda v: 0 <= v < math.inf)


def at_least(least: int) -> Rule:
    return Rule(int, "non-negative" if least == 0 else f"at least {least}", lambda v: v >= least)


def one_of(*choices) -> Rule:
    *head, last = map(repr, choices)
    return Rule(type(choices[0]), f"{', '.join(head)} or {last}", lambda v: v in choices)


def declared(default, rule: Rule, source: str | None = None):
    """A dataclass field with ``default`` whose metadata declares ``rule``, and
    ``source``, what sets the field where that is not its same-named flag."""
    return dataclasses.field(default=default, metadata={"rule": rule, "source": source})


def rules(config_class) -> dict[str, Rule]:
    return {f.name: f.metadata["rule"] for f in dataclasses.fields(config_class)}


def check(values: Mapping[str, Any], declarations: Mapping[str, Rule],
          sources: Mapping[str, str | None] | None = None) -> None:
    """Raise the field error of the first declared value outside its rule,
    naming the field's entry in ``sources`` if it has one."""
    for name, rule in declarations.items():
        value = values[name]
        kind, noun = _TYPES[rule.type]
        source = (sources or {}).get(name)
        if value is None and rule.optional:
            continue
        if not isinstance(value, kind) or isinstance(value, bool) != (rule.type is bool):
            raise field_error(name, noun, value, source)
        if not rule.allows(value):
            raise field_error(name, rule.text, value, source)


def check_fields(config) -> None:
    """:func:`check` of a config dataclass against its declared fields."""
    fields = dataclasses.fields(config)
    check(vars(config), {f.name: f.metadata["rule"] for f in fields},
          {f.name: f.metadata["source"] for f in fields})


class FormatError(ValueError):
    """An on-disk artifact is malformed; messages carry byte positions."""


class TrainingAbort(RuntimeError):
    """Training stopped on a fatal numerical condition (e.g. NaN gradient)."""
