"""Declared run settings.

A settings dataclass declares each field with `setting(...)`: its default,
a help line, the rule its value must satisfy and, where it differs from
the field name, its command-line flag.  `check_settings` validates every
field in one loop; the command line builds its flags and the config from
the same declarations.  Rules are written so that NaN breaks them
(`not x > 0`, never `x <= 0`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable

from .errors import InvalidArgumentError


def _is_int(v: Any) -> bool:  # NumPy integers count; bool, whose True passes as 1, does not
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class Rule:
    text: str  # completes "<field> must be ..."
    reject: Callable[[Any], bool]
    choices: tuple | None = None


POSITIVE = Rule("a finite number > 0", lambda v: not 0 < v < math.inf)
NON_NEGATIVE = Rule("a finite number >= 0", lambda v: not 0 <= v < math.inf)
COUNT = Rule("an integer >= 1", lambda v: not (_is_int(v) and v >= 1))
SEED = Rule("an integer >= 0", lambda v: not (_is_int(v) and v >= 0))


def one_of(*choices: str) -> Rule:
    return Rule(f"one of {choices}", lambda v: v not in choices, choices)


def setting(default: Any = MISSING, help: str = "", rule: Rule | None = None, *,
            flag: str | None = None, default_factory: Any = MISSING):
    """A dataclass field carrying its help, rule and command-line flag."""
    return field(default=default, default_factory=default_factory,
                 metadata={"help": help, "rule": rule, "flag": flag})


def check_settings(obj: Any) -> None:
    """Raise InvalidArgumentError for the first field that breaks its rule."""
    for f in fields(obj):
        rule, value = f.metadata.get("rule"), getattr(obj, f.name)
        if rule is not None and rule.reject(value):
            raise InvalidArgumentError(f"{f.name} must be {rule.text}, got {value!r}")
