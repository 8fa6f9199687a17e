"""Numeric parameter rules, declared once on the dataclass field that carries
the parameter.

A library caller's constructor (check) and a scenario file (config's parser)
test a value against the same rule, and both report the text problem gives.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
from typing import NamedTuple

REQUIRED = dataclasses.MISSING


class Rule(NamedTuple):
    """How one numeric field is checked. minimum is inclusive, above is an
    exclusive lower bound, maximum is inclusive."""

    default: object = REQUIRED
    minimum: float | None = None
    above: float | None = None
    maximum: float | None = None
    integer: bool = False
    nullable: bool = False


def param(default=REQUIRED, **rule):
    """A dataclass field with the given default that obeys Rule(**rule)."""
    return dataclasses.field(default=default,
                             metadata={"rule": Rule(default, **rule)})


def problem(val, rule: Rule) -> str | None:
    """What is wrong with val under rule, or None if nothing is."""
    if val is None and rule.nullable:
        return None
    if (not isinstance(val, int if rule.integer else (int, float))
            or isinstance(val, bool)):
        kind = "an integer" if rule.integer else "a number"
        return f"must be {kind}, got {val!r}"
    # json.loads accepts NaN and Infinity, and NaN passes every comparison;
    # an integer beyond float range would overflow the first float operation
    if not -sys.float_info.max <= val <= sys.float_info.max:
        return f"must be finite, got {val}"
    if rule.minimum is not None and val < rule.minimum:
        return f"must be >= {rule.minimum}, got {val}"
    if rule.above is not None and val <= rule.above:
        return f"must be > {rule.above}" + (" or null" if rule.nullable else "")
    if rule.maximum is not None and val > rule.maximum:
        return f"must be <= {rule.maximum}"
    return None


@functools.cache
def rules(cls) -> types.MappingProxyType:
    """cls's ruled fields, in field order: {name: Rule}."""
    return types.MappingProxyType({
        f.name: f.metadata["rule"] for f in dataclasses.fields(cls)
        if "rule" in f.metadata})


def check(obj) -> None:
    """Raise ValueError, naming Class.field, for the first field of obj that
    breaks its rule. A dataclass may use it as its __post_init__."""
    for name, rule in rules(type(obj)).items():
        text = problem(getattr(obj, name), rule)
        if text is not None:
            raise ValueError(f"{type(obj).__name__}.{name}: {text}")
