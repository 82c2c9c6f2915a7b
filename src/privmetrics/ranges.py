"""The catalog's range encoding, which metric value ranges and parameter
domains share: an interval (closed at ``hi``), an enum of strings, or one
range per named part of a record."""

from __future__ import annotations

import functools
import math

from .errors import ParamError


def interval(lo, hi, lo_open: bool = False) -> dict:
    """Range encoding: endpoints are numbers, None for infinity, or a symbol."""
    return {"kind": "interval", "lo": lo, "hi": hi, "lo_open": lo_open}


def enum_range(*values: str) -> dict:
    return {"kind": "enum", "values": list(values)}


def per_parameter(**parts: dict) -> dict:
    return {"kind": "per_parameter", "parts": parts}


def contains(rng: dict, value) -> bool:
    """Whether ``value`` lies in an interval or enum range. NaN lies in no
    interval; a symbolic endpoint, such as the alphabet size, bounds nothing."""
    if rng["kind"] == "enum":
        return value in rng["values"]
    lo = rng["lo"] if isinstance(rng["lo"], (int, float)) else -math.inf
    hi = rng["hi"] if isinstance(rng["hi"], (int, float)) else math.inf
    return (lo < value if rng["lo_open"] else lo <= value) and value <= hi


def fmt_range(rng: dict) -> str:
    """A range in the catalog's notation, such as ``[0, 1]``, ``(1, inf]`` or ``{a, b}``."""
    if rng["kind"] == "enum":
        return "{" + ", ".join(rng["values"]) + "}"
    if rng["kind"] == "per_parameter":
        return "; ".join(f"{k}: {fmt_range(v)}" for k, v in rng["parts"].items())
    lo = "-inf" if rng["lo"] is None else rng["lo"]
    hi = "inf" if rng["hi"] is None else rng["hi"]
    return f"{'(' if rng['lo_open'] else '['}{lo}, {hi}]"


def domains(**declared: dict):
    """Declare the domain of named parameters of a library function.

    Before each call, an argument outside its parameter's domain, or a float
    NaN in any parameter, declared or not, raises ParamError. ``fn.domains``
    maps each positional parameter, in order, to its domain or None.
    """
    def declare(fn):
        names = fn.__code__.co_varnames[:fn.__code__.co_argcount]

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            given = dict(zip(names, args), **kwargs)  # not the defaults, which lie in their domains
            for name, rng in declared.items():
                if name in given and not contains(rng, given[name]):
                    raise ParamError(f"{name} must lie in {fmt_range(rng)}, got {given[name]!r}")
            for name, value in given.items():
                if isinstance(value, float) and math.isnan(value):
                    raise ParamError(f"{name}: NaN is not a number")
            return fn(*args, **kwargs)

        checked.domains = {name: declared.get(name) for name in names}
        return checked
    return declare
