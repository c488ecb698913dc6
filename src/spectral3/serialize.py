"""JSON writing with floats rendered at 17 significant digits.

The standard json encoder prints the shortest round-tripping decimal;
the file formats here pin the representation to %.17g instead so that
files are reproducible down to the last digit across writers.  numpy
arrays and scalars are written as their Python forms, and complex
values as [re, im] pairs (complex_pair).  The readers accept only the
JSON types a file format names and raise ValueError on anything else.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

__all__ = ["dumps17", "complex_pair", "pair_complex", "finite_float",
           "read_json", "json_int", "json_float"]


def _plain(obj):
    """obj with numpy values as Python ones and a complex as its pair."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    return complex_pair(obj) if isinstance(obj, complex) else obj


def _render(obj, parts: list, indent: int) -> None:
    pad = "  " * indent
    obj = _plain(obj)
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            parts.append(pad + "  " + json.dumps(str(key)) + ": ")
            _render(val, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        obj = [_plain(u) for u in obj]
        if all(map(_is_number, obj)):
            parts.append("[" + ", ".join(_number(u) for u in obj) + "]")
            return
        parts.append("[\n")
        for i, val in enumerate(obj):
            parts.append(pad + "  ")
            _render(val, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, float)):
        parts.append(_number(obj))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def _is_number(u) -> bool:
    return isinstance(u, (int, float)) and not isinstance(u, bool)


def _number(u) -> str:
    if isinstance(u, int) and not isinstance(u, bool):
        return str(u)
    u = float(u)
    if not math.isfinite(u):
        raise ValueError("non-finite number in serialized data: %r" % u)
    return "%.17g" % u


def dumps17(obj) -> str:
    parts: list = []
    _render(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def complex_pair(z) -> list:
    """Complex number as the [re, im] pair used by the file formats."""
    z = complex(z)
    return [z.real, z.imag]


def finite_float(x) -> float:
    """float(x) of a number read from a file, refusing NaN and
    infinities, which json.load and float() both accept."""
    u = float(x)
    if not math.isfinite(u):
        raise ValueError("non-finite number %r in input data" % (x,))
    return u


@contextmanager
def read_json(path):
    """The JSON object in the file at path, for a with block that reads
    it; a file that is not an object, or a part of the wrong kind (a list
    where an object belongs), raises ValueError."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("%s holds a JSON %s, not an object"
                         % (path, type(obj).__name__))
    try:
        yield obj
    except (TypeError, AttributeError) as exc:
        raise ValueError("%s is malformed: %s" % (path, exc)) from None


def json_int(x, what: str) -> int:
    """An index or count from a file: a JSON integer, no bool or float."""
    if type(x) is not int:
        raise ValueError("%s must be a JSON integer, got %r" % (what, x))
    return x


def json_float(x, what: str) -> float:
    """A finite number from a file: a JSON number, not a bool or string."""
    if not _is_number(x):
        raise ValueError("%s must be a JSON number, got %r" % (what, x))
    return finite_float(x)


def pair_complex(pair) -> complex:
    """The complex number of an [re, im] list of two finite numbers."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError("expected an [re, im] pair, got %r" % (pair,))
    return complex(*(json_float(u, "each of [re, im]") for u in pair))
