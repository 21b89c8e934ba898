"""The error every config section raises and the type check each runs."""
from __future__ import annotations

import math
import re
from dataclasses import fields

import numpy as np

# A number in exponent form, which PyYAML (YAML 1.1) reads as a string
# unless it has a dot and a signed exponent: '1e300', '5e-2', '1.0e300'.
_YAML_1_1_STRING = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


class ConfigError(ValueError):
    pass


def check_numeric_fields(obj) -> None:
    """Check each ``int``, ``float`` and ``str`` field of the dataclass
    ``obj`` against its annotation; raise ``ConfigError`` naming the field.

    An ``int`` field takes an ``int`` and a ``float`` field an ``int`` or
    ``float``, the types YAML reads and writes, within the float range (the
    code computes with both as floats); neither takes a bool, which would
    pass as 1 everywhere else, ``math.isfinite`` included.  A ``str`` field
    takes a string, and a ``... | None`` field may be None.
    """
    for f in fields(obj):
        kind = f.type.split("|")[0].strip()
        if kind not in ("int", "float", "str"):
            continue
        value = getattr(obj, f.name)
        if value is None and f.type.endswith("| None"):
            continue
        if kind == "str":
            if not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string, got {value!r}")
            continue
        if isinstance(value, (bool, np.bool_)):
            raise ConfigError(f"{f.name} must be a number, not a bool, got {value!r}")
        if kind == "int" and not isinstance(value, int):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        check_real(f.name, value)


def check_real(name: str, value) -> None:
    """Raise ``ConfigError`` naming ``name`` unless ``value`` is a finite
    ``int`` or ``float`` other than a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = ""
        if isinstance(value, str) and _YAML_1_1_STRING.fullmatch(value):
            hint = ("; YAML reads a number without a dot and a signed exponent as a "
                    "string; write 1e300 as 1.0e+300")
        raise ConfigError(f"{name} must be a real number, got {value!r}{hint}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value!r}")
