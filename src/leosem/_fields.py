"""The value check every config dataclass runs on its numeric fields."""
from __future__ import annotations

import math
from dataclasses import fields

import numpy as np


def check_numeric_fields(obj, error: type[ValueError] = ValueError) -> None:
    """Reject a bool in any ``int`` or ``float`` field of the dataclass
    ``obj`` and a NaN or an infinity in any ``float`` field.

    ``True`` would pass as 1 everywhere else, ``math.isfinite`` included.  A
    ``float | None`` field may be None.  The error names the field.
    """
    for f in fields(obj):
        kind = f.type.split("|")[0].strip()
        if kind not in ("int", "float"):
            continue
        value = getattr(obj, f.name)
        if value is None and f.type.endswith("| None"):
            continue
        if isinstance(value, (bool, np.bool_)):
            raise error(f"{f.name} must be a number, not a bool, got {value!r}")
        if kind == "float" and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")
