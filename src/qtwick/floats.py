"""The one float rendering and the parameter refusals every artifact and
engine share.  Numpy-free, so that the command-line front end loads none."""

import math

from .errors import ValidationError


def _fmt(x: float) -> str:
    """17 significant digits: enough to read back the same float."""
    return format(float(x), ".17g")


def _check_finite(name: str, x: float) -> float:
    if not math.isfinite(x):
        raise ValidationError(f"need a finite {name}, got {name}={x}")
    return float(x)


def _check_scale(t: float) -> float:
    if _check_finite("t", t) <= 0:
        raise ValidationError("need t > 0")
    return float(t)
