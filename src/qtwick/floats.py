"""The one float rendering, the one rounding and the parameter refusals
every artifact and engine share.  Numpy-free, so that the command-line
front end loads none."""

import math
import operator

from .errors import ValidationError


def _fmt(x: float) -> str:
    """17 significant digits: enough to read back the same float."""
    return format(float(x), ".17g")


def _round_ratio(num: int, den: int) -> float:
    """num / den for integers, den > 0, rounded once to float64 (Python's
    integer division rounds correctly); inf with the sign of num past
    float64's range.  Every exact value an engine or a polynomial writes is
    rounded here."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _check_finite(name: str, x: float) -> float:
    if not math.isfinite(x):
        raise ValidationError(f"need a finite {name}, got {name}={x}")
    return float(x)


def _check_scale(t: float) -> float:
    if _check_finite("t", t) <= 0:
        raise ValidationError("need t > 0")
    return float(t)


def _check_int(name: str, value: object, low: float = -math.inf, high: float = math.inf) -> int:
    """value as a Python int, so that arithmetic on it cannot wrap: any
    integer, numpy's too, in low..high; anything else raises
    ValidationError.  Every count, letter and site is checked here."""
    try:
        k = operator.index(value)
    except TypeError:
        raise ValidationError(f"need an integer {name}, got {name}={value!r}") from None
    if not low <= k <= high:
        if high == math.inf:
            raise ValidationError(f"need {name} >= {low}")
        raise ValidationError(f"{name} {k} outside {low}..{high}")
    return k
