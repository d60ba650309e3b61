"""Field checks for the config dataclasses.

Every message starts with the field's name, so the CLI can put the name of
the config section that holds the field in front of it.
"""

from __future__ import annotations

import math
import numbers

QUOTE_LIMIT = 60  # longest quoted value in a message; a --set value has any length


def quote(value) -> str:
    """repr(value), cut to QUOTE_LIMIT characters ending in '...'."""
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[: QUOTE_LIMIT - 3] + "..."


def check_int(name: str, value, low: int = 1) -> None:
    """Reject anything but an integer >= low; a bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {quote(value)}")


def _positive(x: float) -> bool:
    return 0 < x < math.inf


def check_real(name: str, value, what: str = "positive", ok=_positive) -> float:
    """value as a float, if it is a real number (a bool is not) for which
    ok holds; NaN never passes. Otherwise ValueError("<name> must be <what>")."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.copysign(math.inf, value)
    if number != number or not ok(number):
        raise ValueError(f"{name} must be {what}, got {quote(value)}")
    return number
