"""Argument checks shared by the configuration and the components it feeds."""

from __future__ import annotations

import numbers
from typing import Optional


def require_int(name: str, value, minimum: int, maximum: Optional[int] = None):
    """Return ``value`` if it is an integer in ``[minimum, maximum]``.

    Anything else raises :class:`ValueError` naming ``name``: a float,
    even a whole one (``4.0`` indexes no array), ``nan`` (it fails every
    comparison, so a bound written as ``value < minimum`` lets it
    through), and ``bool``, although it is an ``int`` subclass.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return value
