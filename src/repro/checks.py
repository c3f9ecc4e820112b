"""Argument checks shared by the configuration and the components it feeds.

Node ids and labels are checked by :func:`require_int64s`: every write
path (update batch, session staging, bulk load) runs it before it logs
or moves anything, and every query front door before anything runs.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Optional, Sequence

#: The range of a node id or a label: every storage, kernel and log
#: record keeps them as int64.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


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


def require_int64s(name: str, values: Iterable, non_negative: bool = False) -> None:
    """Raise :class:`ValueError` unless every item of ``values`` is an
    integer (numpy integers included, ``bool`` not) in int64 range —
    and, with ``non_negative``, at least 0.

    Query sources may be negative or unknown: they answer an empty row.
    A written node id may not, because ids index the owner table, where
    ``-1`` marks an empty row slot.  A float is refused, even a whole
    one: the kernels disagree on what it names (the scalar kernel looks
    ``1.5`` up as a missing key, the array kernels truncate it to node
    1), and the log would store ``1`` for it.
    """
    low = 0 if non_negative else INT64_MIN
    for value in values:
        # Plain in-range ints, the common case, skip the full check.
        if type(value) is not int or not low <= value <= INT64_MAX:
            require_int(name, value, INT64_MIN, INT64_MAX)
            if value < low:
                raise ValueError(f"{name} must be non-negative, got {value}")


def require_labels(labels: Optional[Sequence], count: int) -> None:
    """Raise :class:`ValueError` unless ``labels`` is ``None`` or one
    int64 label for each of ``count`` edges."""
    if labels is None:
        return
    if len(labels) != count:
        raise ValueError(
            f"labels must match edges one to one: got {len(labels)} "
            f"labels for {count} edges"
        )
    require_int64s("label", labels)
