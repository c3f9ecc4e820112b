"""Argument checks shared by the configuration and the components it feeds."""

from __future__ import annotations

import numbers
from typing import Iterable, Optional

#: The range of a node id: every storage and kernel keeps ids as int64.
NODE_ID_MIN = -(2**63)
NODE_ID_MAX = 2**63 - 1


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


def require_node_ids(name: str, values: Iterable) -> None:
    """Raise :class:`ValueError` unless every item of ``values`` is a node id.

    A node id is an integer (numpy integers included, ``bool`` not) in
    int64 range.  Negative and unknown ids are legal query sources: they
    answer an empty row.  A float is not, even a whole one: the kernels
    disagree on what it names (the scalar kernel looks ``1.5`` up as a
    missing key, the array kernels truncate it to node 1).
    """
    for value in values:
        # Plain in-range ints, the common case, skip the full check.
        if type(value) is not int or not NODE_ID_MIN <= value <= NODE_ID_MAX:
            require_int(name, value, NODE_ID_MIN, NODE_ID_MAX)
