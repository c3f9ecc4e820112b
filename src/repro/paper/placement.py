"""Moctopus under the placement parameters the ablations sweep.

The system places nodes one way, the paper's
(``Moctopus._build_placement``).  Ablations A2 and A3 vary the two
parameters of that placement — the radical greedy heuristic's capacity
factor and the labor-division threshold — so they run on subclasses
that build the same placement at other values.
"""

from __future__ import annotations

from typing import Optional, Type

from repro.core.system import Moctopus
from repro.partition.base import StreamingPartitioner
from repro.partition.labor_division import (
    DEFAULT_HIGH_DEGREE_THRESHOLD,
    LaborDivisionPartitioner,
)
from repro.partition.radical_greedy import DEFAULT_CAPACITY_FACTOR, RadicalGreedyPartitioner


def placed_at(
    high_degree_threshold: Optional[int] = DEFAULT_HIGH_DEGREE_THRESHOLD,
    capacity_factor: float = DEFAULT_CAPACITY_FACTOR,
) -> Type[Moctopus]:
    """A :class:`Moctopus` subclass placing by radical greedy at
    ``capacity_factor`` under labor division above
    ``high_degree_threshold`` (``None``: no labor division).

    A directory it writes records those parameters, so any class built
    with the same ones recovers it (``placed_at(8).recover(path)``).
    """

    class PlacedMoctopus(Moctopus):
        def _build_placement(self) -> StreamingPartitioner:
            placement = RadicalGreedyPartitioner(
                self.config.num_modules, capacity_factor=capacity_factor
            )
            if high_degree_threshold is None:
                return placement
            return LaborDivisionPartitioner(
                placement, high_degree_threshold=high_degree_threshold
            )

    return PlacedMoctopus
