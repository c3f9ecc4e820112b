"""The paper's dataset suite (Table 1), as synthetic stand-ins.

The evaluation of the paper uses 15 real-world SNAP graphs with more
than 200 K nodes each (Table 1).  This module defines a registry of 15
synthetic datasets — one per SNAP trace — generated deterministically
from the structural family of the original graph:

* road networks (#1-#3) — lattices with bounded degree, 0 % high-degree
  nodes;
* citation / social / communication / web graphs (#4-#6, #8-#12) —
  power-law graphs with the skew tuned so the high-degree-node fraction
  lands in the same class as the original (0.3 % - 4.8 %);
* co-purchase / collaboration graphs (#7, #13-#15) — community graphs
  with near-zero or low high-degree fractions.

Absolute node counts are scaled down by roughly 125x (the originals
range from 262 K to 3.77 M nodes, which is beyond what a pure-Python
simulator can sweep in a benchmark run), but the *relative* sizes and
the skew classes are preserved; the ``scale`` parameter of
:func:`load_dataset` grows every graph proportionally when more fidelity
is wanted.

Documented substitution: the paper's conclusions rest on
skewness and locality, which the stand-ins reproduce; absolute latencies
are not expected to match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.graph.digraph import DiGraph
from repro.graph.generators import community_graph, power_law_graph, road_network

#: The paper's high-degree classification threshold (out-degree > 16).
HIGH_DEGREE_THRESHOLD = 16


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata describing one of the paper's Table 1 traces.

    Attributes
    ----------
    trace_id:
        The paper's trace number, ``1`` to ``15``.
    name:
        SNAP dataset name, e.g. ``"roadNet-CA"``.
    family:
        Structural family: ``"road"``, ``"power_law"`` or ``"community"``.
    paper_nodes:
        Node count reported in Table 1.
    paper_high_degree_pct:
        Percentage of high-degree nodes reported in Table 1.
    base_nodes:
        Node count of the synthetic stand-in at ``scale=1.0``.
    skew:
        Skew knob passed to the power-law generator (ignored for other
        families).
    """

    trace_id: int
    name: str
    family: str
    paper_nodes: int
    paper_high_degree_pct: float
    base_nodes: int
    skew: float = 0.0

    @property
    def is_road_network(self) -> bool:
        """Whether the trace is one of the road networks (#1-#3)."""
        return self.family == "road"

    @property
    def is_skewed(self) -> bool:
        """Whether the paper classifies the trace as highly skewed.

        The paper singles out traces #5, #6, #8, #11 and #12 when
        discussing skew-induced load imbalance; operationally we treat
        any trace with more than 2 % high-degree nodes, or wiki-Talk's
        extreme in-degree skew, as "highly skewed".
        """
        return self.trace_id in {5, 6, 8, 11, 12}


#: Table 1 of the paper, in trace order.  ``base_nodes`` keeps the
#: relative ordering of the real node counts at roughly 1/125 scale,
#: which is large enough for graph locality to be preservable across one
#: UPMEM rank's worth of PIM modules (64) while staying tractable for a
#: pure-Python simulator.
DATASETS: List[DatasetSpec] = [
    DatasetSpec(1, "roadNet-CA", "road", 1_965_206, 0.0, 15_876),
    DatasetSpec(2, "roadNet-PA", "road", 1_088_092, 0.0, 8_836),
    DatasetSpec(3, "roadNet-TX", "road", 1_379_917, 0.0, 11_236),
    DatasetSpec(4, "cit-patents", "power_law", 3_774_768, 2.83, 30_000, skew=0.75),
    DatasetSpec(5, "com-youtube", "power_law", 1_134_890, 2.07, 9_200, skew=0.85),
    DatasetSpec(6, "com-DBLP", "power_law", 317_080, 3.10, 2_560, skew=0.80),
    DatasetSpec(7, "com-amazon", "community", 334_863, 0.62, 2_720),
    DatasetSpec(8, "wiki-Talk", "power_law", 2_394_385, 0.50, 19_200, skew=0.95),
    DatasetSpec(9, "email-EuAll", "power_law", 265_214, 0.29, 2_120, skew=0.60),
    DatasetSpec(10, "web-Google", "power_law", 875_713, 1.29, 7_000, skew=0.70),
    DatasetSpec(11, "web-NotreDame", "power_law", 325_729, 2.86, 2_640, skew=0.85),
    DatasetSpec(12, "web-Stanford", "power_law", 281_903, 4.84, 2_280, skew=0.90),
    DatasetSpec(13, "amazon0312", "community", 262_111, 0.0, 2_120),
    DatasetSpec(14, "amazon0505", "community", 410_236, 0.0, 3_280),
    DatasetSpec(15, "amazon0601", "community", 403_394, 0.0, 3_240),
]

_BY_TRACE: Dict[int, DatasetSpec] = {spec.trace_id: spec for spec in DATASETS}
_BY_NAME: Dict[str, DatasetSpec] = {spec.name: spec for spec in DATASETS}


def dataset_spec(identifier) -> DatasetSpec:
    """Look up a dataset spec by trace id (int) or SNAP name (str)."""
    if isinstance(identifier, int):
        if identifier not in _BY_TRACE:
            raise KeyError(f"unknown trace id {identifier}; valid ids are 1..15")
        return _BY_TRACE[identifier]
    if identifier not in _BY_NAME:
        raise KeyError(
            f"unknown dataset {identifier!r}; valid names: {sorted(_BY_NAME)}"
        )
    return _BY_NAME[identifier]


def list_datasets() -> List[DatasetSpec]:
    """All 15 dataset specs in trace order."""
    return list(DATASETS)


def road_network_specs() -> List[DatasetSpec]:
    """The road-network traces (#1-#3) used for long path queries."""
    return [spec for spec in DATASETS if spec.is_road_network]


def _build_road(spec: DatasetSpec, num_nodes: int, seed: int) -> DiGraph:
    side = max(2, int(math.sqrt(num_nodes)))
    return road_network(rows=side, cols=side, seed=seed)


def _build_power_law(spec: DatasetSpec, num_nodes: int, seed: int) -> DiGraph:
    return power_law_graph(
        num_nodes=num_nodes,
        edges_per_node=4,
        skew=spec.skew,
        seed=seed,
    )


def _build_community(spec: DatasetSpec, num_nodes: int, seed: int) -> DiGraph:
    community_size = 32
    num_communities = max(1, num_nodes // community_size)
    hub_fraction = 0.01 if spec.paper_high_degree_pct > 0 else 0.0
    return community_graph(
        num_communities=num_communities,
        community_size=community_size,
        intra_edges_per_node=5,
        inter_edge_fraction=0.05,
        hub_fraction=hub_fraction,
        seed=seed,
    )


_BUILDERS: Dict[str, Callable[[DatasetSpec, int, int], DiGraph]] = {
    "road": _build_road,
    "power_law": _build_power_law,
    "community": _build_community,
}


def load_dataset(
    identifier,
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> DiGraph:
    """Construct the synthetic stand-in for one of the Table 1 traces.

    Parameters
    ----------
    identifier:
        Trace id (``1``-``15``) or SNAP name (e.g. ``"web-Google"``).
    scale:
        Multiplier on the stand-in's base node count.  ``scale=1.0`` keeps
        benchmarks fast; raise it (e.g. ``scale=50``) for higher-fidelity
        runs.
    seed:
        RNG seed; defaults to the trace id so each trace is distinct but
        reproducible.

    Returns
    -------
    DiGraph
        The generated graph.
    """
    spec = dataset_spec(identifier)
    if scale <= 0:
        raise ValueError("scale must be positive")
    num_nodes = max(16, int(spec.base_nodes * scale))
    effective_seed = spec.trace_id if seed is None else seed
    builder = _BUILDERS[spec.family]
    return builder(spec, num_nodes, effective_seed)


def dataset_statistics(graph: DiGraph, threshold: int = HIGH_DEGREE_THRESHOLD) -> Dict[str, float]:
    """Table 1 style statistics for a generated graph."""
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "high_degree_nodes": len(graph.high_degree_nodes(threshold)),
        "high_degree_pct": 100.0 * graph.high_degree_fraction(threshold),
    }
