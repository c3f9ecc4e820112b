"""Graph substrate: graphs, generators, datasets and streams.

This subpackage is the foundation every engine in the reproduction
builds on.  Nothing in here knows about PIM or about Moctopus; it is the
graph-database storage layer:

* :class:`DiGraph` — the mutable graph structure
  (:class:`ReadableGraph` is the read-only protocol consumers type against);
* :mod:`repro.graph.generators` / :mod:`repro.graph.datasets` — the
  synthetic stand-ins for the paper's 15 SNAP graphs (Table 1);
* :mod:`repro.graph.stream` — insertion/deletion workloads for the
  dynamic-graph experiments (Figure 6).
"""

from repro.graph.digraph import DEFAULT_LABEL, DiGraph, ReadableGraph
from repro.graph.generators import (
    community_graph,
    power_law_graph,
    random_graph,
    road_network,
)
from repro.graph.datasets import (
    DATASETS,
    HIGH_DEGREE_THRESHOLD,
    DatasetSpec,
    dataset_spec,
    dataset_statistics,
    list_datasets,
    load_dataset,
    road_network_specs,
)
from repro.graph.io import iter_edge_list, read_edge_list, write_edge_list
from repro.graph.stream import UpdateKind, UpdateOp, UpdateStream

__all__ = [
    "DEFAULT_LABEL",
    "DiGraph",
    "ReadableGraph",
    "road_network",
    "power_law_graph",
    "community_graph",
    "random_graph",
    "DATASETS",
    "HIGH_DEGREE_THRESHOLD",
    "DatasetSpec",
    "dataset_spec",
    "dataset_statistics",
    "list_datasets",
    "load_dataset",
    "road_network_specs",
    "iter_edge_list",
    "read_edge_list",
    "write_edge_list",
    "UpdateStream",
    "UpdateOp",
    "UpdateKind",
]
