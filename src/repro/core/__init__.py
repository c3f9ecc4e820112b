"""Moctopus core: the paper's primary contribution.

The components map one-to-one onto the architecture of the paper's
Figure 1:

* :class:`Moctopus` — the system facade (query + update entry points);
* :class:`MoctopusConfig` — the tunables two callers set differently;
* :class:`GraphPartitioner` / :class:`NodeMigrator` — the PIM-friendly
  dynamic graph partitioning algorithm (labor division + greedy-adaptive
  load balancing);
* :class:`QueryProcessor` / :class:`UpdateProcessor` — translate
  requests into ``smxm`` / ``mwait`` / ``add`` / ``sub`` operators and
  execute them across the host and the PIM modules;
* :func:`apply_update_ops` — the per-module ``add``/``sub`` operator;
* :class:`LocalGraphStorage` — the hash-map adjacency segment of a PIM
  module;
* :class:`HeterogeneousGraphStorage` — the host's ``cols_vector`` rows
  plus PIM-side index maps for high-degree nodes;
* :class:`StoredGraphView` — ``system.graph``: the stored graph read
  straight off those storages (no second adjacency is kept);
* :class:`GraphSnapshot` — dirty-flag-cached CSR views of both storages
  (``to_csr()``), the substrate of the vectorized execution backend in
  :mod:`repro.engine`.
"""

from repro.core.config import MoctopusConfig
from repro.core.graph_view import StoredGraphView
from repro.core.local_storage import LocalGraphStorage
from repro.core.hetero_storage import (
    HeterogeneousGraphStorage,
    HeteroUpdateOutcome,
)
from repro.core.operator_processor import SmxmWork, UpdateWork, apply_update_ops
from repro.core.partitioner import GraphPartitioner
from repro.core.snapshot import GraphSnapshot
from repro.core.node_migrator import NodeMigrator
from repro.core.query_processor import QueryProcessor
from repro.core.update_processor import UpdateProcessor
from repro.core.system import Moctopus

__all__ = [
    "Moctopus",
    "MoctopusConfig",
    "GraphPartitioner",
    "NodeMigrator",
    "QueryProcessor",
    "UpdateProcessor",
    "apply_update_ops",
    "SmxmWork",
    "UpdateWork",
    "LocalGraphStorage",
    "HeterogeneousGraphStorage",
    "HeteroUpdateOutcome",
    "GraphSnapshot",
    "StoredGraphView",
]
