"""Moctopus core: the paper's primary contribution.

The components map one-to-one onto the architecture of the paper's
Figure 1:

* :class:`Moctopus` — the system facade (query + update entry points);
* :class:`MoctopusConfig` — the tunables two callers set differently;
* :class:`NodeMigrator` — with the placement policy a system builds
  (``Moctopus._build_placement``: radical greedy under labor division,
  :mod:`repro.partition`), the PIM-friendly dynamic graph partitioning
  algorithm (labor division + greedy-adaptive load balancing);
* :class:`QueryProcessor` / :class:`UpdateProcessor` — translate
  requests into ``smxm`` / ``mwait`` / ``add`` / ``sub`` operators and
  execute them across the host and the PIM modules (the module side of
  ``add``/``sub`` is ``UpdateProcessor._apply_module_updates``, of
  ``smxm`` the engines in :mod:`repro.engine`);
* :class:`LocalGraphStorage` — a PIM module: the hash-map adjacency
  segment in its local memory, whose capacity it enforces;
* :class:`HeterogeneousGraphStorage` — the host's ``cols_vector`` rows
  plus PIM-side index maps for high-degree nodes;
* :class:`StoredGraphView` — ``system.graph``: the stored graph read
  straight off those storages (no second adjacency is kept);
* :class:`GraphSnapshot` — a storage's segment of the epoch's flat CSR
  heap, the substrate of the execution backends in :mod:`repro.engine`.
"""

from repro.core.config import MoctopusConfig
from repro.core.graph_view import StoredGraphView
from repro.core.local_storage import LocalGraphStorage
from repro.core.hetero_storage import (
    HeterogeneousGraphStorage,
    HeteroUpdateOutcome,
)
from repro.core.snapshot import GraphSnapshot
from repro.core.node_migrator import NodeMigrator
from repro.core.query_processor import QueryProcessor
from repro.core.update_processor import UpdateProcessor
from repro.core.system import Moctopus

__all__ = [
    "Moctopus",
    "MoctopusConfig",
    "NodeMigrator",
    "QueryProcessor",
    "UpdateProcessor",
    "LocalGraphStorage",
    "HeterogeneousGraphStorage",
    "HeteroUpdateOutcome",
    "GraphSnapshot",
    "StoredGraphView",
]
