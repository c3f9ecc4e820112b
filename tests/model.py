"""A pure-python reference model of the served graph semantics.

:class:`ReferenceModel` is the oracle of the serving layer's
differential harness (``test_serving_isolation.py``): a plain
adjacency-dict graph with the exact update semantics of the system's
storages (inserting an existing edge relabels it, endpoints are
registered lazily by the first insert that mentions them, deletes never
register nodes, rows survive the deletion of their last edge) and a
from-first-principles BFS for the paper's exact-``k``-hop query
semantics.  It shares no code with the engines or the storages, so any
agreement between the two is evidence, not tautology.  It is also the
oracle of the update path's routing (``test_update_processor.py``):
:meth:`ReferenceModel.apply_ops` applies a mixed batch one op at a
time, and :meth:`ReferenceModel.hubs` names the sources labor division
must have moved to the host.

General RPQs are answered through :func:`repro.rpq.evaluate_rpq`, the
product-graph BFS that the repo's existing suites already use as the
engine-independent reference.

:func:`migrate` is the oracle of the node migrator's maintenance pass
(``test_node_migrator.py``): the per-node scalar vote over plain dicts.

:func:`load_per_edge` is the oracle of the columnar bulk loader
(``test_bulk_load.py``): the per-edge ingest loop it replaced, and
:func:`edge_counts` that of ``evaluate_partition``'s columnar counts
(``test_partitioners.py``).

:class:`OwnerModel` is the oracle of the partition map's owner vector
(``test_owner_vector.py``): a plain dict, copied at every freeze.
:func:`placement` reads a partition map back as such a dict.

:func:`build_snapshot_reference` is the oracle of every heap segment a
publish writes: per-edge Python appends over the rows' public reads.
:func:`snapshot_of` is the system's own way to freeze rows — all of
them merged into an empty segment — for tests that need a snapshot of
hand-written rows, and :func:`publisher` / :func:`publish` publish
standalone storages through the system's own epoch manager.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.snapshot import HOLE, CSRHeap, GraphSnapshot, RowBuffer, merge_segment
from repro.graph.digraph import DEFAULT_LABEL, DiGraph
from repro.graph.stream import UpdateKind, UpdateOp
from repro.partition.base import HOST_PARTITION, PartitionMap
from repro.rpq import RPQuery, evaluate_rpq
from repro.serve.epoch import EpochManager


class ReferenceModel:
    """Adjacency-dict oracle with storage-faithful update semantics."""

    def __init__(self) -> None:
        #: ``src -> dst -> label``; a node's presence (as a key) is what
        #: "registered with the partitioner" means in the real system.
        self.rows: Dict[int, Dict[int, int]] = {}
        #: Inserts seen per source, relabels included: the out-degree
        #: labor division observes.
        self.inserts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "ReferenceModel":
        """Mirror a bulk-loaded graph (same edge replay as ``load_graph``)."""
        model = cls()
        for src, dst, label in graph.labeled_edges():
            model.insert(src, dst, label)
        for node in graph.nodes():
            model.rows.setdefault(node, {})
        return model

    def copy(self) -> "ReferenceModel":
        """Deep copy — what a pinned epoch freezes."""
        clone = ReferenceModel()
        clone.rows = {src: dict(row) for src, row in self.rows.items()}
        clone.inserts = dict(self.inserts)
        return clone

    # ------------------------------------------------------------------
    # Updates (storage semantics)
    # ------------------------------------------------------------------
    def insert(self, src: int, dst: int, label: int = DEFAULT_LABEL) -> None:
        """Insert (or relabel) ``src -> dst``; registers both endpoints."""
        self.rows.setdefault(src, {})[dst] = label
        self.rows.setdefault(dst, {})
        self.inserts[src] = self.inserts.get(src, 0) + 1

    def delete(self, src: int, dst: int) -> None:
        """Delete ``src -> dst`` if present; never registers a node."""
        row = self.rows.get(src)
        if row is not None:
            row.pop(dst, None)

    def apply(self, inserts: Iterable[Tuple[int, int]] = (),
              deletes: Iterable[Tuple[int, int]] = ()) -> None:
        """Apply insert then delete batches (test convenience)."""
        for src, dst in inserts:
            self.insert(src, dst)
        for src, dst in deletes:
            self.delete(src, dst)

    def apply_ops(self, ops: List[UpdateOp], labels: Optional[List[int]] = None) -> None:
        """Apply a mixed batch one op at a time, in batch order: the
        sequential semantics an update batch must keep."""
        for index, op in enumerate(ops):
            if op.kind is UpdateKind.INSERT:
                self.insert(op.src, op.dst, labels[index] if labels else DEFAULT_LABEL)
            else:
                self.delete(op.src, op.dst)

    def hubs(self, threshold: int) -> Set[int]:
        """The sources seen inserted into more than ``threshold`` times:
        the rows labor division keeps on the host."""
        return {src for src, count in self.inserts.items() if count > threshold}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def khop(self, sources: List[int], hops: int) -> List[Set[int]]:
        """Exact-``hops`` reachability per source (unknown source = ∅)."""
        answers: List[Set[int]] = []
        for source in sources:
            if source not in self.rows:
                answers.append(set())
                continue
            frontier = {source}
            for _ in range(hops):
                next_frontier: Set[int] = set()
                for node in frontier:
                    next_frontier.update(self.rows.get(node, {}))
                frontier = next_frontier
                if not frontier:
                    break
            answers.append(frontier)
        return answers

    def rpq(
        self,
        expression: str,
        sources: List[int],
        label_names: Optional[Dict[int, str]] = None,
    ) -> List[Set[int]]:
        """General RPQ via the repo's product-graph reference evaluator."""
        result = evaluate_rpq(
            self.to_digraph(), RPQuery(expression, list(sources)),
            label_names=label_names,
        )
        return result.destinations

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def to_digraph(self) -> DiGraph:
        """Export as a :class:`DiGraph` (for the RPQ reference evaluator)."""
        graph = DiGraph()
        for src, row in self.rows.items():
            graph.add_node(src)
            for dst, label in row.items():
                graph.add_edge(src, dst, label)
        return graph

    def edges(self) -> List[Tuple[int, int]]:
        """Every stored edge (for sampling deletions in the harness)."""
        return [
            (src, dst) for src, row in self.rows.items() for dst in row
        ]

    @property
    def num_nodes(self) -> int:
        """Registered nodes."""
        return len(self.rows)

    @property
    def num_edges(self) -> int:
        """Stored edges."""
        return sum(len(row) for row in self.rows.values())


def migrate(
    reports: Iterable[int],
    placement: Dict[int, int],
    rows: Dict[int, List[int]],
    limit: int,
    num_partitions: int,
    capacity_factor: float = 1.05,
) -> List[Tuple[int, int, int]]:
    """The node migrator's pass, as the scalar loop it replaced.

    The oracle of ``test_node_migrator.py``: one reported node at a
    time, ascending, each voting with a Python loop over its next hops
    against the *current* ``placement`` (so a move made earlier in the
    pass is seen by every later vote).  ``placement`` (node -> partition,
    ``-1`` = host) is updated in place; ``rows`` maps a node to its next
    hops.  Returns the ``(node, source, target)`` moves in order.
    """
    host = -1
    sizes = [0] * num_partitions
    for partition in placement.values():
        if partition != host:
            sizes[partition] += 1
    moves: List[Tuple[int, int, int]] = []
    for node in sorted(set(reports)):
        if len(moves) >= limit:
            break
        current = placement.get(node)
        if current is None or current == host:
            continue
        votes: Dict[int, int] = {}
        for destination in rows.get(node, ()):
            partition = placement.get(destination)
            if partition is None or partition == host:
                continue
            votes[partition] = votes.get(partition, 0) + 1
        if not votes:
            continue
        # Most votes wins, the lower partition id on a tie; moving takes
        # strictly more votes than the current partition holds.
        target, count = max(votes.items(), key=lambda item: (item[1], -item[0]))
        if target == current or count <= votes.get(current, 0):
            continue
        average = sum(sizes) / max(1, len(sizes))
        if not sizes[target] + 1 <= capacity_factor * max(average, 1.0):
            continue
        placement[node] = target
        sizes[current] -= 1
        sizes[target] += 1
        moves.append((node, current, target))
    return moves


class OwnerModel:
    """The owner vector as a plain ``node -> partition`` dict.

    A freeze is a copy of the dict, so a frozen model never changes
    whatever the live one does afterwards.
    """

    def __init__(self) -> None:
        self.owners: Dict[int, int] = {}

    def assign(self, node: int, partition: int) -> None:
        """Place (or move) ``node``."""
        self.owners[node] = partition

    def freeze(self) -> Dict[int, int]:
        """The placement as it stands, as an independent dict."""
        return dict(self.owners)


def placement(partition_map) -> Dict[int, int]:
    """A partition map's placement as a ``node -> partition`` dict, read
    from its frozen owner vector's table (nodes ascending)."""
    nodes, parts = partition_map.freeze().table()
    return dict(zip(nodes.tolist(), parts.tolist()))


def edge_counts(graph, owners: Dict[int, int]) -> Tuple[int, int, int, int]:
    """``(edges, cut, local, host)`` edge counts of ``graph`` under a
    ``node -> partition`` dict, one edge at a time: a cut edge joins two
    PIM partitions, a local one stays on one partition or leaves the host,
    a host one touches it."""
    total = cut = local = host = 0
    for src, dst in graph.edges():
        src_partition, dst_partition = owners.get(src), owners.get(dst)
        touches_host = HOST_PARTITION in (src_partition, dst_partition)
        total += 1
        host += touches_host
        local += src_partition == dst_partition or src_partition == HOST_PARTITION
        cut += src_partition != dst_partition and not touches_host
    return total, cut, local, host


def load_per_edge(
    system, edges: Iterable[Tuple[int, int, int]], nodes: Iterable[int]
) -> None:
    """A bulk load as the per-edge loop the columnar loader replaced.

    Every ``(src, dst, label)`` edge goes through the partitioner's
    ``ingest_edge``: a source that crosses the high-degree threshold is
    promoted by the migrator, the destination's row is ensured on its
    owner — read *after* any promotion, so a self-loop at the crossing
    edge leaves no empty row behind on the module the node just left —
    and the edge is stored on its source's owner.  Then every node no
    edge placed is placed and given a row.  Drives ``system``'s own
    partitioner, storages and migrator.
    """
    partitioner = system._partitioner
    host = system._host_storage

    def storage_of(partition: int):
        return host if partition == HOST_PARTITION else system._module_storages[partition]

    for src, dst, label in edges:
        src_partition, previous = partitioner.ingest_edge(src, dst)
        if previous not in (None, HOST_PARTITION) and src_partition == HOST_PARTITION:
            system._migrator.promote_to_host(src, previous)
        storage_of(partitioner.partition_of(dst)).ensure_row(dst)
        if src_partition == HOST_PARTITION:
            host.insert_edge(src, dst, label)
        else:
            storage_of(src_partition).add_edge(src, dst, label)
    for node in nodes:
        if partitioner.partition_of(node) is None:
            storage_of(partitioner.assign_node(node)).ensure_row(node)
    system._epochs.mark_stale()


def build_snapshot_reference(
    rows: Iterable[Tuple[int, RowBuffer]],
    bytes_per_entry: int,
    working_set_bytes: int,
    count_local: bool,
) -> GraphSnapshot:
    """Freeze ``(node, row buffer)`` pairs one edge at a time.

    Rows are ordered by node id, :data:`HOLE` slots are skipped, and a
    row's local count (when ``count_local``) is how many of its
    destinations are rows of the same set — a Python loop that shares
    nothing with the splice it checks.
    """
    rows = sorted(rows, key=lambda item: item[0])
    members = {node for node, _ in rows}
    indptr, dsts, labels, local_counts = [0], [], [], []
    for _, buffer in rows:
        local = 0
        values = iter(buffer)
        for dst, label in zip(values, values):
            if dst != HOLE:
                dsts.append(dst)
                labels.append(label)
                local += dst in members
        indptr.append(len(dsts))
        local_counts.append(local if count_local else 0)
    return GraphSnapshot(
        node_ids=np.array([node for node, _ in rows], dtype=np.int64),
        indptr=np.array(indptr, dtype=np.int64),
        dsts=np.array(dsts, dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
        local_counts=np.array(local_counts, dtype=np.int64),
        bytes_per_entry=bytes_per_entry,
        working_set_bytes=working_set_bytes,
    )


def snapshot_of(
    rows: Iterable[Tuple[int, RowBuffer]],
    bytes_per_entry: int,
    working_set_bytes: int,
    count_local: bool,
) -> GraphSnapshot:
    """``(node, row buffer)`` pairs frozen the way a publish freezes a
    storage's written rows: merged into an empty segment."""
    empty = CSRHeap.empty([bytes_per_entry]).segment(0)
    return merge_segment(empty, dict(rows), working_set_bytes, count_local)


def publisher(*storages) -> EpochManager:
    """An epoch manager over standalone storages: storage ``i`` is
    segment ``i`` of its heap."""
    return EpochManager(PartitionMap(1), storages)


def publish(manager: EpochManager) -> Tuple[GraphSnapshot, ...]:
    """Publish ``manager``'s storages now, as the writer's next pin would,
    and return their segments."""
    manager.mark_stale()
    return manager.current().snapshots
