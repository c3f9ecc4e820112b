"""Differential suite of the epoch heap.

Random interleavings of update batches, migration passes that move nodes,
promotions to the host, session staged writes and publishes drive a
system and a :class:`~model.ReferenceModel`.  After every publish each
module segment of the heap must equal, array for array (local counts
included), ``model.build_snapshot_reference`` of the model's rows placed
on that module, and the host segment must hold exactly the model's host
rows.  The segments a session's staged writes changed are held to the
same oracle over the model plus those writes, and an ``export_epoch`` →
``attach_epoch`` round trip must give back the published epoch array
for array.

Which nodes have a row is the storages' rule, tracked beside the model:
every loaded node, and the source of every insert.  An insert's
destination is placed but gets no row (it answers like an empty one),
and a delete writes no row.  A session's staged writes follow the same
rule, because they are written by the same storage code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from model import ReferenceModel, build_snapshot_reference
from repro.core import MoctopusConfig
from repro.core.hetero_storage import BYTES_PER_SLOT
from repro.core.local_storage import BYTES_PER_ENTRY, footprint
from repro.core.snapshot import GraphSnapshot, row_buffer
from repro.graph import random_graph
from repro.graph.stream import UpdateKind, UpdateOp
from repro.paper import placed_at
from repro.parallel import attach_epoch, export_epoch
from repro.partition.base import HOST_PARTITION
from repro.pim import CostModel

NODES = 24
MODULES = 4
#: Labor division above out-degree 8: a hub step promotes its node.
THRESHOLD = 8
PARTITIONS = (*range(MODULES), HOST_PARTITION)


def assert_segments_match(
    model: ReferenceModel,
    rows: Set[int],
    owner_of: Callable[[int], int],
    snapshot_of: Callable[[int], GraphSnapshot],
    partitions,
    working_set: Callable[[int, int, int], int],
    context: str,
) -> None:
    """Each partition's segment against the model's ``rows`` placed there;
    ``working_set(partition, rows, edges)`` is the footprint it carries."""
    placed: Dict[int, List[int]] = {partition: [] for partition in partitions}
    for node in model.rows:
        if node in rows:
            placed.setdefault(owner_of(node), []).append(node)
    for partition in partitions:
        snapshot = snapshot_of(partition)
        nodes = placed[partition]
        edges = sum(len(model.rows[node]) for node in nodes)
        if partition == HOST_PARTITION:
            # A host row's entries sit in cols_vector slot order, which the
            # model does not keep: compare them as a mapping.
            assert snapshot.node_ids.tolist() == sorted(nodes), context
            for node in nodes:
                assert dict(snapshot.row_entries(node)) == model.rows[node], context
            assert not snapshot.local_counts.any(), context
            assert (snapshot.bytes_per_entry, snapshot.working_set_bytes) == (
                BYTES_PER_SLOT,
                working_set(partition, len(nodes), edges),
            ), context
            continue
        reference = build_snapshot_reference(
            [(node, row_buffer(model.rows[node].items())) for node in nodes],
            BYTES_PER_ENTRY,
            working_set(partition, len(nodes), edges),
            True,
        )
        assert snapshot.same_arrays(reference), f"{context}: module {partition}"
        assert np.array_equal(snapshot.degrees, np.diff(reference.indptr)), context


def apply_ops(target, model: ReferenceModel, ops) -> None:
    """One update batch on ``target`` (a system or a session) and the model:
    all inserts carry their labels, a mixed batch the default one."""
    if all(insert for insert, *_ in ops):
        target.insert_edges([(src, dst) for _, src, dst, _ in ops], [label for *_, label in ops])
        for _, src, dst, label in ops:
            model.insert(src, dst, label)
        return
    kinds = {True: UpdateKind.INSERT, False: UpdateKind.DELETE}
    target.apply_updates([UpdateOp(kinds[insert], src, dst) for insert, src, dst, _ in ops])
    for insert, src, dst, _ in ops:
        model.insert(src, dst) if insert else model.delete(src, dst)


class Harness:
    """A system, its model and the ids of the nodes that have rows."""

    def __init__(self) -> None:
        graph = random_graph(NODES, 70, seed=5)
        config = MoctopusConfig(cost_model=CostModel(num_modules=MODULES))
        self.system = placed_at(THRESHOLD).from_graph(graph, config)
        self.model = ReferenceModel.from_digraph(graph)
        self.rows: Set[int] = set(graph.nodes())

    def write(self, ops) -> None:
        apply_ops(self.system, self.model, ops)
        self.rows.update(src for insert, src, _, _ in ops if insert)

    def check_publish(self, context: str) -> None:
        system = self.system
        epoch = system._epochs.current()
        assert_segments_match(
            self.model,
            self.rows,
            system.partition_of,
            epoch.snapshot_of,
            PARTITIONS,
            lambda partition, rows, edges: (
                system._host_storage.working_set_bytes
                if partition == HOST_PARTITION
                else max(footprint(rows, edges), 1)
            ),
            context,
        )
        degrees = epoch.heap.column("degrees")
        assert epoch.num_edges == self.model.num_edges == int(degrees.sum())

    def stage(self, ops, commit: bool, context: str) -> None:
        """Stage ``ops`` in a session and check its patched segments, then
        commit them (the model takes the writes too) or discard them."""
        with self.system.begin() as session:
            epoch = session._epoch
            overlay = self.model.copy()
            apply_ops(session, overlay, ops)
            # An insert writes its source's row and nothing else.
            written = {src for insert, src, _, _ in ops if insert}
            view = session._view()
            assert_segments_match(
                overlay,
                self.rows | written,
                view.owner,
                view.snapshot_of,
                [
                    partition
                    for partition in PARTITIONS
                    if view.snapshot_of(partition) is not epoch.snapshot_of(partition)
                ],
                # A patch keeps its segment's footprint: staged rows are
                # not stored.
                lambda partition, rows, edges: epoch.snapshot_of(partition).working_set_bytes,
                f"{context} (session)",
            )
            if commit:
                session.commit()
                self.model.rows = overlay.rows
                self.rows.update(src for insert, src, _, _ in ops if insert)

    def check_export(self) -> None:
        manager = self.system._epochs
        epoch = manager.pin()
        try:
            segment, manifest = export_epoch(epoch)
            try:
                rebuilt, mapping = attach_epoch(manifest)
                for name, array in epoch.heap.arrays().items():
                    assert np.array_equal(rebuilt.heap.arrays()[name], array), name
                assert np.array_equal(
                    rebuilt.heap.column("degrees"), epoch.heap.column("degrees")
                )
                assert all(
                    ours.same_arrays(theirs)
                    for ours, theirs in zip(epoch.snapshots, rebuilt.snapshots)
                )
                assert [array.tolist() for array in rebuilt.owners.table()] == [
                    array.tolist() for array in epoch.owners.table()
                ]
                assert (rebuilt.epoch_id, rebuilt.num_nodes, rebuilt.num_edges) == (
                    epoch.epoch_id,
                    epoch.num_nodes,
                    epoch.num_edges,
                )
                del rebuilt
                mapping.close()
            finally:
                segment.close()
                segment.unlink()
        finally:
            manager.unpin(epoch)


nodes = st.integers(0, NODES + 5)
edge_ops = st.lists(
    st.tuples(st.booleans(), nodes, nodes, st.integers(0, 3)), min_size=1, max_size=12
)
steps = st.one_of(
    st.tuples(st.just("batch"), edge_ops),
    st.tuples(st.just("hub"), nodes),
    st.tuples(st.just("migrate"), st.lists(nodes, min_size=1, max_size=8)),
    st.tuples(st.just("stage"), edge_ops, st.booleans()),
    st.tuples(st.just("publish")),
    st.tuples(st.just("export")),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(steps, max_size=14))
def test_every_published_segment_equals_the_reference(script):
    harness = Harness()
    harness.check_publish("load")
    for index, step in enumerate(script):
        context = f"step {index}: {step[0]}"
        kind = step[0]
        if kind == "batch":
            harness.write(step[1])
        elif kind == "hub":  # past the threshold: the row moves to the host
            harness.write([(True, step[1], NODES + 10 + extra, 1) for extra in range(THRESHOLD + 2)])
        elif kind == "migrate":
            harness.system.batch_khop(step[1], 2, auto_migrate=False)
            harness.system.run_maintenance()
        elif kind == "stage":
            harness.stage(step[1], step[2], context)
        elif kind == "export":
            harness.check_export()
        harness.check_publish(context)
    harness.check_export()
    harness.system.close()


def test_the_script_moves_and_promotes_rows():
    """The steps the differential draws do reach what they are named for:
    a migration pass moves nodes and a hub step promotes one."""
    harness = Harness()
    before = harness.system.partition_statistics()
    harness.write([(True, 3, NODES + 10 + extra, 1) for extra in range(THRESHOLD + 2)])
    moved = 0
    for sources in ([0, 1, 2, 3, 4, 5], list(range(NODES))):
        harness.system.batch_khop(sources, 2, auto_migrate=False)
        moved += harness.system.run_maintenance()[0]
    after = harness.system.partition_statistics()
    assert harness.system.partition_of(3) == HOST_PARTITION
    assert after["promotions"] > before["promotions"]
    assert moved > 0
    harness.check_publish("after migration")
    harness.check_export()
    harness.system.close()
