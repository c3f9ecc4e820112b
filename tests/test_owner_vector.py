"""The partition map's owner vector against a plain dict model.

:class:`~repro.partition.base.PartitionMap` keeps the
``node_partition_vector`` as one ``int16`` array indexed by node id plus a
sorted side table for the ids past it, and shares it copy-on-write with
every vector :meth:`~repro.partition.base.PartitionMap.freeze` handed out.
Random placements, bulk placements, migrations and reservations over
dense ids and ids far past the dense range (``10**9``, ``2**40``), frozen
between steps, must leave every frozen vector equal to the model as it
was at its freeze, the live lookups (``partition_of``, ``is_assigned``,
``in``, ``len``) and the placed-id listing (``nodes``) equal to the model
now, and the size counters equal to a count of the vector.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from model import OwnerModel
from repro.core import Moctopus, MoctopusConfig
from repro.graph import DiGraph
from repro.partition.base import HOST_PARTITION, UNKNOWN, OwnerVector, PartitionMap

PARTITIONS = 4
FAR_IDS = (10**9, 10**9 + 7, 2**40, 2**40 + 1)
PROBES = np.array(
    [-1, 0, 1, 5, 1023, 1024, 1025, 3000, 3001, 10**8, *FAR_IDS, 2**41], dtype=np.int64
)

# Ids near 1 024 start in the side table of a small map and move into the
# dense vector as the map grows (a map of ``count`` nodes keeps ids below
# ``4 * count + 1024`` dense).
node_ids = (
    st.integers(min_value=0, max_value=1500)
    | st.integers(min_value=0, max_value=3000)
    | st.sampled_from(FAR_IDS)
)
partitions = st.sampled_from([HOST_PARTITION, *range(PARTITIONS)])
steps = st.lists(
    st.one_of(
        st.tuples(st.just("assign"), node_ids, partitions),
        st.tuples(
            st.just("assign_new"),
            st.lists(st.tuples(node_ids, partitions), max_size=24),
        ),
        st.tuples(st.just("migrate"), st.integers(min_value=0), st.integers(0, PARTITIONS - 1)),
        st.tuples(st.just("reserve"), st.integers(0, 2000), node_ids),
        st.tuples(st.just("freeze")),
    ),
    max_size=40,
)


def expected_table(owners: Dict[int, int]) -> List[List[int]]:
    nodes = sorted(owners)
    return [nodes, [owners[node] for node in nodes]]


def check_vector(vector: OwnerVector, owners: Dict[int, int]) -> None:
    assert [column.tolist() for column in vector.table()] == expected_table(owners)
    probes = np.array(sorted({*PROBES.tolist(), *owners}), dtype=np.int64)
    looked_up = vector.owners_of(probes)
    assert looked_up.dtype == np.int64
    assert looked_up.tolist() == [owners.get(node, UNKNOWN) for node in probes.tolist()]
    assert [vector.owner(node) for node in probes.tolist()] == [
        owners.get(node) for node in probes.tolist()
    ]


@settings(max_examples=150, deadline=None)
@given(steps)
@example(  # 1 200 starts in the side table; the last growth covers it
    [
        ("assign", 1200, 0),
        ("freeze",),
        ("assign_new", [(node, 1) for node in range(60)]),
        ("assign", 1150, 2),
        ("assign", 1160, HOST_PARTITION),
    ]
)
def test_owner_vector_matches_a_dict_model(script):
    pmap, model = PartitionMap(PARTITIONS), OwnerModel()
    frozen: List[Tuple[OwnerVector, Dict[int, int]]] = []
    for step in script:
        kind = step[0]
        if kind == "assign":
            pmap.assign(step[1], step[2])
            model.assign(step[1], step[2])
        elif kind == "assign_new":
            fresh = {node: part for node, part in step[1] if node not in model.owners}
            pmap.assign_new(list(fresh), list(fresh.values()))
            for node, part in fresh.items():
                model.assign(node, part)
        elif kind == "migrate" and model.owners:
            node = sorted(model.owners)[step[1] % len(model.owners)]
            pmap.assign(node, step[2])
            model.assign(node, step[2])
        elif kind == "reserve":
            pmap.reserve(step[1], step[2])
        elif kind == "freeze":
            vector = pmap.freeze()
            assert not vector.dense.flags.writeable
            frozen.append((vector, model.freeze()))

        # Copy-on-write: no later write reaches a vector handed out before.
        for vector, owners in frozen:
            check_vector(vector, owners)
        check_vector(pmap.freeze(), model.owners)
        live = pmap.owners_of(PROBES)
        assert live.tolist() == [model.owners.get(node, UNKNOWN) for node in PROBES.tolist()]
        probes = sorted({*PROBES.tolist(), *model.owners})
        assert [pmap.partition_of(node) for node in probes] == [
            model.owners.get(node) for node in probes
        ]
        assert [pmap.is_assigned(node) for node in probes] == [
            node in model.owners for node in probes
        ]
        assert [node in pmap for node in probes] == [node in model.owners for node in probes]
        assert pmap.nodes().tolist() == sorted(model.owners)
        parts = pmap.freeze().table()[1]
        counts = np.bincount(parts - HOST_PARTITION, minlength=PARTITIONS + 1)
        assert counts.tolist() == [pmap.host_size(), *pmap.pim_sizes()]
        assert len(pmap) == len(model.owners)


def test_a_freeze_with_no_write_since_copies_nothing():
    pmap = PartitionMap(2)
    pmap.assign_new(list(range(100)), [node % 2 for node in range(100)])
    first = pmap.freeze()
    assert pmap.freeze() is first
    pmap.assign(3, 0)  # the write copies the shared array first
    second = pmap.freeze()
    assert second is not first and not np.shares_memory(first.dense, second.dense)
    assert first.owner(3) == 1 and second.owner(3) == 0


def test_placed_shares_what_it_does_not_change():
    pmap = PartitionMap(2)
    pmap.assign_new([0, 1, 5], [0, 1, HOST_PARTITION])
    vector = pmap.freeze()
    far = vector.placed(2**40, 1)
    assert far.dense is vector.dense and far.owner(2**40) == 1
    assert vector.owner(2**40) is None
    near = vector.placed(3, 0)
    assert near.side_nodes is vector.side_nodes and near.owner(3) == 0
    assert not near.dense.flags.writeable and vector.owner(3) is None


def test_listing_a_systems_nodes_leaves_the_live_vector_unshared():
    """``system.graph.nodes()`` reads the live vector without freezing it,
    so the next placement writes the dense array in place rather than
    copying it whole."""
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 50)])  # 3..49 unplaced, in range
    system = Moctopus.from_graph(graph, MoctopusConfig())
    system.insert_edges([(0, 10)])  # the first write after the load's freeze copies
    partition_map = system._partitioner.partition_map
    dense = partition_map._dense
    assert list(system.graph.nodes()) == [0, 1, 2, 10, 50]
    system.insert_edges([(1, 11)])  # places 11 inside the dense range
    assert partition_map._dense is dense
    assert list(system.graph.nodes()) == [0, 1, 2, 10, 11, 50]
