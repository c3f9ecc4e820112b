"""The semiring-matrix execution backend (masked SpGEMM over CSR epochs).

The paper formulates k-hop traversal as ``ans = Q x Adj x ... x Adj`` —
a chain of boolean-semiring matrix products.  This backend executes the
chain literally: the frontier is a bit-packed boolean matrix ``F`` of
shape ``(num_sources, V)`` (stored as ``ceil(num_sources/64)`` uint64
words per node), and one expansion phase is the masked product

    ``F' = F ⊗ Adjᵀ``    (boolean semiring: AND combine, OR accumulate)

computed *pull-style*: the adjacency of each partition is pre-transposed
once per snapshot (:meth:`~repro.core.snapshot.GraphSnapshot.
transpose_block` — in-edges grouped by destination) and each phase is a
single numpy gather of the frontier words over the in-edge sources
followed by one ``np.bitwise_or.reduceat`` per destination segment.  No
per-phase edge sort: where the vectorized (push) engine pays
``O(E' log E')`` to group its produced edges by destination, the
transposed block *is* that grouping, amortised over every phase and
every query against the snapshot.

General RPQ plans run as block matrices over packed state×node keys:
the snapshot's adjacency is split into one transposed block per edge
label (:meth:`~repro.core.snapshot.GraphSnapshot.label_blocks`, built
lazily per snapshot and cached with the same replace-on-mutation
machinery), the frontier is split into one bit plane per live automaton
state, and each (label ``l``, state ``s`` with ``δ(s, l) = s'``) pair
contributes ``plane_s ⊗ Adj_lᵀ`` to the next frontier's ``s'`` plane.
Edges whose label every live state rejects are never touched.

Pull pays ``O(E_total)`` per phase regardless of frontier size, so tiny
frontiers stay on the inherited push path: the crossover compares the
frontier's *touched* edge count (already exact in the charged work
counters) against the dense pull cost derived from the snapshot's cached
out-degree histogram, biased by the plan shape
(:meth:`~repro.rpq.planner.Plan.max_expansion_phases`) —
deep traversals saturate their frontiers and tolerate an earlier switch.

Both pull kernels override one ``_produce`` of the vectorized kernels
and produce the same per-destination OR / produced-key sets as the push
path (the bit-identity is asserted by the three-way parity suite); the
work counts are taken in the inherited ``expand`` *before* the
production kernel is chosen and charged by the shared driver — so
results **and** simulated stats are bit-identical to the scalar
reference by construction, whichever side of the crossover a phase
lands on.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.engine.vectorized import (
    BitsetKernel,
    KeysKernel,
    MaskBlock,
    VectorizedEngine,
    _EMPTY,
    _row_bit_masks,
    _run_starts,
)


class PullBitsetKernel(BitsetKernel):
    """Bit-mask frontiers expanded as ``frontier ⊗ Adjᵀ`` when dense."""

    #: Pull runs when ``touched_edges * factor >= rows + edges`` of the
    #: partition (the dense pull cost).  Deep plans (more than one
    #: expansion phase) use the permissive factor — their frontiers
    #: saturate within a hop or two — while one-shot plans must already
    #: be dense to amortise the scatter.
    PULL_CROSSOVER_DEEP = 4
    PULL_CROSSOVER_SHALLOW = 1

    def _produce(
        self,
        snapshot,
        masks: np.ndarray,
        row_idx: np.ndarray,
        degrees: np.ndarray,
        num_edges: int,
    ) -> MaskBlock:
        if not self._use_pull(snapshot, num_edges):
            return super()._produce(snapshot, masks, row_idx, degrees, num_edges)
        block = snapshot.transpose_block()
        num_words = masks.shape[1]
        # Scatter the frontier masks into a dense per-row plane (absent
        # rows keep the zero word: they contribute nothing to the OR),
        # then one gather + segmented OR computes every destination's
        # mask.  Non-frontier sources carry zero masks, so the result is
        # exactly the push path's per-destination OR over frontier edges.
        plane = np.zeros((snapshot.num_rows, num_words), dtype=np.uint64)
        present = row_idx >= 0
        plane[row_idx[present]] = masks[present]
        gathered = plane[block.src_rows]
        produced = np.bitwise_or.reduceat(gathered, block.indptr[:-1], axis=0)
        keep = produced.any(axis=1)
        if keep.all():
            return block.dsts, produced
        return block.dsts[keep], produced[keep]

    def _use_pull(self, snapshot, touched_edges: int) -> bool:
        """Dense-vs-sparse crossover for one partition's expansion."""
        histogram = snapshot.degree_histogram()
        # rows + edges straight off the cached histogram: the pull side
        # touches every stored in-edge plus one plane slot per row.
        dense_work = int(histogram.sum()) + int(
            histogram @ np.arange(len(histogram), dtype=np.int64)
        )
        factor = (
            self.PULL_CROSSOVER_DEEP
            if self._deep_plan
            else self.PULL_CROSSOVER_SHALLOW
        )
        return touched_edges * factor >= dense_work


class PullKeysKernel(KeysKernel):
    """Packed-key frontiers expanded as one block product per live
    (label, state) pair when that is cheaper than stepping every item."""

    #: DFA pull runs when its block work (live (label, state) pairs times
    #: block edges, plus plane assembly) stays under ``touched items *
    #: factor`` — the push path's per-(item, edge) stepping cost.
    KEYS_CROSSOVER = 2

    def _produce(
        self,
        snapshot,
        rows: np.ndarray,
        states: np.ndarray,
        counts: np.ndarray,
        row_idx: np.ndarray,
        item_degrees: np.ndarray,
        items_processed: int,
    ) -> np.ndarray:
        stepper = self._stepper
        row_span = self._row_span
        num_words = max(1, (row_span + 63) // 64)

        blocks = snapshot.label_blocks()
        item_row_idx = np.repeat(row_idx, counts)
        present = item_row_idx >= 0
        active_states = np.unique(states[present]).tolist()

        # Live (label, state -> next state) transitions and their pull
        # cost: every block edge is gathered once per live state.
        live_pairs: List[Tuple[int, int, int]] = []
        pull_work = len(active_states) * snapshot.num_rows
        for label, block in blocks.items():
            column = stepper.column(label)
            for state in active_states:
                next_state = int(column[state])
                if next_state >= 0:
                    live_pairs.append((label, state, next_state))
                    pull_work += block.num_edges
        if not live_pairs:
            return _EMPTY
        if pull_work * num_words > items_processed * self.KEYS_CROSSOVER:
            return super()._produce(
                snapshot, rows, states, counts, row_idx, item_degrees,
                items_processed,
            )

        # One bit plane per live automaton state: plane[s][row, w] holds
        # the query-row bits of the frontier items sitting on that
        # adjacency row in state s.
        p_rows = rows[present]
        p_states = states[present]
        p_idx = item_row_idx[present]
        order = np.lexsort((p_idx, p_states))
        p_rows, p_states, p_idx = p_rows[order], p_states[order], p_idx[order]
        masks = _row_bit_masks(p_rows, num_words)
        planes = {}
        state_mask, state_starts = _run_starts(p_states)
        state_stops = np.append(state_starts[1:], len(p_states))
        for state, start, stop in zip(
            p_states[state_mask].tolist(),
            state_starts.tolist(),
            state_stops.tolist(),
        ):
            idx_slice = p_idx[start:stop]
            run_mask, run_start = _run_starts(idx_slice)
            plane = np.zeros((snapshot.num_rows, num_words), dtype=np.uint64)
            plane[idx_slice[run_mask]] = np.bitwise_or.reduceat(
                masks[start:stop], run_start, axis=0
            )
            planes[state] = plane

        produced_chunks: List[np.ndarray] = []
        for label, state, next_state in live_pairs:
            plane = planes.get(state)
            if plane is None:
                continue
            block = blocks[label]
            gathered = plane[block.src_rows]
            produced = np.bitwise_or.reduceat(
                gathered, block.indptr[:-1], axis=0
            )
            keep = produced.any(axis=1)
            if not keep.any():
                continue
            kept = produced[keep]
            bits = np.unpackbits(
                np.ascontiguousarray(kept).view(np.uint8),
                axis=1,
                bitorder="little",
            )[:, :row_span]
            positions, bit_rows = np.nonzero(bits)
            dsts = block.dsts[keep][positions]
            produced_chunks.append(
                self._pack(
                    dsts,
                    bit_rows.astype(np.int64),
                    np.full(len(dsts), next_state, dtype=np.int64),
                )
            )
        if not produced_chunks:
            return _EMPTY
        if len(produced_chunks) == 1:
            return produced_chunks[0]
        return np.concatenate(produced_chunks)


class MatrixEngine(VectorizedEngine):
    """Executes plans as masked boolean-semiring SpGEMM."""

    name = "matrix"
    bitset_kernel = PullBitsetKernel
    keys_kernel = PullKeysKernel
