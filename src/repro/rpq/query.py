"""Query objects: regular path queries and the k-hop special case.

The paper's evaluation focuses on a typical RPQ — the *k-hop path query
with a fixed start node*, processed in batches — while the system is
described for RPQs in general.  Two query classes mirror that split:

* :class:`RPQuery` — an arbitrary path expression plus a batch of source
  nodes; evaluated via the automaton machinery.
* :class:`KHopQuery` — the ``.{k}`` special case; engines recognise it
  and run the pure matrix plan ``ans = Q x Adj x ... x Adj``.

A query result is a :class:`BatchResult`: per query (row) the sorted
destination nodes whose path from the query's source matches the
expression — the sparse ``ans`` matrix of the paper's Figure 2, held as
one frozen CSR pair for the whole batch.
"""

from __future__ import annotations

from collections.abc import Sequence, Set as AbstractSet
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.checks import require_int, require_node_ids
from repro.rpq.automaton import DFA, build_dfa
from repro.rpq.regex import RegexNode, khop_expression, parse_path_expression

#: One in-flight query context carried by a frontier item: the batch row
#: for pure k-hop plans, or a ``(row, automaton_state)`` pair for general
#: RPQs.  Every layer of the query path — the query processor, the
#: per-module operator processor and the execution engines — shares this
#: type instead of an untyped ``object``.
Context = Union[int, Tuple[int, int]]

#: The set of contexts sitting on one graph node of a frontier.
ContextSet = Set[Context]


def _frozen_int64(values) -> np.ndarray:
    """``values`` as a contiguous read-only ``int64`` array.

    No copy when it already is one: the result is then a frozen *view*,
    so the caller's own array object keeps its flags.
    """
    array = np.ascontiguousarray(values, dtype=np.int64).view()
    array.flags.writeable = False
    return array


def csr_from_sorted_pairs(
    rows: np.ndarray, nodes: np.ndarray, num_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of ``(row, node)`` pairs sorted by row, then node.

    Repeated pairs collapse to one, so every row comes out sorted and
    duplicate-free; a row number with no pair is an empty slice.
    """
    if rows.size:
        fresh = np.ones(len(rows), dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]) | (nodes[1:] != nodes[:-1])
        rows, nodes = rows[fresh], nodes[fresh]
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return indptr, nodes


class DestinationRow(AbstractSet):
    """Read-only set view of one answer row (a sorted, unique ``int64`` slice).

    Compares equal to a ``set`` with the same members, iterates Python
    ``int``s in ascending order, and answers ``in`` by binary search, so
    callers written against per-row ``set``s keep working while the data
    stays in the batch's shared array.
    """

    __slots__ = ("_nodes",)

    def __init__(self, nodes: np.ndarray) -> None:
        self._nodes = nodes

    @classmethod
    def _from_iterable(cls, iterable: Iterable[int]) -> Set[int]:
        # ``row & other`` / ``row | other`` (the ``Set`` mixins) yield
        # plain sets: a derived set is not a slice of any batch.
        return set(iterable)

    def tolist(self) -> List[int]:
        """The members as an ascending list of Python ``int``s."""
        return self._nodes.tolist()

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[int]:
        return iter(self._nodes.tolist())

    def __contains__(self, node: object) -> bool:
        if isinstance(node, (float, np.floating)) and float(node).is_integer():
            node = int(node)  # ``3.0 in {3}`` holds for a set
        if not isinstance(node, (int, np.integer)):
            return False
        position = int(np.searchsorted(self._nodes, node))
        return position < len(self._nodes) and bool(self._nodes[position] == node)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DestinationRow):
            return np.array_equal(self._nodes, other._nodes)
        if isinstance(other, AbstractSet):
            return len(other) == len(self._nodes) and all(
                node in other for node in self._nodes.tolist()
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"DestinationRow({self._nodes.tolist()})"


class DestinationRows(Sequence):
    """Read-only per-row view of a :class:`BatchResult` (``.destinations``).

    Behaves like the ``List[Set[int]]`` it replaces: indexable, iterable,
    and equal to any sequence of equal-membered sets.
    """

    __slots__ = ("_indptr", "_indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self._indptr = indptr
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indptr) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("batch row out of range")
        return DestinationRow(
            self._indices[self._indptr[index]:self._indptr[index + 1]]
        )

    def __iter__(self) -> Iterator[DestinationRow]:
        bounds = self._indptr.tolist()
        for start, stop in zip(bounds, bounds[1:]):
            yield DestinationRow(self._indices[start:stop])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DestinationRows):
            return np.array_equal(self._indptr, other._indptr) and np.array_equal(
                self._indices, other._indices
            )
        if isinstance(other, Sequence):
            return len(other) == len(self) and all(
                row == expected for row, expected in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"DestinationRows({[row.tolist() for row in self]})"


class BatchResult:
    """Result of a batch of single-source path queries (the ``ans`` matrix).

    The answer is one CSR pair for the whole batch: row ``i`` — the
    destinations of ``sources[i]`` — is ``indices[indptr[i]:indptr[i+1]]``,
    sorted ascending and duplicate-free.  Both arrays are ``int64`` and
    frozen (``writeable=False``), so a result can be shared between the
    result cache, sessions, scheduler futures and reply encoders without
    copying.  Duplicate sources are independent rows; a source matching
    nothing (or unknown to the graph) is an empty slice.
    """

    __slots__ = ("sources", "indptr", "indices")

    def __init__(self, sources: List[int], indptr, indices) -> None:
        self.sources = sources
        self.indptr = _frozen_int64(indptr)
        self.indices = _frozen_int64(indices)
        if len(self.indptr) != len(sources) + 1:
            raise ValueError("indptr must hold one offset per source plus one")

    @classmethod
    def from_sets(
        cls, sources: List[int], destinations: Iterable[Iterable[int]]
    ) -> "BatchResult":
        """Build a result from one destination collection per source."""
        rows = [np.sort(np.fromiter(row, dtype=np.int64)) for row in destinations]
        row_ids = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
        nodes = np.concatenate(rows) if rows else row_ids
        return cls(sources, *csr_from_sorted_pairs(row_ids, nodes, len(rows)))

    def __reduce__(self):
        # numpy does not pickle the writeable flag: rebuild through the
        # constructor so the arrays arrive frozen on the other side.
        return (BatchResult, (self.sources, self.indptr, self.indices))

    @property
    def destinations(self) -> DestinationRows:
        """Per-row destination sets (a read-only view, no copy)."""
        return DestinationRows(self.indptr, self.indices)

    def destinations_of(self, index: int) -> DestinationRow:
        """Destination set of the ``index``-th query in the batch."""
        return self.destinations[index]

    @property
    def total_matches(self) -> int:
        """Total number of matched endpoint pairs across the batch."""
        return int(self.indptr[-1])

    def pairs(self) -> Set[Tuple[int, int]]:
        """All matched ``(source, destination)`` endpoint pairs."""
        row_sources = np.repeat(
            np.asarray(self.sources, dtype=np.int64), np.diff(self.indptr)
        )
        return set(zip(row_sources.tolist(), self.indices.tolist()))

    def as_dict(self) -> Dict[int, Set[int]]:
        """Mapping from source to the union of its destinations.

        When the same source appears several times in the batch its
        destination sets are merged.
        """
        merged: Dict[int, Set[int]] = {}
        for source, row in zip(self.sources, self.destinations):
            merged.setdefault(source, set()).update(row)
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchResult):
            return NotImplemented
        return (
            self.sources == other.sources
            and self.destinations == other.destinations
        )

    def __repr__(self) -> str:
        return (
            f"BatchResult(sources={len(self.sources)}, "
            f"matches={self.total_matches})"
        )


@dataclass
class RPQuery:
    """A regular path query over edge labels with a batch of sources.

    Parameters
    ----------
    expression:
        Path expression string (see :mod:`repro.rpq.regex` for the
        dialect) — e.g. ``"knows+"`` or ``"(cites/cites)|cites"``.
    sources:
        Source node per query in the batch.
    """

    expression: str
    sources: List[int] = field(default_factory=list)
    #: Memoized ``(expression, ast)`` / ``(expression, dfa)`` pairs:
    #: parsing and determinization are pure in the expression string, and
    #: the planner and plan-cache key call both repeatedly per query.
    #: Keying the cache by the expression keeps mutation safe — reusing a
    #: query object with a new expression recomputes.
    _ast_cache: Optional[Tuple[str, RegexNode]] = field(
        init=False, default=None, repr=False, compare=False
    )
    _dfa_cache: Optional[Tuple[str, DFA]] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        require_node_ids("source", self.sources)

    def ast(self) -> RegexNode:
        """Parsed AST of the expression (memoized)."""
        cached = self._ast_cache
        if cached is None or cached[0] != self.expression:
            cached = (self.expression, parse_path_expression(self.expression))
            self._ast_cache = cached
        return cached[1]

    def dfa(self) -> DFA:
        """Deterministic automaton of the expression (memoized)."""
        cached = self._dfa_cache
        if cached is None or cached[0] != self.expression:
            cached = (self.expression, build_dfa(self.expression))
            self._dfa_cache = cached
        return cached[1]

    def is_fixed_length(self) -> bool:
        """Whether every matched path has the same number of edges."""
        return self.ast().is_fixed_length()

    def fixed_length(self) -> int:
        """The common path length; raises ``ValueError`` when variable."""
        length = self.ast().fixed_length()
        if length is None:
            raise ValueError(
                f"path expression {self.expression!r} matches variable-length paths"
            )
        return length

    @property
    def batch_size(self) -> int:
        """Number of queries in the batch."""
        return len(self.sources)


@dataclass
class KHopQuery:
    """Batch k-hop path query with fixed start nodes (the paper's workload).

    Semantics: for each source, return the nodes reachable by a path of
    **exactly** ``hops`` edges (any labels).  This matches the matrix
    plan ``ans = Q x Adj^k`` of the paper's Figure 2.
    """

    hops: int
    sources: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        require_int("hops", self.hops, 1)
        require_node_ids("source", self.sources)

    @property
    def batch_size(self) -> int:
        """Number of queries in the batch."""
        return len(self.sources)

    def expression(self) -> str:
        """Equivalent path expression (``.{k}``)."""
        return khop_expression(self.hops)

    def to_rpq(self) -> RPQuery:
        """The equivalent general :class:`RPQuery`."""
        return RPQuery(expression=self.expression(), sources=list(self.sources))


def make_batch_khop(
    sources: Iterable[int], hops: int
) -> KHopQuery:
    """Convenience constructor for a batch k-hop query."""
    return KHopQuery(hops=hops, sources=list(sources))


def random_source_batch(
    node_ids: Sequence[int], batch_size: int, seed: int = 0
) -> List[int]:
    """Sample ``batch_size`` start nodes (with replacement) for a batch query.

    The paper's workload selects start nodes randomly and issues them in
    one batch (batch size 64 K); sampling with replacement keeps that
    behaviour valid even when the scaled-down graph has fewer nodes than
    the batch size.
    """
    import random

    rng = random.Random(seed)
    if not node_ids:
        raise ValueError("cannot sample sources from an empty node set")
    return [node_ids[rng.randrange(len(node_ids))] for _ in range(batch_size)]
