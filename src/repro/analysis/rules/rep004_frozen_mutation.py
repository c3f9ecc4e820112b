"""REP004 — no in-place mutation of frozen-snapshot arrays.

Epochs publish frozen CSR arrays (``writeable=False``) that every
concurrent reader shares zero-copy; sessions, the scheduler, worker
processes and the result cache all rely on those arrays never changing.
Mutating one would either raise at runtime (numpy honors the flag) or —
worse, through a view or an ``out=`` kwarg on a copy that aliases the
base — silently corrupt every other reader of the epoch.

The rule taints variables bound from frozen-snapshot accessors — an
epoch's or a view's ``snapshot_of``, and a :class:`CSRHeap`'s
``segment``, ``column`` and ``arrays`` — plus attribute loads off a
tainted variable like ``snap.indptr``, and flags
in-place mutation of tainted names: subscript stores, augmented
assignment, ``.sort()`` / ``.fill()`` / ``.partition()`` /
``.resize()`` calls, and ``out=`` keywords.  Rebinding a name
(``x = x.copy()``) clears its taint.

Query answers are frozen the same way: a
:class:`~repro.rpq.query.BatchResult` is one CSR pair that the result
cache, sessions, scheduler futures and reply encoders share without
copying.  A result reaches a function under any name (tuple-unpacked
from ``execute``, a parameter, a cache entry), so the rule treats the
attribute names themselves — ``.indptr`` / ``.indices``, which are
frozen on every class in this repository that carries them — as frozen
on whatever object they are read from.

So is ``.graph``: a system's stored graph is a live read-only view over
its storages (the only adjacency a ``Moctopus`` holds), so a ``DiGraph``
mutator called on it — directly or through a variable bound from it —
is a finding.  Updates go through ``apply_updates``; ``.graph.copy()``
yields a mutable ``DiGraph``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.analysis.lint import Finding, ModuleInfo
from repro.analysis.rules.common import call_func_name

RULE_ID = "REP004"
TITLE = "frozen snapshot arrays are immutable"
HINT = (
    "work on a copy (arr.copy()) or build the result into a fresh "
    "array — epoch snapshots are shared zero-copy across readers"
)

#: Calls whose results are frozen shared state.
FROZEN_ACCESSORS = frozenset({"snapshot_of", "segment", "column", "arrays"})

#: Attributes that hold frozen state on every object carrying them:
#: the CSR pair of a ``BatchResult`` (and of snapshots and their blocks),
#: and the stored-graph view of a ``Moctopus``.
FROZEN_ATTRIBUTES = frozenset({"indptr", "indices", "graph"})

#: Methods that mutate in place: ndarray's, and ``DiGraph``'s (which the
#: stored-graph view deliberately lacks).
_MUTATORS = frozenset(
    {"sort", "fill", "partition", "resize", "put"}
    | {"add_edge", "add_node", "remove_edge", "remove_node"}
)


def _base_name(node: ast.AST) -> str:
    """Leftmost Name of a Name/Attribute/Subscript chain ('' if none)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _frozen_attribute(node: ast.AST) -> Optional[str]:
    """``base.attr`` when the chain reads a :data:`FROZEN_ATTRIBUTES`
    member, ``accessor()`` when it reads off a :data:`FROZEN_ACCESSORS`
    call (``heap.segment(0).dsts``); any other call returns fresh state."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(node, ast.Call):
            name = call_func_name(node)
            return f"{name}()" if name in FROZEN_ACCESSORS else None
        if isinstance(node, ast.Attribute) and node.attr in FROZEN_ATTRIBUTES:
            return f"{_base_name(node) or '?'}.{node.attr}"
        node = node.value
    return None


class Rule:
    rule_id = RULE_ID
    title = TITLE
    hint = HINT

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleInfo, function: ast.AST
    ) -> Iterator[Finding]:
        tainted: Set[str] = set()
        origins: Dict[str, str] = {}
        # Single forward pass in source order: taint assignments first,
        # then flag mutations of currently-tainted names.  Rebinding a
        # tainted name to anything else clears it.
        statements = [
            node
            for node in ast.walk(function)
            if isinstance(
                node, (ast.Assign, ast.AugAssign, ast.Expr, ast.Call)
            )
        ]
        statements.sort(key=lambda node: (node.lineno, node.col_offset))
        for node in statements:
            if isinstance(node, ast.Assign):
                yield from self._flag_subscript_stores(
                    module, node, tainted, origins
                )
                source = self._taint_source(node.value, tainted)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if source is not None:
                            tainted.add(target.id)
                            origins[target.id] = source
                        else:
                            tainted.discard(target.id)
            elif isinstance(node, ast.AugAssign):
                base = _base_name(node.target)
                origin = self._frozen_origin(node.target, tainted, origins)
                if origin is not None:
                    yield self._finding(
                        module,
                        node,
                        f"augmented assignment to {base}",
                        origin,
                    )
            elif isinstance(node, ast.Call):
                yield from self._flag_call(module, node, tainted, origins)

    def _taint_source(
        self, value: ast.AST, tainted: Set[str]
    ) -> Optional[str]:
        """Accessor name when ``value`` yields frozen state, else None."""
        if isinstance(value, ast.Call):
            name = call_func_name(value)
            if name in FROZEN_ACCESSORS:
                return name
        # Attribute load off a tainted variable (``snap.indptr``) or of
        # a frozen attribute off anything (``result.indices``).
        if isinstance(value, ast.Attribute):
            base = _base_name(value)
            if base in tainted:
                return f"{base}.{value.attr}"
            return _frozen_attribute(value)
        return None

    @staticmethod
    def _frozen_origin(
        target: ast.AST, tainted: Set[str], origins: Dict[str, str]
    ) -> Optional[str]:
        """Where ``target``'s array came from when it is frozen, else None."""
        base = _base_name(target)
        if base in tainted:
            return origins.get(base, "?")
        return _frozen_attribute(target)

    def _flag_subscript_stores(
        self, module, assign: ast.Assign, tainted: Set[str], origins
    ) -> Iterator[Finding]:
        for target in assign.targets:
            if isinstance(target, ast.Subscript):
                origin = self._frozen_origin(target, tainted, origins)
                if origin is not None:
                    yield self._finding(
                        module,
                        assign,
                        f"subscript store into {_base_name(target)}[...]",
                        origin,
                    )

    def _flag_call(
        self, module, call: ast.Call, tainted: Set[str], origins
    ) -> Iterator[Finding]:
        if isinstance(call.func, ast.Attribute):
            func = call.func.attr
            origin = self._frozen_origin(call.func.value, tainted, origins)
            if func in _MUTATORS and origin is not None:
                yield self._finding(
                    module,
                    call,
                    f"in-place {_base_name(call.func.value)}.{func}()",
                    origin,
                )
        for keyword in call.keywords:
            if keyword.arg != "out":
                continue
            origin = self._frozen_origin(keyword.value, tainted, origins)
            if origin is not None:
                yield self._finding(
                    module,
                    call,
                    f"out={_base_name(keyword.value)} kwarg",
                    origin,
                )

    def _finding(self, module, node, what: str, origin: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=node.lineno,
            scope=module.scope_of(node),
            detail=what,
            message=(
                f"{what} mutates frozen shared state obtained from "
                f"`{origin}` — readers hold it zero-copy, it never changes"
            ),
            hint=self.hint,
        )
