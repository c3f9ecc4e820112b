"""Shared AST helpers for the REP rules.

Everything here is heuristic name-based analysis: the rules target
*this* codebase's naming conventions (``*_lock``, ``*_queue``,
``pin``/``unpin``, ``wal_write``), which is what makes a eight-rule
project linter precise enough to gate CI where a general-purpose tool
could not be.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

#: Context-manager expressions that look like mutual-exclusion locks.
LOCKISH = re.compile(r"lock|mutex", re.IGNORECASE)
#: Receivers that look like (threading) queues.
QUEUEISH = re.compile(r"queue|_q$|^q$", re.IGNORECASE)
#: Receivers that look like joinable threads / worker handles.
THREADISH = re.compile(
    r"thread|worker|gather|collector|drain|daemon|proc", re.IGNORECASE
)
#: Receivers that look like one-shot future/result gates.
FUTUREISH = re.compile(r"future|gate|ticket|outcome", re.IGNORECASE)
#: Receivers that look like sockets / connections.
SOCKETISH = re.compile(r"sock|conn", re.IGNORECASE)
#: Receivers that look like threading events / condition variables.
EVENTISH = re.compile(
    r"event|cond|started|closed|done|ready|stop", re.IGNORECASE
)
#: Receivers that look like blocking-close subsystems (scheduler/pool
#: close() joins threads and drains queues).
CLOSEISH = re.compile(r"scheduler|pool|server", re.IGNORECASE)


def terminal_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a Name/Attribute chain (``a.b.c`` -> c)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Full dotted path of a Name/Attribute chain, or ``None``."""
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_func_name(call: ast.Call) -> Optional[str]:
    """Terminal name of the called function (``copy.deepcopy`` -> deepcopy)."""
    return terminal_name(call.func)


def receiver_name(call: ast.Call) -> Optional[str]:
    """Terminal name of a method call's receiver (``self._q.get`` -> _q)."""
    if isinstance(call.func, ast.Attribute):
        return terminal_name(call.func.value)
    return None


def receiver_dotted(call: ast.Call) -> Optional[str]:
    """Dotted path of a method call's receiver, or ``None``."""
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value)
    return None


def keyword_value(call: ast.Call, name: str) -> Optional[ast.AST]:
    """The AST value of keyword argument ``name``, if present."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def is_false_constant(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


def is_zero_constant(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0


def walk_body(nodes, *, skip_nested_functions: bool = True) -> Iterator[ast.AST]:
    """Walk statements (and their subtrees) of a body.

    ``skip_nested_functions`` stops at nested def/async-def boundaries:
    a closure defined inside a ``with lock:`` body does not *run* under
    the lock.
    """
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if skip_nested_functions and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def lock_name_of_with_item(item: ast.withitem) -> Optional[str]:
    """Lock name when a ``with`` item is a lock acquisition, else None."""
    expr = item.context_expr
    # ``with self._lock:`` / ``with lock:``
    name = terminal_name(expr)
    if name is not None and LOCKISH.search(name):
        return dotted_name(expr) or name
    # ``with self._lock.acquire_timeout(...):``-style helper calls.
    if isinstance(expr, ast.Call):
        recv = receiver_name(expr)
        if recv is not None and LOCKISH.search(recv):
            return receiver_dotted(expr) or recv
    return None


def in_finally_block(module, node: ast.AST) -> bool:
    """Whether ``node`` sits inside some ``try``'s ``finally`` suite."""
    child = node
    parent = module.parents.get(child)
    while parent is not None:
        if isinstance(parent, ast.Try):
            for stmt in parent.finalbody:
                if child is stmt or _contains(stmt, child):
                    return True
        child, parent = parent, module.parents.get(parent)
    return False


def in_except_handler(module, node: ast.AST) -> bool:
    """Whether ``node`` sits inside an ``except`` handler suite."""
    current = module.parents.get(node)
    while current is not None:
        if isinstance(current, ast.ExceptHandler):
            return True
        current = module.parents.get(current)
    return False


def _contains(root: ast.AST, target: ast.AST) -> bool:
    for node in ast.walk(root):
        if node is target:
            return True
    return False
