"""REP007 — nothing outside ``repro.paper`` imports it.

``repro.paper`` is the paper's evaluation apparatus: the comparison
systems, the placement variants and partitioners the ablations sweep,
the experiment runner.  It varies the system in order to measure it, so
the system must not depend on it — a server, a session or a recovery
that loaded it would carry a second placement, a second engine and a
benchmark harness for nothing, and a change to an experiment could
reach serving.  The package root stopped importing it for that reason;
this rule keeps every other module from starting.

Flagged: ``import repro.paper``, ``from repro.paper... import ...`` and
``from repro import paper`` in any module that is not itself under
``repro/paper/``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.lint import Finding, ModuleInfo

RULE_ID = "REP007"
TITLE = "only repro.paper imports repro.paper"
HINT = (
    "keep the evaluation apparatus out of the system: move the code that "
    "needs it into repro.paper, or move what it needs out of repro.paper"
)

PACKAGE = "repro.paper"


def _inside_paper(relpath: str) -> bool:
    parts = relpath.split("/")
    return any(parts[index : index + 2] == ["repro", "paper"] for index in range(len(parts)))


def _imported(node: ast.AST) -> List[str]:
    """The ``repro.paper`` modules an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        names = [node.module]
        if node.module == "repro":
            names = [f"repro.{alias.name}" for alias in node.names]
    else:
        return []
    return [name for name in names if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Rule:
    rule_id = RULE_ID
    title = TITLE
    hint = HINT

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if _inside_paper(module.relpath):
            return
        for node in ast.walk(module.tree):
            for name in _imported(node):
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=node.lineno,
                    scope=module.scope_of(node),
                    detail=f"imports {name}",
                    message=(
                        f"{name} is the paper's evaluation apparatus; a module "
                        "outside repro.paper must not import it"
                    ),
                    hint=self.hint,
                )
