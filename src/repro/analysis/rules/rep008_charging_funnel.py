"""REP008 — only the accounting modules charge the simulated platform.

Every figure of the reproduction is a sum of charges, and the kernels
are interchangeable because none of them charges anything: a kernel
reports its work as an ``ExpandWork`` and the one plan driver charges
it.  Updates, migrations, the maintenance operation and the
RedisGraph-like comparison system each have one charging module too.
A charge anywhere else is a second accounting path.

Flagged: a call of a charging method (:data:`CHARGING_METHODS`) in a
module that is not one of :data:`CHARGERS`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, ModuleInfo
from repro.analysis.rules.common import call_func_name

RULE_ID = "REP008"
TITLE = "only the accounting modules charge the platform"
HINT = (
    "report the work instead (a kernel fills ExpandWork and the driver "
    "charges it), or move the charge into the module that owns the operation"
)

CHARGING_METHODS = frozenset({
    "begin_operation", "random_accesses", "process_items", "stream_bytes",
    "launch_kernel", "cpc_transfer", "ipc_transfer",
})

#: Path suffixes of the modules that may charge; ``/`` ends a package.
CHARGERS = (
    "repro/engine/driver.py",
    "repro/core/update_processor.py",
    "repro/core/node_migrator.py",
    "repro/core/system.py",
    "repro/paper/redisgraph.py",
    "repro/pim/",
)


def _may_charge(relpath: str) -> bool:
    anchored = "/" + relpath
    return any(
        ("/" + entry) in anchored if entry.endswith("/") else anchored.endswith("/" + entry)
        for entry in CHARGERS
    )


class Rule:
    rule_id = RULE_ID
    title = TITLE
    hint = HINT

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if _may_charge(module.relpath):
            return
        for node in ast.walk(module.tree):
            name = call_func_name(node) if isinstance(node, ast.Call) else None
            if name in CHARGING_METHODS:
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=node.lineno,
                    scope=module.scope_of(node),
                    detail=f"calls {name}",
                    message=f"{name} charges the simulated platform outside {CHARGERS}",
                    hint=self.hint,
                )
