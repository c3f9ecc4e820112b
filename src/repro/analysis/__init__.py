"""Project-invariant static analysis and runtime concurrency checking.

Every concurrency fix this codebase has shipped — the epoch-pin leak in
``Session.refresh``, the deep-copy held under the result-cache lock, the
shared-``__traceback__`` race on coalesced failures — was an instance of
a *checkable project invariant*: lock discipline, pin/unpin pairing, the
WAL write funnel, frozen-array immutability, asyncio non-blocking rules,
deterministic iteration feeding stats and wire output — the system
stays free of the paper's evaluation apparatus, and only the accounting
modules charge the simulated platform.  This package
checks those invariants mechanically, in CI, on every change:

:mod:`repro.analysis.lint`
    An AST-walking lint framework (file loader, per-rule visitor
    registry, :class:`~repro.analysis.lint.Finding` records with
    file:line, rule id and a fix hint, plus a baseline/suppression
    mechanism so deliberate exceptions are explicit) driving the
    project-specific rules in :mod:`repro.analysis.rules` (REP001 —
    REP008).  ``python -m repro.analysis`` runs it over ``src/``.

:mod:`repro.analysis.lockcheck`
    An opt-in runtime lock-order checker: instrumented
    ``threading.Lock``/``RLock`` wrappers record per-thread acquisition
    stacks into a global lock-order graph, detect cycles (potential
    ABBA deadlocks) and lock-held-across-``join``/blocking-call
    hazards, and render a report.  The test suite runs under it when
    ``REPRO_LOCKCHECK=1`` (see ``tests/conftest.py``).
"""

from repro.analysis.lint import (
    Baseline,
    Finding,
    LintRunner,
    ModuleInfo,
    run_lint,
)
from repro.analysis.lockcheck import (
    LockOrderChecker,
    lock_order_checker,
)

__all__ = [
    "Baseline",
    "Finding",
    "LintRunner",
    "LockOrderChecker",
    "ModuleInfo",
    "lock_order_checker",
    "run_lint",
]
