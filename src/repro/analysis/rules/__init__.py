"""The project-specific rule registry (REP001 — REP008).

Each rule module exposes a ``Rule`` class with ``rule_id``, ``title``,
``hint`` and ``check(module) -> Iterator[Finding]``.  ``all_rules()``
is the default set the CLI and CI run; tests instantiate individual
rules to prove each one fires (and stays quiet) on fixture snippets.
"""

from __future__ import annotations

from typing import List

from repro.analysis.rules import (
    rep001_lock_blocking,
    rep002_pin_pairing,
    rep003_wal_funnel,
    rep004_frozen_mutation,
    rep005_async_blocking,
    rep006_unordered_iteration,
    rep007_paper_boundary,
    rep008_charging_funnel,
)

_RULE_MODULES = (
    rep001_lock_blocking,
    rep002_pin_pairing,
    rep003_wal_funnel,
    rep004_frozen_mutation,
    rep005_async_blocking,
    rep006_unordered_iteration,
    rep007_paper_boundary,
    rep008_charging_funnel,
)


def all_rules() -> List[object]:
    """One instance of every registered rule, in rule-id order."""
    return [module.Rule() for module in _RULE_MODULES]


def rule_by_id(rule_id: str):
    """Look up a single rule instance (tests disable/select rules)."""
    for module in _RULE_MODULES:
        if module.Rule.rule_id == rule_id.upper():
            return module.Rule()
    raise KeyError(f"unknown rule id {rule_id!r}")


__all__ = ["all_rules", "rule_by_id"]
