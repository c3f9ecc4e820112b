"""The end-to-end benchmark's harness still runs against this source tree.

``benchmarks/e2e`` measures every change against its parent with the
same harness files, so the names it uses must keep working: its engine
probes pin ``use_engine("matrix")`` (a second name for
``"vectorized"``), and its workloads import ``scaled_cost_model`` from
``repro.bench``.  Both names stay in ``src/`` for that reason alone; a
change that drops one fails here, with the name, instead of as an
opaque failure of the harness's own subprocess smoke test.
"""

from __future__ import annotations

import importlib
import pathlib

from repro.engine import ENGINE_NAMES

E2E = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def test_the_e2e_harness_imports_and_names_only_known_engines(monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    spec = importlib.import_module("e2e_spec")
    importlib.import_module("e2e_workloads")  # imports repro.bench
    unknown = set(spec.ENGINES) - set(ENGINE_NAMES)
    assert not unknown, (
        f"benchmarks/e2e/e2e_spec.py probes engines {sorted(unknown)} that "
        f"repro.engine.ENGINE_NAMES {ENGINE_NAMES} no longer accepts; the "
        "harness runs unchanged against every parent, so keep the name"
    )
