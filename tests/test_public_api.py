"""The export lists: every name a ``repro`` package lists in ``__all__``
resolves on that package, and no list names a thing twice."""

from __future__ import annotations

import importlib
import pkgutil

import repro


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    missing = []
    exported = 0
    for package in _packages():
        names = package.__all__
        assert len(names) == len(set(names)), f"{package.__name__}.__all__ repeats a name"
        exported += len(names)
        missing += [
            f"{package.__name__}.{name}"
            for name in names
            if not hasattr(package, name)
        ]
    assert not missing, f"exported but not defined: {missing}"
    assert exported > 0
