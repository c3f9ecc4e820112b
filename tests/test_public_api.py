"""The export lists: every name a ``repro`` package lists in ``__all__``
resolves on that package, and no list names a thing twice."""

from __future__ import annotations

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

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


#: The paper's evaluation apparatus, and where its parts lived before
#: they moved under ``repro.paper``.
APPARATUS = (
    "repro.paper",
    "repro.baselines",
    "repro.bench",
    "repro.partition.adaptive",
    "repro.partition.ldg",
)


def test_serving_never_loads_the_apparatus(tmp_path):
    """A fresh interpreter imports the serving stack, loads a durable
    graph, answers live, pinned and networked queries, recovers the
    directory, and has not imported any part of the evaluation
    apparatus (the package root used to import the baselines)."""
    script = textwrap.dedent(
        f"""
        import sys
        import repro.core, repro.durability, repro.net, repro.serve
        from repro.core import Moctopus, MoctopusConfig
        from repro.graph import power_law_graph
        from repro.net import MoctopusClient
        from repro.pim import CostModel

        graph = power_law_graph(300, edges_per_node=3, seed=3)
        config = MoctopusConfig(
            cost_model=CostModel(num_modules=8), durability_dir={str(tmp_path)!r}
        )
        system = Moctopus.from_graph(graph, config)
        system.batch_khop([0, 1, 2], 2)
        with system.begin() as session:
            session.batch_khop([0, 1, 2], 2)
        server = system.listen(port=0)
        with MoctopusClient("127.0.0.1", server.port) as client:
            client.khop(0, 2)
        server.close()
        system.close()
        Moctopus.recover({str(tmp_path)!r}).close()
        print(sorted(name for name in {APPARATUS!r} if name in sys.modules))
        """
    )
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    assert completed.stdout.split() == ["[]"]
