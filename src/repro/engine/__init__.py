"""The execution layer: one plan driver, kernels picked by name.

This package runs the :class:`~repro.rpq.planner.Plan` the planner
builds (:func:`lower_plan`, re-exported here, binds a fixpoint plan to
the size of the graph it is about to run on):

* :func:`execute`, here — the one call every plan runs through: it
  resolves ``"auto"`` per call from the size of the request
  (:func:`choose_engine`) and builds the kernel a name picks;
* :mod:`repro.engine.base` — the kernel names, the ``"auto"`` rule and
  the :class:`PlanView` every execution reads graph state through (its
  one implementation, :class:`~repro.serve.epoch.EpochView`, reads an
  epoch's frozen snapshots, live queries included);
* :mod:`repro.engine.driver` — :func:`~repro.engine.driver.execute_plan`,
  the only runner of plans (dispatch, the ``smxm`` expand+route phases,
  ``mwait``) and the only code that charges a query to the simulated
  platform, parameterised by a :class:`Kernel`;
* :mod:`repro.engine.python_engine` — the scalar reference kernel
  (exact original semantics), ``"python"``;
* :mod:`repro.engine.vectorized` — the numpy kernels expanding columnar
  frontiers against CSR storage snapshots, each partition's phase by
  push (gather and sort) or pull (masked boolean SpGEMM over the
  snapshot's transposed blocks) as its counted work decides,
  ``"vectorized"`` (``"matrix"`` is a second name for it).

Kernels are interchangeable by contract: identical results *and*
identical simulated work counters, so ``Moctopus.use_engine`` can flip
between them without perturbing any figure of the reproduction.
"""

from typing import Dict, List, Tuple

from repro.engine import base
from repro.engine.base import ENGINE_NAMES, PlanView, choose_engine
from repro.engine.driver import ExpandWork, Kernel, execute_plan
from repro.engine.python_engine import ScalarKernel
from repro.engine.vectorized import BitsetKernel, KeysKernel
from repro.pim.stats import ExecutionStats
from repro.rpq.planner import Plan, lower_plan
from repro.rpq.query import BatchResult

__all__ = [
    "ENGINE_NAMES",
    "PlanView",
    "choose_engine",
    "execute",
    "lower_plan",
    "ExpandWork",
    "Kernel",
]


def execute(
    kernel: str,
    plan: Plan,
    sources: List[int],
    view: PlanView,
    label_names: Dict[int, str],
) -> Tuple[BatchResult, ExecutionStats]:
    """Run ``plan`` for ``sources`` against ``view`` on the kernel named
    ``kernel`` (an :data:`ENGINE_NAMES` entry), charging ``view.pim``.

    ``"auto"`` resolves per call through the rule in
    :mod:`repro.engine.base`; every view answers the same two totals, so
    one graph and one request choose alike live and pinned.
    ``label_names`` (integer edge label -> query label string) is what
    the automaton-guided kernels step labels through.
    """
    if kernel == "auto":
        avg_out_degree = view.total_edges() / max(1, view.total_rows())
        kernel = base.choose_engine(plan, len(sources), avg_out_degree)
    if kernel == "python":
        frontier = ScalarKernel(plan, sources, view, label_names)
    elif kernel not in ("vectorized", "matrix"):
        raise ValueError(
            f"unknown execution engine {kernel!r}; expected one of {ENGINE_NAMES}"
        )
    elif plan.dfa is None:
        frontier = BitsetKernel(plan, sources, view)
    else:
        frontier = KeysKernel(plan, sources, view, label_names)
    return execute_plan(plan, sources, view, frontier)
