"""The execution layer: one plan driver, swappable kernels.

This package runs the :class:`~repro.rpq.planner.Plan` the planner
builds (:func:`lower_plan`, re-exported here, binds a fixpoint plan to
the size of the graph it is about to run on):

* :mod:`repro.engine.base` — the :class:`ExecutionEngine` protocol, the
  :class:`PlanView` every execution reads graph state through (and
  :class:`LiveView`, the one over the live storages), the backend
  factory and the ``"auto"`` dispatcher that picks a backend per call
  from the size of the request;
* :mod:`repro.engine.driver` — :func:`execute_plan`, the only runner
  of plans (dispatch, the ``smxm`` expand+route phases, ``mwait``) and
  the only code that charges the simulated platform, parameterised by a
  :class:`Kernel`;
* :mod:`repro.engine.python_engine` — the scalar reference kernel
  (exact original semantics);
* :mod:`repro.engine.vectorized` — the numpy kernels expanding columnar
  frontiers against CSR storage snapshots (push-style gathers);
* :mod:`repro.engine.matrix_engine` — the semiring-matrix kernels
  executing plans as masked boolean SpGEMM over pre-transposed CSR
  blocks, with a dense-vs-sparse crossover back to the push path.

Backends are interchangeable by contract: identical results *and*
identical simulated work counters, so ``MoctopusConfig.engine`` can flip
between them without perturbing any figure of the reproduction.
"""

from repro.engine.base import (
    ENGINE_NAMES,
    AutoEngine,
    ExecutionEngine,
    LiveView,
    PlanView,
    choose_engine,
    create_engine,
)
from repro.engine.driver import ExpandWork, Kernel, execute_plan
from repro.engine.matrix_engine import MatrixEngine
from repro.engine.python_engine import PythonEngine
from repro.engine.vectorized import VectorizedEngine
from repro.rpq.planner import lower_plan

__all__ = [
    "ENGINE_NAMES",
    "AutoEngine",
    "ExecutionEngine",
    "LiveView",
    "PlanView",
    "choose_engine",
    "create_engine",
    "lower_plan",
    "ExpandWork",
    "Kernel",
    "execute_plan",
    "MatrixEngine",
    "PythonEngine",
    "VectorizedEngine",
]
