"""Regular path query engine.

A regular path query (RPQ) asks for all endpoint pairs connected by a
path whose edge-label sequence matches a regular expression.  This
package provides:

* the path-expression parser (:mod:`repro.rpq.regex`),
* Thompson NFA / subset-construction DFA builders
  (:mod:`repro.rpq.automaton`),
* query objects — :class:`RPQuery` and the paper's :class:`KHopQuery`
  workload (:mod:`repro.rpq.query`),
* the planner: one frozen :class:`Plan` per query — ``k`` ``smxm``
  expansions or a fixpoint, then ``mwait`` — costed from an epoch's
  frozen statistics when there is one (:mod:`repro.rpq.planner`),
* a reference evaluator used as the correctness oracle for every engine
  (:mod:`repro.rpq.evaluator`).
"""

from repro.rpq.regex import (
    ANY_LABEL,
    Concat,
    Label,
    RegexNode,
    RegexSyntaxError,
    Repeat,
    Union,
    khop_expression,
    parse_path_expression,
    unrolled_length,
)
from repro.rpq.automaton import (
    DFA,
    EPSILON,
    NFA,
    build_dfa,
    build_nfa,
    determinize,
    minimize_dfa,
)
from repro.rpq.query import (
    BatchResult,
    Context,
    ContextSet,
    KHopQuery,
    RPQuery,
    make_batch_khop,
    random_source_batch,
)
from repro.rpq.planner import (
    GraphCostStats,
    Plan,
    PlanDecision,
    lower_plan,
    plan_query,
)
from repro.rpq.evaluator import evaluate_khop, evaluate_rpq

__all__ = [
    "ANY_LABEL",
    "RegexNode",
    "Label",
    "Concat",
    "Union",
    "Repeat",
    "RegexSyntaxError",
    "parse_path_expression",
    "khop_expression",
    "unrolled_length",
    "NFA",
    "DFA",
    "EPSILON",
    "build_nfa",
    "build_dfa",
    "determinize",
    "minimize_dfa",
    "GraphCostStats",
    "Plan",
    "PlanDecision",
    "RPQuery",
    "KHopQuery",
    "BatchResult",
    "Context",
    "ContextSet",
    "make_batch_khop",
    "random_source_batch",
    "plan_query",
    "lower_plan",
    "evaluate_khop",
    "evaluate_rpq",
]
