"""Statistics, span recording and result comparison (no ``repro`` imports).

Pure functions so the harness tests can pin their arithmetic.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import e2e_spec as spec


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with >= pct % at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def pass_p99(values: Sequence[float], allow_small: bool = False) -> Optional[float]:
    """p99 of one pass, or ``None`` when the pass is too short to carry one."""
    if len(values) < spec.MIN_PERCENTILE_OPS and not allow_small:
        return None
    return percentile(values, 99.0)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span log: ``(name, start_ns, end_ns, parent, op_id)``.

    Spans wrap only the calls the benchmark itself makes into a layer's
    public functions.  A disabled tracer records nothing, so the same
    workload code serves the untraced and the traced run.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[List] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op_id: int) -> Iterator[Optional[int]]:
        """Record a synchronous span nested under the enclosing one; yields its index."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, op_id])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def add(self, name: str, start_ns: int, end_ns: int, op_id: int,
            parent: Optional[int] = None) -> None:
        """Record a finished span (for concurrent ops that cannot nest on a stack)."""
        if self.enabled:
            self.spans.append([name, start_ns, end_ns, parent, op_id])


def _covered(intervals: Sequence[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` within ``[lo, hi]``."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times_ns(spans: Sequence[Sequence]) -> List[int]:
    """Self time per span: its duration minus the interval its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(index, ()), start, end)
        for index, (_, start, end, _, _) in enumerate(spans)
    ]


def self_seconds_by_name(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Total self time per span name, in seconds."""
    totals: Dict[str, float] = {}
    for (name, *_), own in zip(spans, self_times_ns(spans)):
        totals[name] = totals.get(name, 0.0) + own / 1e9
    return totals


def layer_shares(spans: Sequence[Sequence], pass_seconds: float) -> Dict[str, float]:
    """Share of the pass during which a call into each layer was in progress.

    The layer is the span-name prefix.  Intervals are merged first, so
    sixteen overlapping wire round trips count once, not sixteen times;
    for back-to-back synchronous calls this is their summed self time.
    """
    intervals: Dict[str, List[Tuple[int, int]]] = {}
    for name, start, end, _, _ in spans:
        intervals.setdefault(name.split(".", 1)[0], []).append((start, end))
    return {
        layer: _covered(pieces, min(pieces)[0], max(end for _, end in pieces)) / 1e9 / pass_seconds
        for layer, pieces in intervals.items()
    }


# ----------------------------------------------------------------------
# Comparing two result sets
# ----------------------------------------------------------------------
def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """``worse / same / better / unresolved`` for one (metric, workload) pair.

    The change's median may be worse than the base's by at most ``bound``.
    Where the base's own run-to-run spread is wider than the bound the
    pair is unresolved rather than unchanged, unless every run of one
    side reads better than every run of the other.
    """
    base_median = statistics.median(base)
    delta = (statistics.median(change) - base_median) / abs(base_median) if base_median else 0.0
    if better == "higher":
        delta = -delta
    apart = max(change) < min(base) or min(change) > max(base)
    if len(base) > 1 and spread(base) > bound and not apart:
        return "unresolved"
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "same"


def compare(base: Dict, change: Dict) -> Tuple[List[Dict], bool]:
    """Rows for every (end-to-end metric, workload) pair, and whether any regressed.

    ``base`` and ``change`` are result sets as ``run.py --out`` writes
    them: ``{"runs": [{workload: {"metrics": {name: {"value": v}}, "failed": n,
    "attempted": n}}]}``.  ``fail_ratio`` is pooled over the runs of a set,
    so one failure in one run shows.
    """
    rows: List[Dict] = []
    for workload in spec.WORKLOAD_NAMES:
        for metric in spec.END_TO_END:
            if metric.name == "fail_ratio":
                continue
            sides = [
                [
                    run[workload]["metrics"][metric.name]["value"]
                    for run in result_set["runs"]
                    if metric.name in run.get(workload, {}).get("metrics", {})
                ]
                for result_set in (base, change)
            ]
            if not sides[0] or not sides[1]:
                continue
            medians = [statistics.median(side) for side in sides]
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "base": medians[0], "change": medians[1],
                "ratio": medians[1] / medians[0] if medians[0] else float("nan"),
                "bound": metric.bound,
                "verdict": verdict(sides[0], sides[1], metric.better, metric.bound),
            })
        ratios = []
        for result_set in (base, change):
            records = [run[workload] for run in result_set["runs"] if workload in run]
            attempted = sum(record["attempted"] for record in records)
            failed = sum(record["failed"] for record in records)
            ratios.append(failed / attempted if attempted else 0.0)
        rows.append({
            "workload": workload, "metric": "fail_ratio", "unit": "ratio",
            "base": ratios[0], "change": ratios[1], "ratio": float("nan"), "bound": 0.0,
            "verdict": "worse" if ratios[1] > ratios[0] else "same",
        })
    regressed = any(row["verdict"] == "worse" for row in rows)
    return rows, regressed
