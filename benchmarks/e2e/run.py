"""End-to-end benchmark of the Moctopus serving stack.

One workload, as the benchmark driver calls it (last stdout line is the
result object)::

    python3 benchmarks/e2e/run.py --workload khop_batch --seed 13 --seconds 15 --trace 0

All four workloads, each in its own fresh interpreter::

    python3 benchmarks/e2e/run.py --seed 13                  # end-to-end metrics
    python3 benchmarks/e2e/run.py --seed 13 --trace 1        # per-layer metrics + spans
    python3 benchmarks/e2e/run.py --seed 13 --repeat 10 --out A/   # a result set
    python3 benchmarks/e2e/run.py --compare A/results.json B/results.json

See README.md beside this file for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from typing import Dict, List, Optional, Sequence

import e2e_env

e2e_env.add_source_path()

import e2e_spec as spec  # noqa: E402
import e2e_stats as stats  # noqa: E402


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _with_units(values: Dict[str, float], metrics: Sequence[spec.Metric]) -> Dict[str, Dict]:
    """``values`` in spec order, each with its unit."""
    return {
        m.name: {"value": values[m.name], "unit": m.unit} for m in metrics if m.name in values
    }


def _tail_ms(workload: str, scale: str, latencies: Sequence[float]) -> Optional[float]:
    """p99 of one pass in ms; short passes (khop_batch, smoke) report their slowest op."""
    p99 = stats.pass_p99(latencies, allow_small=workload == "khop_batch" or scale == "smoke")
    return None if p99 is None else p99 * 1e3


#: Statistics that are not a race against interference: the median pass.
MEDIAN_OF_PASSES = ("setup_s", "peak_rss_mb")


def end_to_end(ctx, passes) -> Dict[str, Dict]:
    """End-to-end metrics from the untraced passes, as measured.

    Each statistic is computed per pass.  Throughput, latencies and the
    other timings then come from the best pass, because interference
    only ever slows; set-up and memory are medians over the passes.
    """
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_pass: Dict[str, List[float]] = {}
    for p in passes:
        values = {
            "setup_s": ctx.script_s + p.setup_s,
            "throughput_ops_s": p.ops / p.seconds,
            "latency_p50_ms": stats.percentile(p.latencies, 50.0) * 1e3,
            "peak_rss_mb": p.peak_rss_mb if p.peak_rss_mb else own_rss,
            **p.e2e,
        }
        if p.sim_ms is not None:
            values["sim_time_ms"] = p.sim_ms
        for name, value in values.items():
            per_pass.setdefault(name, []).append(value)
    values = {}
    for metric in spec.END_TO_END:
        samples = per_pass.get(metric.name)
        if not samples:
            continue
        if metric.name in MEDIAN_OF_PASSES:
            values[metric.name] = statistics.median(samples)
        else:
            values[metric.name] = max(samples) if metric.better == "higher" else min(samples)
    return {"values": values, "per_pass": per_pass}


def per_layer(workload: str, ctx, untraced, traced, tracer, cpu_s: float) -> Dict[str, float]:
    """What one traced run observed: the traced pass, its spans, and the run itself."""
    values = dict(traced.layer)
    values["graph.generate_s"] = ctx.generate_s
    values["core.load_graph_s"] = traced.load_graph_s
    results = traced.layer.get("engine.results", 0)
    if results:
        values["engine.us_per_result"] = traced.seconds / results * 1e6
    for layer, share in stats.layer_shares(tracer.spans, traced.wall_s).items():
        values[f"{layer}.time_share"] = share
    values["bench.cpu_s"] = cpu_s
    values["bench.throughput_ops_s"] = untraced.ops / untraced.seconds
    values["bench.latency_p50_ms"] = stats.percentile(untraced.latencies, 50.0) * 1e3
    tail = _tail_ms(workload, ctx.scale, untraced.latencies)
    if tail is not None:
        values["bench.latency_p99_ms"] = tail
    values["bench.trace_overhead_ratio"] = traced.seconds / untraced.seconds
    return values


def driver_metrics(metrics: Dict[str, Dict], trace: int) -> Dict[str, Dict]:
    """The ``metrics`` of the result object the benchmark driver reads.

    The driver wants exactly the metrics ``BENCHMARK.json`` lists, from
    every workload.  Untraced, those are ``e2e_spec.DRIVER_BOUNDS``, a
    subset of what the run measured.  Traced, a count, byte or ratio of
    a layer this workload never called into (``net.busy`` on
    ``khop_batch``) goes out as 0 - the layer did no work; the
    benchmark's own reports and result sets leave such a metric out.  A
    probe that could not run stays out.
    """
    if not trace:
        return {name: metrics[name] for name in spec.DRIVER_BOUNDS}
    out = {}
    for metric in spec.PER_LAYER:
        if metric.name in metrics:
            out[metric.name] = metrics[metric.name]
        elif metric.source == "pass":
            out[metric.name] = {"value": 0.0, "unit": metric.unit}
    return out


def run_workload(args: argparse.Namespace) -> int:
    """Run one workload (or only the probes) here; print the report and the result object."""
    from e2e_workloads import PASSES, Checker, make_inputs

    workload = args.workload
    work_dir = e2e_env.enter_work_dir()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    checker = Checker()
    record: Dict[str, object] = {
        "workload": workload or "probes", "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
    }
    passes = []
    values: Dict[str, float] = {}
    try:
        ctx = make_inputs(workload, args.seed, args.scale, args.seconds, work_dir)
        record["hashes"] = ctx.hashes
        record["op_counts"] = ctx.counts
        if workload and not args.trace:
            run_pass = PASSES[workload]
            count = 1 if args.scale == "smoke" else spec.PASSES
            passes = [run_pass(ctx, stats.Tracer(enabled=False), checker) for _ in range(count)]
            measured = end_to_end(ctx, passes)
            values = measured["values"]
            record["per_pass"] = measured["per_pass"]
            record["samples_per_pass"] = len(passes[0].latencies)
            record["info"] = dict(passes[0].info)
            tails = [_tail_ms(workload, args.scale, p.latencies) for p in passes]
            if None not in tails:
                record["info"]["latency_p99_ms"] = min(tails)
            throughputs = measured["per_pass"]["throughput_ops_s"]
            record["info"]["pass_spread"] = max(throughputs) / min(throughputs)
        elif workload:
            run_pass = PASSES[workload]
            untraced = run_pass(ctx, stats.Tracer(enabled=False), checker)
            tracer = stats.Tracer(enabled=True)
            traced = run_pass(ctx, tracer, checker)
            passes = [untraced, traced]
            values = per_layer(workload, ctx, untraced, traced, tracer, _cpu_seconds())
            record["self_seconds_by_span"] = stats.self_seconds_by_name(tracer.spans)
            record["info"] = traced.info
            if args.out:
                with open(os.path.join(args.out, f"spans-{workload}.json"), "w") as handle:
                    json.dump({
                        "columns": ["name", "start_ns", "end_ns", "parent", "op_id"],
                        "spans": tracer.spans,
                    }, handle)
        if args.trace and args.probes != "skip":
            from e2e_probes import run_probes

            values.update(run_probes(ctx))
        # Same seed, fresh system: every pass must give the same answers
        # and the same simulated time, split or not.
        if passes:
            checker.expect(
                len({p.digest for p in passes}) == 1 and len({p.sim_ms for p in passes}) == 1,
                f"{workload}: passes disagree on answers or simulated time",
            )
    finally:
        left_running = e2e_env.stop_child_processes()
        removed = e2e_env.leave_work_dir(work_dir)
    checker.expect(not left_running, f"{workload}: had to kill {left_running}")
    checker.expect(removed, f"{workload}: scratch directory not removed")

    correct = checker.failed == 0
    if args.trace:
        metrics = _with_units(values, spec.PER_LAYER)
    else:
        values["fail_ratio"] = checker.failed / checker.attempted
        metrics = _with_units(values, spec.END_TO_END)
    record.update({
        "correct": correct, "attempted": checker.attempted, "failed": checker.failed,
        "reasons": checker.reasons, "metrics": metrics,
    })
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(record, handle)
    if args.out and args.trace:
        with open(os.path.join(args.out, f"per_layer-{record['workload']}.json"), "w") as handle:
            json.dump(record, handle, indent=1)
    print_record(record)
    if workload:
        print(json.dumps({
            "correct": correct, "attempted": checker.attempted, "failed": checker.failed,
            "metrics": driver_metrics(metrics, args.trace),
        }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def print_record(record: Dict) -> None:
    """One workload's metrics by name and unit, with the per-pass range where known."""
    trace = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']}  seed {record['seed']}  {record['scale']}  {trace}")
    for name, digest in record.get("hashes", {}).items():
        print(f"   sha256 {name:<6} {digest}")
    per_pass = record.get("per_pass", {})
    for name, metric in record["metrics"].items():
        line = f"   {name:<36} {metric['value']:>16.6g} {metric['unit']}"
        samples = per_pass.get(name)
        if samples and len(samples) > 1:
            line += f"   per pass: {min(samples):.6g} .. {max(samples):.6g}"
        if name == "latency_p50_ms":
            line += f"   n={record['samples_per_pass']}/pass"
        print(line)
    for name, value in sorted(record.get("info", {}).items()):
        print(f"   ({name} = {value:.6g})")
    for name, seconds in sorted(record.get("self_seconds_by_span", {}).items()):
        print(f"   self time {name:<30} {seconds:.4f} s")
    print(f"   failed {record['failed']} of {record['attempted']} attempted")
    for reason in record["reasons"]:
        print(f"   FAILED: {reason}")


def print_set_summary(result_set: Dict) -> None:
    """Median and quartiles of every metric over the runs of a result set."""
    runs = result_set["runs"]
    print(f"== {len(runs)} runs: median [first quartile, third quartile] spread")
    for part in [*spec.WORKLOAD_NAMES, "probes"]:
        names: List[str] = []
        for run in runs:
            for name in run.get(part, {}).get("metrics", {}):
                if name not in names:
                    names.append(name)
        for name in names:
            samples = [
                run[part]["metrics"][name]["value"] for run in runs
                if name in run.get(part, {}).get("metrics", {})
            ]
            q1, median, q3 = stats.quartiles(samples)
            print(f"   {part:<13} {name:<36} {median:>14.6g} "
                  f"[{q1:.6g}, {q3:.6g}] {stats.spread(samples):.3f}")


def print_comparison(base_path: str, change_path: str) -> int:
    """``--compare``: one row per (end-to-end metric, workload)."""
    with open(base_path) as handle:
        base = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    rows, regressed = stats.compare(base, change)
    print(f"base   {base_path}  ({len(base['runs'])} runs)")
    print(f"change {change_path}  ({len(change['runs'])} runs)")
    print(f"{'workload':<13} {'metric':<18} {'base':>12} {'change':>12} "
          f"{'change/base':>11} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<13} {row['metric']:<18} {row['base']:>12.6g} "
              f"{row['change']:>12.6g} {row['ratio']:>11.4f} {row['bound']:>6.2f}  "
              f"{row['verdict']}  [{row['unit']}]")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
# All four workloads, each in a fresh interpreter
# ----------------------------------------------------------------------
def _host() -> Dict[str, object]:
    import numpy

    return {
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
    }


def run_all(args: argparse.Namespace) -> int:
    """Run every workload ``--repeat`` times and write the result set.

    A traced run makes one traced pass per workload and runs the isolated
    probes once, in a process of their own: they are the same experiment
    whatever the workload, so the set holds one value of each.
    """
    out = args.out or os.path.join(e2e_env.WORK_ROOT, "last")
    os.makedirs(out, exist_ok=True)
    result_set = {
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace, "host": _host(), "runs": [],
    }
    status = 0
    for repeat in range(args.repeat):
        run: Dict[str, Dict] = {}
        # Alternate the order so no workload always runs on a warm box.
        parts = spec.WORKLOAD_NAMES if repeat % 2 == 0 else spec.WORKLOAD_NAMES[::-1]
        for part in [*parts, "probes"] if args.trace else parts:
            detail = os.path.join(out, f"detail-{part}.json")
            command = [
                sys.executable, os.path.abspath(__file__),
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale,
                "--detail", detail, "--out", out,
            ]
            command += ["--probes", "only"] if part == "probes" else [
                "--workload", part, "--probes", "skip",
            ]
            finished = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = finished.stdout.rstrip("\n").split("\n")
            print("\n".join(lines if part == "probes" else lines[:-1]), flush=True)
            if finished.returncode != 0:
                status = 1
            if os.path.exists(detail):
                with open(detail) as handle:
                    run[part] = json.load(handle)
                os.remove(detail)
        result_set["runs"].append(run)
    path = os.path.join(out, "results.json")
    with open(path, "w") as handle:
        json.dump(result_set, handle, indent=1)
    if args.repeat > 1:
        print_set_summary(result_set)
    print(f"result set written to {path}")
    return status


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run this workload in this process (default: all four)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec.FULL_SECONDS),
                        help="seconds of timed work the op counts are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced pass + layer probes, per-layer metrics")
    parser.add_argument("--probes", choices=("run", "skip", "only"), default="run",
                        help="with --trace 1: run the layer probes after the traced pass, "
                             "skip them, or run only them")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=1, help="runs in the result set")
    parser.add_argument("--out", help="directory for the result set, spans and tables")
    parser.add_argument("--detail", help="also write this workload's full record here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two result sets and exit non-zero on a regression")
    args = parser.parse_args(argv)
    if args.probes == "only" and not args.trace:
        parser.error("--probes only needs --trace 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return print_comparison(*args.compare)
    if args.workload or args.probes == "only":
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the boundary: report the traceback, print no result
        traceback.print_exc()
        sys.exit(2)
