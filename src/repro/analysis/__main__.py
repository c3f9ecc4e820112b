"""``python -m repro.analysis`` — the project-invariant lint CLI.

Runs REP001 — REP008 over ``src/`` (or explicit paths), applies the
inline ``# repro: noqa REP00x — why`` suppressions and the baseline
file, and exits nonzero on any non-baselined finding — the contract the
``analysis`` CI job gates on.

Usage::

    python -m repro.analysis                      # lint src/
    python -m repro.analysis src tests            # explicit paths
    python -m repro.analysis --format json        # machine-readable
    python -m repro.analysis --update-baseline    # accept current findings
    python -m repro.analysis --list-rules         # what gets checked
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.lint import Baseline, LintRunner
from repro.analysis.rules import all_rules

#: Default baseline location, resolved against the working directory —
#: the repo root in CI and developer checkouts.
DEFAULT_BASELINE = "analysis-baseline.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-invariant static analysis (REP001-REP008).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to lint (default: src/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file (report everything)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline from current findings (existing "
            "justifications are preserved) and exit 0"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id + title and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}")
            print(f"        hint: {rule.hint}")
        return 0

    paths = args.paths or ["src"]
    for path in paths:
        if not os.path.exists(path):
            print(f"error: no such path {path!r}", file=sys.stderr)
            return 2

    runner = LintRunner()
    baseline = (
        Baseline()
        if args.no_baseline
        else Baseline.load(args.baseline)
    )
    report = runner.run(paths, baseline)

    if args.update_baseline:
        merged = Baseline.from_findings(
            report.findings + report.baselined, baseline
        )
        merged.save(args.baseline)
        print(
            f"baseline updated: {len(merged.entries)} entries -> "
            f"{args.baseline}"
        )
        return 0

    if args.format == "json":
        print(
            json.dumps(
                {
                    "files_checked": report.files_checked,
                    "findings": [f.to_json() for f in report.findings],
                    "baselined": [f.to_json() for f in report.baselined],
                },
                indent=2,
            )
        )
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"{report.files_checked} files checked: "
            f"{len(report.findings)} finding(s), "
            f"{len(report.baselined)} baselined"
        )
        print(("FAIL " if report.findings else "OK ") + summary)
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
