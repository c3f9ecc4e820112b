"""Process environment of the benchmark: import path, scratch directory, child processes.

The benchmark builds nothing; it imports ``repro`` from the checkout's
``src/`` and fails (non-zero, no result) where that is absent.  All files
it writes live under ``.e2e_work/`` at the checkout root, including what
``tempfile`` hands to the program (shared-memory guard ledgers).  Every
process of the benchmark ends its children before it exits.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
WORK_ROOT = os.path.join(REPO_ROOT, ".e2e_work")


def add_source_path() -> None:
    """Make ``repro`` importable from the checkout's ``src/``."""
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"e2e benchmark: no program to measure under {src}")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def enter_work_dir() -> str:
    """Create this process's scratch directory and point ``tempfile`` at it."""
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = None
    return work


def leave_work_dir(work: str) -> bool:
    """Remove the scratch directory; True when nothing is left behind."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only succeeds once the last run is gone
    except OSError:
        pass
    return not os.path.exists(work)


def _live_children() -> Dict[int, str]:
    """Pid and command line of every direct child of this process, from ``/proc``."""
    me = os.getpid()
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ...": comm may itself hold ") ".
                state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline") as handle:
                command = handle.read().replace("\0", " ").strip()
        except OSError:  # gone between listdir and open
            continue
        if int(parent) != me:
            continue
        if state == "Z":  # ended, never waited for: reap it
            try:
                os.waitpid(int(entry), os.WNOHANG)
            except ChildProcessError:
                pass
            continue
        out[int(entry)] = command
    return out


def stop_child_processes(grace: float = 10.0) -> List[str]:
    """End every child process and wait for it; the commands that had to be killed.

    Each process of the benchmark calls this on its way out, so none
    leaves a descendant behind.  The one child the program starts and
    never stops itself is ``multiprocessing``'s resource tracker (the
    worker pool creates shared memory): it ends when its pipe closes,
    which otherwise happens only as the parent exits, and then outlives
    the parent by a moment.  It is closed and waited for here.  Whatever
    else is still alive gets ``grace`` seconds to end on its own; a
    process that needs killing is reported, and the run counts it as a
    failed postcondition.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    stop_tracker = getattr(getattr(module, "_resource_tracker", None), "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes the pipe and waits; does nothing if none runs
    deadline = time.monotonic() + grace
    children = _live_children()
    while children and time.monotonic() < deadline:
        time.sleep(0.02)
        children = _live_children()
    for pid in children:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return sorted(children.values())
