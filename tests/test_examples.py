"""Every script under ``examples/`` runs to completion.

The examples are the documented way into the public API, so a removed
parameter or a renamed name breaks them first.  Each runs in a fresh
interpreter with ``src`` on the path, the way their docstrings say to
run them; together they take a few seconds.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
