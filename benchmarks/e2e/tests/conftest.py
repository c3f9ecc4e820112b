"""Make the harness modules importable for the tests beside them."""

from __future__ import annotations

import os
import sys

_E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

import e2e_env  # noqa: E402

e2e_env.add_source_path()
