"""The scaled cost model under its old import path.

The paper's evaluation moved to :mod:`repro.paper`; this name stays
because callers outside the package import it from here.
"""

from repro.pim.cost_model import scaled_cost_model

__all__ = ["scaled_cost_model"]
