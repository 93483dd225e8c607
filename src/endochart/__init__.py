"""Integrability analysis of endomorphism fields on R^d.

Decides whether a field of (nilpotent, or nilpotent-plus-real-scalar)
endomorphisms admits local coordinates in which its matrix is constant, and
when it does, constructs that coordinate chart by flow transport and
verifies the resulting constant Jordan matrix.  The modules hold the rest
of the API (README, "Library").
"""

from .charts import PipelineSettings, jordanize
from .expr import Box
from .flows import integrate_flow   # bench/tracer.py wraps this binding too
from .structure import theorem13_report

__version__ = "0.1.0"

__all__ = ["Box", "PipelineSettings", "integrate_flow", "jordanize",
           "theorem13_report", "__version__"]
