"""Integrability analysis of endomorphism fields on R^d.

Decides whether a field of (nilpotent, or nilpotent-plus-real-scalar)
endomorphisms admits local coordinates in which its matrix is constant, and
when it does, constructs that coordinate chart by flow transport and
verifies the resulting constant Jordan matrix.
"""

from .charts import (AdaptedChart, ChartMap, PipelineSettings, Section,
                     build_chart, compare_charts, hk_residuals,
                     induction_step, initial_frame, jordan_matrix, jordanize,
                     validate_adapted_chart, verify_integral_chart)
from .expr import Box, ScalarExpr, differentiate, evaluate, is_zero_on_box
from .fieldfile import FieldDocument, load_field_document
from .fields import (EndoField, VectorField, apply_endo, endo_power,
                     lie_bracket, nijenhuis, nprime, prop22_residual,
                     torsion_S)
from .flows import (ComputedVectorField, FlowSpec, IntegratorSettings,
                    integrate_flow, numeric_bracket)
from .grammar import parse_expr
from .structure import (Distribution, StructureProfile, constancy_check,
                        corollary15_report, image_frame, invariant_factors,
                        involutivity_residual, kernel_frame, rank_profile,
                        sum_distribution, theorem13_report)

__version__ = "0.1.0"

__all__ = [
    "AdaptedChart", "Box", "ChartMap", "ComputedVectorField", "Distribution",
    "EndoField", "FieldDocument", "FlowSpec", "IntegratorSettings",
    "PipelineSettings", "ScalarExpr", "Section", "StructureProfile",
    "VectorField", "apply_endo", "build_chart", "compare_charts",
    "constancy_check", "corollary15_report", "differentiate", "endo_power",
    "evaluate", "hk_residuals", "image_frame",
    "induction_step", "initial_frame", "integrate_flow", "invariant_factors",
    "involutivity_residual", "is_zero_on_box", "jordan_matrix", "jordanize",
    "kernel_frame", "lie_bracket", "load_field_document", "nijenhuis",
    "nprime", "numeric_bracket", "parse_expr", "prop22_residual",
    "rank_profile", "sum_distribution", "theorem13_report",
    "torsion_S", "validate_adapted_chart", "verify_integral_chart",
    "__version__",
]
