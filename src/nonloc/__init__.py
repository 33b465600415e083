"""Inequality-free tests of genuine multipartite quantum nonlocality.

The package builds joint measurement statistics for n-qubit states, checks
the Hardy-type pass/fail conditions and the two derived Bell-type
inequalities, solves the conditions in closed form for permutation-symmetric
states, certifies genuine nonlocality against the bilocal non-signaling
polytope by linear programming (n = 3), and searches numerically for passing
settings on arbitrary states.
"""

__version__ = "0.1.0"

from .errors import (DegenerateSettings, DegenerateX, DimensionMismatch, NonlocError,
                     NotEntangled, NumericalFailure, OptimizerDidNotConverge,
                     SignalingDistribution, SingularDenominator)
from .hardy import (HardyReport, HardySubspace, condition_cells,
                    construct_hardy_state, hardy_conditions, inequality1,
                    inequality2, mixed_state_check)
from .measure import (JointDistribution, MeasurementSettings, Ray,
                      amplitude_table, born_distribution, ns_residual)
from .polytope import (LPOutcome, ModelVertexSet, bilocal_ns_vertices, classify,
                       deterministic_local_vertices, lp_membership,
                       ns_bipartite_vertices)
from .qstate import (DensityMatrix, PureState, SymmetricState, closest_product_state,
                     dicke_expand, genuine_entanglement_check, haar_random_pure,
                     to_magic_basis)
from .search import (ExperimentRecord, ExperimentSummary, NoSettingsFound,
                     SearchConfig, find_settings, random_experiment)
from .symmetric import (SymmetricSolution, ghz_closed_form, phase_pick, solve_auto,
                        solve_settings, w_closed_form)

__all__ = [
    "__version__",
    "NonlocError", "DimensionMismatch", "SignalingDistribution",
    "OptimizerDidNotConverge", "DegenerateSettings", "DegenerateX",
    "SingularDenominator", "NotEntangled", "NumericalFailure",
    "PureState", "DensityMatrix", "SymmetricState",
    "dicke_expand", "closest_product_state", "to_magic_basis",
    "haar_random_pure", "genuine_entanglement_check",
    "Ray", "MeasurementSettings", "JointDistribution", "amplitude_table",
    "born_distribution", "ns_residual",
    "HardyReport", "HardySubspace", "condition_cells", "hardy_conditions",
    "inequality1", "inequality2", "construct_hardy_state", "mixed_state_check",
    "SymmetricSolution", "phase_pick", "solve_settings",
    "solve_auto", "ghz_closed_form", "w_closed_form",
    "ModelVertexSet", "LPOutcome", "ns_bipartite_vertices",
    "deterministic_local_vertices", "bilocal_ns_vertices", "lp_membership",
    "classify",
    "SearchConfig", "NoSettingsFound", "ExperimentRecord", "ExperimentSummary",
    "find_settings", "random_experiment",
]
