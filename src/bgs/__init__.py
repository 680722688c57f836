"""Finite-element solver for buoyancy-coupled incompressible flow.

P2/P1 Taylor-Hood velocity and head with P1 temperature on triangulated
rectangles, rotational-form advection, temperature-dependent viscosity
and conductivity, and a verification toolkit (operator audits, decay
checks, manufactured-solution convergence, refinement differences, and
a two-trajectory contraction study).
"""

from .coefficients import (CoefficientModel, ScalarLaw,
                           audit_bounds_and_lipschitz, clamped_affine_law,
                           constant_law, constant_model, eval_conductivity,
                           eval_viscosity, tanh_blend_law)
from .forms import (FieldVector, FunctionSpaces, build_spaces,
                    interpolate_scalar, interpolate_velocity, zeros_field)
from .mesh import (GAMMA1, GAMMA2, SIDES, Mesh, build_rectangle_mesh,
                   check_mesh, refine_uniform, triangle_areas)
from .oracles import (CauchyReport, ContractionReport, FormsAuditReport,
                      StudyReport, cauchy_study, check_forms,
                      contraction_study, convergence_study, exact_head,
                      exact_temperature, exact_velocity, make_mms_problem)
from .solver import (Diagnostics, DivergenceError, ProblemData, SolverConfig,
                     SolverError, State, compute_diagnostics,
                     estimate_constants, initialize_state, run, step,
                     steps)

__version__ = "0.1.0"

__all__ = [
    "CauchyReport", "CoefficientModel", "ContractionReport", "Diagnostics",
    "DivergenceError", "FieldVector", "FormsAuditReport", "FunctionSpaces",
    "GAMMA1", "GAMMA2", "Mesh", "ProblemData", "ScalarLaw", "SolverConfig",
    "SolverError", "State", "StudyReport", "SIDES",
    "audit_bounds_and_lipschitz", "build_rectangle_mesh", "build_spaces",
    "cauchy_study", "check_forms", "check_mesh", "clamped_affine_law",
    "compute_diagnostics", "constant_law", "constant_model",
    "contraction_study", "convergence_study", "estimate_constants",
    "eval_conductivity", "eval_viscosity", "exact_head", "exact_temperature",
    "exact_velocity",
    "initialize_state", "interpolate_scalar", "interpolate_velocity",
    "make_mms_problem", "refine_uniform", "run", "step", "steps",
    "tanh_blend_law",
    "triangle_areas", "zeros_field",
]
