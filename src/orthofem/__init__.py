"""Finite elements for variational problems with orthotropic growth.

The pieces fit together as: ``nfunc`` describes the per-coordinate
growth, ``mesh``/``fespace`` provide structured meshes and P1/Q1
spaces, ``solver`` runs the damped Newton flow with V-cycle
preconditioned CG, ``interp`` holds the orthotropically stable
interpolation and projection operators, ``analysis`` measures errors
and convergence rates, and ``cli`` drives refinement studies against
the published reference tables.
"""

from .analysis import (ConvergenceTable, ErrorReport, ManufacturedSolution,
                       eoc, error_norms)
from .fespace import FeFunction, FeSpace, interpolate_nodal, quadrature_rule
from .interp import AveragedInterpolant, DualBasisProjector, build_dual_table, transfer
from .linalg import CgConfig, CsrMatrix, cg_solve
from .mesh import build_quad, build_tri, element_patch, refine_kuhn_half
from .nfunc import GrowthLaw, PowerNFunction, conjugate_exponent
from .solver import (FlowConfig, ProblemSpec, SolveReport, assemble_stiffness,
                     assemble_weighted_stiffness, energy, galerkin_residual, solve)

__version__ = "0.1.0"

__all__ = [
    "AveragedInterpolant", "CgConfig", "ConvergenceTable", "CsrMatrix",
    "DualBasisProjector", "ErrorReport", "FeFunction", "FeSpace", "FlowConfig",
    "GrowthLaw", "ManufacturedSolution", "PowerNFunction", "ProblemSpec",
    "SolveReport", "assemble_stiffness", "assemble_weighted_stiffness",
    "build_dual_table", "build_quad", "build_tri", "cg_solve",
    "conjugate_exponent", "element_patch", "energy", "eoc", "error_norms",
    "galerkin_residual", "interpolate_nodal", "quadrature_rule",
    "refine_kuhn_half", "solve", "transfer",
]
