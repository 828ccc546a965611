"""Variational integrator toolkit for fractional optimal control.

Discrete one-sided fractional difference operators, stepwise solvers for
the induced Cauchy problems, a forward-backward sweep for the shifted
discrete Pontryagin system, the matrix summation identity behind its
conserved quantities, and closed-form references for convergence studies.
"""

from .frac_cauchy import (CauchyRhs, ContractionError, FixedPointDivergenceError,
                          FixedPointOpts, NonFiniteError, SingularNodeError,
                          solve_left_cauchy, solve_right_cauchy)
from .gl_ops import (FracCoeffs, FracOrder, Grid, TimeSeq, delta_minus,
                     delta_plus, dfibp_residual, gl_coefficients, shift)
from .noether import (OneParamGroup, conserved_quantity, dense_matrix,
                      group_axiom_defect, invariance_residual, matrix_entry,
                      transfer_residual)
from .pontryagin import (ControlUpdateError, OcpProblem, PontryaginSolution,
                         SweepDivergenceError, SweepOpts, adjoint_solve, cost,
                         euler_lagrange_residual, gateaux_derivative,
                         solve_pontryagin, state_solve, stationarity_residual)
from .problems import EXAMPLES, build_example, rotation_groups
from .reference import (ConvergenceReport, DegenerateDataError,
                        convergence_order, lq_exact_control,
                        max_control_error, mittag_leffler,
                        solved_example_exact_control)

__version__ = "0.1.0"

__all__ = [
    "CauchyRhs", "ContractionError", "ControlUpdateError", "ConvergenceReport",
    "DegenerateDataError", "EXAMPLES", "FixedPointDivergenceError",
    "FixedPointOpts", "FracCoeffs", "FracOrder", "Grid", "NonFiniteError",
    "OcpProblem", "OneParamGroup", "PontryaginSolution", "SingularNodeError",
    "SweepDivergenceError", "SweepOpts",
    "TimeSeq", "adjoint_solve", "build_example", "conserved_quantity",
    "convergence_order", "cost", "delta_minus", "delta_plus", "dense_matrix",
    "dfibp_residual", "euler_lagrange_residual", "gateaux_derivative",
    "gl_coefficients", "group_axiom_defect", "invariance_residual",
    "lq_exact_control", "matrix_entry", "max_control_error", "mittag_leffler",
    "rotation_groups", "shift", "solve_left_cauchy", "solve_pontryagin",
    "solve_right_cauchy", "solved_example_exact_control", "state_solve",
    "stationarity_residual", "transfer_residual",
]
