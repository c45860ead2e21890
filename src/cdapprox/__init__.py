"""Approximation of (possibly discontinuous) functions from graph moment matrices.

The pipeline: build or load the moment matrix of the measure carried by the
graph of a target function, form the regularized Christoffel-Darboux
polynomial q, and recover the function by partial minimization of q along the
output fiber.  Sublevel sets of q localize the graph at a quantified rate in
the degree, which the ``support`` and ``metrics`` modules check empirically.
"""

__version__ = "0.1.0"

from .approximant import Approximant, ApproxConfig, partial_argmin
from .basis import BasisSpec, Family, basis_size, enumerate_indices, eval_basis
from .benchmarks import BENCHMARKS, GraphFunction, get_benchmark
from .cdkernel import (
    CDKernel,
    FilterKind,
    ThresholdParams,
    beta_schedule,
    gamma_threshold,
    perturbation_alpha,
    sublevel_membership,
    threshold_params,
)
from .errors import BoundViolationError, IndefiniteMatrixError, MomentFileError
from .metrics import (
    bv_rate_bound,
    l1_error,
    legendre_projection,
    lipschitz_rate_bound,
    overshoot,
)
from .moments import (
    MomentMatrix,
    Provenance,
    analytic_moment_matrix,
    empirical_moment_matrix,
    load,
    load_json,
    load_text,
    quadrature_moment_matrix,
    reference_moment_matrix,
    save_json,
    save_text,
)
from .support import SupportReport, distance_bound, outside_mass_bound, support_report

__all__ = [
    "Approximant",
    "ApproxConfig",
    "BENCHMARKS",
    "BasisSpec",
    "BoundViolationError",
    "CDKernel",
    "Family",
    "FilterKind",
    "GraphFunction",
    "IndefiniteMatrixError",
    "MomentFileError",
    "MomentMatrix",
    "Provenance",
    "SupportReport",
    "ThresholdParams",
    "analytic_moment_matrix",
    "basis_size",
    "beta_schedule",
    "bv_rate_bound",
    "distance_bound",
    "empirical_moment_matrix",
    "enumerate_indices",
    "eval_basis",
    "gamma_threshold",
    "get_benchmark",
    "l1_error",
    "legendre_projection",
    "lipschitz_rate_bound",
    "load",
    "load_json",
    "load_text",
    "outside_mass_bound",
    "overshoot",
    "partial_argmin",
    "perturbation_alpha",
    "quadrature_moment_matrix",
    "reference_moment_matrix",
    "save_json",
    "save_text",
    "sublevel_membership",
    "support_report",
    "threshold_params",
]
