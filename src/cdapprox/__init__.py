"""Approximation of (possibly discontinuous) functions from graph moment matrices.

The pipeline: build or load the moment matrix of the measure carried by the
graph of a target function, form the regularized Christoffel-Darboux
polynomial q, and recover the function by partial minimization of q along the
output fiber.  Sublevel sets of q localize the graph at a quantified rate in
the degree, which the ``support`` and ``metrics`` modules check empirically.
"""

__version__ = "0.1.0"

from .approximant import Approximant, ApproxConfig
from .benchmarks import BENCHMARKS, get_benchmark
from .cdkernel import (
    CDKernel,
    beta_schedule,
    gamma_threshold,
    perturbation_alpha,
    threshold_params,
)
from .errors import BoundViolationError, IndefiniteMatrixError, MomentFileError
from .metrics import bv_rate_bound, l1_error, lipschitz_rate_bound, overshoot
from .moments import MomentMatrix, load, save_text
from .support import distance_bound, outside_mass_bound, support_report

__all__ = [
    "Approximant",
    "ApproxConfig",
    "BENCHMARKS",
    "BoundViolationError",
    "CDKernel",
    "IndefiniteMatrixError",
    "MomentFileError",
    "MomentMatrix",
    "beta_schedule",
    "bv_rate_bound",
    "distance_bound",
    "gamma_threshold",
    "get_benchmark",
    "l1_error",
    "lipschitz_rate_bound",
    "load",
    "outside_mass_bound",
    "overshoot",
    "perturbation_alpha",
    "save_text",
    "support_report",
    "threshold_params",
]
