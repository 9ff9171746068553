"""Desk-scale numerical verification of gradient-flow Hamilton-Jacobi machinery.

The package bundles concrete metric spaces with exact EVI gradient flows,
the Tataru distance and its smoothed/discretized approximations, the full
ladder of Hamiltonian (f, g) pairs built on top of them, and a semi-Lagrangian
solver for the associated resolvent equation together with viscosity
sub/supersolution and comparison-principle checks.
"""

__version__ = "0.1.0"

from .spaces import (
    ModelSpace,
    Potential,
    double_well_potential,
    euclidean_space,
    make_potential,
    quadratic_potential,
    quantile_space,
    quartic_potential,
)
from .tataru import TataruResult, psi_eps, psi_eps_prime, tataru_batch

__all__ = [
    "ModelSpace",
    "Potential",
    "TataruResult",
    "__version__",
    "double_well_potential",
    "euclidean_space",
    "make_potential",
    "psi_eps",
    "psi_eps_prime",
    "quadratic_potential",
    "quantile_space",
    "quartic_potential",
    "tataru_batch",
]
