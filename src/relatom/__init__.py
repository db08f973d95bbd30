"""relatom: Thomas-Fermi atoms, the relativistic dispersion
sqrt(p^2 + alpha^-2) - alpha^-1, modified-Bessel localisation machinery,
and the assembled o(alpha^{-4/3}) error budget behind the large-Z energy
asymptotics -C_TF(lambda) Z^{7/3} of pseudo-relativistic atoms.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetViolation,
    DivergentIntegral,
    DomainError,
    NonConvergence,
    PreconditionFailure,
    RelatomError,
    ShootingFailure,
    StepFailure,
    ToleranceFailure,
)
from .kinetic import Dispersion
from .numerics import QuadratureSpec, RadialFunction
from .thomas_fermi import TFParams, TFSolution, solve, tf_energy

__all__ = [
    "__version__",
    "BudgetViolation",
    "DivergentIntegral",
    "Dispersion",
    "DomainError",
    "NonConvergence",
    "PreconditionFailure",
    "QuadratureSpec",
    "RadialFunction",
    "RelatomError",
    "ShootingFailure",
    "StepFailure",
    "TFParams",
    "TFSolution",
    "ToleranceFailure",
    "solve",
    "tf_energy",
]
