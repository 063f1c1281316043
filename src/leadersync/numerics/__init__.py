"""Dense numerics: eigensolvers, matrix exponential, Lyapunov and Riccati."""

from . import config
from .linalg import (CareSolution, SymmetricSpectrum, check_stabilizable,
                     eigenvalues, expm, kron, singular_values, solve_care,
                     solve_lyapunov, spectral_norm, sym_eig_extremes)

__all__ = [
    "CareSolution",
    "SymmetricSpectrum",
    "check_stabilizable",
    "config",
    "eigenvalues",
    "expm",
    "kron",
    "singular_values",
    "solve_care",
    "solve_lyapunov",
    "spectral_norm",
    "sym_eig_extremes",
]
