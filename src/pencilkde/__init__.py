"""Exact ratio-of-Gaussians densities and pencil-eigenvalue density estimation.

The package evaluates the distribution of a ratio of jointly Gaussian
variables in closed form, the parabolic evolution identity that distribution
satisfies in its variance parameter, and builds on both a kernel estimator
for the condensed density of noisy Hankel-pencil eigenvalues, with Gaussian
and exact-kernel variants, bandwidth rules, and a Monte Carlo harness.
"""

__version__ = "0.1.0"

from .multiexp import Dataset, SignalModel, generate, noiseless, select_n
from .pencil import RealPairs
from .ratio_density import EqualVarSpec
from .kde import DensityGrid, EigenSample, FitResult, Mode

# oracle types, resolved by importing .oracles on first use (PEP 562): no run loads it
_ORACLES = ("ExponentialFit", "HankelPencil", "SchurPairs", "GeneralGaussianSpec")


def __getattr__(name):
    if name in _ORACLES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "Dataset",
    "SignalModel",
    "generate",
    "noiseless",
    "select_n",
    "ExponentialFit",
    "HankelPencil",
    "RealPairs",
    "SchurPairs",
    "EqualVarSpec",
    "GeneralGaussianSpec",
    "DensityGrid",
    "EigenSample",
    "FitResult",
    "Mode",
]
