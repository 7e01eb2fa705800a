"""Classical and randomised trapezoidal quadrature for rough integrands.

The randomised rule evaluates each cell at a uniform random offset and its
reflection about the midpoint.  It is an unbiased estimator of the integral
and, for integrands of fractional Sobolev regularity, converges half an
order faster than the classical rule.  This package ships the two rules,
seeded random sources (offset sequences and Brownian paths with bridge
refinement), the integrand corpus used in the convergence experiments, and
drivers that fit empirical convergence orders.

The package namespace holds what the two drivers and the quick start need;
everything else is imported from its submodule (``randquad.quadrature``,
``randquad.random_sources``, ``randquad.integrands``,
``randquad.experiments``, ``randquad.summation``).
"""

from .experiments import DEFAULT_SEED, mc_lp_error, run_example1, run_example2
from .integrands import power_integrand
from .quadrature import ctq, make_partition, rtq
from .random_sources import RngStream, sample_tau_sequence

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "RngStream",
    "ctq",
    "make_partition",
    "mc_lp_error",
    "power_integrand",
    "rtq",
    "run_example1",
    "run_example2",
    "sample_tau_sequence",
]
