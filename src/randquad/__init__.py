"""Classical and randomised trapezoidal quadrature for rough integrands.

The randomised rule evaluates each cell at a uniform random offset and its
reflection about the midpoint.  It is an unbiased estimator of the integral.
On t**gamma its L^p order is min(gamma + 1, 2.5) against the classical
rule's min(gamma + 1, 2): it gains nothing at or below gamma = 1, gamma - 1
between 1 and 1.5, and half an order from 1.5 on; on the Brownian target the
two rules differ by a constant factor.  This package ships the two rules,
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
