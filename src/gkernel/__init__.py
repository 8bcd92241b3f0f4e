"""Numerical toolkit for long-horizon deflator analysis under
volatility uncertainty.

The package covers the full workflow: sublinear expectation primitives
over covariance ambiguity sets (:mod:`gkernel.gcore`), model assembly
and regularity diagnostics (:mod:`gkernel.model`), worst-case valuation
PDEs with a vanishing-damping long-run solver (:mod:`gkernel.pde`),
scenario simulation (:mod:`gkernel.sim`), the pathwise factorization of
the deflator with its verification suite (:mod:`gkernel.decomp`), and a
JSON-configured command line (:mod:`gkernel.cli`).

Each module's ``__all__`` is its public API, and the package re-exports
all of them: ``__all__`` here is their concatenation.
"""

from . import coefficients, config, decomp, errors, gcore, io, model, pde, sim
from .coefficients import *
from .config import *
from .decomp import *
from .errors import *
from .gcore import *
from .io import *
from .model import *
from .pde import *
from .sim import *

__version__ = "0.1.0"

__all__ = [name for module in (coefficients, config, decomp, errors, gcore, io, model, pde, sim)
           for name in module.__all__]
