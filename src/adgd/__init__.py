"""Adaptive gradient descent on manifolds with nonnegative curvature.

A numpy library providing: a growth-capped, transport-based adaptive
step-size rule for Riemannian gradient descent (plus line-search and
fixed-step baselines); closed-form geometry for the unit sphere, SPD
matrices under the Bures-Wasserstein metric, the positive orthant and
flat R^n, the orthant's twin; from-scratch dense symmetric linear algebra
(Jacobi eigensolver, Lyapunov solve, SPD square root); four benchmark
objectives; and a CSV benchmark harness (``adgd-bench``).
"""

import os

# BLAS at one thread, set before numpy loads: threaded matrix products move
# low bits (at n >= 81 with OpenBLAS), and identical invocations should
# write identical bytes.  A thread count already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from . import diagnostics, linalg, problems, trace_io
from .errors import ConvergenceError, DomainError
from .manifolds import BuresWasserstein, BWTangent, Euclidean, Manifold, PositiveOrthant, Sphere
from .optimizers import (
    RunConfig,
    Trace,
    TraceRow,
    adgd_run,
    armijo_run,
    fixed_run,
)

__version__ = "0.1.0"

__all__ = [
    "adgd_run",
    "armijo_run",
    "fixed_run",
    "RunConfig",
    "Trace",
    "TraceRow",
    "Manifold",
    "Sphere",
    "BuresWasserstein",
    "BWTangent",
    "PositiveOrthant",
    "Euclidean",
    "DomainError",
    "ConvergenceError",
    "linalg",
    "problems",
    "diagnostics",
    "trace_io",
]
