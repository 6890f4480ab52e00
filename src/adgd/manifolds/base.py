"""Uniform geometric interface consumed by the descent loops.

A manifold object holds what one iteration of the methods asks for and
nothing else: the Riemannian gradient from the Euclidean one, the
exponential map, transport along the step (the derivative of the
exponential), and the metric; plus the supremum of admissible step
lengths on incomplete manifolds with a cheap yes/no certificate that a
step lies below it, and distances for diagnostics.
Implementations are stateless and all operations are pure, so one
instance can serve any number of concurrent runs.

Tangent vectors are plain ``numpy`` arrays except on Bures-Wasserstein,
where a gradient also carries its Lyapunov factor and the base point it
was computed at, and using that factor at another point raises.  The
optimizers only scale tangents by a scalar, and only the default
:meth:`Manifold.grad_diff_norm_sq` subtracts them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod


class Manifold(ABC):
    """Geometric operations shared by all manifolds in this package.

    Class attributes
    ----------------
    rgrad_ops, exp_ops, adapt_extra_ops : int
        Expensive-operation price tags (matrix-vector products on the
        sphere, matrix-matrix products on SPD matrices) charged per
        gradient conversion, per exponential-map call, and per adaptive
        step-size evaluation.  Used only for benchmark accounting.
    """

    rgrad_ops = 0
    exp_ops = 0
    adapt_extra_ops = 0

    def check_point(self, x):
        """Raise ValueError unless x is a point of the manifold; the
        descent loop (``optimizers._drive``) asks it once, of the starting
        point.  The base class accepts anything."""

    @abstractmethod
    def egrad_to_rgrad(self, x, g):
        """Riemannian gradient at x from the ambient (Euclidean) gradient g."""

    @abstractmethod
    def exp(self, x, v):
        """Point reached after unit time along the geodesic from x with velocity v."""

    def exp_flagged(self, x, v):
        """exp plus a flag telling whether a numerical guard was applied."""
        return self.exp(x, v), False

    @abstractmethod
    def transport_along_step(self, x, v, w):
        """Parallel transport of w from x to exp(x, v) along t -> exp(x, t v)."""

    @abstractmethod
    def inner(self, x, u, v):
        """Riemannian inner product of tangents u, v at x."""

    def norm(self, x, v):
        return math.sqrt(max(self.inner(x, v, v), 0.0))

    @abstractmethod
    def distance(self, x, y):
        """Geodesic distance (diagnostics only)."""

    def distance_from(self, y):
        """Callable mapping a sequence of points ``xs`` to the list of
        ``distance(x, y)``; metrics that batch the work override this."""
        return lambda xs: [self.distance(x, y) for x in xs]

    def max_step(self, x, v):
        """Supremum of t such that exp(x, t v) is defined; inf when complete."""
        return math.inf

    def max_step_lower_bound(self, x, v, t):
        """Whether t is a certified lower bound of ``max_step(x, v)``.

        A cheap yes/no screen: True only when ``t <= max_step(x, v)``.
        Step clamping asks it first and computes the exact supremum only
        when it answers False; manifolds whose max_step is expensive
        override it with a certificate that may also answer False near
        the boundary.
        """
        return t <= self.max_step(x, v)

    def grad_diff_norm_sq(self, x, g_new, transported, prev_norm_sq):
        """Squared norm at x of ``g_new - transported``.

        ``transported`` is the previous gradient carried to x by
        ``transport_along_step`` and ``prev_norm_sq`` its squared norm at
        the previous base point (equal to the squared norm of
        ``transported`` at x, transport being an isometry).  The default
        forms the difference directly; metrics whose inner product is
        expensive override this with the isometry-based expansion.
        """
        d = g_new - transported
        return max(self.inner(x, d, d), 0.0)
