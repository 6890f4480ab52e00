"""The geometric interface the descent loops consume: :class:`Manifold`.

A manifold implements what one iteration asks for, and a diagnostic
distance: :meth:`~Manifold.egrad_to_rgrad`, the exponential with its
transport (:meth:`~Manifold.exp_transport`), the metric
(:meth:`~Manifold.inner`) and :meth:`~Manifold.distance_from`; on an
incomplete manifold also :meth:`~Manifold.max_step` and its screen
:meth:`~Manifold.max_step_lower_bound`.  The other methods derive from
these.  Implementations are stateless and all operations are pure, so one
instance can serve any number of concurrent runs.

Tangent vectors are plain ``numpy`` arrays except on Bures-Wasserstein
(``BWTangent``).  The optimizers only scale tangents by a scalar, and only
the default :meth:`Manifold.grad_diff_norm_sq` subtracts them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod


class Manifold(ABC):
    """Geometric operations shared by all manifolds in this package.

    The class attributes ``rgrad_ops``, ``exp_ops`` and
    ``adapt_extra_ops`` are price tags (matrix-vector products on the
    sphere, matrix-matrix products on SPD matrices) that a run's
    ``expensive_ops`` charges per gradient conversion, per exponential and
    per adaptive step-size evaluation.
    """

    rgrad_ops = 0
    exp_ops = 0
    adapt_extra_ops = 0

    def check_point(self, x):
        """Raise ValueError unless x is a point of the manifold.

        The one check on a point from outside: a run asks it of its
        starting point and, when it fills the distance column, of the
        optimum; ``distance`` asks it of both its points.  The iterates a
        run produces are not checked.  The base class accepts anything."""

    @abstractmethod
    def egrad_to_rgrad(self, x, g):
        """Riemannian gradient at x from the ambient (Euclidean) gradient g."""

    @abstractmethod
    def exp_transport(self, x, v):
        """The exponential at x along v and the transport along that step.

        Returns ``(y, clamped, transport)``: ``y = exp(x, v)``, whether a
        numerical guard fired on the way, and ``transport(w)``, the parallel
        transport of w from x to y along t -> exp(x, t v).  This is the one
        exponential a manifold implements; the transport may reuse the
        exponential's work.
        """

    def exp(self, x, v):
        """Point reached after unit time along the geodesic from x with velocity v."""
        return self.exp_transport(x, v)[0]

    def transport_along_step(self, x, v, w):
        """Parallel transport of w from x to exp(x, v) along t -> exp(x, t v);
        raises what ``exp(x, v)`` raises."""
        return self.exp_transport(x, v)[2](w)

    @abstractmethod
    def inner(self, x, u, v):
        """Riemannian inner product of tangents u, v at x."""

    def norm(self, x, v):
        """Riemannian norm of v at x.  A negative ``inner(x, v, v)`` reads 0;
        only rounding makes one here, as it is a sum of squares, or for a
        Bures-Wasserstein gradient ``4 tr(G X G) >= 0`` at an SPD X."""
        return math.sqrt(max(self.inner(x, v, v), 0.0))

    @abstractmethod
    def distance_from(self, y):
        """Callable mapping a sequence of points ``xs`` to the list of their
        geodesic distances to ``y`` (diagnostics only).  This is the one
        distance a manifold implements; the fixed point's own work is done
        once per call, and the callable may batch the points'.  Neither
        ``y`` nor the points are checked: its caller in a run has checked
        ``y``, and a check per point would cost one per row."""

    def distance(self, x, y):
        """Geodesic distance from x to y: ``distance_from(x)([y])[0]``, once
        ``check_point`` has accepted both points (it raises ValueError for
        a point off the manifold, a NaN point included)."""
        self.check_point(x)
        self.check_point(y)
        return self.distance_from(x)([y])[0]

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

        ``transported`` is the previous gradient carried to x by the
        transport along the step (``exp_transport``'s) and ``prev_norm_sq``
        its squared norm at the previous base point (equal to the squared
        norm of ``transported`` at x, transport being an isometry).  The default
        forms the difference directly; metrics whose inner product is
        expensive override this with the isometry-based expansion.
        """
        d = g_new - transported
        return max(self.inner(x, d, d), 0.0)
