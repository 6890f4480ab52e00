"""Unit sphere S^{n-1} embedded in R^n.

Points are unit-norm vectors, tangents at x are vectors orthogonal to x,
and the metric is the ambient Euclidean inner product.  The manifold is
geodesically complete with constant positive curvature.  Norms are
written ``math.sqrt(v.dot(v))``: for a 1-D float vector that is exactly what
``np.linalg.norm`` computes, without its dispatch overhead.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Manifold

# Below this, ||v|| is treated as zero: the closed forms for exp and
# transport are 0/0 at v = 0 only in their written form.
_TINY = 1e-12


class Sphere(Manifold):
    rgrad_ops = 1  # tangent projection, one matrix-vector product

    def egrad_to_rgrad(self, x, g):
        """Project g onto the tangent space: g - <x, g> x."""
        return g - x.dot(g) * x

    def exp(self, x, v):
        nv = math.sqrt(v.dot(v))
        if nv < _TINY:
            return x
        y = math.cos(nv) * x + (math.sin(nv) / nv) * v
        return y / math.sqrt(y.dot(y))

    def transport_along_step(self, x, v, w):
        """Transport w along the great circle t -> exp(x, t v).

        The component of w along the geodesic direction u = v/||v|| rotates
        with the circle (u -> -sin(||v||) x + cos(||v||) u); the component
        orthogonal to the plane span(x, u) is unchanged.
        """
        nv = math.sqrt(v.dot(v))
        if nv < _TINY:
            return w
        u = v / nv
        a = float(w.dot(u))
        w_perp = w - a * u
        return a * (-math.sin(nv) * x + math.cos(nv) * u) + w_perp

    def inner(self, x, u, v):
        return float(u.dot(v))

    def distance(self, x, y):
        # acos loses sqrt(eps) accuracy at coincident points; equal inputs
        # short-circuit so d(x, x) is exactly zero.
        if x is y or np.array_equal(x, y):
            return 0.0
        c = float(x.dot(y))
        return math.acos(min(1.0, max(-1.0, c)))
