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

from ..errors import DomainError
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
        """Raises ``DomainError`` when ``||v||`` overflows; a NaN norm gives a
        NaN point, which the descent loop's finiteness check reports."""
        nv = math.sqrt(v.dot(v))
        if nv < _TINY:
            return x
        if nv == math.inf:
            raise DomainError(f"sphere step norm overflowed (||v|| = {nv})")
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
        return self.distance_from(y)([x])[0]

    def distance_from(self, y):
        def distances(xs):
            if len(xs) == 0:
                return []
            # acos loses sqrt(eps) accuracy at coincident points; equal inputs
            # short-circuit so d(x, x) is exactly zero.  One comparison of the
            # stacked points, with np.array_equal's semantics (NaN is unequal,
            # -0.0 equals 0.0).
            equal = (np.asarray(xs) == y).all(axis=1).tolist()
            out = []
            for x, same in zip(xs, equal):
                if x is y or same:
                    out.append(0.0)
                    continue
                # One ddot per point: a stacked ``xs @ y`` is a dgemv, which
                # sums in another order.  The clip lets a NaN through.
                c = float(x.dot(y))
                out.append(math.acos(max(min(c, 1.0), -1.0)))
            return out

        return distances
