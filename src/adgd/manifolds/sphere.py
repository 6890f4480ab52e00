"""Unit sphere S^{n-1} embedded in R^n.

Points are unit-norm vectors, tangents at x are vectors orthogonal to x,
and the metric is the ambient Euclidean inner product.  The manifold is
geodesically complete with constant positive curvature.  Norms are
written ``math.sqrt(v.dot(v))``: for a 1-D float vector that is exactly what
``np.linalg.norm`` computes, without its dispatch overhead.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .. import linalg
from ..errors import DomainError
from .base import Manifold

# Below this, ||v|| is treated as zero: the closed forms for exp and
# transport are 0/0 at v = 0 only in their written form.
_TINY = 1e-12

# Largest |1 - ||x0||| a starting point may have; a vector divided by its
# norm is within a few eps of unit norm.
_UNIT_TOL = 1e-10


def _rotate(x, v, nv, cos, sin, w):
    """The transport of w along a step v of norm ``nv >= _TINY``: along the
    great circle the component of w along u = v/||v|| rotates with the
    circle (u -> -sin(||v||) x + cos(||v||) u); the component orthogonal
    to the plane span(x, u) is unchanged."""
    u = v / nv
    a = float(w.dot(u))
    # a (-sin x + cos u) + (w - a u), written in place: the same operations.
    out = -sin * x
    out += cos * u
    out *= a
    out += w - a * u
    return out


def _unchanged(w):
    return w


class Sphere(Manifold):
    rgrad_ops = 1  # tangent projection, one matrix-vector product

    def check_point(self, x):
        """A finite vector with unit norm within ``_UNIT_TOL`` (1e-10)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or not np.isfinite(x).all():
            raise ValueError("a point of the sphere must be a finite vector")
        norm = linalg._norm(x)  # an overflowing norm reads inf and is rejected below
        if not abs(norm - 1.0) <= _UNIT_TOL:
            raise ValueError(
                f"a point of the sphere must have unit norm within {_UNIT_TOL:g} (norm {norm!r})"
            )

    def egrad_to_rgrad(self, x, g):
        """Project g onto the tangent space: g - <x, g> x."""
        return g - x.dot(g) * x

    def exp_transport(self, x, v):
        """``(exp(x, v), False, transport)``; the transport reuses ``||v||``
        and its sine and cosine.  A step whose norm overflows raises
        ``DomainError``, without a numpy warning; a NaN norm gives a NaN
        point, which the descent loop's finiteness check reports.
        """
        # np.vdot is the BLAS ddot of v.dot(v), with the same bits, but it
        # raises no floating-point warning.
        nv = math.sqrt(np.vdot(v, v))
        if nv < _TINY:
            return x, False, _unchanged
        if nv == math.inf:
            raise DomainError(f"sphere step norm overflowed (||v|| = {nv})")
        cos, sin = math.cos(nv), math.sin(nv)
        y = cos * x
        y += (sin / nv) * v
        y /= math.sqrt(y.dot(y))
        return y, False, functools.partial(_rotate, x, v, nv, cos, sin)

    def inner(self, x, u, v):
        return float(u.dot(v))

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
