"""Flat R^n with the dot product.

The positive orthant's twin: under x = exp(y) an orthant run on phi traces
the run here on the pullback f(y) = phi(exp(y))
(:func:`adgd.problems.linear_minus_log` carries it), with the same
step-size rule.
"""

import numpy as np

from .base import Manifold


class Euclidean(Manifold):
    """R^n with the dot product: identity transport, exp(x, v) = x + v.

    Complete, with no price tags; ``check_point`` is the base class's,
    which accepts anything."""

    def egrad_to_rgrad(self, x, g):
        return g

    def exp_transport(self, x, v, floor=None):
        return x + v, False, lambda w: w, None

    def inner(self, x, u, v):
        return float(np.dot(u, v))

    def distance_from(self, y):
        return lambda xs: [float(np.linalg.norm(x - y)) for x in xs]
