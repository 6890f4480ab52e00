"""Strictly positive orthant with the metric G(x) = diag(x^-2).

A flat, geodesically complete manifold; the coordinate-wise change of
variables x = exp(y) turns it into plain Euclidean space, which makes it
the bridge between the Riemannian descent loop and its flat-space twin.
"""

from __future__ import annotations

import numpy as np

from .base import Manifold

# Exponent guard: e^|700| is still finite in float64, anything bigger is not.
_EXP_CLAMP = 700.0


class PositiveOrthant(Manifold):
    rgrad_ops = 1

    def check_point(self, x):
        """Finite, strictly positive entries."""
        x = np.asarray(x, dtype=float)
        if not (np.isfinite(x).all() and (x > 0.0).all()):
            raise ValueError("a point of the positive orthant must have finite positive entries")

    def egrad_to_rgrad(self, x, g):
        return x * x * g

    def exp(self, x, v):
        return self.exp_flagged(x, v)[0]

    def exp_flagged(self, x, v):
        """x_i e^{v_i / x_i}, with the exponent clamped to +-700.

        The flag reports whether clamping fired so that runs record the
        event instead of silently producing infinities.
        """
        z = v / x
        clamped = bool(np.any(np.abs(z) > _EXP_CLAMP))
        if clamped:
            z = np.clip(z, -_EXP_CLAMP, _EXP_CLAMP)
        return x * np.exp(z), clamped

    def exp_transport(self, x, v):
        """``exp_flagged`` plus the transport along the step, the
        coordinate-wise rescaling ``w_i y_i / x_i`` by the reached point
        ``y`` (an exact isometry)."""
        y, clamped = self.exp_flagged(x, v)
        return y, clamped, lambda w: w * y / x

    def transport_along_step(self, x, v, w):
        return self.exp_transport(x, v)[2](w)

    def inner(self, x, u, v):
        return float(np.add.reduce(u * v / (x * x)))

    def distance(self, x, y):
        return float(np.linalg.norm(np.log(x) - np.log(y)))
