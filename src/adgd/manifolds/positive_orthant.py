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

    def exp_transport(self, x, v, floor=None):
        """``(y, clamped, transport, None)`` with ``y_i = x_i e^{v_i / x_i}``, the
        exponent clamped to +-700, and the transport along the step, the
        coordinate-wise rescaling ``w_i y_i / x_i`` (an exact isometry).

        The flag reports whether clamping fired so that runs record the
        event instead of silently producing infinities.
        """
        z = v / x
        clamped = bool(np.any(np.abs(z) > _EXP_CLAMP))
        if clamped:
            z = np.clip(z, -_EXP_CLAMP, _EXP_CLAMP)
        y = x * np.exp(z)
        return y, clamped, lambda w: w * y / x, None

    def inner(self, x, u, v):
        return float(np.add.reduce(u * v / (x * x)))

    def distance_from(self, y):
        """``||log x - log y||`` for each point x, with ``log y`` taken once."""
        log_y = np.log(y)
        return lambda xs: [float(np.linalg.norm(np.log(x) - log_y)) for x in xs]
