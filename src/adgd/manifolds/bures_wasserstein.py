"""Symmetric positive definite matrices under the Bures-Wasserstein metric.

Points are SPD matrices X, tangents are symmetric matrices V, and the
metric is ``<U, V>_X = Tr(L_X(U) V) / 2`` where ``L_X(U)`` solves the
Lyapunov equation ``X L + L X = U``.  The manifold has nonnegative
sectional curvature but is **not** geodesically complete: the geodesic
``t -> Exp_X(t V)`` leaves the SPD cone once ``I + t L_X(V)`` loses
positive definiteness, so step sizes must respect ``max_step``.

Closed forms used throughout (L below is the Lyapunov factor of V at X):

* ``Exp_X(V) = (I + L) X (I + L) = X + V + L X L``
* Riemannian gradient of an objective with Euclidean gradient G:
  ``V = 2 (X G + G X)`` with factor exactly 2 G (no solve needed).  The
  factor two is what the metric normalization above demands: with
  ``phi(X) = Tr(X)`` the pairing ``<grad, V>_X`` must equal ``Tr(V)``,
  which pins ``grad = 2 (X + X) . . . = 4 X`` here.  Writing the gradient
  without the two (a convention floating around with the unhalved metric)
  fails every directional-derivative check by exactly that factor.
* transport of W along its own step direction V = c W:
  ``P(W) = W + (2 / c) L X L``

Riemannian gradients carry their Lyapunov factor together with ``base``,
the point it was computed at, and scaling and negation keep both, so the
descent loops never trigger a Lyapunov solve.  Asking for that factor at
any other point raises ``ValueError``.  A sum or difference of tangents
carries no factor; a tangent without one has it solved, and stored
nowhere, by each operation that needs it.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .. import linalg
from ..errors import DomainError
from .base import Manifold

# Relative tolerance for the collinearity check in transport_along_step.
_COLLINEAR_TOL = 1e-8

# Rounding margin of the max_step screen, relative to ||L||_F.
_SCREEN_MARGIN = 1e-10


class BWTangent:
    """Symmetric tangent matrix, optionally with its Lyapunov factor.

    Attributes
    ----------
    mat : ndarray
        The tangent matrix V itself.
    factor : ndarray or None
        L_X(V), the solution of X L + L X = V at ``base``.  Gradients get
        it for free; other tangents have None.
    base : ndarray or None
        The point X at which ``factor`` solves the Lyapunov equation.
    """

    __slots__ = ("mat", "factor", "base")

    def __init__(self, mat, factor=None, base=None):
        self.mat = mat
        self.factor = factor
        self.base = base

    def __neg__(self):
        return self * -1.0

    def _combine(self, other, op):
        if not isinstance(other, BWTangent):
            return NotImplemented
        return BWTangent(op(self.mat, other.mat))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, s):
        if not isinstance(s, Real):
            return NotImplemented
        s = float(s)
        factor = None if self.factor is None else s * self.factor
        return BWTangent(s * self.mat, factor, self.base)

    __rmul__ = __mul__

    def factor_at(self, x):
        """L_X(V) at base point x: the carried factor when it was computed
        at x, else a fresh Lyapunov solve.  Raises ValueError for a carried
        factor asked for at another point."""
        if self.factor is None:
            return linalg.solve_lyapunov(x, self.mat)
        if x is self.base or np.array_equal(x, self.base):
            return self.factor
        raise ValueError("tangent's Lyapunov factor belongs to a different base point")


class BuresWasserstein(Manifold):
    # Expensive-op accounting in matrix-matrix products: one for the
    # gradient conversion, two per exponential (L X and (L X) L), one for
    # the cross term of the adaptive step-size denominator.
    rgrad_ops = 1
    exp_ops = 2
    adapt_extra_ops = 1

    def tangent(self, v):
        """Wrap a symmetric matrix as a tangent, symmetrizing defensively."""
        return BWTangent(linalg.symmetrize(v))

    def egrad_to_rgrad(self, x, g):
        g = linalg.symmetrize(g)
        xg = x @ g
        return BWTangent(2.0 * (xg + xg.T), 2.0 * g, x)

    def exp(self, x, v):
        """(I + L) X (I + L) for L = L_X(v); raises outside the step domain.

        The domain check certifies positive definiteness of I + L itself:
        the congruence (I + L) X (I + L) stays SPD even for indefinite
        I + L, where the formula no longer describes a geodesic.
        """
        fac = v.factor_at(x)
        try:
            linalg.require_spd(np.eye(x.shape[0]) + fac)
        except DomainError:
            raise DomainError("step leaves the SPD cone") from None
        y = x + v.mat + fac @ x @ fac
        y = 0.5 * (y + y.T)
        # Positivity certificate.  The congruence keeps y SPD only in exact
        # arithmetic; in floating point X + V + L X L can fail it after the
        # domain check passed (golden fixed-lyapunov-domain-abort stops here).
        linalg.require_spd(y)
        return y

    def transport_along_step(self, x, v, w):
        """Transport w along t -> exp(x, t v); defined here only for w
        collinear with v, the single case the descent loops need."""
        nw = linalg.frobenius_norm(w.mat)
        nv = linalg.frobenius_norm(v.mat)
        if nw == 0.0 or nv == 0.0:
            return BWTangent(w.mat.copy())
        c = float(np.sum(v.mat * w.mat)) / float(np.sum(w.mat * w.mat))
        if linalg.frobenius_norm(v.mat - c * w.mat) > _COLLINEAR_TOL * nv or c == 0.0:
            raise DomainError(
                "Bures-Wasserstein transport is only available along the step "
                "direction (w must be collinear with v)"
            )
        fac = v.factor_at(x)
        return BWTangent(w.mat + (2.0 / c) * (fac @ x @ fac))

    def inner(self, x, u, v):
        # Solve for a factor only when neither tangent carries one.
        if u.factor is None and v.factor is not None:
            u, v = v, u
        return 0.5 * float(np.sum(u.factor_at(x) * v.mat))

    def max_step(self, x, v):
        """sup{t > 0 : I + t L_X(v) positive definite} per the step domain."""
        if linalg.frobenius_norm(v.mat) == 0.0:
            return math.inf
        lam_min = float(np.min(linalg.sym_eig(v.factor_at(x)).eigenvalues))
        if lam_min >= 0.0:
            return math.inf
        return -1.0 / lam_min

    def max_step_lower_bound(self, x, v):
        # LAPACK's smallest eigenvalue of the factor, lowered by a margin:
        # by Weyl's inequality the floor stays below the Jacobi eigenvalue
        # max_step uses, because both solvers' errors (LAPACK's backward
        # error, Jacobi's 1e-14 ||L||_F stopping residual plus rounding)
        # are far inside 1e-10 ||L||_F.  The descent loops then pay for the
        # exact eigensolve only for a step near the domain boundary.
        fac = v.factor_at(x)
        floor = float(np.linalg.eigvalsh(fac)[0]) - _SCREEN_MARGIN * linalg.frobenius_norm(fac)
        if floor >= 0.0:
            return math.inf
        return -1.0 / floor

    def distance(self, x, y):
        """Bures distance sqrt(Tr X + Tr Y - 2 Tr (X^1/2 Y X^1/2)^1/2)."""
        linalg.require_spd(y)  # cheap positivity certificate for the second argument
        return self.distance_from(x)(y)

    def distance_from(self, y):
        # Precomputing the fixed point's square root halves the cost of
        # repeated distance evaluations (one eigensolve per call, not two).
        sqrt_y = linalg.spd_sqrt(y)
        trace_y = float(np.trace(y))

        def dist(x):
            if x is y or np.array_equal(x, y):
                return 0.0  # the closed form cancels to sqrt(eps) noise here
            lam = linalg.sym_eig(linalg.symmetrize(sqrt_y @ x @ sqrt_y)).eigenvalues
            d2 = trace_y + float(np.trace(x)) - 2.0 * float(
                np.sum(np.sqrt(np.maximum(lam, 0.0)))
            )
            return math.sqrt(max(d2, 0.0))

        return dist

    def grad_diff_norm_sq(self, x, g_new, transported, prev_norm_sq):
        # Isometry-based expansion: ||g - P||^2 = ||g||^2 - 2 <g, P> + ||g_prev||^2.
        # Both inner products use the factor g_new carries, so the cost is a
        # single extra matrix product worth of work per iteration.
        nn = self.inner(x, g_new, g_new)
        cross = self.inner(x, g_new, transported)
        return max(nn - 2.0 * cross + prev_norm_sq, 0.0)
