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

Tangents carry their Lyapunov factor (and the product ``L X L`` once an
exponential has been evaluated) so the descent loops never trigger a
Lyapunov solve; generic tangents fall back to one solve inside ``inner``.
A tangent is bound to the base point its caches were computed at; do not
reuse one tangent object across base points.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .. import linalg
from ..errors import DomainError
from .base import Manifold

# Safety margin keeping clamped steps strictly inside the SPD cone.
STEP_SAFETY = 0.99

# Relative tolerance for the collinearity check in transport_along_step.
_COLLINEAR_TOL = 1e-8


class BWTangent:
    """Symmetric tangent matrix with lazily cached Lyapunov data.

    Attributes
    ----------
    mat : ndarray
        The tangent matrix V itself.
    factor : ndarray or None
        L_X(V), the solution of X L + L X = V at the base point the
        tangent was created at.  Gradients get it for free; otherwise it
        is filled by the first ``inner`` that needs it (write-once).
    """

    __slots__ = ("mat", "factor", "_lxl", "_factor_eigvals")

    def __init__(self, mat, factor=None, _lxl=None, _factor_eigvals=None):
        self.mat = mat
        self.factor = factor
        self._lxl = _lxl
        self._factor_eigvals = _factor_eigvals

    def __neg__(self):
        return self * -1.0

    def __add__(self, other):
        if not isinstance(other, BWTangent):
            return NotImplemented
        factor = None
        if self.factor is not None and other.factor is not None:
            factor = self.factor + other.factor
        return BWTangent(self.mat + other.mat, factor)

    def __sub__(self, other):
        if not isinstance(other, BWTangent):
            return NotImplemented
        factor = None
        if self.factor is not None and other.factor is not None:
            factor = self.factor - other.factor
        return BWTangent(self.mat - other.mat, factor)

    def __mul__(self, s):
        if not isinstance(s, Real):
            return NotImplemented
        s = float(s)
        factor = None if self.factor is None else s * self.factor
        lxl = None if self._lxl is None else s * s * self._lxl
        eigvals = None if self._factor_eigvals is None else s * self._factor_eigvals
        return BWTangent(s * self.mat, factor, lxl, eigvals)

    __rmul__ = __mul__

    def factor_at(self, x):
        """Lyapunov factor at base point x, solving and caching if absent."""
        if self.factor is None:
            self.factor = linalg.solve_lyapunov(x, self.mat)
        return self.factor

    def factor_eigvals_at(self, x):
        if self._factor_eigvals is None:
            self._factor_eigvals = linalg.sym_eig(self.factor_at(x)).eigenvalues
        return self._factor_eigvals


class BuresWasserstein(Manifold):
    name = "bures-wasserstein"
    # Expensive-op accounting in matrix-matrix products: one for the
    # gradient conversion, two per exponential (L X and (L X) L), one for
    # the cross term of the adaptive step-size denominator.
    rgrad_ops = 1
    exp_ops = 2
    adapt_extra_ops = 1

    def tangent(self, v, factor=None):
        """Wrap a symmetric matrix as a tangent, symmetrizing defensively."""
        v = linalg.symmetrize(v)
        return BWTangent(v, None if factor is None else linalg.symmetrize(factor))

    def egrad_to_rgrad(self, x, g):
        g = linalg.symmetrize(g)
        xg = x @ g
        return BWTangent(2.0 * (xg + xg.T), factor=2.0 * g)

    def exp(self, x, v):
        """(I + L) X (I + L) for L = L_X(v); raises outside the step domain.

        The domain check certifies positive definiteness of I + L itself:
        the congruence (I + L) X (I + L) stays SPD even for indefinite
        I + L, where the formula no longer describes a geodesic.  The
        DomainError raised outside the domain carries ``max_step``.
        """
        fac = v.factor_at(x)
        eigvals = v._factor_eigvals
        if eigvals is not None:
            inside = 1.0 + float(np.min(eigvals)) > 0.0
        else:
            try:
                linalg.cholesky(np.eye(x.shape[0]) + fac)
                inside = True
            except DomainError:
                inside = False
        if not inside:
            raise DomainError(
                "step leaves the SPD cone", max_step=self.max_step(x, v)
            )
        if v._lxl is None:
            lx = fac @ x
            v._lxl = lx @ fac
        y = x + v.mat + v._lxl
        y = 0.5 * (y + y.T)
        linalg.cholesky(y)  # positivity certificate; guaranteed by congruence
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
        if v._lxl is None:
            fac = v.factor_at(x)
            lx = fac @ x
            v._lxl = lx @ fac
        return BWTangent(w.mat + (2.0 / c) * v._lxl)

    def inner(self, x, u, v):
        if u.factor is not None:
            return 0.5 * float(np.sum(u.factor * v.mat))
        if v.factor is not None:
            return 0.5 * float(np.sum(v.factor * u.mat))
        return 0.5 * float(np.sum(u.factor_at(x) * v.mat))

    def max_step(self, x, v):
        """sup{t > 0 : I + t L_X(v) positive definite} per the step domain."""
        if linalg.frobenius_norm(v.mat) == 0.0:
            return math.inf
        lam_min = float(np.min(v.factor_eigvals_at(x)))
        if lam_min >= 0.0:
            return math.inf
        return -1.0 / lam_min

    def max_step_lower_bound(self, x, v):
        # Gershgorin bound on the factor's smallest eigenvalue: lets the
        # descent loops skip the eigensolve whenever the proposed step is
        # nowhere near the domain boundary.
        if v._factor_eigvals is not None:
            return self.max_step(x, v)
        fac = v.factor_at(x)
        diag = np.diag(fac)
        radii = np.sum(np.abs(fac), axis=1) - np.abs(diag)
        floor = float(np.min(diag - radii))
        if floor >= 0.0:
            return math.inf
        return -1.0 / floor

    def distance(self, x, y):
        """Bures distance sqrt(Tr X + Tr Y - 2 Tr (X^1/2 Y X^1/2)^1/2)."""
        linalg.cholesky(y)  # cheap positivity certificate for the second argument
        if x is y or np.array_equal(x, y):
            return 0.0  # the closed form cancels to sqrt(eps) noise here
        return self._distance_via_sqrt(linalg.spd_sqrt(x), float(np.trace(x)), y)

    @staticmethod
    def _distance_via_sqrt(sqrt_x, trace_x, y):
        inner_mat = linalg.symmetrize(sqrt_x @ y @ sqrt_x)
        lam = linalg.sym_eig(inner_mat).eigenvalues
        d2 = trace_x + float(np.trace(y)) - 2.0 * float(
            np.sum(np.sqrt(np.maximum(lam, 0.0)))
        )
        return math.sqrt(max(d2, 0.0))

    def distance_from(self, y):
        # Precomputing the fixed point's square root halves the cost of
        # repeated distance evaluations (one eigensolve per call, not two).
        sqrt_y = linalg.spd_sqrt(y)
        trace_y = float(np.trace(y))
        return lambda x: self._distance_via_sqrt(sqrt_y, trace_y, x)

    def project(self, raw):
        """Symmetrize and validate positive definiteness (tolerance-based)."""
        m = linalg.symmetrize(raw)
        eig = linalg.sym_eig(m)
        if not linalg.is_spd_spectrum(eig.eigenvalues):
            raise DomainError(
                "matrix is not positive definite within tolerance "
                f"(min eigenvalue {float(np.min(eig.eigenvalues)):.3e})"
            )
        return m

    def grad_diff_norm_sq(self, x, g_new, transported, prev_norm_sq):
        # Isometry-based expansion: ||g - P||^2 = ||g||^2 - 2 <g, P> + ||g_prev||^2.
        # Both inner products use the cached factor of g_new, so the cost is a
        # single extra matrix product worth of work per iteration.
        nn = self.inner(x, g_new, g_new)
        cross = self.inner(x, g_new, transported)
        return max(nn - 2.0 * cross + prev_norm_sq, 0.0)
