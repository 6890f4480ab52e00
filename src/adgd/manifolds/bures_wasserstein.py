"""Symmetric positive definite matrices under the Bures-Wasserstein metric.

Points are SPD matrices X, tangents are symmetric matrices V, and the
metric is ``<U, V>_X = Tr(L_X(U) V) / 2`` where ``L_X(U)`` solves the
Lyapunov equation ``X L + L X = U``.  The manifold has nonnegative
sectional curvature but is **not** geodesically complete: the geodesic
``t -> Exp_X(t V)`` leaves the SPD cone once ``I + t L_X(V)`` loses
positive definiteness, so step sizes must respect ``max_step``.  Each
step is screened by ``max_step_lower_bound``, one shifted LAPACK Cholesky
of the factor, and the exact ``max_step`` eigensolve runs only for a step
it cannot certify.

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
  ``P(W) = W + (2 / c) L X L``.  ``L X L`` is the exponential's own
  term, so ``exp_transport`` hands it from the exponential to the
  transport, and an iteration computes it once.

Riemannian gradients carry their Lyapunov factor together with ``base``,
the point it was computed at, and scaling keeps both, so the descent
loops never trigger a Lyapunov solve.  Asking for that factor at any
other point raises ``ValueError``.  A difference of tangents carries no
factor; a tangent without one has it solved, and stored nowhere, by each
operation that needs it.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .. import linalg
from ..errors import DomainError
from .base import Manifold

# Relative tolerance for the collinearity check of the transport.
_COLLINEAR_TOL = 1e-8

# Margin of the max_step_lower_bound certificate, relative to ||L||_F;
# from n = 270 on, 6.2 n (n + 1) eps is larger and takes its place.
_SCREEN_MARGIN = 1e-10

# Points per stacked eigensolve in distance_from's callable.
_DISTANCE_CHUNK = 128


def _step_ratio(vmat, w):
    """The ratio ``c`` of a step ``vmat = c w.mat``, or None when either
    matrix is zero (the transport is then the identity); raises
    DomainError unless ``w`` is collinear with the step."""
    wmat = w.mat
    ww = float(np.add.reduce(wmat * wmat, axis=None))
    nv = linalg.frobenius_norm(vmat)
    if ww == 0.0 or nv == 0.0:
        return None
    c = float(np.add.reduce(vmat * wmat, axis=None)) / ww
    if linalg.frobenius_norm(vmat - c * wmat) > _COLLINEAR_TOL * nv or c == 0.0:
        raise DomainError(
            "Bures-Wasserstein transport is only available along the step "
            "direction (w must be collinear with v)"
        )
    return c


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

    def __sub__(self, other):
        if not isinstance(other, BWTangent):
            return NotImplemented
        return BWTangent(self.mat - other.mat)

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

    def check_point(self, x):
        """Symmetric within ``linalg.check_symmetric``'s 1e-12 relative
        tolerance, finite, and positive definite by ``linalg.require_spd``."""
        x = linalg.check_symmetric(x, "a point of the SPD cone")
        try:
            linalg.require_spd(x)
        except DomainError:
            raise ValueError("a point of the SPD cone must be positive definite") from None

    def egrad_to_rgrad(self, x, g):
        g = linalg.symmetrize(g)
        xg = x @ g
        return BWTangent(2.0 * (xg + xg.T), 2.0 * g, x)

    def exp_transport(self, x, v):
        """``(exp(x, v), False, transport)``: ``exp(x, v) = (I + L) X (I + L)``
        for ``L = L_X(v)``, raising outside the step domain, and
        ``transport(w)`` forms ``W + (2 / c) L X L`` from the exponential's
        own ``L X L``, so it costs no matrix product.  The transport is
        defined only for w collinear with v, the single case the descent
        loops need, and holds ``v``'s matrix and ``L X L``.

        The domain check certifies positive definiteness of I + L itself:
        the congruence (I + L) X (I + L) stays SPD even for indefinite
        I + L, where the formula no longer describes a geodesic.
        """
        fac = v.factor_at(x)
        try:
            linalg.require_spd(np.eye(x.shape[0]) + fac)
        except DomainError:
            raise DomainError("step leaves the SPD cone") from None
        lxl = fac @ x @ fac
        y = linalg.symmetrize(x + v.mat + lxl)
        # Positivity certificate.  The congruence keeps y SPD only in exact
        # arithmetic; in floating point X + V + L X L can fail it after the
        # domain check passed (golden fixed-lyapunov-domain-abort stops here).
        linalg.require_spd(y)
        vmat = v.mat

        def transport(w):
            c = _step_ratio(vmat, w)
            return BWTangent(w.mat.copy() if c is None else w.mat + (2.0 / c) * lxl)

        return y, False, transport

    def inner(self, x, u, v):
        # Callers pass a factor-carrying tangent (a gradient) first.
        return 0.5 * float(np.add.reduce(u.factor_at(x) * v.mat, axis=None))

    def max_step(self, x, v):
        """sup{t > 0 : I + t L_X(v) positive definite} per the step domain."""
        if linalg.frobenius_norm(v.mat) == 0.0:
            return math.inf
        lam_min = float(np.min(linalg.sym_eig(v.factor_at(x)).eigenvalues))
        if lam_min >= 0.0:
            return math.inf
        return -1.0 / lam_min

    def max_step_lower_bound(self, x, v, t):
        """Whether ``t <= max_step(x, v)`` is certified, by one shifted
        LAPACK Cholesky of the factor.

        For ``L = L_X(v)`` of size n and the margin
        ``m = max(1e-10, 6.2 n (n + 1) eps) ||L||_F`` the answer is True when
        LAPACK factors ``L + (1/t - m) I``.  The n-term is below ``1e-10``
        for n <= 269, so there ``m = 1e-10 ||L||_F``.  In floating point
        success means ``lambda_min(L) > -1/t + m - e`` with, to first order,
        ``e = n (n + 1) eps (||L||_2 + 1/t + m)`` (Higham, *Accuracy and
        Stability of Numerical Algorithms*, Thms 10.3/10.7; the rounding of
        the shift and of the shifted diagonal adds a few ``eps`` to that).
        Soundness against the Jacobi max_step, ``-1 / lambda`` with Jacobi's
        smallest eigenvalue ``lambda``:

        * if ``1/t > 2 ||L||_F``, then ``t < 1 / (2 ||L||_F)``, half of the
          smallest max_step any eigenvalue can give, whatever LAPACK says;
        * otherwise ``e <= n (n + 1) eps (3 ||L||_F + m)``, and that is at
          most ``m / 2`` for every n with ``6.2 n (n + 1) eps <= 0.1``
          (n up to 8.5 million, a dense factor of 580 TB), because
          ``m >= 6.2 n (n + 1) eps ||L||_F``.  So
          ``lambda_min(L) > -1/t + m / 2``.  Jacobi's eigenvalue is within
          its ``1e-14 ||L||_F`` stopping residual plus its rounding, a few
          ``eps ||L||_F`` per sweep for each of the n - 1 rotations that
          touch a row: about ``S n eps ||L||_F`` over ``S <= 100`` sweeps
          (10 or so in practice).  That is below ``m / 4``: under
          ``2.5e-11 ||L||_F`` for n <= 269 and under
          ``1.55 n (n + 1) eps ||L||_F`` beyond.  Hence
          ``lambda > -1/t + m / 4``: either ``lambda >= 0`` and max_step is
          infinite, or ``max_step > t (1 + t m / 4)`` with
          ``t m / 4 >= 1.25e-11``.  That relative gap is many orders above
          the rounding of ``alpha / 0.99``, ``1/t``, ``-1 / lambda`` and
          ``0.99 * max_step``, so a passed screen implies
          ``alpha <= 0.99 * max_step`` as ``_clamp_alpha`` computes it.

        Edge cases: ``t <= 0`` is True without a factorization, a NaN ``t``
        or a non-finite factor or shift is False (the exact path decides),
        ``t = inf`` certifies ``L`` positive definite with the margin, and a
        zero factor passes, its max_step being infinite.
        """
        if t <= 0.0:
            return True
        if math.isnan(t):
            return False
        fac = v.factor_at(x)
        norm = linalg.frobenius_norm(fac)
        if norm == 0.0:
            return True
        n = fac.shape[0]
        shift = max(_SCREEN_MARGIN, 6.2 * n * (n + 1) * linalg._EPS) * norm - 1.0 / float(t)
        # A finite norm means finite entries, so this checks the whole
        # shifted matrix.
        return math.isfinite(shift) and linalg._lapack_certifies_spd(fac, shift)

    def distance(self, x, y):
        """Bures distance sqrt(Tr X + Tr Y - 2 Tr (X^1/2 Y X^1/2)^1/2)."""
        linalg.require_spd(y)  # cheap positivity certificate for the second argument
        return self.distance_from(x)([y])[0]

    def distance_from(self, y):
        # The fixed point's square root is computed once; the points'
        # products go to the stacked eigensolver _DISTANCE_CHUNK at a time,
        # which bounds the extra memory and moves no bit.
        sqrt_y = linalg.spd_sqrt(y)
        trace_y = float(np.trace(y))

        def distances(xs):
            out = [0.0] * len(xs)  # the closed form cancels to sqrt(eps) noise at y itself
            todo = [i for i, x in enumerate(xs) if not (x is y or np.array_equal(x, y))]
            for start in range(0, len(todo), _DISTANCE_CHUNK):
                chunk = todo[start : start + _DISTANCE_CHUNK]
                stack = np.empty((len(chunk),) + sqrt_y.shape)
                for row, i in zip(stack, chunk):
                    row[...] = linalg.symmetrize(sqrt_y @ xs[i] @ sqrt_y)
                for i, lam in zip(chunk, linalg.eigvals(stack)):
                    root_sum = float(np.sum(np.sqrt(np.maximum(lam, 0.0))))
                    d2 = trace_y + float(np.trace(xs[i])) - 2.0 * root_sum
                    out[i] = math.sqrt(max(d2, 0.0))
            return out

        return distances

    def grad_diff_norm_sq(self, x, g_new, transported, prev_norm_sq):
        # Isometry-based expansion: ||g - P||^2 = ||g||^2 - 2 <g, P> + ||g_prev||^2.
        # Both inner products use the factor g_new carries, so the cost is a
        # single extra matrix product worth of work per iteration.
        nn = self.inner(x, g_new, g_new)
        cross = self.inner(x, g_new, transported)
        return max(nn - 2.0 * cross + prev_norm_sq, 0.0)
