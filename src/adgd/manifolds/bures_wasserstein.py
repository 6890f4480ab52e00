"""Symmetric positive definite matrices under the Bures-Wasserstein metric.

Points are SPD matrices X, tangents are symmetric matrices V
(:class:`BWTangent`), and the metric is ``<U, V>_X = Tr(L_X(U) V) / 2``
where ``L_X(U)`` solves the Lyapunov equation ``X L + L X = U``.  The
manifold has nonnegative sectional curvature but is **not** geodesically
complete: the geodesic ``t -> Exp_X(t V)`` leaves the SPD cone once
``I + t L_X(V)`` loses positive definiteness, so step sizes must respect
:meth:`BuresWasserstein.max_step`, which
:meth:`BuresWasserstein.max_step_lower_bound` screens.

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
  ``P(W) = W + (2 / c) L X L``, with the exponential's own ``L X L``.
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

# Margin of the max_step_lower_bound certificate, relative to ||L||_F.
_SCREEN_MARGIN = 1e-10

# Weyl: every eigenvalue of a symmetric L lies in [-||L||_F, ||L||_F].  A
# factor with ||L||_F <= 1/2 keeps I + L's eigenvalues in [1/2, 3/2]
# (exp_transport's domain check), and a step t with t ||L||_F <= 1/2 stays
# below half of max_step (max_step_lower_bound's screen): both are decided
# from the norm, without LAPACK.
_SMALL_FACTOR_NORM = 0.5

# Points per stacked eigensolve in distance_from's callable.
_DISTANCE_CHUNK = 128

# With both norms in [2^-510, 2^510], no product, sum or ratio that
# _step_ratio forms leaves the normal float range.
_RATIO_NORM = 2.0**510


def _step_ratio(vmat, wmat):
    """The ratio ``c = <v, w> / <w, w>`` (Frobenius) of a step
    ``vmat = c wmat``, or None when either matrix is zero (the transport
    is then the identity).  Raises DomainError unless ``wmat`` is
    collinear with the step, or when ``c`` or the transport's ``2 / c``
    would leave the float range (``|shift| > 1020``).

    A pair with a norm outside ``[2^-510, 2^510]`` is first scaled, each
    matrix by the power of two that brings its largest entry into
    [1/2, 1), and ``c`` is scaled back by the difference ``shift`` of the
    two exponents.  The scaling is exact, so ``c`` keeps the bits of the
    unscaled formula wherever that formula's sums are normal floats, and
    finite matrices raise no floating-point warning.
    """
    nv, nw = linalg._norm(vmat), linalg._norm(wmat)
    shift = 0
    if not (1.0 / _RATIO_NORM <= min(nv, nw) and max(nv, nw) <= _RATIO_NORM):
        if not (vmat.any() and wmat.any()):
            return None
        a, b = (math.frexp(float(np.max(np.abs(m))))[1] for m in (vmat, wmat))
        vmat, wmat, shift = np.ldexp(vmat, -a), np.ldexp(wmat, -b), a - b
    c = float(np.add.reduce(vmat * wmat, None)) / float(np.add.reduce(wmat * wmat, None))
    if linalg._norm(vmat - c * wmat) > _COLLINEAR_TOL * linalg._norm(vmat) or c == 0.0:
        raise DomainError("Bures-Wasserstein transport needs w collinear with the step v")
    if not -1020 <= shift <= 1020:
        raise DomainError(f"Bures-Wasserstein transport: the step ratio 2^{shift} overflows")
    return math.ldexp(c, shift)


class BWTangent:
    """Symmetric tangent matrix ``mat`` (V), optionally with its factor.

    ``factor`` is L_X(V), the solution of X L + L X = V at the point
    ``base``.  Gradients get it for free, and scaling by a number keeps
    both, so the descent loops never solve a Lyapunov equation; a
    difference and other tangents have None for both.
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
        for ``L = L_X(v)``, raising DomainError outside the step domain
        (``I + L`` not positive definite) or when the new point fails its
        SPD certificate.  ``transport(w)`` forms ``W + (2 / c) L X L`` from
        the exponential's own ``L X L``, so it costs no matrix product.  It
        is defined only for w collinear with v, the single case the descent
        loops need, and holds ``v``'s matrix and ``L X L``.
        """
        fac = v.factor_at(x)
        # The congruence (I + L) X (I + L) stays SPD for an indefinite I + L
        # too, where it is no geodesic, so I + L itself is certified.  Within
        # _SMALL_FACTOR_NORM, I + L scaled to a unit diagonal has smallest
        # eigenvalue >= 1/3, far above the n (n + 1) eps at which a Cholesky
        # pivot can fail (Higham, Thm 10.7) for any n below about 10^7, so
        # require_spd cannot raise.  An inf or NaN norm takes the certificate.
        if not linalg._norm(fac) <= _SMALL_FACTOR_NORM:
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
            c = _step_ratio(vmat, w.mat)
            return BWTangent(w.mat.copy() if c is None else w.mat + (2.0 / c) * lxl)

        return y, False, transport

    def inner(self, x, u, v):
        # Callers pass a factor-carrying tangent (a gradient) first.
        return 0.5 * float(np.add.reduce(u.factor_at(x) * v.mat, axis=None))

    def max_step(self, x, v):
        """sup{t > 0 : I + t L_X(v) positive definite} per the step domain."""
        if linalg._norm(v.mat) == 0.0:
            return math.inf
        lam_min = float(np.min(linalg.sym_eig(v.factor_at(x)).eigenvalues))
        if lam_min >= 0.0:
            return math.inf
        return -1.0 / lam_min

    def max_step_lower_bound(self, x, v, t):
        """Whether ``t <= max_step(x, v)`` is certified.

        For ``L = L_X(v)`` of size n and the margin
        ``m = max(1e-10, 6.2 n (n + 1) eps) ||L||_F`` the answer is True when
        ``t ||L||_F <= 1/2`` or LAPACK factors ``L + (1/t - m) I``.  The
        n-term is below ``1e-10`` for n <= 269, so there
        ``m = 1e-10 ||L||_F``.  In floating point
        success means ``lambda_min(L) > -1/t + m - e`` with, to first order,
        ``e = n (n + 1) eps (||L||_2 + 1/t + m)`` (Higham, *Accuracy and
        Stability of Numerical Algorithms*, Thms 10.3/10.7; the rounding of
        the shift and of the shifted diagonal adds a few ``eps`` to that).
        ``||L||_F`` is ``linalg._norm(L)``, within a relative ``n^2 eps`` of
        the exact norm.  Soundness against the Jacobi max_step,
        ``-1 / lambda`` with Jacobi's smallest eigenvalue ``lambda``:

        * if ``t ||L||_F <= 1/2`` (the norm path, taken before any
          factorization), or ``1/t`` exceeds ``2 ||L||_F`` by less than
          that product's rounding (whatever LAPACK says), then ``t`` is
          at most ``(1 + n^2 eps) / 2`` times ``1 / ||L||_F`` exactly:
          about half the smallest max_step any eigenvalue can give (Weyl), as
          Jacobi's ``|lambda|`` exceeds the exact ``||L||_F`` by a
          relative rounding of a few hundred ``eps`` at most.  That
          factor of 2 dwarfs both roundings, so ``alpha = 0.99 t`` lies
          far below ``0.99 * max_step`` and ``_clamp_alpha`` keeps it,
          as the exact path does;
        * otherwise ``e <= n (n + 1) eps (3 ||L||_F + m)``, and that is at
          most ``m / 2`` for every n with ``6.2 n (n + 1) eps <= 0.05``
          (n up to 6 million, a dense factor of 290 TB), because
          ``m >= 6.2 n (n + 1) eps (1 - n^2 eps) ||L||_F``.  So
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
        zero factor passes, its max_step being infinite.  A subnormal ``t``
        passes on the norm path, although ``1/t`` overflows.
        """
        if t <= 0.0:
            return True
        if math.isnan(t):
            return False
        fac = v.factor_at(x)
        norm = linalg._norm(fac)
        if norm == 0.0 or float(t) * norm <= _SMALL_FACTOR_NORM:
            return True
        n = fac.shape[0]
        shift = max(_SCREEN_MARGIN, 6.2 * n * (n + 1) * linalg._EPS) * norm - 1.0 / float(t)
        # A finite norm means finite entries, so this checks the whole
        # shifted matrix.
        return math.isfinite(shift) and linalg._lapack_certifies_spd(fac, shift)

    def distance_from(self, y):
        """Bures distances ``sqrt(Tr X + Tr Y - 2 Tr (Y^1/2 X Y^1/2)^1/2)``
        of points X to the positive definite y.

        The fixed point's square root is computed once; the points'
        products ``M = Y^1/2 X Y^1/2`` go to ``linalg.eigvals``
        ``_DISTANCE_CHUNK`` at a time, which bounds the memory and moves
        no bit.  A point with a negative eigenvalue has an indefinite
        M (Sylvester's law of inertia), and raises DomainError when M's
        smallest computed eigenvalue is below ``-1e-8 Tr(Y) ||X||_F``.
        For a positive semidefinite X, M is positive semidefinite in exact
        arithmetic for any symmetric computed root, so its computed
        smallest eigenvalue is off only by the rounding of the two
        products, about ``2 n eps Tr(Y) ||X||_F`` (``||Y^1/2||_F^2 =
        Tr Y``), and by Jacobi's ``1e-14 ||M||_F`` target plus its
        rounding, ``S n eps ||M||_F`` over ``S <= 100`` sweeps, with
        ``||M||_F <= Tr(Y) ||X||_F``.  Both stay far below ``1e-8 Tr(Y)
        ||X||_F`` for n up to about 4 * 10^5, so a positive semidefinite
        point keeps its distance, the rounding's negative eigenvalues read
        as 0.  The bound scales with ``Tr(Y) ||X||_F``, as the rounding
        does, rather than with M's largest eigenvalue, which is far
        smaller when X lies along Y's small eigenvectors: a rank-one X
        against a Y of condition 1.9e9 gives M a smallest eigenvalue of
        -1.02e-8 times its largest.
        """
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
                    if lam[0] < -1e-8 * trace_y * linalg._norm(xs[i]):
                        raise DomainError(f"distance to an indefinite point (min eig {lam[0]:.3e})")
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
