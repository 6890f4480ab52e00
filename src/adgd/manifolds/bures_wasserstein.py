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
from typing import NamedTuple

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

# Off the norm path, exp_transport certifies I + L at this shift when the
# point carries a floor: success bounds its smallest eigenvalue below by
# about 1/4, which the new point's floor carries.
_DOMAIN_SHIFT = 0.25

# How many times over a floor clears require_spd's level (_floor_level);
# inf switches carried floors off.
_FLOOR_LEVEL = 4.0

# Below this decision norm a point's squared entries may underflow enough
# that the norm no longer bounds its diagonal (_floor_level).
_NORM_FLOOR = 2.0**-450

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
        nv = linalg._norm(vmat)
    c = float(np.add.reduce(vmat * wmat, None)) / float(np.add.reduce(wmat * wmat, None))
    if linalg._norm(vmat - c * wmat) > _COLLINEAR_TOL * nv or c == 0.0:
        raise DomainError("Bures-Wasserstein transport needs w collinear with the step v")
    if not -1020 <= shift <= 1020:
        raise DomainError(f"Bures-Wasserstein transport: the step ratio 2^{shift} overflows")
    return math.ldexp(c, shift)


class _Floor(NamedTuple):
    """What the array ``point`` carries into its steps: ``bound``, a
    certified lower bound on its smallest eigenvalue (-inf certifies
    nothing), and ``seed``, the shift its successor's LAPACK seed takes
    (``_certify``), which a carried floor keeps."""

    bound: float
    seed: float
    point: np.ndarray


def _floor_level(n, norm):
    """``_FLOOR_LEVEL`` times ``linalg._spd_level`` at ``2 norm`` for an n x n
    point y of decision norm ``norm = linalg._norm(y)``, so a floor above it
    implies ``require_spd(y)``: ``2 norm`` bounds ``||y||_F >= max_i y_ii``
    once ``norm >= _NORM_FLOOR``, where the squares that underflow move the
    sum by a relative ``n^2 2^-175`` at most.  Below that, and for an inf
    or NaN norm, the level is inf."""
    finite = _NORM_FLOOR <= norm < math.inf
    return _FLOOR_LEVEL * linalg._spd_level(n, 2.0 * norm) if finite else math.inf


def _certify(y, shift, norm, seeded=True):
    """The floor of ``y``, of decision norm ``norm``: the module's one door to
    ``linalg.require_spd``.  A ``seeded`` y (exactly symmetric) whose LAPACK
    bound at ``shift > 0`` (``linalg._lapack_bound``) clears ``_floor_level``
    gets that bound less ``8 n eps norm``, a slack that keeps it below
    ``lambda_min(y)`` by more than ``eigvalsh``'s ``4 n eps ||y||_2`` error and
    covers a caller's rounding of ``y``'s diagonal (``I + L``).  Any other y (a
    zero shift seeds nothing) goes to ``require_spd``, which raises DomainError
    or gives a floor that bounds nothing.  ``seed`` is ``shift / 4`` after a
    success, ``shift / 64`` after a failure (a falling smallest eigenvalue
    costs a few factorizations, not one per step) and ``shift`` unseeded."""
    if seeded and shift > 0.0:
        bound = linalg._lapack_bound(y, shift, _floor_level(len(y), norm))
        if bound > -math.inf:
            return _Floor(bound - 8.0 * len(y) * linalg._EPS * norm, shift / 4.0, y)
        shift /= 64.0
    linalg.require_spd(y)
    return _Floor(-math.inf, shift, y)


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
        # A float skips the costly Real ABC check; every other real takes it.
        if type(s) is not float:
            if not isinstance(s, Real):
                return NotImplemented
            s = float(s)
        factor = None if self.factor is None else s * self.factor
        return BWTangent(s * self.mat, factor, self.base)

    __rmul__ = __mul__

    def factor_at(self, x):
        """L_X(V) at base point x: the carried factor when it was computed
        at x, else a fresh Lyapunov solve.  Raises ValueError for a carried
        factor asked for at another point.

        The fresh solve is stricter than ``check_point``: it raises
        DomainError where x's eigenvalue ratio is at most 1e-12 (say
        ``diag(1, 1e-13)``), a point ``check_point`` accepts and where a
        gradient's carried factor still serves.
        """
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
        tolerance, finite, and positive definite by ``linalg.require_spd``;
        returns x's floor (``_certify``).  An exactly symmetric x is seeded
        at half its smallest diagonal entry, which implies ``require_spd(x)``
        where it succeeds; ``require_spd`` runs only where the seed
        certifies nothing.  Any other x (LAPACK would read its lower
        triangle only) goes straight to ``require_spd`` and gets a floor
        that bounds nothing and whose seed is that same shift, so a run's
        first step seeds its successor."""
        x = linalg.check_symmetric(x, "a point of the SPD cone")
        shift = 0.5 * float(x.diagonal().min(initial=math.inf))
        try:
            return _certify(x, shift, linalg._norm(x), np.array_equal(x, x.T))
        except DomainError:
            raise ValueError("a point of the SPD cone must be positive definite") from None

    def egrad_to_rgrad(self, x, g):
        g = linalg.symmetrize(g)
        xg = x @ g
        return BWTangent(2.0 * (xg + xg.T), 2.0 * g, x)

    def exp_transport(self, x, v, floor=None):
        """``(exp(x, v), False, transport, floor_y)``: ``exp(x, v) = (I + L) X
        (I + L)`` for ``L = L_X(v)``, raising DomainError outside the step
        domain (``I + L`` not positive definite) or when the new point fails
        its SPD certificate.  ``transport(w)`` forms ``W + (2 / c) L X L``
        from the exponential's own ``L X L``, so it costs no matrix product.
        It is defined only for w collinear with v, the single case the
        descent loops need, and holds ``v``'s matrix and ``L X L``.

        ``floor`` is what ``check_point`` or this method returned for
        ``x``; a missing one is ``_Floor(-inf, 0.0, x)``, which bounds and
        seeds nothing.  ``floor_y`` is the new point's.  A floor names the
        array it bounds, its ``point``, and this method raises ValueError
        unless ``x`` is that array or equal to it, as ``factor_at`` does.
        With a floor ``mu(x) <= lambda_min(x)``, the new point's own
        certificate, ``linalg.require_spd(y)``, is skipped exactly where a
        bound on ``lambda_min(y)`` clears ``_floor_level``; everywhere else it
        runs and decides as for a missing floor, so no decision and no byte
        depends on the floor.  For an exactly symmetric ``X`` (every floor
        with a bound is of such a point), the symmetric factor ``L`` (every
        factor is) and ``S = (I + L) X (I + L)``:

        * ``sigma_min(I + L) >= c``.  On the norm path ``||L||_F <= 1/2`` and
          ``c = 1 - (1 + 2 n^2 eps) linalg._norm(L)`` (Weyl).  Off it, when
          ``mu(x) > 0``, ``c`` is the floor of ``_certify(I + L, 1/4, 1 +
          ||L||_F)``, whose slack covers the rounding of ``I + L``'s
          diagonal.  Else ``require_spd(I + L)`` decides, and the step has no
          ``c``.  So ``lambda_min(S) >= mu(x) c^2``.
        * ``||y - S||_F <= E``: ``y`` is ``symmetrize(X + V + L X L)`` from
          ``V = v.mat`` and ``L X L = (L X) L``.  The residual ``||V - (L X) -
          (L X)^T||_F`` is measured, so ``V`` need not have been formed as
          ``L X + X L`` (a gradient's is ``2 (X G + G X)``, with factor ``2
          G``, scaled, underflow and all).  The products' rounding (``n eps
          |L| |X|`` each, entrywise, and ``||abs(A) abs(B)||_F <= ||A||_F
          ||B||_F``), the two sums, the symmetrization and the residual's own
          subtractions add at most ``(n + 5) eps ||X||_F (1 + ||L||_F)^2`` to
          first order, and underflow at most ``n^2 2^-1074 (1 + ||L||_F)``.
          ``E``, twice the residual plus ``8 (n + 2) eps (1 + ||L||_F)^2
          (||X||_F + n linalg._MIN_SPD_SHIFT)`` from the decision norms,
          covers it all.
        * Weyl: ``lambda_min(y) >= mu(x) c^2 - E``, and ``mu(y)`` is that
          value, rounded down by ``8 eps`` of its first term.  Where it
          clears ``_floor_level(n, ||y||)`` (inf for a non-finite ``y``),
          ``y`` carries it with ``floor.seed``.  Otherwise ``y`` is seeded
          afresh at ``floor.seed`` (``_certify``), where a failure leaves
          ``require_spd(y)`` to decide and ``y`` a floor with no bound.
        """
        floor = _Floor(-math.inf, 0.0, x) if floor is None else floor
        if not (x is floor.point or np.array_equal(x, floor.point)):
            raise ValueError("floor belongs to a different point")
        fac = v.factor_at(x)
        n = fac.shape[0]
        norm = linalg._norm(fac)
        # The congruence (I + L) X (I + L) stays SPD for an indefinite I + L
        # too, where it is no geodesic, so I + L itself is certified.  Within
        # _SMALL_FACTOR_NORM, I + L has eigenvalues in [1/2, 3/2], far above
        # require_spd's level for any n below about 10^7, so require_spd
        # cannot raise.  An inf or NaN norm takes the certificate.  shrink is
        # the docstring's c, a lower bound on sigma_min(I + L); the step has
        # none unless it is positive.
        carry = floor.bound > 0.0
        if norm <= _SMALL_FACTOR_NORM:
            shrink = 1.0 - (1.0 + 2.0 * n * n * linalg._EPS) * norm
        else:
            try:
                shrink = _certify(np.eye(n) + fac, _DOMAIN_SHIFT, 1.0 + norm, carry).bound
            except DomainError:
                raise DomainError("step leaves the SPD cone") from None
        lx = fac @ x
        lxl = lx @ fac
        y = x + v.mat
        y += lxl
        y = linalg.symmetrize(y)
        vmat = v.mat
        # Positivity certificate.  The congruence keeps y SPD only in exact
        # arithmetic; in floating point X + V + L X L can fail it after the
        # domain check passed (golden fixed-lyapunov-domain-abort stops here).
        norm_y = linalg._norm(y)
        bound = -math.inf
        if carry and shrink > 0.0:
            resid = vmat - lx
            resid -= lx.T
            err = 2.0 * linalg._norm(resid) + 8.0 * (n + 2) * linalg._EPS * (
                1.0 + norm
            ) ** 2 * (linalg._norm(x) + n * linalg._MIN_SPD_SHIFT)
            bound = floor.bound * shrink * shrink * (1.0 - 8.0 * linalg._EPS) - err
        if bound > _floor_level(n, norm_y):
            floor_y = _Floor(bound, floor.seed, y)
        else:
            floor_y = _certify(y, floor.seed, norm_y)

        def transport(w):
            c = _step_ratio(vmat, w.mat)
            return BWTangent(w.mat.copy() if c is None else w.mat + (2.0 / c) * lxl)

        return y, False, transport, floor_y

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

        For ``L = L_X(v)`` of size n it is True when ``t ||L||_F <= 1/2``,
        and otherwise when LAPACK certifies ``lambda_min(L) > -1/t + m / 2``
        (``linalg._lapack_bound`` at the shift ``m - 1/t``) for ``m =
        max(1e-10, 6.2 n (n + 1) eps) ||L||_F``, at least twice linalg's
        margin there: above the underflow scale it passes wherever LAPACK
        factors.  ``||L||_F`` is ``linalg._norm(L)``, within a relative ``n^2
        eps`` of the exact norm.  Soundness against the Jacobi max_step, ``-1
        / lambda`` with Jacobi's smallest eigenvalue ``lambda``:

        * on the norm path ``t`` is at most ``(1 + n^2 eps) / 2`` times ``1 /
          ||L||_F``: about half the smallest max_step any eigenvalue can give
          (Weyl), as Jacobi's ``|lambda|`` exceeds the exact ``||L||_F`` by a
          relative few hundred ``eps`` at most.  So ``alpha = 0.99 t`` lies
          far below ``0.99 * max_step`` and ``_Meter.clamp`` keeps it;
        * otherwise Jacobi's eigenvalue is within its ``1e-14 ||L||_F``
          stopping residual plus its rounding, about ``S n eps ||L||_F`` over
          ``S <= 100`` sweeps: below ``m / 4`` (under ``2.5e-11 ||L||_F`` for
          n <= 269, and ``1.55 n (n + 1) eps ||L||_F`` beyond).  Hence
          ``lambda > -1/t + m / 4``: either max_step is infinite, or
          ``max_step > t (1 + t m / 4)`` with ``t m / 4 >= 1.25e-11``, many
          orders above the rounding of ``alpha / 0.99``, ``1/t``, ``-1 /
          lambda`` and ``0.99 * max_step``.  So ``alpha <= 0.99 * max_step``
          as ``_Meter.clamp`` computes it.

        ``t <= 0`` is True without a factorization; a NaN ``t``, a
        non-finite factor or shift is False; ``t = inf`` certifies ``L``
        positive definite with the margin; a zero factor passes, and so does
        a subnormal ``t`` on the norm path, although ``1/t`` overflows.
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
        m = max(_SCREEN_MARGIN, 6.2 * n * (n + 1) * linalg._EPS) * norm
        shift = m - 1.0 / float(t)
        return linalg._lapack_bound(fac, shift, shift - 0.5 * m) > -math.inf

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
