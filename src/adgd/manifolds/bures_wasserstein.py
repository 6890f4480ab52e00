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

# A floor above _FLOOR_LEVEL n^2 eps times a bound on max_i y_ii implies
# require_spd(y) (_floor_level); inf switches carried floors off.
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
    nothing), ``seed``, the shift whose quarter the next LAPACK seed of the
    run takes (``_seed``), and ``norm``, the point's ``linalg._norm``."""

    bound: float
    seed: float
    norm: float
    point: np.ndarray


def _floor_level(n, norm):
    """``_FLOOR_LEVEL n^2 eps`` times ``2 norm``, for an n x n point y with
    decision norm ``norm = linalg._norm(y)``: a smallest eigenvalue above
    it passes ``cholesky`` (``exp_transport``).  ``2 norm`` bounds
    ``||y||_F >= max_i y_ii`` once ``norm >= _NORM_FLOOR``: then the squares
    that underflow move the sum by a relative ``n^2 2^-175`` at most, and
    the norm is within a relative ``n^2 eps`` of ``||y||_F``.  Below that,
    and for an inf or NaN norm, the level is inf."""
    if not _NORM_FLOOR <= norm < math.inf:
        return math.inf
    return _FLOOR_LEVEL * n * n * linalg._EPS * 2.0 * norm


def _seed(y, shift, norm):
    """``y``'s floor from a LAPACK factorization of ``y - shift I``.

    ``y`` is exactly symmetric, and ``norm`` bounds ``||y||_2`` and
    ``max_i y_ii`` up to a relative ``n^2 eps``: ``linalg._norm(y)`` does
    wherever ``_floor_level`` is finite, being within that of ``||y||_F``,
    and so does ``1 + linalg._norm(L)`` for ``y = I + L``.  Success puts
    ``lambda_min(y)`` above ``shift - n (n + 1) eps (||y||_2 + shift)``,
    less the rounding of the shifted diagonal (Higham, Thms 10.3/10.7, as
    ``linalg._lapack_certifies_spd`` states): above ``bound``, which takes
    twice that term with ``(n + 2)^2`` for ``n (n + 1)``.  The extra ``(n^2
    + 7 n + 8) eps (norm + shift)`` covers the shifted diagonal's rounding,
    ``norm``'s own, and a rounding of ``y``'s diagonal by its caller of up
    to ``eps norm`` per entry (``exp_transport`` forming ``I + L``), with
    room to spare.  The factorization is tried only when ``bound`` clears
    ``_floor_level``, so that its success also implies ``require_spd(y)``,
    and at a shift of at least ``linalg._MIN_SPD_SHIFT``, the smallest
    ``require_spd`` trusts LAPACK with; an inf or NaN ``norm`` has an inf
    level, so it tries none.  The floor's ``seed`` is the shift the next
    seed takes a quarter of: ``shift`` itself after a success.  Untried or
    failed, the floor's bound is -inf, which certifies nothing, and its
    ``seed`` a sixteenth of ``shift``, so that the next seed tries 64 times
    lower: a point whose smallest eigenvalue keeps falling (a run that ends
    at the cone's boundary) wastes a few factorizations, not one per step.
    """
    n = y.shape[0]
    bound = shift - 2.0 * (n + 2) ** 2 * linalg._EPS * (norm + shift)
    if not (
        shift >= linalg._MIN_SPD_SHIFT
        and bound > _floor_level(n, norm)
        and linalg._lapack_certifies_spd(y, shift)
    ):
        return _Floor(-math.inf, shift / 16.0, norm, y)
    return _Floor(bound, shift, norm, y)


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
        returns x's floor.  An exactly symmetric x is seeded (``_seed``) at
        half its smallest diagonal entry, which implies ``require_spd(x)``
        where it succeeds; ``require_spd`` runs only where the floor
        certifies nothing.  Any other x (LAPACK would read its lower
        triangle only) gets a floor that bounds nothing and whose first
        re-seed takes that same shift, so a run's first step seeds its
        successor."""
        x = linalg.check_symmetric(x, "a point of the SPD cone")
        shift = 0.5 * float(x.diagonal().min(initial=math.inf))
        if np.array_equal(x, x.T):
            floor = _seed(x, shift, linalg._norm(x))
        else:
            floor = _Floor(-math.inf, 4.0 * shift, linalg._norm(x), x)
        if floor.bound == -math.inf:
            try:
                linalg.require_spd(x)
            except DomainError:
                raise ValueError("a point of the SPD cone must be positive definite") from None
        return floor

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
        ``x``, or None; ``floor_y`` is the new point's, None when ``floor``
        is.  A floor (``_Floor``) names the array it bounds, its ``point``,
        and this method raises ValueError unless ``x`` is that array or
        equal to it, as ``BWTangent.factor_at`` does for a carried factor.
        A floor carries a certified lower bound ``mu(x) <= lambda_min(x)``.  With one, the
        new point's own certificate, ``linalg.require_spd(y)`` (a LAPACK
        Cholesky), is skipped exactly where the bound proves that
        ``linalg.cholesky(y)`` succeeds, where ``require_spd`` returns
        None; everywhere else it runs and decides as it does without a
        floor, so no decision and no byte depends on the floor.  The
        argument, for an exactly symmetric ``X`` (every floor with a bound
        is of such a point), the symmetric factor ``L`` (every factor is),
        ``n`` up to about 10^7, ``eps`` the machine epsilon and ``S = (I +
        L) X (I + L)``:

        * ``sigma_min(I + L) >= c``.  On the norm path ``||L||_F <= 1/2``,
          so ``c = 1 - (1 + 2 n^2 eps) linalg._norm(L)`` (Weyl).  Off it,
          when ``mu(x) > 0``, ``c`` is the bound of ``_seed(I + L, 1/4, 1 +
          ||L||_F)``, whose success implies ``require_spd(I + L)`` as below.
          Else ``require_spd(I + L)`` decides as without a floor, and the
          step has no ``c``.  So ``lambda_min(S) >= mu(x) c^2``.
        * ``||y - S||_F <= E``: ``y`` is ``symmetrize(X + V + L X L)``
          computed from ``V = v.mat`` and ``L X L = (L X) L``.  The
          residual ``||V - (L X) - (L X)^T||_F`` is measured, so ``V`` need
          not have been formed as ``L X + X L`` (a gradient's is formed as
          ``2 (X G + G X)``, scaled, while its factor is ``2 G``, scaled, and
          an underflow in ``X G`` is scaled with it).  The products'
          rounding (``n eps |L| |X|`` each, entrywise, and
          ``||abs(A) abs(B)||_F <= ||A||_F ||B||_F``), the two sums, the
          symmetrization and the residual's own subtractions add at most
          ``(n + 5) eps ||X||_F (1 + ||L||_F)^2`` to first order, and
          underflow at most ``n^2 2^-1074 (1 + ||L||_F)`` more.  ``E`` takes
          twice the measured residual plus ``8 (n + 2) eps (1 +
          ||L||_F)^2 (||X||_F + n linalg._MIN_SPD_SHIFT)``, with the decision
          norms of ``X`` and ``L``, which covers all of it with a margin for
          the norms' own rounding.
        * Weyl: ``lambda_min(y) >= mu(x) c^2 - E``, and ``mu(y)`` is that
          value, rounded down by ``8 eps`` of its first term.
        * ``cholesky`` can meet a non-positive pivot only where
          ``lambda_min(y)`` is below ``n (n + 1) eps / 2`` times
          ``max_i y_ii`` (Thm 10.7, as ``require_spd`` states), so it
          succeeds once ``mu(y)`` exceeds ``_floor_level(n, ||y||)``, which
          is ``4 n^2 eps`` times an upper bound on ``max_i y_ii``, or inf
          for a non-finite ``y`` (an overflow anywhere above reaches it).
          Then ``require_spd(y)`` is skipped and ``y`` carries ``mu(y)``.
        * Otherwise ``y`` is seeded afresh (``_seed``) at a quarter of
          ``floor.seed``, the run's last seed shift; success implies
          ``require_spd(y)`` and gives ``y`` its bound.  When it fails,
          ``require_spd(y)`` runs and ``y`` carries a floor with no bound,
          whose next seed tries lower.
        """
        if floor is not None and not (x is floor.point or np.array_equal(x, floor.point)):
            raise ValueError("floor belongs to a different point")
        fac = v.factor_at(x)
        n = fac.shape[0]
        norm = linalg._norm(fac)
        # The congruence (I + L) X (I + L) stays SPD for an indefinite I + L
        # too, where it is no geodesic, so I + L itself is certified.  Within
        # _SMALL_FACTOR_NORM, I + L scaled to a unit diagonal has smallest
        # eigenvalue >= 1/3, far above the n (n + 1) eps at which a Cholesky
        # pivot can fail (Higham, Thm 10.7) for any n below about 10^7, so
        # require_spd cannot raise.  An inf or NaN norm takes the certificate.
        # shrink is the docstring's c, a lower bound on sigma_min(I + L); the
        # step has none when it is -inf.
        carry = floor is not None and floor.bound > 0.0
        if norm <= _SMALL_FACTOR_NORM:
            shrink = 1.0 - (1.0 + 2.0 * n * n * linalg._EPS) * norm
        else:
            eye_l = np.eye(n) + fac
            shrink = _seed(eye_l, _DOMAIN_SHIFT, 1.0 + norm).bound if carry else -math.inf
            if shrink == -math.inf:
                try:
                    linalg.require_spd(eye_l)
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
        floor_y = None
        if floor is not None:
            norm_y = linalg._norm(y)
            level = _floor_level(n, norm_y)
            bound = -math.inf
            if carry and shrink > 0.0:
                resid = vmat - lx
                resid -= lx.T
                err = 2.0 * linalg._norm(resid) + 8.0 * (n + 2) * linalg._EPS * (
                    1.0 + norm
                ) ** 2 * (floor.norm + n * linalg._MIN_SPD_SHIFT)
                bound = floor.bound * shrink * shrink * (1.0 - 8.0 * linalg._EPS) - err
            if bound > level:
                floor_y = _Floor(bound, floor.seed, norm_y, y)
            else:
                floor_y = _seed(y, 0.25 * floor.seed, norm_y)
        if floor_y is None or floor_y.bound == -math.inf:
            linalg.require_spd(y)

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
          far below ``0.99 * max_step`` and ``_Meter.clamp`` keeps it,
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
          ``alpha <= 0.99 * max_step`` as ``_Meter.clamp`` computes it.

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
