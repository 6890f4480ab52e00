"""Dense symmetric linear algebra, computed from scratch on ``numpy`` arrays.

One kernel per job:

* :func:`sym_eig` decomposes one matrix by cyclic Jacobi, and
  :func:`eigvals` gives the eigenvalues of a stack with ``sym_eig``'s
  arithmetic; both prepare every input in :func:`_jacobi_input`;
* :func:`solve_lyapunov` and :func:`spd_sqrt` work in ``sym_eig``'s
  eigenbasis, and :func:`cholesky` factors;
* :func:`symmetrize` forms ``(M + M^T) / 2``, and every symmetric matrix a
  kernel returns goes through it;
* :func:`_norm` is every norm that only decides.

LAPACK (``numpy.linalg``) only answers yes/no questions, with a certified
rounding margin (:func:`_lapack_certifies_spd`): is ``lambda_min`` above
``s`` less the rounding, at :func:`require_spd`'s tiny shift, or at the
larger shifts with which a Bures-Wasserstein step screens its length and
seeds or carries a point's eigenvalue floor.  Its output never reaches a
written value.  The kernels double as test oracles, so they favour
robustness and explicit failure over raw speed.  All functions are pure;
inputs are never mutated.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "EigenDecomposition",
    "symmetrize",
    "check_symmetric",
    "sym_eig",
    "eigvals",
    "solve_lyapunov",
    "spd_sqrt",
    "cholesky",
    "require_spd",
]

# Relative asymmetry tolerated at construction / validation time.
_SYM_TOL = 1e-12

# Off-diagonal mass threshold for Jacobi convergence, relative to ||M||_F.
_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100


def _constant(value):
    """A read-only 0-d float64 array: as a ufunc operand it takes numpy's
    array path instead of the slower weak-scalar path of a Python float,
    at the same IEEE value."""
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


_ZERO = _constant(0.0)
_ONE = _constant(1.0)
_TWO = _constant(2.0)
_TAU_BIG = _constant(1e150)  # above it, t = 1 / (2 tau)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Smallest shift require_spd trusts LAPACK with: far enough above the
# underflow threshold that flushed or subnormal products cannot eat the
# certified margin.
_MIN_SPD_SHIFT = _TINY / _EPS


class EigenDecomposition(NamedTuple):
    """Spectral factorization M = Q diag(w) Q^T of a symmetric matrix:
    ``eigenvalues`` ascending, and column ``i`` of the orthogonal ``basis``
    the eigenvector for ``eigenvalues[i]``."""

    eigenvalues: np.ndarray
    basis: np.ndarray


def _norm(a):
    """Frobenius norm of a float array for yes/no decisions:
    ``math.sqrt(np.vdot(a, a))``, one BLAS ``ddot`` over the flattened
    entries.  It raises no floating-point warning: an overflowing sum
    reads ``inf`` and a NaN entry gives ``nan``, so a finite norm means
    finite entries.  Summed in one pass, its relative error is up to
    about ``k eps`` for ``k`` entries (``n^2 eps`` for an n x n matrix);
    the norm feeds only comparisons, each with more slack than that, and
    never a written value."""
    return math.sqrt(np.vdot(a, a))


def symmetrize(m):
    """Exact symmetrization (M + M^T) / 2 of one square matrix, formed
    nowhere else.  The output is exactly symmetric (IEEE addition
    commutes), and an exactly symmetric input comes back bit for bit
    (doubling and halving are exact while M + M does not overflow)."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def check_symmetric(m, name="matrix"):
    """Validate near-symmetry of a square matrix, return it as float64.

    Raises ValueError when the matrix is not square, has a NaN or infinite
    entry, or its asymmetry exceeds 1e-12 relative to the entry magnitude.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has a NaN or infinite entry")
    with np.errstate(over="ignore"):  # an infinite gap is rejected below
        gap = np.abs(m - m.T)
    scale = np.maximum(1.0, np.abs(m))
    if np.any(gap > _SYM_TOL * scale):
        worst = float(np.max(gap / scale))
        raise ValueError(f"{name} is not symmetric (relative asymmetry {worst:.3e})")
    return m


def sym_eig(m):
    """Eigendecomposition of a dense symmetric matrix by cyclic Jacobi.

    Sweeps Givens rotations over all off-diagonal positions until the
    off-diagonal Frobenius mass drops below ``1e-14 * ||M||_F``.  The input
    is checked, and scaled where its squares would leave the normal range,
    by :func:`_jacobi_input`.  More than ``_JACOBI_MAX_SWEEPS`` sweeps
    (100, read at call time) raise ConvergenceError rather than return a
    silently inaccurate factorization.  ``tests/test_linalg.py`` keeps the
    two-sided loop as the oracle this kernel matches byte for byte.

    ``m`` is an (n, n) array_like, symmetric to 1e-12 relative asymmetry
    (:func:`check_symmetric`).
    """
    a, target, e = _jacobi_input(m, "sym_eig input")
    n = a.shape[0]
    # One (n, 2n) buffer [A | Q^T]: row p holds row p of A and column p of
    # Q, so a rotation updates rows p and q once, in place, and copies their
    # A part into A's columns (see _jacobi_input).  Scratch rows, views and
    # the 0-d c0 and s0 (see _constant) are taken once per call; a Python
    # list mirrors A's diagonal, which only the pivot writes change.
    w = np.empty((n, 2 * n))
    w[:, :n] = a
    w[:, n:] = np.eye(n)
    a = w[:, :n]
    rows = list(w)
    heads = list(a)
    cols = list(a.T)
    t1, t2, t3, t4 = np.empty((4, 2 * n))
    c0, s0 = np.empty(()), np.empty(())
    diag = a.diagonal().tolist()
    max_sweeps = _JACOBI_MAX_SWEEPS
    for sweep in range(max_sweeps + 1):
        off = float(_off_mass(a[None])[0])
        if off <= target:
            ev = np.diag(a)
            order = np.argsort(ev, kind="stable")
            return EigenDecomposition(np.ldexp(ev[order], e), w[:, n:].T[:, order])
        if sweep == max_sweeps:
            raise ConvergenceError(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
                f"(off-diagonal mass {off:.3e}, target {target:.3e})"
            )
        # Classic thresholding: early sweeps skip pivots far below the
        # remaining off-diagonal mass, late sweeps rotate everything.
        thresh = 0.2 * off / n if sweep < 3 else 0.0
        for p in range(n - 1):
            w_p = rows[p]
            for qq in range(p + 1, n):
                apq = w_p.item(qq)
                if apq == 0.0 or abs(apq) <= thresh:
                    continue
                app = diag[p]
                aqq_d = diag[qq]
                tau = (aqq_d - app) / (2.0 * apq)
                if not math.isfinite(tau):
                    t = 0.0  # negligible pivot; the explicit zeroing removes it
                elif abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c

                w_q = rows[qq]
                # c * w_p - s * w_q and s * w_p + c * w_q, written in place.
                c0[()] = c
                s0[()] = s
                np.multiply(w_p, c0, out=t1)
                np.multiply(w_q, s0, out=t2)
                np.multiply(w_p, s0, out=t3)
                np.multiply(w_q, c0, out=t4)
                np.subtract(t1, t2, out=w_p)
                np.add(t3, t4, out=w_q)
                # Analytic updates keep the pivot entries exactly consistent.
                diag[p] = w_p[p] = app - t * apq
                diag[qq] = w_q[qq] = aqq_d + t * apq
                w_p[qq] = 0.0
                w_q[p] = 0.0
                cols[p][...] = heads[p]
                cols[qq][...] = heads[qq]


def _jacobi_input(m, name):
    """``(a, target, e)``: the one place :func:`sym_eig` and :func:`eigvals`
    prepare an input.  It checks ``m`` and returns ``a``, the symmetrized
    ``2**-e m``, with its target ``1e-14 ||a||_F``; the solved eigenvalues
    times ``2**e`` are m's.  ``a`` is bitwise symmetric, and every rotation
    of both kernels keeps it so, because each copies its new rows into
    the matching columns: a matrix's column p always equals its row p.

    The convergence test squares the entries, so it only means something
    while ``||a||_F^2`` is a finite normal number; beyond that target and
    off-diagonal mass both read ``inf`` (or ``0``) and the diagonal comes
    back after no sweep.  That is exact for a diagonal matrix, which is
    returned as checked.  Any other such matrix is scaled by the power of
    two that brings its largest entry into [0.5, 1) and symmetrized again,
    so no finite entry overflows; rotations are invariant under that
    scaling, so the basis is an in-range multiple's.
    """
    m = check_symmetric(m, name)
    with np.errstate(over="ignore"):
        a = symmetrize(m)
        sq = float(np.sum(a * a))
    e = 0
    if not _TINY <= sq < math.inf:
        if np.count_nonzero(m) == np.count_nonzero(m.diagonal()):
            return m, _JACOBI_TOL * math.sqrt(sq), 0
        e = math.frexp(float(np.max(np.abs(m))))[1]
        a = symmetrize(np.ldexp(m, -e))
        sq = float(np.sum(a * a))
    return a, _JACOBI_TOL * math.sqrt(sq), e


def _off_mass(stack):
    """Off-diagonal Frobenius masses of an ``(m, n, n)`` stack, shape
    ``(m,)``, summed directly: the ||A||^2 - ||diag||^2 form cancels
    catastrophically near convergence.  The stack is copied as ``(m,
    n * n)`` rows and every diagonal zeroed through one stride-``(n + 1)``
    view before squaring, so a huge diagonal entry cannot overflow (and
    warn) in a sum that leaves it out.  ``np.sum(axis=1)`` adds each
    contiguous row pairwise, exactly as ``np.sum`` adds one matrix."""
    m, n = stack.shape[:2]
    sq = np.array(stack, dtype=float).reshape(m, n * n)
    sq[:, :: n + 1] = 0.0
    sq *= sq
    return np.sqrt(np.sum(sq, axis=1))


def eigvals(stack):
    """Eigenvalues of every matrix in a stack, by cyclic Jacobi in lockstep.

    ``eigvals(stack)[i]`` equals ``sym_eig(stack[i]).eigenvalues`` byte for
    byte: each matrix receives exactly the arithmetic :func:`sym_eig`
    applies to it, in the same order, and no basis is kept.  A matrix
    retires once it converges; the sweeps go on for the rest.  Python
    overhead is paid per pivot rather than per matrix, so a stack is much
    faster than a loop of ``sym_eig`` calls, and a single matrix slower
    than ``sym_eig``.  If any matrix still exceeds its target after
    ``_JACOBI_MAX_SWEEPS`` sweeps the whole call raises ConvergenceError.

    ``stack`` is an (m, n, n) array_like of matrices, each checked as
    :func:`sym_eig` checks one; row ``i`` of the (m, n) result holds the
    eigenvalues of ``stack[i]``, ascending.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"eigvals input must be a stack of square matrices, got shape {stack.shape}")
    m, n = stack.shape[:2]
    a = np.empty((m, n, n))
    out = np.empty((m, n))
    live = np.arange(m)  # stack index of each row of ``a``
    target = np.empty(m)
    e = np.zeros(m, dtype=np.intc)  # each matrix's eigenvalues scale back by 2**e
    for i, mat in enumerate(stack):
        a[i], target[i], e[i] = _jacobi_input(mat, "eigvals input")
    max_sweeps = _JACOBI_MAX_SWEEPS
    # Between sweeps the live stack is a contiguous (m, n, n) array; each
    # sweep runs on a stack-last (n, n, m) copy (_eigvals_sweep).
    for sweep in range(max_sweeps + 1):
        off = _off_mass(a)
        done = off <= target
        if done.any():
            w = np.diagonal(a[done], axis1=1, axis2=2)
            order = np.argsort(w, axis=1, kind="stable")
            out[live[done]] = np.take_along_axis(w, order, axis=1)
            keep = ~done
            a, live, off, target = a[keep], live[keep], off[keep], target[keep]
        if not len(live):
            return np.ldexp(out, e[:, None])
        if sweep == max_sweeps:
            raise ConvergenceError(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
                f"(off-diagonal mass {off[0]:.3e}, target {target[0]:.3e}, "
                f"matrix {live[0]} of the stack)"
            )
        thresh = 0.2 * off / n if sweep < 3 else None
        b = np.ascontiguousarray(a.transpose(1, 2, 0))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            _eigvals_sweep(b, n, thresh)
        a = np.ascontiguousarray(b.transpose(2, 0, 1))


def _eigvals_sweep(b, n, thresh):
    """One cyclic sweep of :func:`eigvals` over the live stack, in place.

    ``b`` is the stack in stack-last layout, shape ``(n, n, m)``: row
    ``b[p]`` is a contiguous ``(n, m)`` block and each pivot entry a
    contiguous ``(m,)`` vector over the matrices.  Per pivot the same
    scalar steps as :func:`sym_eig`, elementwise over the matrices whose
    pivot passes its skip test (``thresh`` holds the per-matrix
    thresholds of an early sweep, None for a late one, where the test is
    ``apq != 0``).  ``tau >= 0`` and ``tau < 0`` share
    ``1 / (|tau| + sqrt(1 + tau^2))``, negated for the second: IEEE
    division is sign-symmetric, so that is the scalar branch's value
    exactly.  Every constant operand is a module-level 0-d array
    (:func:`_constant`).

    The rows, the column views and eight ``(n, m)`` scratch blocks are
    taken once per sweep.  Per pivot ``c`` and ``s`` are broadcast into
    two of the blocks once, and the four products go into four more
    with ``out=``, so no product broadcasts.  When every matrix rotates,
    the two sums go straight into rows p and q.  When only some do, the
    pivot is computed at full width with ``apq = 1`` where a matrix
    skips, the sums go into the last two blocks, and each row becomes
    ``np.where(rotate, block, row)``, which is cheaper than a gather or
    masked writes.  Either way the rows are then copied into columns p
    and q, which a skipping matrix survives bit for bit: its column p
    already equals its row p (:func:`_jacobi_input`).
    """
    m = b.shape[2]
    rows = list(b)
    cols = [b[:, k] for k in range(n)]
    t1, t2, t3, t4, r_p, r_q, c_block, s_block = np.empty((8, n, m))
    for p in range(n - 1):
        b_p = rows[p]
        for qq in range(p + 1, n):
            apq = b_p[qq]
            if thresh is None:
                rotate = apq != _ZERO
            else:
                # A live matrix has thresh >= 0.2 * target / n > 0, so this
                # also skips apq == 0.
                rotate = ~(np.abs(apq) <= thresh)
            count = np.count_nonzero(rotate)
            if not count:
                continue
            if count < m:
                # Full width; a skipping matrix gets a harmless apq = 1 and
                # keeps its rows, which its columns equal.
                apq = np.where(rotate, apq, _ONE)
            b_q = rows[qq]
            app, aqq_d = b_p[p], b_q[qq]
            tau = (aqq_d - app) / (_TWO * apq)
            abs_tau = np.abs(tau)
            t = _ONE / (abs_tau + np.sqrt(_ONE + tau * tau))
            # For finite tau, t > 0 takes tau's sign; + 0.0 turns a -0.0
            # tau into +0.0, which the scalar branch counts as tau >= 0.
            t = np.copysign(t, tau + _ZERO)
            if np.count_nonzero(abs_tau <= _TAU_BIG) != m:
                t = np.where(
                    np.isfinite(tau),
                    np.where(abs_tau > _TAU_BIG, _ONE / (_TWO * tau), t),
                    _ZERO,  # negligible pivot; the explicit zeroing removes it
                )
            c = _ONE / np.sqrt(_ONE + t * t)
            s = t * c
            t_apq = t * apq
            # Analytic updates keep the pivot entries exactly consistent.
            new_pp = app - t_apq
            new_qq = aqq_d + t_apq
            c_block[...] = c
            s_block[...] = s
            np.multiply(b_p, c_block, out=t1)
            np.multiply(b_q, s_block, out=t2)
            np.multiply(b_p, s_block, out=t3)
            np.multiply(b_q, c_block, out=t4)
            # c * row_p - s * row_q and s * row_p + c * row_q: straight
            # into rows p and q when every matrix rotates, else into
            # scratch rows taken where the matrix rotates.
            row_p, row_q = (b_p, b_q) if count == m else (r_p, r_q)
            np.subtract(t1, t2, out=row_p)
            np.add(t3, t4, out=row_q)
            row_p[p] = new_pp
            row_p[qq] = 0.0
            row_q[qq] = new_qq
            row_q[p] = 0.0
            if count < m:
                b_p[...] = np.where(rotate, r_p, b_p)
                b_q[...] = np.where(rotate, r_q, b_q)
            cols[p][...] = b_p
            cols[qq][...] = b_q


def solve_lyapunov(x, u):
    """Solve X L + L X = U for symmetric L, with X positive definite.

    Works in the eigenbasis of X: if X = Q diag(w) Q^T then
    L = Q [ (Q^T U Q)_ij / (w_i + w_j) ] Q^T.

    When ``2 w_max`` overflows, numerator and denominator are both halved
    first, so ``w_i / 2 + w_j / 2`` stays finite up to the float maximum;
    every other pencil takes the plain quotient.

    U is checked by :func:`check_symmetric`; X only by :func:`sym_eig`,
    whose :func:`_jacobi_input` raises ValueError naming ``sym_eig
    input``.  Raises DomainError unless X's smallest eigenvalue exceeds
    1e-12 times its largest, a test relative at every scale that also
    rejects a zero or negative spectrum.
    """
    u = check_symmetric(u, "solve_lyapunov right-hand side")
    eig = sym_eig(x)
    w = eig.eigenvalues
    # The package's one eigenvalue-ratio rule: the quotient below divides
    # by w_i + w_j, so it needs a conditioning cutoff that require_spd's
    # certificate, which decides every other SPD question, does not give.
    lo, hi = w[[0, -1]]
    if not lo > 1e-12 * hi:
        raise DomainError(
            f"solve_lyapunov requires a positive definite matrix (min eigenvalue {lo:.3e} "
            f"not above 1e-12 times max eigenvalue {hi:.3e})"
        )
    qt_u_q = eig.basis.T @ u @ eig.basis
    if 2.0 * float(w[-1]) == math.inf:
        w = 0.5 * w
        qt_u_q = 0.5 * qt_u_q
    return symmetrize(eig.basis @ (qt_u_q / (w[:, None] + w[None, :])) @ eig.basis.T)


def spd_sqrt(x):
    """Principal square root of a positive definite matrix.

    X is checked only by :func:`sym_eig`, whose :func:`_jacobi_input`
    raises ValueError naming ``sym_eig input``.  Raises DomainError,
    naming the smallest computed eigenvalue, exactly when
    :func:`require_spd` refuses X, the certificate a Bures-Wasserstein
    point passes.  An eigenvalue rounded below 0 reads as 0.
    """
    eig = sym_eig(x)
    try:
        require_spd(x)
    except DomainError:
        raise DomainError(
            f"spd_sqrt requires a positive definite matrix (min eigenvalue {eig.eigenvalues[0]:.3e})"
        ) from None
    # No conditioning cutoff: |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), so an
    # eigenvalue's rounding moves its root by at most the rounding's root.
    return symmetrize((eig.basis * np.sqrt(np.maximum(eig.eigenvalues, 0.0))) @ eig.basis.T)


def cholesky(x):
    """Lower-triangular Cholesky factor of a strictly positive definite matrix.

    Raises DomainError on the first non-positive or non-finite pivot.  It
    decides the cases :func:`require_spd`'s LAPACK screen cannot certify,
    and is the oracle its tests compare against.  The one SPD decision
    made without them is :func:`solve_lyapunov`'s eigenvalue ratio.
    """
    a = np.asarray(x, dtype=float)
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - np.dot(low[j, :j], low[j, :j])
        if not d > 0.0 or not np.isfinite(d):
            raise DomainError(f"matrix is not positive definite (pivot {j})")
        low[j, j] = math.sqrt(d)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def _lapack_certifies_spd(a, shift):
    """Whether LAPACK's Cholesky factors ``a - shift I``: a yes/no
    certificate, read from the lower triangle, for finite ``a`` and
    ``shift`` (callers check; LAPACK can factor an infinite pivot).

    Success makes ``a - shift I + E`` positive definite with
    ``||E||_2 <~ n (n + 1) eps (||a||_2 + |shift|)`` (Higham, Thms
    10.3/10.7, plus the rounding of the shifted diagonal); each caller
    chooses its shift to cover that.
    """
    b = np.array(a, dtype=float, order="C")
    b.reshape(-1)[:: b.shape[0] + 1] -= shift
    try:
        np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return False
    return True


def require_spd(x):
    """Raise DomainError exactly when ``cholesky(x)`` would; return None.

    LAPACK factors ``x - s I`` with ``s = 4 n^2 eps max_i x_ii``.  Its
    success puts ``lambda_min(x)`` above ``3 n^2 eps max_i x_ii`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.3),
    and :func:`cholesky` can meet a non-positive pivot only below the
    relative level ``n (n + 1) eps / 2`` (Thm 10.7).  Anything else (a
    LAPACK failure, a NaN or infinite entry, a tiny or non-positive shift)
    goes to ``cholesky``, which decides and raises its own message.  Like
    ``cholesky``, it reads the lower triangle only.
    """
    a = np.asarray(x, dtype=float)
    n = a.shape[0]
    if n and np.isfinite(a).all():
        shift = 4.0 * n * n * _EPS * float(np.maximum.reduce(np.diagonal(a)))
        if shift >= _MIN_SPD_SHIFT and _lapack_certifies_spd(a, shift):
            return
    cholesky(a)
