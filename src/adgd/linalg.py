"""Dense symmetric linear algebra kernels.

Every value these kernels return is computed from scratch on top of plain
``numpy`` arrays: a cyclic Jacobi eigensolver with one-sided rotation
updates (``tests/test_linalg.py`` holds the two-sided loop as its bitwise
oracle), a Lyapunov solver working in the eigenbasis, an SPD matrix square
root and a Cholesky factorization.
They are the workhorses of the Bures-Wasserstein geometry and double as
test oracles, so they favour robustness and explicit failure over raw
speed.  LAPACK (through ``numpy.linalg``) only decides yes/no questions
with a certified rounding margin, as in :func:`require_spd`; its output
never reaches a value that gets written.  All functions are pure; inputs
are never mutated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "EigenDecomposition",
    "symmetrize",
    "check_symmetric",
    "sym_eig",
    "solve_lyapunov",
    "spd_sqrt",
    "frobenius_norm",
    "is_spd_spectrum",
    "cholesky",
    "require_spd",
]

# Relative asymmetry tolerated at construction / validation time.
_SYM_TOL = 1e-12

# Off-diagonal mass threshold for Jacobi convergence, relative to ||M||_F.
_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100

_EPS = float(np.finfo(float).eps)
# Smallest shift require_spd trusts LAPACK with: far enough above the
# underflow threshold that flushed or subnormal products cannot eat the
# certified margin.
_MIN_SPD_SHIFT = float(np.finfo(float).tiny) / _EPS


class EigenDecomposition:
    """Spectral factorization M = Q diag(w) Q^T of a symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (n,)
        Eigenvalues sorted ascending.
    basis : ndarray, shape (n, n)
        Orthogonal matrix; column ``i`` is the eigenvector for
        ``eigenvalues[i]``.
    """

    __slots__ = ("eigenvalues", "basis")

    def __init__(self, eigenvalues, basis):
        self.eigenvalues = eigenvalues
        self.basis = basis

    def reconstruct(self):
        """Return Q diag(w) Q^T."""
        return (self.basis * self.eigenvalues) @ self.basis.T


def symmetrize(m):
    """Exact symmetrization (M + M^T) / 2."""
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
    is symmetrized exactly and every rotation keeps the working matrix
    bitwise symmetric, so a rotation's column update equals its row update
    transposed.  Each rotation therefore computes the new rows p and q once,
    writes each into its row and its column, and sets the four pivot
    entries analytically.  ``tests/test_linalg.py`` keeps the two-sided
    loop as the oracle this kernel matches byte for byte.  More than
    ``_JACOBI_MAX_SWEEPS`` sweeps (100, read at call time) raise
    ConvergenceError rather than return a silently inaccurate factorization.

    Parameters
    ----------
    m : array_like, shape (n, n)
        Symmetric matrix (validated to 1e-12 relative asymmetry).

    Returns
    -------
    EigenDecomposition
        Eigenvalues ascending, orthonormal basis columns.
    """
    a = check_symmetric(m, "sym_eig input")
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    q = np.eye(n)
    target = _JACOBI_TOL * math.sqrt(float(np.sum(a * a)))
    max_sweeps = _JACOBI_MAX_SWEEPS
    for sweep in range(max_sweeps + 1):
        # Off-diagonal mass, summed directly: the ||A||^2 - ||diag||^2
        # form cancels catastrophically near convergence.
        sq = a * a
        np.fill_diagonal(sq, 0.0)
        off = math.sqrt(float(np.sum(sq)))
        if off <= target:
            w = np.diag(a)
            order = np.argsort(w, kind="stable")
            return EigenDecomposition(w[order], q[:, order])
        if sweep == max_sweeps:
            raise ConvergenceError(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
                f"(off-diagonal mass {off:.3e}, target {target:.3e})"
            )
        # Classic thresholding: early sweeps skip pivots far below the
        # remaining off-diagonal mass, late sweeps rotate everything.
        thresh = 0.2 * off / n if sweep < 3 else 0.0
        for p in range(n - 1):
            for qq in range(p + 1, n):
                apq = float(a[p, qq])
                if apq == 0.0 or abs(apq) <= thresh:
                    continue
                app = float(a[p, p])
                aqq_d = float(a[qq, qq])
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

                row_p = c * a[p, :] - s * a[qq, :]
                row_q = s * a[p, :] + c * a[qq, :]
                a[p, :] = a[:, p] = row_p
                a[qq, :] = a[:, qq] = row_q
                # Analytic updates keep the pivot entries exactly consistent.
                a[p, p] = app - t * apq
                a[qq, qq] = aqq_d + t * apq
                a[p, qq] = 0.0
                a[qq, p] = 0.0

                qcol_p = c * q[:, p] - s * q[:, qq]
                qcol_q = s * q[:, p] + c * q[:, qq]
                q[:, p] = qcol_p
                q[:, qq] = qcol_q


def is_spd_spectrum(eigenvalues):
    """Whether a spectrum passes the SPD tolerance test: its smallest
    eigenvalue exceeds 1e-12 * max(1, largest eigenvalue)."""
    ev = np.asarray(eigenvalues, dtype=float)
    return float(np.min(ev)) > 1e-12 * max(1.0, float(np.max(ev)))


def _spd_eig(x, name):
    eig = sym_eig(x)
    if not is_spd_spectrum(eig.eigenvalues):
        raise DomainError(
            f"{name} requires a positive definite matrix "
            f"(min eigenvalue {float(np.min(eig.eigenvalues)):.3e})"
        )
    return eig


def solve_lyapunov(x, u):
    """Solve X L + L X = U for symmetric L, with X positive definite.

    Works in the eigenbasis of X: if X = Q diag(w) Q^T then
    L = Q [ (Q^T U Q)_ij / (w_i + w_j) ] Q^T.

    Raises DomainError when X fails the SPD tolerance test.
    """
    u = check_symmetric(u, "solve_lyapunov right-hand side")
    eig = _spd_eig(check_symmetric(x, "solve_lyapunov pencil"), "solve_lyapunov")
    w = eig.eigenvalues
    qt_u_q = eig.basis.T @ u @ eig.basis
    denom = w[:, None] + w[None, :]
    sol = eig.basis @ (qt_u_q / denom) @ eig.basis.T
    return 0.5 * (sol + sol.T)


def spd_sqrt(x):
    """Principal square root of a positive definite matrix.

    Raises DomainError when X fails the SPD tolerance test.
    """
    eig = _spd_eig(check_symmetric(x, "spd_sqrt input"), "spd_sqrt")
    s = (eig.basis * np.sqrt(eig.eigenvalues)) @ eig.basis.T
    return 0.5 * (s + s.T)


def frobenius_norm(a):
    return float(np.sqrt(np.sum(np.asarray(a, dtype=float) ** 2)))


def cholesky(x):
    """Lower-triangular Cholesky factor of a strictly positive definite matrix.

    Raises DomainError on the first non-positive or non-finite pivot.  It
    decides the cases :func:`require_spd`'s LAPACK screen cannot certify,
    and is the oracle its tests compare against.  Tolerance-based SPD
    validation goes through ``sym_eig`` instead.
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
        shift = 4.0 * n * n * _EPS * float(np.max(np.diagonal(a)))
        if shift >= _MIN_SPD_SHIFT:
            try:
                np.linalg.cholesky(a - shift * np.eye(n))
                return
            except np.linalg.LinAlgError:
                pass
    cholesky(a)
