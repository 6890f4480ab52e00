"""Benchmark objectives with Euclidean gradients and seeded generators.

Each generator returns a :class:`Problem`: callables for the objective
value and its Euclidean (ambient) gradient (with a joint evaluator of
both for the sphere center of mass, whose two share their costly work), a
deterministic starting point, the known optimum when one is available, and
expensive-operation price tags used by the benchmark accounting
(matrix-vector products for sphere objectives, matrix-matrix products for
SPD objectives).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import DomainError
from .manifolds import Sphere

# Reference-solve stops; its floating-point fixed point comes long before the cap.
_REFERENCE_TOL = 1e-13
_REFERENCE_MAX_ITERS = 100_000


class JointEvaluator(NamedTuple):
    """``evaluate(x)`` returns ``(value(x), euclidean_grad(x))`` bit for bit,
    computing their shared work once; it stands for exactly the ``value``
    and ``euclidean_grad`` callables named here."""

    value: Callable[[Any], float]
    euclidean_grad: Callable[[Any], Any]
    evaluate: Callable[[Any], tuple]


@dataclass
class Problem:
    """Objective + gradient evaluators over one manifold's points.

    ``joint`` is optional: without it, or once ``value`` or
    ``euclidean_grad`` is no longer the very object ``joint`` was built
    from (``dataclasses.replace``, a wrapper), :meth:`value_and_grad`
    calls the two callables instead.
    """

    value: Callable[[Any], float]
    euclidean_grad: Callable[[Any], Any]
    x0: Any
    optimum_point: Optional[Any] = None
    optimum_value: Optional[float] = None
    value_ops: int = 0
    grad_ops: int = 0
    extras: dict = field(default_factory=dict)
    joint: Optional[JointEvaluator] = None

    def value_and_grad(self, x):
        """``(value(x), euclidean_grad(x))``, through ``joint`` when it still
        stands for both callables, else through them, value first."""
        joint = self.joint
        if (
            joint is not None
            and joint.value is self.value
            and joint.euclidean_grad is self.euclidean_grad
        ):
            return joint.evaluate(x)
        return self.value(x), self.euclidean_grad(x)


def _hemisphere_points(rng, n, count):
    # Uniform on the sphere, then the last coordinate is forced positive so
    # every sample lies in the open upper hemisphere.
    pts = rng.standard_normal((count, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, -1] = np.abs(pts[:, -1])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def center_of_mass(n, n_points=50, seed=0):
    """Sum of squared geodesic distances to fixed hemisphere points.

    phi(x) = sum_i arccos(<p_i, x>)^2 / 2 on the unit sphere; its Euclidean
    gradient is -sum_i (theta_i / sin theta_i) p_i with theta_i the angle to
    p_i (the coefficient tends to 1 as theta_i -> 0).  A high-accuracy
    fixed-step descent (:func:`fixed_step_reference`) provides the optimum.
    """
    rng = np.random.default_rng(seed)
    pts = _hemisphere_points(rng, n, n_points)

    # Plain ufuncs on the 50-element angle vector, unmasked: np.clip,
    # np.sum and a masked np.divide compute the same values with more
    # overhead.
    def _angles(x):
        c = pts @ x
        # Counted, not np.minimum.reduce: a NaN must not hide an antipodal term.
        if np.count_nonzero(c <= -1.0 + 1e-12):
            raise DomainError("center-of-mass term evaluated at an antipodal point")
        # Every non-NaN c now exceeds -1, so only the upper clip can bite.
        return np.minimum(c, 1.0)

    def _value(theta):
        return 0.5 * float(np.add.reduce(theta * theta))

    def _coefficients(c, theta):
        return theta / np.sqrt(1.0 - c * c)  # theta / sin theta; 1 - c * c >= 0

    def _grad(c, theta):
        # Coefficient 1 where 1 - c < 1e-12 (x within about 1e-6 of a data
        # point), where the quotient may be 0 / 0 or theta / 0; a NaN angle
        # fails the test and keeps its NaN quotient.
        near = 1.0 - c < 1e-12
        if not np.count_nonzero(near):
            return -(pts.T @ _coefficients(c, theta))
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = _coefficients(c, theta)
        coef[near] = 1.0
        return -(pts.T @ coef)

    def value(x):
        return _value(np.arccos(_angles(x)))

    def euclidean_grad(x):
        c = _angles(x)
        return _grad(c, np.arccos(c))

    def value_and_grad(x):
        c = _angles(x)
        theta = np.arccos(c)
        return _value(theta), _grad(c, theta)

    x0 = pts.mean(axis=0)
    x0 /= np.linalg.norm(x0)
    prob = Problem(
        value=value,
        euclidean_grad=euclidean_grad,
        x0=x0,
        value_ops=1,
        grad_ops=1,
        extras={"points": pts},
        joint=JointEvaluator(value, euclidean_grad, value_and_grad),
    )
    xstar, stop, steps, grad_norm = fixed_step_reference(prob, Sphere(), step=1.0 / n_points)
    prob.optimum_point = xstar
    prob.optimum_value = value(xstar)
    prob.extras["reference"] = {"stop": stop, "steps": steps, "grad_norm": grad_norm}
    return prob


def rayleigh(n, seed=0):
    """Rayleigh quotient x^T A x on the unit sphere; minimum is the smallest
    eigenvalue of A.  Nonconvex, but a standard stress test."""
    rng = np.random.default_rng(seed)
    a = linalg.symmetrize(rng.standard_normal((n, n)))
    lam_min = float(linalg.sym_eig(a).eigenvalues[0])

    def value(x):
        return float(x @ (a @ x))

    def euclidean_grad(x):
        return 2.0 * (a @ x)

    x0 = rng.standard_normal(n)
    x0 /= np.linalg.norm(x0)
    return Problem(
        value=value,
        euclidean_grad=euclidean_grad,
        x0=x0,
        optimum_value=lam_min,
        value_ops=1,
        grad_ops=1,
        extras={"A": a},
    )


def _random_spd(rng, n, lo, hi):
    q = linalg.sym_eig(linalg.symmetrize(rng.standard_normal((n, n)))).basis
    w = rng.uniform(lo, hi, size=n)
    return linalg.symmetrize((q * w) @ q.T)


def lyapunov_objective(n, seed=0):
    """phi(X) = Tr(X A X) - Tr(X C) over SPD matrices.

    The minimizer solves A X + X A = C; restricting A to be symmetric
    positive definite lets the eigenbasis Lyapunov solver double as the
    exact reference.
    """
    rng = np.random.default_rng(seed)
    a = _random_spd(rng, n, 1.0, 3.0)
    c = _random_spd(rng, n, 1.0, 3.0)
    xstar = linalg.solve_lyapunov(a, c)

    def value(x):
        xa = x @ a
        return float(np.add.reduce(xa * x, axis=None) - np.add.reduce(x * c, axis=None))

    def euclidean_grad(x):
        xa = x @ a
        return xa + xa.T - c

    return Problem(
        value=value,
        euclidean_grad=euclidean_grad,
        x0=np.eye(n),
        optimum_point=xstar,
        optimum_value=value(xstar),
        value_ops=1,
        grad_ops=1,
        extras={"A": a, "C": c},
    )


def weighted_least_squares(n, seed=0, density=None):
    """phi(X) = ||A . X - B||_F^2 with . the entrywise (Hadamard) product.

    ``density`` in (0, 1] zeroes out entries of the symmetric weight matrix
    A (sparse weights stored densely).  The target is an exact fit
    B = A . S of a random SPD matrix S, so the minimizer is an interior
    point of the cone with value zero; a random symmetric target would put
    the constrained optimum on the cone boundary and every descent run
    would stall against the domain guard.  The Euclidean gradient is
    2 (A . X - B) . A; the factor 2 is what the finite-difference check of
    the stated objective requires.  Evaluations use Hadamard products only,
    so both price tags are zero.
    """
    rng = np.random.default_rng(seed)
    a = linalg.symmetrize(rng.standard_normal((n, n)))
    if density is not None:
        mask = rng.random((n, n)) < density
        mask = np.triu(mask) | np.triu(mask).T
        a = a * mask
    target = _random_spd(rng, n, 0.5, 2.0)
    b = a * target

    def value(x):
        r = a * x - b
        return float(np.add.reduce(r * r, axis=None))

    def euclidean_grad(x):
        return 2.0 * (a * x - b) * a

    return Problem(
        value=value,
        euclidean_grad=euclidean_grad,
        x0=np.eye(n),
        # With zero weights the fit is non-unique, so only the value is known.
        optimum_point=None if density is not None else target,
        optimum_value=0.0,
        value_ops=0,
        grad_ops=0,
        extras={"A": a, "B": b, "S": target},
    )


def linear_minus_log(n, seed=0):
    """Separable objective sum_i (x_i - c_i ln x_i) on the positive orthant.

    Geodesically convex there (its pullback under x = exp(y) is convex),
    with optimum exactly x = c.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.5, 2.0, size=n)
    x0 = rng.uniform(0.5, 2.0, size=n)

    def value(x):
        return float(np.add.reduce(x - c * np.log(x)))

    def euclidean_grad(x):
        return 1.0 - c / x

    return Problem(
        value=value,
        euclidean_grad=euclidean_grad,
        x0=x0,
        optimum_point=c.copy(),
        optimum_value=float(np.add.reduce(c - c * np.log(c))),
        extras={"c": c},
    )


def fixed_step_reference(problem, manifold, step):
    """High-accuracy reference optimum via plain fixed-step descent,
    deliberately independent of the adaptive optimizer.

    Returns ``(x, stop, steps, grad_norm)``: the reference point; the stop,
    ``"tol"`` once the Riemannian gradient norm is at most
    ``_REFERENCE_TOL``, ``"fixed-point"`` once a step returns its own
    starting point (every later iterate would be that point; the step
    counts), or ``"cap"`` after ``_REFERENCE_MAX_ITERS`` steps; the number
    of exponential steps taken; and the gradient norm at ``x``.
    """
    x = problem.x0
    for steps in range(_REFERENCE_MAX_ITERS + 1):
        g = manifold.egrad_to_rgrad(x, problem.euclidean_grad(x))
        grad_norm = manifold.norm(x, g)
        if grad_norm <= _REFERENCE_TOL:
            return x, "tol", steps, grad_norm
        if steps == _REFERENCE_MAX_ITERS:
            return x, "cap", steps, grad_norm
        x_next = manifold.exp(x, (-step) * g)
        if np.array_equal(x_next, x):
            return x, "fixed-point", steps + 1, grad_norm
        x = x_next
