"""Riemannian gradient descent with an adaptive step size, and baselines.

Every method runs through one driver, :func:`_drive`.  At each iterate
``x_k`` it

1. evaluates the objective ``phi(x_k)`` and the Riemannian gradient
   ``g_k``, unless the previous step already did (both at once, through
   ``Problem.value_and_grad``, when it did neither), and aborts the run
   if either is not finite;
2. notes whether the run stops here: ``converged`` once
   ``||g_k|| <= tol``, else ``max-iters`` at ``k = max_iters``;
3. asks a step rule for the step size and the next iterate
   ``x_{k+1} = exp(x_k, -alpha_k g_k)``;
4. records one :class:`TraceRow` and stops, or moves to ``x_{k+1}``.

After the loop, however the run ended, :func:`_drive` fills the rows'
distance to the optimum (when known and tracked) with one
``manifold.distance_from`` call over the recorded iterates; the column is
a diagnostic and never feeds a step.

The step rules:

* :func:`_adaptive_rule`, the paper's method (:func:`adgd_run`).  Each of
  the paper's three operations per iteration is one metered call: the
  gradient (:meth:`_Meter.value_and_grad` or :meth:`_Meter.grad`, in
  :func:`_drive`), the exponential map (:meth:`_Meter.exp`) and, from ``k = 1``,
  the comparison of ``g_k`` with the previous gradient
  parallel-transported along the last step (:meth:`_Meter.grad_change`).
  The step combines a growth cap ``sqrt(1 + theta) * alpha_prev`` with a
  local inverse-smoothness estimate; there is no line search, except the
  optional first-LS warm start that doubles ``alpha0`` at ``k = 0``.  It
  is the Riemannian form of the rule of Malitsky & Mishchenko, *Adaptive
  Gradient Descent without Descent* (arXiv:1910.09529).  With the step
  pinned it is the constant-step baseline (:func:`fixed_run`); on flat
  R^n it is :func:`euclidean_adgd_run`, the oracle for the
  positive-orthant equivalence.
* :func:`_armijo_rule`, the backtracking line-search baseline
  (:func:`armijo_run`) whose first trial grows as ``lambda * eta_prev``.

Each row holds the objective value, gradient norm, step size, step ratio,
the local inverse-smoothness estimate, cumulative work counters, optional
distance to the optimum, and a flag recording whether any numerical guard
fired.

Work counters: ``fn_evals`` and ``exp_evals`` count objective and
exponential-map evaluations directly (line-search trials included);
``expensive_ops`` charges the price tags declared by the problem and the
manifold (matrix-vector products on the sphere, matrix-matrix products
on SPD matrices) per gradient evaluation, per objective evaluation, per
exponential call, and per adaptive step-size evaluation, so that all
optimizers are metered identically.  A row's counters include the work
of its own step.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .manifolds import Manifold

_SQRT2 = math.sqrt(2.0)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max-iters"
STATUS_ABORTED = "aborted"

_MAX_BACKTRACKS = 60
_MAX_FIRST_LS_DOUBLINGS = 60
_DIVERGENCE_STREAK = 50


@dataclass
class RunConfig:
    """Knobs shared by all runs; Armijo fields are ignored elsewhere.

    ``max_iters`` is an integer and the float fields are real numbers
    (numpy scalars will do, a bool will not); ``first_ls`` and
    ``track_distance`` are bools.  A wrong-typed field or a value out of
    range raises ``ValueError``.
    The step-domain clamp is not a knob: every run clamps.
    """

    max_iters: int = 1000
    tol: float = 1e-10
    alpha0: float = 1.0
    first_ls: bool = False
    armijo_c: float = 1e-4
    armijo_beta: float = 0.5
    armijo_lambda: float = 1.0
    # Record distance-to-optimum per iterate when the optimum is known;
    # turn off to skip the distance column on large runs.
    track_distance: bool = True

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        for name in ("tol", "alpha0", "armijo_c", "armijo_beta", "armijo_lambda"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        for name in ("first_ls", "track_distance"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if not 0.0 < self.alpha0 < math.inf:
            raise ValueError("alpha0 must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not 0.0 < self.armijo_beta < 1.0:
            raise ValueError("armijo_beta must lie in (0, 1)")
        if not 1.0 <= self.armijo_lambda < math.inf:
            raise ValueError("armijo_lambda must be finite and >= 1")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not self.tol >= 0.0:
            raise ValueError("tol must be nonnegative")


@dataclass
class TraceRow:
    """Per-iterate record; ``ell`` is 0.0 where undefined (k = 0, or a
    vanishing gradient-difference denominator)."""

    k: int
    phi: float
    grad_norm: float
    alpha: float
    theta: float
    ell: float
    fn_evals: int
    exp_evals: int
    expensive_ops: int
    dist_to_opt: Optional[float]
    clamped: bool


@dataclass
class Trace:
    rows: list
    points: list
    status: str
    message: str = ""

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows])

    @property
    def final_point(self):
        return self.points[-1]


class _Meter:
    """Cumulative work counters plus per-run context for one run; its
    evaluations run under :func:`_drive`'s ``np.errstate``."""

    __slots__ = ("fn_evals", "exp_evals", "expensive", "manifold", "problem")

    def __init__(self, manifold, problem):
        self.fn_evals = 0
        self.exp_evals = 0
        self.expensive = 0
        self.manifold = manifold
        self.problem = problem

    def value(self, x):
        self.fn_evals += 1
        self.expensive += self.problem.value_ops
        return float(self.problem.value(x))

    def grad(self, x):
        self.expensive += self.problem.grad_ops + self.manifold.rgrad_ops
        return self.manifold.egrad_to_rgrad(x, self.problem.euclidean_grad(x))

    def value_and_grad(self, x):
        """``(value(x), grad(x))`` from one joint evaluation, charged as both."""
        self.fn_evals += 1
        self.expensive += self.problem.value_ops + self.problem.grad_ops + self.manifold.rgrad_ops
        phi, egrad = self.problem.value_and_grad(x)
        return float(phi), self.manifold.egrad_to_rgrad(x, egrad)

    def exp(self, x, v):
        self.exp_evals += 1
        self.expensive += self.manifold.exp_ops
        return self.manifold.exp_flagged(x, v)

    def grad_change(self, x_prev, step, grad_prev, norm_prev, x, grad):
        """``||grad - T grad_prev||`` at ``x = exp(x_prev, step)``, with ``T``
        the transport along the step and ``norm_prev = ||grad_prev||``; one
        adaptive charge."""
        self.expensive += self.manifold.adapt_extra_ops
        transported = self.manifold.transport_along_step(x_prev, step, grad_prev)
        return math.sqrt(self.manifold.grad_diff_norm_sq(x, grad, transported, norm_prev**2))


class _AbortRun(Exception):
    """Internal control flow: numerical abort with a diagnostic message."""


class _Step(NamedTuple):
    """A step rule's answer at ``x_k``.

    ``alpha, theta, ell, clamped`` fill the row.  ``x_next`` is the next
    iterate, dropped when the driver stops at ``x_k``; ``phi_next`` and
    ``grad_next`` are the objective and gradient at ``x_next`` when the
    rule has already evaluated them.  A non-empty ``abort`` ends the run
    once the row is recorded.
    """

    alpha: float
    theta: float = 0.0
    ell: float = 0.0
    clamped: bool = False
    x_next: Any = None
    phi_next: Optional[float] = None
    grad_next: Any = None
    abort: str = ""


# Safety margin keeping clamped steps strictly inside the step domain.
STEP_SAFETY = 0.99


def _clamp_alpha(alpha, manifold, x, neg_grad):
    """Apply the step-domain safety clamp; returns (alpha, clamped?).

    A cheap certificate that ``alpha / STEP_SAFETY <= max_step`` screens
    out the common case (step far from the boundary) before paying for the
    exact supremum; it passes only where the exact path keeps ``alpha``.
    """
    if manifold.max_step_lower_bound(x, neg_grad, alpha / STEP_SAFETY):
        return alpha, False
    limit = STEP_SAFETY * manifold.max_step(x, neg_grad)
    if alpha > limit:
        return limit, True
    return alpha, False


def _drive(config, manifold, problem, make_rule):
    """Run ``make_rule(config, manifold, meter)`` from ``problem.x0``.

    The rule is called once per iterate as
    ``rule(k, x, phi, grad, grad_norm, stop)`` and returns a
    :class:`_Step`; ``stop`` is the status the run ends with at this row,
    or None.  The driver owns the work meter, the evaluations at each
    iterate, the finiteness check, the rows, the stopping rules and the
    mapping of numerical failures (non-finite values, domain errors, rule
    aborts) to status ``aborted``, which keeps the rows recorded so far.
    Once the run has stopped, however it stopped, it fills the rows'
    ``dist_to_opt`` in one ``manifold.distance_from`` call when the
    optimum is known and ``config.track_distance`` is set; the column
    never feeds a step.  The whole run ignores floating-point overflow,
    invalid and divide warnings: a non-finite value reaches the
    finiteness check, which aborts the run with a diagnostic.  A
    ``problem.x0`` off the manifold (``manifold.check_point``) raises
    ValueError before row 0.
    """
    manifold.check_point(problem.x0)
    # The context-manager form: the decorator form is not thread-safe on numpy 1.x.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        meter = _Meter(manifold, problem)
        rule = make_rule(config, manifold, meter)
        rows = []
        points = [problem.x0]
        x, phi, grad = problem.x0, None, None
        message = ""
        try:
            for k in itertools.count():
                if phi is None and grad is None:
                    phi, grad = meter.value_and_grad(x)
                elif phi is None:
                    phi = meter.value(x)
                elif grad is None:
                    grad = meter.grad(x)
                grad_norm = manifold.norm(x, grad)
                if not (math.isfinite(phi) and math.isfinite(grad_norm)):
                    raise _AbortRun(
                        f"non-finite objective ({phi}) or gradient norm ({grad_norm}) "
                        f"at iteration {k}"
                    )
                if grad_norm <= config.tol:
                    stop = STATUS_CONVERGED
                elif k >= config.max_iters:
                    stop = STATUS_MAX_ITERS
                else:
                    stop = None
                step = rule(k, x, phi, grad, grad_norm, stop)
                rows.append(
                    TraceRow(
                        k=k,
                        phi=phi,
                        grad_norm=grad_norm,
                        alpha=step.alpha,
                        theta=step.theta,
                        ell=step.ell,
                        fn_evals=meter.fn_evals,
                        exp_evals=meter.exp_evals,
                        expensive_ops=meter.expensive,
                        dist_to_opt=None,
                        clamped=step.clamped,
                    )
                )
                if step.abort:
                    raise _AbortRun(step.abort)
                if stop is not None:
                    break
                x, phi, grad = step.x_next, step.phi_next, step.grad_next
                points.append(x)
        except (_AbortRun, DomainError, FloatingPointError) as exc:
            stop, message = STATUS_ABORTED, str(exc)
        if config.track_distance and problem.optimum_point is not None:
            dists = manifold.distance_from(problem.optimum_point)(points[: len(rows)])
            for row, dist in zip(rows, dists):
                row.dist_to_opt = dist
    return Trace(rows, points, stop, message)


def _adaptive_rule(config, manifold, meter, pinned=None):
    """The adaptive step size, or the constant ``pinned`` in its place.

    At ``x_k``, ``k >= 1``, with ``T g_{k-1}`` the previous gradient
    transported along the last step (:meth:`_Meter.grad_change`, one
    ``adapt_extra_ops`` charge)::

        ell_k   = alpha_{k-1} ||g_{k-1}|| / ||g_k - T g_{k-1}||
        alpha_k = min(sqrt(1 + theta_{k-1}) alpha_{k-1}, ell_k / sqrt(2))
        theta_k = alpha_k / alpha_{k-1}

    ``ell_k`` is 0 in the row when the denominator vanishes, and
    ``alpha_k`` is then the growth cap.  ``alpha_0 = config.alpha0`` and
    ``theta_0 = 0``.  Every step is clamped to the step domain.

    With ``config.first_ls`` the first step is a warm start: while the
    trial's ratio ``||g_0|| / (sqrt(2) ||g_1 - T g_0||)`` exceeds 1 and
    the step is not clamped, ``alpha_0`` doubles (and is clamped again),
    at most ``_MAX_FIRST_LS_DOUBLINGS`` times, so that the step sequence
    starts at the local inverse-smoothness scale.  Each trial charges an
    exponential and a gradient, and a comparison unless it follows the
    last allowed doubling: that trial is taken as it stands.  The taken
    trial's gradient serves ``k = 1``.

    A converged row reports the step it would take and takes no
    exponential.  The row at ``k = max_iters >= 1`` still takes it, and
    the driver drops the point.  A run that stops at ``x_0`` reports
    ``alpha0`` before clamping.

    With ``pinned`` every step is ``pinned`` (first-LS off; the row's
    ``ell`` is still the estimate), and the run aborts once the objective
    has increased for ``_DIVERGENCE_STREAK`` consecutive iterations.
    """
    # At x_{k-1}: x, g, step, alpha, theta, ||g||, phi.
    prev = None
    streak = 0

    def rule(k, x, phi, grad, grad_norm, stop):
        nonlocal prev, streak
        if prev is None:
            alpha = config.alpha0 if pinned is None else pinned
            if stop is not None:
                return _Step(alpha)
            ell = 0.0
        else:
            x_prev, grad_prev, step_prev, alpha_prev, theta_prev, norm_prev, phi_prev = prev
            denom = meter.grad_change(x_prev, step_prev, grad_prev, norm_prev, x, grad)
            numer = alpha_prev * norm_prev
            ell = numer / denom if denom > 0.0 else 0.0
            if pinned is None:
                local = numer / (_SQRT2 * denom) if denom > 0.0 else math.inf
                alpha = min(math.sqrt(1.0 + theta_prev) * alpha_prev, local)
            else:
                alpha = pinned
        neg_grad = -1.0 * grad
        alpha, clamped = _clamp_alpha(alpha, manifold, x, neg_grad)
        # alpha_prev is zero only under a pinned zero step; the ratio is moot then.
        theta = alpha / alpha_prev if prev is not None and alpha_prev > 0.0 else 0.0
        if stop == STATUS_CONVERGED:
            return _Step(alpha, theta, ell, clamped)

        step = alpha * neg_grad
        x_next, exp_clamped = meter.exp(x, step)
        grad_next = None
        if prev is None and config.first_ls and pinned is None:
            # First-LS: each pass compares the last trial, then doubles.
            grad_next = meter.grad(x_next)
            for _ in range(_MAX_FIRST_LS_DOUBLINGS):
                denom = meter.grad_change(x, step, grad, grad_norm, x_next, grad_next)
                ratio = grad_norm / (_SQRT2 * denom) if denom > 0.0 else math.inf
                if ratio <= 1.0 or clamped:
                    break
                alpha, clamped = _clamp_alpha(2.0 * alpha, manifold, x, neg_grad)
                step = alpha * neg_grad
                x_next, exp_clamped = meter.exp(x, step)
                grad_next = meter.grad(x_next)

        abort = ""
        if pinned is not None and prev is not None:
            streak = streak + 1 if phi > phi_prev else 0
            if streak >= _DIVERGENCE_STREAK:
                abort = (
                    f"objective increased for {_DIVERGENCE_STREAK} consecutive "
                    f"iterations (diverging fixed step)"
                )
        prev = (x, grad, step, alpha, theta, grad_norm, phi)
        return _Step(
            alpha, theta, ell, clamped or exp_clamped, x_next, grad_next=grad_next, abort=abort
        )

    return rule


def _armijo_rule(config, manifold, meter):
    """Backtracking line search with per-iteration growth.

    At ``x_k`` the first trial is ``eta = alpha0`` for ``k = 0`` and
    ``armijo_lambda * eta_{k-1}`` after, clamped to the step domain.
    Trials shrink by ``armijo_beta`` until
    ``phi(exp(x, -eta g)) <= phi(x) - armijo_c * eta * ||g||^2``; every
    trial's objective and exponential evaluation is metered, and the
    accepted trial's objective is carried to the next iterate.  A
    non-finite trial objective, or more than 60 rejections, aborts the run
    before the row is recorded, with that trial's objective in the
    message.  Rows where the run stops report ``alpha = theta = 0``.
    """
    eta_prev = None

    def rule(k, x, phi, grad, grad_norm, stop):
        nonlocal eta_prev
        if stop is not None:
            return _Step(0.0)
        neg_grad = -1.0 * grad
        eta = config.alpha0 if eta_prev is None else config.armijo_lambda * eta_prev
        eta, clamped = _clamp_alpha(eta, manifold, x, neg_grad)
        target_slope = config.armijo_c * grad_norm**2
        for _ in range(_MAX_BACKTRACKS + 1):
            x_trial, exp_clamped = meter.exp(x, eta * neg_grad)
            phi_trial = meter.value(x_trial)
            if not math.isfinite(phi_trial):
                raise _AbortRun(
                    f"non-finite trial objective ({phi_trial}) in Armijo backtracking "
                    f"at iteration {k}"
                )
            if phi_trial <= phi - eta * target_slope:
                theta = 0.0 if not eta_prev else eta / eta_prev
                eta_prev = eta
                return _Step(eta, theta, 0.0, clamped or exp_clamped, x_trial, phi_trial)
            eta *= config.armijo_beta
        raise _AbortRun(
            f"Armijo backtracking exceeded {_MAX_BACKTRACKS} reductions at iteration {k}; "
            f"last trial objective {phi_trial}"
        )

    return rule


def adgd_run(config, manifold, problem):
    """Run the adaptive method until the gradient-norm tolerance or
    ``config.max_iters`` iterations."""
    return _drive(config, manifold, problem, _adaptive_rule)


def fixed_run(config, manifold, problem, alpha):
    """Constant step size baseline.

    The adaptive rule with its step pinned to ``alpha`` (the trace carries
    the same diagnostics); aborts when the objective increases for 50
    consecutive iterations.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError("fixed step size must be finite and nonnegative")
    return _drive(config, manifold, problem, functools.partial(_adaptive_rule, pinned=alpha))


def armijo_run(config, manifold, problem):
    """Backtracking line search baseline; see :func:`_armijo_rule`."""
    return _drive(config, manifold, problem, _armijo_rule)


class _FlatSpace(Manifold):
    """R^n with the dot product: identity transport, exp(x, v) = x + v."""

    def egrad_to_rgrad(self, x, g):
        return g

    def exp(self, x, v):
        return x + v

    def transport_along_step(self, x, v, w):
        return w

    def inner(self, x, u, v):
        return float(np.dot(u, v))

    def distance(self, x, y):
        return float(np.linalg.norm(x - y))


def euclidean_adgd_run(config, f, grad_f, y0):
    """The adaptive method on flat R^n: ``y_{k+1} = y_k - alpha_k grad f(y_k)``
    with the identical step-size rule (identity transport, dot metric)."""
    from .problems import Problem

    prob = Problem(value=f, euclidean_grad=grad_f, x0=np.asarray(y0, dtype=float))
    return _drive(config, _FlatSpace(), prob, _adaptive_rule)
