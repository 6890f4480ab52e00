"""Riemannian gradient descent with an adaptive step size, and baselines.

Every method runs through one descent loop, :func:`_drive`, which owns
the rows, the stopping rules and the distance column, and asks a step rule
for each step: :func:`_adaptive_rule`, the paper's method (:func:`adgd_run`),
which pinned is the constant-step baseline (:func:`fixed_run`) and on flat
R^n the positive-orthant oracle (:func:`euclidean_adgd_run`), or
:func:`_armijo_rule`, the backtracking baseline (:func:`armijo_run`).
:class:`_Meter` counts a run's work for the rows (:class:`TraceRow`).
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
    """The record of iterate ``x_k``.

    ``phi`` and ``grad_norm`` are taken at ``x_k``, ``alpha`` is the step
    from it and ``theta = alpha_k / alpha_{k-1}`` (0 at k = 0 and after a
    zero step).  ``ell`` is the local inverse-smoothness estimate, 0.0 where
    undefined (k = 0, or a vanishing gradient-difference denominator).
    ``fn_evals`` and ``exp_evals`` count objective and exponential
    evaluations, line-search trials included, and ``expensive_ops`` charges
    the problem's and the manifold's price tags for the same calls, so every
    method is metered alike; all three are cumulative and include the row's
    own step.  ``dist_to_opt`` is None without a tracked optimum, and
    ``clamped`` records a guard that capped the step.
    """

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
    """A run: its rows, the iterates it reached, its status and, for an
    aborted run, the diagnostic message."""

    rows: list
    points: list
    status: str
    message: str = ""

    def column(self, name):
        """Field ``name`` of every row, as an array in row order."""
        return np.array([getattr(r, name) for r in self.rows])

    @property
    def final_point(self):
        """The last iterate the run reached, ``points[-1]``."""
        return self.points[-1]


class _Meter:
    """One run's cumulative work counters (:class:`TraceRow`); its
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

    def exp_transport(self, x, v):
        """``Manifold.exp_transport(x, v)``: the next point, the clamp flag
        and the transport along the step; one exponential charge."""
        self.exp_evals += 1
        self.expensive += self.manifold.exp_ops
        return self.manifold.exp_transport(x, v)

    def grad_change(self, transport, grad_prev, norm_prev, x, grad):
        """``||grad - transport(grad_prev)||`` at ``x``, the end of the step
        ``transport`` came with, and ``norm_prev = ||grad_prev||``; one
        adaptive charge."""
        self.expensive += self.manifold.adapt_extra_ops
        transported = transport(grad_prev)
        return math.sqrt(self.manifold.grad_diff_norm_sq(x, grad, transported, norm_prev**2))


class _AbortRun(Exception):
    """Internal control flow: numerical abort with a diagnostic message."""


class _Step(NamedTuple):
    """A step rule's answer at ``x_k``.

    ``alpha, ell, clamped`` fill the row.  ``x_next`` is the next
    iterate, dropped when the driver stops at ``x_k``; ``phi_next`` and
    ``grad_next`` are the objective and gradient at ``x_next`` when the
    rule has already evaluated them.  A non-empty ``abort`` ends the run
    once the row is recorded.
    """

    alpha: float
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
    ``rule(k, x, phi, grad, grad_norm, stop, prev)`` and returns a
    :class:`_Step`: it sees ``x_k``'s evaluations, the status ``stop`` the
    run ends with at this row (or None), and ``prev``, the row of
    ``x_{k-1}`` (None at ``k = 0``).  ``_drive`` owns the rest: the meter,
    the evaluations, the finiteness check, the rows and their ``theta``,
    the stopping rules, and the mapping of numerical failures (non-finite
    values, domain errors, rule aborts) to status ``aborted``, which keeps
    the rows recorded so far.  The whole run ignores floating-point
    overflow, invalid and divide warnings: a non-finite value reaches the
    finiteness check instead.

    ``manifold.check_point`` vets ``problem.x0`` before row 0.  When the
    distance column is on (a known optimum and ``config.track_distance``)
    the optimum is vetted too, and ``manifold.distance_from(optimum)``,
    with the fixed point's work and anything it refuses, is built before
    row 0 as well; with the column off the optimum is not read.  However
    the run stopped, the column is then filled in one call of that
    callable; it never feeds a step.
    """
    # The context-manager form: the decorator form is not thread-safe on numpy 1.x.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        manifold.check_point(problem.x0)
        distances = None
        if config.track_distance and problem.optimum_point is not None:
            manifold.check_point(problem.optimum_point)
            distances = manifold.distance_from(problem.optimum_point)
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
                prev = rows[-1] if rows else None
                step = rule(k, x, phi, grad, grad_norm, stop, prev)
                theta = step.alpha / prev.alpha if prev is not None and prev.alpha > 0.0 else 0.0
                rows.append(
                    TraceRow(
                        k=k,
                        phi=phi,
                        grad_norm=grad_norm,
                        alpha=step.alpha,
                        theta=theta,
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
        if distances is not None:
            for row, dist in zip(rows, distances(points[: len(rows)])):
                row.dist_to_opt = dist
    return Trace(rows, points, stop, message)


def _adaptive_rule(config, manifold, meter, pinned=None):
    """The adaptive step size, or the constant ``pinned`` in its place.

    An iteration makes the paper's three metered calls: the gradient (in
    :func:`_drive`), the exponential (:meth:`_Meter.exp_transport`) and,
    from ``k = 1``, the comparison of ``g_k`` with ``T g_{k-1}``, the
    previous gradient carried by the transport that the last step's
    exponential returned (:meth:`_Meter.grad_change`).  With
    ``alpha_{k-1}``, ``theta_{k-1}`` and ``||g_{k-1}||`` read from the
    previous row, the step is the Riemannian form of Malitsky &
    Mishchenko's rule (arXiv:1910.09529)::

        ell_k   = alpha_{k-1} ||g_{k-1}|| / ||g_k - T g_{k-1}||
        alpha_k = min(sqrt(1 + theta_{k-1}) alpha_{k-1}, ell_k / sqrt(2))

    ``ell_k`` is 0 in the row when the denominator vanishes, and
    ``alpha_k`` is then the growth cap.  ``alpha_0 = config.alpha0``.
    Every step is clamped to the step domain.

    With ``config.first_ls`` the first step is a warm start: while the
    trial's ratio ``||g_0|| / (sqrt(2) ||g_1 - T g_0||)`` exceeds 1 and
    the step is not clamped, ``alpha_0`` doubles (and is clamped again),
    at most ``_MAX_FIRST_LS_DOUBLINGS`` times, so that the step sequence
    starts at the local inverse-smoothness scale.  Each trial charges an
    exponential and a gradient, and a comparison unless it follows the
    last allowed doubling or doubling its step would overflow to inf:
    that trial is taken as it stands, so every step is finite.  The taken
    trial's gradient serves ``k = 1``.

    A converged row reports the step it would take and takes no
    exponential.  The row at ``k = max_iters >= 1`` still takes it, and
    the driver drops the point.  A run that stops at ``x_0`` reports
    ``alpha0`` before clamping.

    With ``pinned`` every step is ``pinned`` (first-LS off; the row's
    ``ell`` is still the estimate), under :func:`fixed_run`'s divergence
    abort.
    """
    # Until compared at x_k: the transport along the step from x_{k-1}, and
    # g_{k-1}.  Dropping both right after the comparison frees their arrays
    # (on Bures-Wasserstein four n x n matrices) before the next
    # exponential forms its own.
    last = None
    streak = 0

    def rule(k, x, phi, grad, grad_norm, stop, prev):
        nonlocal last, streak
        if prev is None:
            alpha = config.alpha0 if pinned is None else pinned
            if stop is not None:
                return _Step(alpha)
            ell = 0.0
        else:
            denom = meter.grad_change(*last, prev.grad_norm, x, grad)
            last = None
            numer = prev.alpha * prev.grad_norm
            ell = numer / denom if denom > 0.0 else 0.0
            if pinned is None:
                local = numer / (_SQRT2 * denom) if denom > 0.0 else math.inf
                alpha = min(math.sqrt(1.0 + prev.theta) * prev.alpha, local)
            else:
                alpha = pinned
        neg_grad = -1.0 * grad
        alpha, clamped = _clamp_alpha(alpha, manifold, x, neg_grad)
        if stop == STATUS_CONVERGED:
            return _Step(alpha, ell, clamped)

        x_next, exp_clamped, transport = meter.exp_transport(x, alpha * neg_grad)
        grad_next = None
        if prev is None and config.first_ls and pinned is None:
            # First-LS: each pass compares the last trial, then doubles.
            grad_next = meter.grad(x_next)
            for _ in range(_MAX_FIRST_LS_DOUBLINGS):
                if 2.0 * alpha == math.inf:
                    break
                denom = meter.grad_change(transport, grad, grad_norm, x_next, grad_next)
                ratio = grad_norm / (_SQRT2 * denom) if denom > 0.0 else math.inf
                if ratio <= 1.0 or clamped:
                    break
                alpha, clamped = _clamp_alpha(2.0 * alpha, manifold, x, neg_grad)
                x_next, exp_clamped, transport = meter.exp_transport(x, alpha * neg_grad)
                grad_next = meter.grad(x_next)

        abort = ""
        if pinned is not None and prev is not None:
            streak = streak + 1 if phi > prev.phi else 0
            if streak >= _DIVERGENCE_STREAK:
                abort = (
                    f"objective increased for {_DIVERGENCE_STREAK} consecutive "
                    f"iterations (diverging fixed step)"
                )
        last = (transport, grad)
        return _Step(alpha, ell, clamped or exp_clamped, x_next, grad_next=grad_next, abort=abort)

    return rule


def _armijo_rule(config, manifold, meter):
    """Backtracking line search with per-iteration growth.

    At ``x_k`` the first trial is ``eta = alpha0`` for ``k = 0`` and
    ``armijo_lambda * alpha_{k-1}``, the previous row's accepted step,
    after; it is clamped to the step domain.
    Trials shrink by ``armijo_beta`` until
    ``phi(exp(x, -eta g)) <= phi(x) - armijo_c * eta * ||g||^2``; every
    trial's objective and exponential evaluation is metered, and the
    accepted trial's objective is carried to the next iterate.  Trials
    take the same exponential and drop its transport.  A
    non-finite trial objective, or more than 60 rejections, aborts the run
    before the row is recorded, with that trial's objective in the
    message.  Rows where the run stops report ``alpha = 0``, hence
    ``theta = 0``.  The rule keeps no state between iterates.
    """

    def rule(k, x, phi, grad, grad_norm, stop, prev):
        if stop is not None:
            return _Step(0.0)
        neg_grad = -1.0 * grad
        eta = config.alpha0 if prev is None else config.armijo_lambda * prev.alpha
        eta, clamped = _clamp_alpha(eta, manifold, x, neg_grad)
        target_slope = config.armijo_c * grad_norm**2
        for _ in range(_MAX_BACKTRACKS + 1):
            x_trial, exp_clamped, _ = meter.exp_transport(x, eta * neg_grad)
            phi_trial = meter.value(x_trial)
            if not math.isfinite(phi_trial):
                raise _AbortRun(
                    f"non-finite trial objective ({phi_trial}) in Armijo backtracking "
                    f"at iteration {k}"
                )
            if phi_trial <= phi - eta * target_slope:
                return _Step(eta, 0.0, clamped or exp_clamped, x_trial, phi_trial)
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

    def exp_transport(self, x, v):
        return x + v, False, lambda w: w

    def inner(self, x, u, v):
        return float(np.dot(u, v))

    def distance_from(self, y):
        return lambda xs: [float(np.linalg.norm(x - y)) for x in xs]


def euclidean_adgd_run(config, f, grad_f, y0):
    """The adaptive method on flat R^n: ``y_{k+1} = y_k - alpha_k grad f(y_k)``
    with the identical step-size rule (identity transport, dot metric)."""
    from .problems import Problem

    prob = Problem(value=f, euclidean_grad=grad_f, x0=np.asarray(y0, dtype=float))
    return _drive(config, _FlatSpace(), prob, _adaptive_rule)
