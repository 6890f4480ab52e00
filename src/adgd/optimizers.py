"""Riemannian gradient descent with an adaptive step size, and baselines.

Every method runs through one descent loop, :func:`_drive`, which owns
the rows, the stopping rules and the distance column, and asks a step rule
for each step: :func:`_adaptive_rule`, the paper's method (:func:`adgd_run`),
which pinned is the constant-step baseline (:func:`fixed_run`), or
:func:`_armijo_rule`, the backtracking baseline (:func:`armijo_run`).
:class:`_Meter` counts a run's work for the rows (:class:`TraceRow`) and
is a rule's only route to the geometry.
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
    (numpy scalars will do, a bool will not), stored as ``int`` and
    ``float``, so a run's step sizes are Python floats whatever the caller
    passed; ``first_ls`` and ``track_distance`` are bools.  A wrong-typed
    field or a value out of range raises ``ValueError``.
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
        self.max_iters = int(self.max_iters)
        for name in ("tol", "alpha0", "armijo_c", "armijo_beta", "armijo_lambda"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            setattr(self, name, float(value))
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


@dataclass(slots=True)
class TraceRow:
    """The record of iterate ``x_k``.

    ``phi`` and ``grad_norm`` are taken at ``x_k``, ``alpha`` is the step
    from it and ``theta = alpha_k / alpha_{k-1}`` (0 at k = 0 and after a
    zero step).  ``ell`` is the local inverse-smoothness estimate, 0.0 where
    undefined (k = 0, or a vanishing gradient-difference denominator).
    ``fn_evals`` and ``exp_evals`` count the method's requests for objective
    and exponential evaluations, line-search trials included, and
    ``expensive_ops`` charges the problem's and the manifold's price tags
    for the same requests, so every method is metered alike; all three are
    cumulative and include the row's own step.  A request at the point
    of a step that returned the iterate's own array is answered from the
    iterate's evaluations and still counted (:class:`_Meter`).
    ``dist_to_opt`` is None without a tracked optimum, and ``clamped``
    records a guard that capped the step.  Rows are slotted: they have no
    ``__dict__`` and take no other attribute.
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


# Safety margin keeping clamped steps strictly inside the step domain.
STEP_SAFETY = 0.99


class _Point:
    """What a run knows about the point object ``x``: its floor and, once
    asked for, its value, the stage's ``finish``, its Riemannian gradient
    and that gradient's ``norm``.  ``same`` links the record of a step
    that returned its iterate's own array to the record that evaluated
    that array (:meth:`_Meter.exp_transport`)."""

    __slots__ = ("x", "floor", "phi", "finish", "grad", "norm", "same")

    def __init__(self, x, floor=None):
        self.x, self.floor = x, floor
        self.phi = self.finish = self.grad = self.norm = self.same = None


class _Meter:
    """One run's cumulative work counters (:class:`TraceRow`) and a step
    rule's only route to the problem and the geometry; its evaluations
    run under :func:`_drive`'s ``np.errstate``.

    Every objective evaluation is one :meth:`stage` through
    ``problem.stager()``, resolved once at the start of the run, every
    gradient is one :meth:`grad`, every exponential one
    :meth:`exp_transport` and every gradient comparison one
    :meth:`grad_change`.  :meth:`clamp` is the one door that charges
    nothing: the step-domain guard is not part of a method's price.

    The counters count the method's requests.  Every door takes
    :class:`_Point` records, and :meth:`stage` and :meth:`grad` keep what
    they compute in the record they are asked about.  So the next
    iterate, a record the rule had from :meth:`exp_transport` (the
    accepted Armijo trial, first-LS's taken trial), brings what the rule
    asked of it, and :meth:`hold` computes and charges only the rest.  A
    manifold may return its own point for a step it treats as zero; the
    new record's ``same`` link then answers each request from the
    evaluations of that array, charged all the same.  That assumes
    ``value`` and ``euclidean_grad`` are deterministic and leave the
    point unchanged, and so does a floor.  A record's floor goes into
    every exponential from it, so Armijo's trials share the iterate's.
    Row 0's stage checks what the objective returns.
    """

    __slots__ = ("fn_evals", "exp_evals", "expensive", "manifold", "problem", "_stage")

    def __init__(self, manifold, problem):
        self.fn_evals = self.exp_evals = self.expensive = 0
        self.manifold = manifold
        self.problem = problem
        self._stage = self._vet

    def _vet(self, x):
        """Row 0's stage: ``problem.stager()``'s, which serves every later
        stage, with a ``ValueError`` unless the value is a real scalar and
        the Euclidean gradient has ``x``'s shape."""
        self._stage = stage = self.problem.stager()
        phi, finish = stage(x)
        if not (
            isinstance(phi, numbers.Real)
            or (isinstance(phi, np.ndarray) and phi.shape == () and phi.dtype.kind in "biuf")
        ):
            raise ValueError(
                f"Problem.value returned {type(phi).__name__} of shape {np.shape(phi)}, "
                f"not a real scalar (shape ())"
            )

        def vetted():
            egrad = finish()
            if np.shape(egrad) != np.shape(x):
                raise ValueError(
                    f"Problem.euclidean_grad returned shape {np.shape(egrad)}, "
                    f"not x0's shape {np.shape(x)}"
                )
            return egrad

        return phi, vetted

    def hold(self, p):
        """Fill what the iterate ``p``'s record lacks, its value and its
        gradient charged as requests, and return ``(phi, norm)``, its value
        and its gradient's norm."""
        if p.phi is None:
            self.stage(p)
        if p.grad is None:
            self.grad(p)
        if p.norm is None:
            p.norm = p.same.norm if p.same else self.manifold.norm(p.x, p.grad)
        return p.phi, p.norm

    def stage(self, p):
        """The value at ``p``, one objective charge; the stage's ``finish``
        stays in ``p`` for :meth:`grad`."""
        self.fn_evals += 1
        self.expensive += self.problem.value_ops
        if p.phi is None:
            if p.same:
                p.phi, p.finish = p.same.phi, p.same.finish
            else:
                phi, p.finish = self._stage(p.x)
                p.phi = float(phi)
        return p.phi

    def grad(self, p):
        """The Riemannian gradient at ``p``, one gradient charge; it
        finishes ``p``'s stage when there was one, else calls
        ``euclidean_grad``."""
        self.expensive += self.problem.grad_ops + self.manifold.rgrad_ops
        if p.grad is None:
            if p.same:
                p.grad = p.same.grad
            else:
                egrad = self.problem.euclidean_grad(p.x) if p.finish is None else p.finish()
                p.grad = self.manifold.egrad_to_rgrad(p.x, egrad)
        return p.grad

    def exp_transport(self, p, v):
        """``Manifold.exp_transport`` of the step ``v`` from ``p``, with its
        floor: the new point's record, the clamp flag and the transport
        along the step; one exponential charge."""
        self.exp_evals += 1
        self.expensive += self.manifold.exp_ops
        y, clamped, transport, floor_y = self.manifold.exp_transport(p.x, v, p.floor)
        q = _Point(y, floor_y)
        if y is p.x:
            # A streak of such steps links every record to the first one,
            # not each to the one before.
            q.same = p.same or p
        return q, clamped, transport

    def grad_change(self, transport, p, q):
        """``||grad(q) - transport(grad(p))||`` at ``q``, the end of the
        step from ``p`` that ``transport`` came with, from both records'
        gradients and ``p``'s norm; one adaptive charge."""
        self.expensive += self.manifold.adapt_extra_ops
        transported = transport(p.grad)
        return math.sqrt(self.manifold.grad_diff_norm_sq(q.x, q.grad, transported, p.norm**2))

    def clamp(self, p, v, alpha):
        """The step-domain safety clamp of the step ``alpha v`` from ``p``:
        ``(alpha, clamped?)``, charged nothing.  A cheap certificate that
        ``alpha / STEP_SAFETY <= max_step`` screens out the common case
        (step far from the boundary) before paying for the exact supremum;
        it passes only where the exact path keeps ``alpha``."""
        if self.manifold.max_step_lower_bound(p.x, v, alpha / STEP_SAFETY):
            return alpha, False
        limit = STEP_SAFETY * self.manifold.max_step(p.x, v)
        if alpha > limit:
            return limit, True
        return alpha, False


class _AbortRun(Exception):
    """Internal control flow: numerical abort with a diagnostic message."""


class _Step(NamedTuple):
    """A step rule's answer at ``x_k``.

    ``alpha, ell, clamped`` fill the row.  ``x_next`` is the next
    iterate's record (:class:`_Point`), dropped when the driver stops at
    ``x_k``; it brings what the rule evaluated there, and
    :meth:`_Meter.hold` fills the rest.  A non-empty ``abort`` ends the
    run once the row is recorded.  :func:`_drive` unpacks it by field
    order.
    """

    alpha: float
    ell: float = 0.0
    clamped: bool = False
    x_next: Any = None
    abort: str = ""


def _drive(config, manifold, problem, make_rule):
    """Run ``make_rule(config, meter)`` from ``problem.x0``.

    A step rule is built from the config and the run's :class:`_Meter`
    alone, so every evaluation, exponential, comparison and clamp of a
    step goes through the meter.  The rule is called once per iterate as
    ``rule(k, p, stop, prev)`` and returns a :class:`_Step`: it sees
    ``p``, the record (:class:`_Point`) of ``x_k`` with its value,
    gradient and gradient norm, the status ``stop`` the run ends with at
    this row (or None), and ``prev``, the row of ``x_{k-1}`` (None at
    ``k = 0``).  ``_drive`` owns the rest: the meter, each iterate's
    evaluations (:meth:`_Meter.hold`; row 0's checked), the finiteness
    check, the rows and their ``theta``, the stopping rules,
    and the mapping of numerical failures
    (non-finite values, domain errors, rule aborts) to status ``aborted``,
    which keeps the rows recorded so far; a wrong-shaped objective output
    raises ``ValueError`` instead.  The whole run ignores floating-point
    overflow, invalid and divide warnings: a non-finite value reaches the
    finiteness check instead.

    ``manifold.check_point`` vets ``problem.x0`` as a float64 array before
    row 0, and the run starts from that array with the floor it returned.
    When the distance column is on (a known optimum and
    ``config.track_distance``) the optimum is vetted too, and
    ``manifold.distance_from(optimum)``, with the fixed point's work and
    anything it refuses, is built before row 0 as well; with the column off the optimum is not read.  However
    the run stopped, the column is then filled in one call of that
    callable; it never feeds a step.
    """
    # The context-manager form: the decorator form is not thread-safe on numpy 1.x.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x0 = np.asarray(problem.x0, dtype=float)
        p = _Point(x0, manifold.check_point(x0))
        distances = None
        if config.track_distance and problem.optimum_point is not None:
            manifold.check_point(problem.optimum_point)
            distances = manifold.distance_from(problem.optimum_point)
        meter = _Meter(manifold, problem)
        rule = make_rule(config, meter)
        hold, isfinite, tol, max_iters = meter.hold, math.isfinite, config.tol, config.max_iters
        rows, points = [], [p.x]
        add_row, add_point = rows.append, points.append
        prev = None
        message = ""
        try:
            for k in itertools.count():
                phi, grad_norm = hold(p)
                if not (isfinite(phi) and isfinite(grad_norm)):
                    raise _AbortRun(
                        f"non-finite objective ({phi}) or gradient norm ({grad_norm}) "
                        f"at iteration {k}"
                    )
                if grad_norm <= tol:
                    stop = STATUS_CONVERGED
                elif k >= max_iters:
                    stop = STATUS_MAX_ITERS
                else:
                    stop = None
                alpha, ell, clamped, x_next, abort = rule(k, p, stop, prev)
                theta = alpha / prev.alpha if prev is not None and prev.alpha > 0.0 else 0.0
                prev = TraceRow(
                    k, phi, grad_norm, alpha, theta, ell,
                    meter.fn_evals, meter.exp_evals, meter.expensive, None, clamped,
                )
                add_row(prev)
                if abort:
                    raise _AbortRun(abort)
                if stop is not None:
                    break
                p = x_next
                add_point(p.x)
        except (_AbortRun, DomainError, FloatingPointError) as exc:
            stop, message = STATUS_ABORTED, str(exc)
        if distances is not None:
            for row, dist in zip(rows, distances(points[: len(rows)])):
                row.dist_to_opt = dist
    return Trace(rows, points, stop, message)


def _adaptive_rule(config, meter, pinned=None):
    """The adaptive step size, or the constant ``pinned`` in its place,
    built from the config and the meter.

    An iteration makes the paper's three metered calls: the gradient
    (:meth:`_Meter.hold`, or the rule's own request at first-LS's taken
    trial), the exponential (:meth:`_Meter.exp_transport`) and,
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
    Every step is clamped to the step domain (:meth:`_Meter.clamp`, which
    charges nothing).

    With ``config.first_ls`` the first step is a warm start: while the
    trial's ratio ``||g_0|| / (sqrt(2) ||g_1 - T g_0||)`` exceeds 1 and
    the step is not clamped, ``alpha_0`` doubles (and is clamped again),
    at most ``_MAX_FIRST_LS_DOUBLINGS`` times, so that the step sequence
    starts at the local inverse-smoothness scale.  Each trial charges an
    exponential and a gradient, and a comparison unless it follows the
    last allowed doubling or doubling its step would overflow to inf:
    that trial is taken as it stands, so every step is finite.  The taken
    trial's gradient, kept in its record, serves ``k = 1``.

    A converged row reports the step it would take and takes no
    exponential.  The row at ``k = max_iters >= 1`` still takes it, and
    the driver drops the point.  A run that stops at ``x_0`` reports
    ``alpha0`` before clamping.

    With ``pinned`` every step is ``pinned`` (first-LS off; the row's
    ``ell`` is still the estimate), under :func:`fixed_run`'s divergence
    abort.
    """
    # Until compared at x_k: the transport along the step from x_{k-1}, and
    # x_{k-1}'s record with g_{k-1}.  Dropping both right after the
    # comparison frees their arrays (on Bures-Wasserstein four n x n
    # matrices) before the next exponential forms its own.
    last = None
    streak = 0

    def rule(k, p, stop, prev):
        nonlocal last, streak
        if prev is None:
            alpha = config.alpha0 if pinned is None else pinned
            if stop is not None:
                return _Step(alpha)
            ell = 0.0
        else:
            denom = meter.grad_change(*last, p)
            last = None
            numer = prev.alpha * prev.grad_norm
            ell = numer / denom if denom > 0.0 else 0.0
            if pinned is None:
                local = numer / (_SQRT2 * denom) if denom > 0.0 else math.inf
                alpha = min(math.sqrt(1.0 + prev.theta) * prev.alpha, local)
            else:
                alpha = pinned
        neg_grad = -1.0 * p.grad
        alpha, clamped = meter.clamp(p, neg_grad, alpha)
        if stop == STATUS_CONVERGED:
            return _Step(alpha, ell, clamped)

        q, exp_clamped, transport = meter.exp_transport(p, alpha * neg_grad)
        if prev is None and config.first_ls and pinned is None:
            # First-LS: each pass compares the last trial, then doubles.
            meter.grad(q)
            for _ in range(_MAX_FIRST_LS_DOUBLINGS):
                if 2.0 * alpha == math.inf:
                    break
                denom = meter.grad_change(transport, p, q)
                ratio = p.norm / (_SQRT2 * denom) if denom > 0.0 else math.inf
                if ratio <= 1.0 or clamped:
                    break
                alpha, clamped = meter.clamp(p, neg_grad, 2.0 * alpha)
                q, exp_clamped, transport = meter.exp_transport(p, alpha * neg_grad)
                meter.grad(q)

        abort = ""
        if pinned is not None and prev is not None:
            streak = streak + 1 if p.phi > prev.phi else 0
            if streak >= _DIVERGENCE_STREAK:
                abort = (
                    f"objective increased for {_DIVERGENCE_STREAK} consecutive "
                    f"iterations (diverging fixed step)"
                )
        last = (transport, p)
        return _Step(alpha, ell, clamped or exp_clamped, q, abort)

    return rule


def _armijo_rule(config, meter):
    """Backtracking line search with per-iteration growth, built from the
    config and the meter.

    At ``x_k`` the first trial is ``eta = alpha0`` for ``k = 0`` and
    ``armijo_lambda * alpha_{k-1}``, the previous row's accepted step,
    after; it is clamped to the step domain (:meth:`_Meter.clamp`, which
    charges nothing).
    Trials shrink by ``armijo_beta`` until
    ``phi(exp(x, -eta g)) <= phi(x) - armijo_c * eta * ||g||^2``; every
    trial is one :meth:`_Meter.stage` and one exponential, both metered,
    and drops the exponential's transport.  The accepted trial's record,
    the next iterate, keeps its objective and ``finish``, so its gradient
    finishes that trial's work; a rejected trial's record is dropped.  A
    non-finite trial objective, or more than 60 rejections, aborts the run
    before the row is recorded, with that trial's objective in the
    message.  Rows where the run stops report ``alpha = 0``, hence
    ``theta = 0``.  The rule keeps no state between iterates.
    """
    def rule(k, p, stop, prev):
        if stop is not None:
            return _Step(0.0)
        neg_grad = -1.0 * p.grad
        eta = config.alpha0 if prev is None else config.armijo_lambda * prev.alpha
        eta, clamped = meter.clamp(p, neg_grad, eta)
        target_slope = config.armijo_c * p.norm**2
        for _ in range(_MAX_BACKTRACKS + 1):
            trial, exp_clamped, _ = meter.exp_transport(p, eta * neg_grad)
            phi_trial = meter.stage(trial)
            if not math.isfinite(phi_trial):
                raise _AbortRun(
                    f"non-finite trial objective ({phi_trial}) in Armijo backtracking "
                    f"at iteration {k}"
                )
            if phi_trial <= p.phi - eta * target_slope:
                return _Step(eta, 0.0, clamped or exp_clamped, trial)
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
    consecutive iterations.  ``alpha`` is a real number as ``RunConfig``'s
    float fields are (a bool will not do), finite and nonnegative, else
    ``ValueError``; the run steps with ``float(alpha)``.
    """
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
        raise ValueError(f"fixed step size must be a real number, got {alpha!r}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("fixed step size must be finite and nonnegative")
    return _drive(config, manifold, problem, functools.partial(_adaptive_rule, pinned=float(alpha)))


def armijo_run(config, manifold, problem):
    """Backtracking line search baseline; see :func:`_armijo_rule`."""
    return _drive(config, manifold, problem, _armijo_rule)

