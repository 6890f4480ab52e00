"""Seeded stress grid over the public run entry points.

Every CLI experiment runs under each method (adaptive, first-LS, Armijo,
fixed step) for n in {1, 2}, step sizes from 1e-300 to 1e300, max_iters in
{0, 1, 5} and tol in {0, 1e-10}, Armijo also with armijo_lambda in
{1, 1e8, 1e300}, plus one sparse weighted-least-squares instance with a
nonzero weight: 2340 library runs.  Each experiment and method also
starts from ``3 x0``, ``-x0``, ``x0 + 1``, ``1e-200 x0`` and ``1e200 x0``.
A start off the manifold is refused with ValueError before row 0.  Once
``RunConfig``, ``fixed_run`` and ``Manifold.check_point`` have accepted
the inputs, a run either raises ConvergenceError or returns a trace that
tells the truth about how it ended, holds only finite numbers in its rows,
writes ``theta_k = alpha_k / alpha_{k-1}`` (0 at k = 0 and after a zero
step), charges each row after row 0 the method's per-iteration budget
(``_check_budget``), keeps every Bures-Wasserstein iterate positive
definite, and round-trips through the CSV format bit for bit.  The
instance seeds come from numpy's generator with a fixed seed.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from adgd import cli, linalg, trace_io
from adgd.errors import ConvergenceError
from adgd.manifolds import BuresWasserstein, bures_wasserstein
from adgd.optimizers import STATUS_ABORTED, STATUS_CONVERGED, STATUS_MAX_ITERS, RunConfig

from conftest import METHODS, bits

STEPS = (1e-300, 1e-8, 1.0, 1e8, 1e300)
MAX_ITERS = (0, 1, 5)
TOLS = (0.0, 1e-10)
ARMIJO_LAMBDAS = (1.0, 1e8, 1e300)
STARTS = {
    "3 x0": lambda x0: 3.0 * x0,
    "-x0": lambda x0: -x0,
    "x0 + 1": lambda x0: x0 + 1.0,
    "1e-200 x0": lambda x0: 1e-200 * x0,
    "1e200 x0": lambda x0: 1e200 * x0,
}


def _seeds():
    """One instance seed per (experiment, n), drawn from a fixed generator."""
    rng = np.random.default_rng(2024)
    return {key: int(rng.integers(2**32)) for key in itertools.product(cli.EXPERIMENTS, (1, 2))}


SEEDS = _seeds()

# (n, instance seed) of instances run next to the drawn ones.  At the drawn
# seeds both wls-sparse weight matrices are all zero (density 0.1 keeps none
# of the 1 or 3 upper-triangle entries), so every such run converges at
# row 0; this one keeps one weight.
EXTRA_INSTANCES = {"wls-sparse": ((2, 2),)}


def _problems(experiment):
    """``(n, problem)`` for n in {1, 2} and the experiment's extra
    instances, skipping an instance ``build`` refuses."""
    build = cli.EXPERIMENTS[experiment][2]
    instances = [(n, SEEDS[experiment, n]) for n in (1, 2)]
    for n, seed in instances + list(EXTRA_INSTANCES.get(experiment, ())):
        try:
            yield n, build(n, seed)
        except (ValueError, ConvergenceError):
            continue


def _run(method, step, max_iters, tol, manifold, problem, armijo_lambda=1.0):
    alpha0 = 1.0 if method == "fixed" else step
    config = RunConfig(max_iters=max_iters, tol=tol, alpha0=alpha0, armijo_lambda=armijo_lambda)
    return METHODS[method](config, manifold, problem, step)


def _check_budget(trace, method, manifold, problem):
    """Each row's counters less the previous row's, against the budget
    README's *Work accounting* states.  An adaptive or fixed-step row
    makes one objective request, one gradient, one comparison and, unless
    the run converges there, one exponential; at first-LS's row 1 the
    gradient is the taken trial's, charged at row 0.  An Armijo row makes
    one exponential per objective request (its trials) and one gradient."""
    grad_ops = problem.grad_ops + manifold.rgrad_ops
    for prev, row in zip(trace.rows, trace.rows[1:]):
        fn_evals = row.fn_evals - prev.fn_evals
        exp_evals = row.exp_evals - prev.exp_evals
        ops = row.expensive_ops - prev.expensive_ops
        if method == "armijo":
            assert exp_evals == fn_evals, row
            assert ops == fn_evals * (problem.value_ops + manifold.exp_ops) + grad_ops, row
            continue
        steps = 0 if row is trace.rows[-1] and trace.status == STATUS_CONVERGED else 1
        grads = 0 if method == "first-ls" and row.k == 1 else 1
        assert (fn_evals, exp_evals) == (1, steps), row
        budget = problem.value_ops + grads * grad_ops + manifold.adapt_extra_ops + steps * manifold.exp_ops
        assert ops == budget, row


def _check(trace, method, max_iters, tol, manifold, problem, path):
    assert trace.status in (STATUS_CONVERGED, STATUS_MAX_ITERS, STATUS_ABORTED)
    if trace.status == STATUS_ABORTED:
        assert trace.message
    else:
        last = trace.rows[-1]
        if trace.status == STATUS_CONVERGED:
            assert last.grad_norm <= tol
        else:
            assert last.k == max_iters
    for prev, row in zip([None, *trace.rows], trace.rows):
        values = (row.phi, row.grad_norm, row.alpha, row.theta, row.ell, row.dist_to_opt)
        assert all(math.isfinite(v) for v in values if v is not None), row
        ratio = row.alpha / prev.alpha if prev is not None and prev.alpha > 0.0 else 0.0
        assert bits(row.theta) == bits(ratio), row
    _check_budget(trace, method, manifold, problem)
    if isinstance(manifold, BuresWasserstein):
        for x in trace.points:
            linalg.require_spd(x)
    path.write_text(trace_io.render_trace(trace, {"status": trace.status}), encoding="utf-8")
    _, back, _ = trace_io.read_trace(path)
    assert (back.status, back.message) == (trace.status, trace.message.replace(",", ";"))
    assert bits(back.rows) == bits(trace.rows)


def _trace_or_error(run):
    """The trace of ``_run(*run)``, or the ConvergenceError it raised."""
    try:
        return _run(*run)
    except ConvergenceError as exc:
        return exc


def _bits(outcome):
    """A trace's bits (``bits``), or an error's message."""
    return str(outcome) if isinstance(outcome, ConvergenceError) else bits(outcome)


def _run_and_check(case, failures, path, method, step, max_iters, tol, manifold, problem,
                   armijo_lambda=1.0):
    """One run of accepted inputs; a broken contract goes into ``failures``.

    A Bures-Wasserstein run is repeated with the norm bound of its step
    screen and domain check at -1 and the carried floors switched off
    (their level at inf), so that every step takes all its LAPACK
    certificates, each as ``require_spd`` decides it without a floor; both
    runs must end alike, byte for byte."""
    run = (method, step, max_iters, tol, manifold, problem, armijo_lambda)
    try:
        trace = _trace_or_error(run)
    except ValueError as exc:
        failures.append(f"{case}: {type(exc).__name__} after the inputs were accepted: {exc}")
        return
    if isinstance(manifold, BuresWasserstein):
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(bures_wasserstein, "_SMALL_FACTOR_NORM", -1.0)
            patched.setattr(bures_wasserstein, "_FLOOR_LEVEL", math.inf)
            certified = _trace_or_error(run)
        if _bits(certified) != _bits(trace):
            failures.append(f"{case}: the norm fast paths or the carried floors change the run")
    if isinstance(trace, ConvergenceError):
        return
    try:
        _check(trace, method, max_iters, tol, manifold, problem, path)
    except AssertionError as exc:
        failures.append(f"{case}: {str(exc).splitlines()[0]}")


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
def test_grid(experiment, method, tmp_path):
    manifold_cls = cli.EXPERIMENTS[experiment][1]
    lambdas = ARMIJO_LAMBDAS if method == "armijo" else (1.0,)
    failures = []
    for n, problem in _problems(experiment):
        manifold = manifold_cls()
        manifold.check_point(problem.x0)
        for step, max_iters, tol, lam in itertools.product(STEPS, MAX_ITERS, TOLS, lambdas):
            case = (experiment, method, n, step, max_iters, tol, lam)
            _run_and_check(case, failures, tmp_path / "trace.csv", method, step, max_iters, tol,
                           manifold, problem, lam)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
def test_starts(experiment, method, tmp_path):
    manifold_cls = cli.EXPERIMENTS[experiment][1]
    failures = []
    for n, problem in _problems(experiment):
        manifold = manifold_cls()
        for name, start in STARTS.items():
            moved = dataclasses.replace(problem, x0=start(problem.x0))
            try:
                manifold.check_point(moved.x0)
            except ValueError:
                with pytest.raises(ValueError):
                    _run(method, 1.0, 5, 0.0, manifold, moved)
                continue
            for tol in TOLS:
                case = (experiment, method, n, name, tol)
                _run_and_check(case, failures, tmp_path / "trace.csv", method, 1.0, 5, tol,
                               manifold, moved)
    assert not failures, "\n".join(failures)


def test_sparse_weights_instance_takes_steps():
    """The extra wls-sparse instance keeps a weight, so the grid's sparse
    runs leave row 0."""
    [(n, seed)] = EXTRA_INSTANCES["wls-sparse"]
    problem = cli.EXPERIMENTS["wls-sparse"][2](n, seed)
    assert np.count_nonzero(problem.extras["A"]) > 0
    trace = _run("adgd", 1.0, 5, 0.0, BuresWasserstein(), problem)
    assert trace.status == STATUS_MAX_ITERS
    assert len(trace.rows) == 6


@pytest.mark.parametrize(
    "flags",
    [
        ["--experiment", "center-of-mass", "--n", "2", "--max-iters", "5"],
        ["--experiment", "orthant-equivalence", "--n", "1", "--tol", "1e-3"],
        ["--experiment", "lyapunov", "--n", "2", "--optimizer", "fixed", "--fixed-alpha", "1e300"],
        ["--experiment", "rayleigh", "--n", "2", "--alpha0", "1e300", "--first-ls"],
        ["--experiment", "wls-dense", "--n", "1", "--optimizer", "armijo", "--alpha0", "1e-300",
         "--max-iters", "1"],
    ],
)
def test_cli_exit_code_matches_status(flags, tmp_path):
    out = tmp_path / "trace.csv"
    code = cli.main(["run", *flags, "--out", str(out)])
    meta, trace, _ = trace_io.read_trace(out)
    assert code == (3 if trace.status == STATUS_ABORTED else 0)
    assert meta["status"] == trace.status
