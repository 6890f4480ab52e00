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
step), keeps every Bures-Wasserstein iterate positive definite, and
round-trips through the CSV format bit for bit.  The instance seeds come
from numpy's generator with a fixed seed.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from adgd import cli, linalg, trace_io
from adgd.errors import ConvergenceError
from adgd.manifolds import BuresWasserstein
from adgd.optimizers import (
    STATUS_ABORTED,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    RunConfig,
    adgd_run,
    armijo_run,
    fixed_run,
)

METHODS = ("adgd", "first-ls", "armijo", "fixed")
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
    config = RunConfig(
        max_iters=max_iters,
        tol=tol,
        alpha0=1.0 if method == "fixed" else step,
        first_ls=method == "first-ls",
        armijo_lambda=armijo_lambda,
    )
    if method == "armijo":
        return armijo_run(config, manifold, problem)
    if method == "fixed":
        return fixed_run(config, manifold, problem, step)
    return adgd_run(config, manifold, problem)


def _row_bits(row):
    """A row's fields, floats by their exact bits (``-0.0`` differs from ``0.0``)."""
    return tuple(
        value.hex() if isinstance(value, float) else value for value in dataclasses.astuple(row)
    )


def _check(trace, max_iters, tol, manifold, path):
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
        assert row.theta.hex() == ratio.hex(), row
    if isinstance(manifold, BuresWasserstein):
        for x in trace.points:
            linalg.require_spd(x)
    path.write_text(trace_io.render_trace(trace, {"status": trace.status}), encoding="utf-8")
    _, back, _ = trace_io.read_trace(path)
    assert (back.status, back.message) == (trace.status, trace.message.replace(",", ";"))
    assert [_row_bits(r) for r in back.rows] == [_row_bits(r) for r in trace.rows]


def _run_and_check(case, failures, path, method, step, max_iters, tol, manifold, problem,
                   armijo_lambda=1.0):
    """One run of accepted inputs; a broken contract goes into ``failures``."""
    try:
        trace = _run(method, step, max_iters, tol, manifold, problem, armijo_lambda)
    except ConvergenceError:
        return
    except ValueError as exc:
        failures.append(f"{case}: {type(exc).__name__} after the inputs were accepted: {exc}")
        return
    try:
        _check(trace, max_iters, tol, manifold, path)
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
