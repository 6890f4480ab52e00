"""Seeded stress grid over the public run entry points.

Every CLI experiment runs under each method (adaptive, first-LS, Armijo,
fixed step) for n in {1, 2}, step sizes from 1e-300 to 1e300, max_iters in
{0, 1, 5} and tol in {0, 1e-10}: 1440 library runs.  Whatever the inputs,
a run either raises ValueError or ConvergenceError, or returns a trace
that tells the truth about how it ended, holds only finite numbers in its
rows, keeps every Bures-Wasserstein iterate positive definite, and
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


def _seeds():
    """One instance seed per (experiment, n), drawn from a fixed generator."""
    rng = np.random.default_rng(2024)
    return {key: int(rng.integers(2**32)) for key in itertools.product(cli.EXPERIMENTS, (1, 2))}


SEEDS = _seeds()


def _run(method, step, max_iters, tol, manifold, problem):
    config = RunConfig(
        max_iters=max_iters,
        tol=tol,
        alpha0=1.0 if method == "fixed" else step,
        first_ls=method == "first-ls",
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
    for row in trace.rows:
        values = (row.phi, row.grad_norm, row.alpha, row.theta, row.ell, row.dist_to_opt)
        assert all(math.isfinite(v) for v in values if v is not None), row
    if isinstance(manifold, BuresWasserstein):
        for x in trace.points:
            linalg.require_spd(x)
    path.write_text(trace_io.render_trace(trace, {"status": trace.status}), encoding="utf-8")
    _, back, _ = trace_io.read_trace(path)
    assert (back.status, back.message) == (trace.status, trace.message.replace(",", ";"))
    assert [_row_bits(r) for r in back.rows] == [_row_bits(r) for r in trace.rows]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
def test_grid(experiment, method, tmp_path):
    _, manifold_cls, build = cli.EXPERIMENTS[experiment]
    path = tmp_path / "trace.csv"
    failures = []
    for n in (1, 2):
        try:
            problem = build(n, SEEDS[experiment, n])
        except (ValueError, ConvergenceError):
            continue
        manifold = manifold_cls()
        for step, max_iters, tol in itertools.product(STEPS, MAX_ITERS, TOLS):
            case = (experiment, method, n, step, max_iters, tol)
            try:
                trace = _run(method, step, max_iters, tol, manifold, problem)
            except (ValueError, ConvergenceError):
                continue
            try:
                _check(trace, max_iters, tol, manifold, path)
            except AssertionError as exc:
                failures.append(f"{case}: {str(exc).splitlines()[0]}")
    assert not failures, "\n".join(failures)


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
