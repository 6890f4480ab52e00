"""Power-of-two scale equivariance of whole runs, bit for bit.

Multiplying the objective and its Euclidean gradient by ``c = 2**j``,
dividing ``alpha0`` and the fixed step by ``c`` and multiplying ``tol`` by
``c`` must scale every row's ``phi`` and ``grad_norm`` by ``c`` and its
``alpha`` and ``ell`` by ``1 / c`` exactly, and leave ``theta``,
``dist_to_opt``, the counters, the clamp flags, the status and every point
unchanged.  Every operation on a run's path commutes exactly with a
power-of-two scaling, absent overflow and underflow, so the relation
holds on any BLAS kernel and needs no recorded bytes: each case compares
two runs made in the same process.  Every CLI experiment runs under every
method (adaptive, first-LS, Armijo, fixed step) at ``j`` in {-20, 3, 40}.
"""

import dataclasses
import functools

import numpy as np
import pytest

from adgd import cli
from adgd.optimizers import RunConfig, adgd_run, armijo_run, fixed_run

# CLI experiment -> (n, instance seed, fixed step)
PROBLEMS = {
    "center-of-mass": (10, 0, 0.02),
    "rayleigh": (20, 0, 0.05),
    "lyapunov": (8, 0, 0.05),
    "wls-dense": (6, 1, 0.05),
    "wls-sparse": (6, 1, 0.05),
    "orthant-equivalence": (5, 0, 0.5),
}
METHODS = ("adgd", "first-ls", "armijo", "fixed")
EXPONENTS = (-20, 3, 40)

# Python's ``x**2`` calls libm's ``pow``, which is not correctly rounded
# on every platform, so ``(c x)**2`` can differ from ``c**2 * x**2`` in
# the last bit.  The adaptive rule squares the previous gradient norm that
# way (``_Meter.grad_change``), and on these runs it shows under the
# SkylakeX and Haswell OpenBLAS kernels: each first differs at row 49's
# ``ell``, and with ``x * x`` in its place all of this file's cases are
# exact.
POW_EXPOSED = {("wls-dense", method, j) for method in ("adgd", "first-ls") for j in (3, 40)}


@functools.cache
def _instance(name):
    """``(manifold, problem)`` of the experiment, built once."""
    n, seed, _ = PROBLEMS[name]
    _, manifold_cls, build = cli.EXPERIMENTS[name]
    return manifold_cls(), build(n, seed)


def _run(method, manifold, problem, scale, fixed_step):
    config = RunConfig(
        max_iters=200, tol=1e-10 * scale, alpha0=1.0 / scale, first_ls=method == "first-ls"
    )
    if method == "armijo":
        return armijo_run(config, manifold, problem)
    if method == "fixed":
        return fixed_run(config, manifold, problem, fixed_step / scale)
    return adgd_run(config, manifold, problem)


def _scaled(problem, scale):
    value, grad = problem.value, problem.euclidean_grad
    return dataclasses.replace(
        problem,
        value=lambda x: scale * value(x),
        euclidean_grad=lambda x: scale * grad(x),
    )


def _cases():
    for name in PROBLEMS:
        for method in METHODS:
            for j in EXPONENTS:
                marks = ()
                if (name, method, j) in POW_EXPOSED:
                    marks = pytest.mark.xfail(
                        strict=True,
                        raises=AssertionError,
                        reason="norm_prev**2 goes through libm's pow, which is not "
                        "correctly rounded; x * x in its place is ROADMAP item 5 E",
                    )
                yield pytest.param(name, method, j, marks=marks, id=f"{name}-{method}-{j}")


@pytest.mark.parametrize("name, method, j", _cases())
def test_power_of_two_scaling_scales_the_run_exactly(name, method, j):
    manifold, problem = _instance(name)
    fixed_step = PROBLEMS[name][2]
    scale = 2.0**j
    base = _run(method, manifold, problem, 1.0, fixed_step)
    scaled = _run(method, manifold, _scaled(problem, scale), scale, fixed_step)

    assert (scaled.status, len(scaled.rows)) == (base.status, len(base.rows))
    for row, srow in zip(base.rows, scaled.rows):
        expected = dataclasses.replace(
            row,
            phi=scale * row.phi,
            grad_norm=scale * row.grad_norm,
            alpha=row.alpha / scale,
            ell=row.ell / scale,
        )
        assert srow == expected, f"row {row.k}"
    assert len(scaled.points) == len(base.points)
    assert all(np.array_equal(p, q) for p, q in zip(base.points, scaled.points))
