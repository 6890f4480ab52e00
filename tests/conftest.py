import dataclasses

# Before numpy, so that this process runs BLAS at the one thread ``import
# adgd`` pins (README, Reproducibility), as every CLI run does: the
# in-process runs then write what the CLI writes at any size.
import adgd
import numpy as np
import pytest

from adgd import linalg
from adgd.manifolds import BuresWasserstein, PositiveOrthant, Sphere
from adgd.optimizers import Trace, TraceRow, adgd_run, armijo_run, fixed_run

# method -> run(config, manifold, problem, fixed_step): the four ways a
# test descends.  Each caller builds its own ``RunConfig``; "first-ls" is
# the adaptive run with ``first_ls`` set, and only "fixed" takes the step.
METHODS = {
    "adgd": lambda config, manifold, problem, step: adgd_run(config, manifold, problem),
    "first-ls": lambda config, manifold, problem, step: adgd_run(
        dataclasses.replace(config, first_ls=True), manifold, problem
    ),
    "armijo": lambda config, manifold, problem, step: armijo_run(config, manifold, problem),
    "fixed": lambda config, manifold, problem, step: fixed_run(config, manifold, problem, step),
}


def random_sym(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return 0.5 * (m + m.T)


def random_spd(rng, n, lo=0.5, hi=2.0):
    q = linalg.sym_eig(random_sym(rng, n)).basis
    w = rng.uniform(lo, hi, size=n)
    return linalg.symmetrize((q * w) @ q.T)


def random_unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_sphere_tangent(rng, x, scale=1.0):
    v = rng.standard_normal(x.size) * scale
    v -= np.dot(x, v) * x
    return v


def bits(value):
    """``value`` with every float in it replaced by its exact bytes, so two
    values compare equal exactly when they agree bit for bit (``-0.0``
    differs from ``0.0``).  A float, an array or a Bures-Wasserstein
    tangent's matrix becomes ``(shape, bytes)``; a list, a tuple or a
    dataclass such as ``TraceRow`` or ``Trace`` becomes the list of its
    items' or fields' bits; anything else is kept as it is."""
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, (float, np.ndarray)) or hasattr(value, "mat"):
        arr = np.asarray(getattr(value, "mat", value), dtype=float)
        return arr.shape, arr.tobytes()
    if dataclasses.is_dataclass(value):
        return [bits(getattr(value, field.name)) for field in dataclasses.fields(value)]
    return value


def trace_of(*rows):
    """A trace of rows given as (alpha, ell, dist_to_opt) triples."""
    return Trace(
        rows=[
            TraceRow(k=k, phi=1.0 / (k + 1), grad_norm=1.0, alpha=alpha, theta=0.0, ell=ell,
                     fn_evals=k + 1, exp_evals=k, expensive_ops=0, dist_to_opt=dist, clamped=False)
            for k, (alpha, ell, dist) in enumerate(rows)
        ],
        points=[],
        status="converged",
    )


def is_spd_spectrum(eigenvalues):
    """The SPD tolerance test of ``linalg.solve_lyapunov``, on a spectrum:
    its smallest eigenvalue exceeds 1e-12 times its largest."""
    ev = np.asarray(eigenvalues, dtype=float)
    return float(np.min(ev)) > 1e-12 * float(np.max(ev))


def assert_floor_sound(x, floor):
    """``BuresWasserstein.check_point``'s floor of ``x`` bounds its
    smallest eigenvalue: its ``bound`` is at most numpy's ``eigvalsh``
    minimum less that solver's error bound, ``4 n eps ||x||_2``."""
    lam = np.linalg.eigvalsh(x)
    err = 4.0 * x.shape[0] * np.finfo(float).eps * float(np.max(np.abs(lam)))
    assert floor.bound <= lam[0] - err, (floor, lam[0], err)


def cofactor_det(m):
    """Determinant by cofactor expansion; independent oracle for tiny n."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * float(m[0, j]) * cofactor_det(minor)
    return total


@pytest.fixture
def sphere():
    return Sphere()


@pytest.fixture
def orthant():
    return PositiveOrthant()


@pytest.fixture
def bw():
    return BuresWasserstein()
