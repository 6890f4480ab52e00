import numpy as np
import pytest

from adgd import linalg
from adgd.manifolds import BuresWasserstein, PositiveOrthant, Sphere


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


def is_spd_spectrum(eigenvalues):
    """The SPD tolerance test of ``linalg.solve_lyapunov``, on a spectrum:
    its smallest eigenvalue exceeds 1e-12 times its largest."""
    ev = np.asarray(eigenvalues, dtype=float)
    return float(np.min(ev)) > 1e-12 * float(np.max(ev))


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
