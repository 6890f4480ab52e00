"""Properties every manifold implementation must satisfy: transport is a
linear isometry, transport of the step's own velocity matches the
derivative of the exponential, the nonnegative-curvature hinge inequality,
and basic distance axioms."""

import math

import numpy as np
import pytest

from adgd import linalg
from adgd.manifolds import BuresWasserstein, PositiveOrthant, Sphere

from conftest import random_sphere_tangent, random_spd, random_sym, random_unit


def sphere_sample(rng, scale=1.0):
    x = random_unit(rng, 5)
    v = random_sphere_tangent(rng, x, scale)
    w = random_sphere_tangent(rng, x, scale)
    return x, v, w


def orthant_sample(rng, scale=1.0):
    x = rng.uniform(0.2, 3.0, size=5)
    return x, rng.standard_normal(5) * scale, rng.standard_normal(5) * scale


def bw_sample(bw, rng, scale=0.3):
    # w collinear with v: the only transport case the descent loop uses,
    # and the only one with a closed form here.
    n = int(rng.integers(2, 6))
    x = random_spd(rng, n)
    v = bw.tangent(random_sym(rng, n, scale))
    cap = bw.max_step(x, v)
    if cap <= 1.2:
        v = (0.5 * cap) * v
    w = float(rng.uniform(0.3, 2.0)) * v
    return x, v, w


class TestTransportIsometry:
    @pytest.mark.parametrize("case", ["sphere", "orthant", "bw"])
    def test_norm_preserved(self, case):
        rng = np.random.default_rng(100)
        count = 500
        if case == "sphere":
            m = Sphere()
            samples = (sphere_sample(rng) for _ in range(count))
        elif case == "orthant":
            m = PositiveOrthant()
            samples = (orthant_sample(rng) for _ in range(count))
        else:
            m = BuresWasserstein()
            samples = (bw_sample(m, rng) for _ in range(count))
        for x, v, w in samples:
            y = m.exp(x, v)
            before = m.norm(x, w)
            after = m.norm(y, m.transport_along_step(x, v, w))
            assert abs(after - before) <= 1e-9 * (1.0 + before)


class TestTransportEqualsExpVelocity:
    # P(v) along t -> exp(x, t v) must equal d/dt exp(x, t v) at t = 1,
    # checked by centered differences.

    def _check(self, m, x, v, to_array=lambda t: t, h=1e-4, tol=1e-5):
        transported = to_array(m.transport_along_step(x, v, v))
        plus = m.exp(x, (1.0 + h) * v)
        minus = m.exp(x, (1.0 - h) * v)
        fd = (plus - minus) / (2.0 * h)
        assert np.linalg.norm(np.asarray(transported) - fd) <= tol * (
            1.0 + np.linalg.norm(fd)
        )

    def test_sphere(self):
        m = Sphere()
        rng = np.random.default_rng(101)
        for _ in range(50):
            x = random_unit(rng, 4)
            v = random_sphere_tangent(rng, x)
            self._check(m, x, v)

    def test_orthant(self):
        m = PositiveOrthant()
        rng = np.random.default_rng(102)
        for _ in range(50):
            x = rng.uniform(0.3, 2.0, size=4)
            v = rng.standard_normal(4)
            self._check(m, x, v)

    def test_bures_wasserstein(self):
        m = BuresWasserstein()
        rng = np.random.default_rng(103)
        for _ in range(50):
            x = random_spd(rng, 4)
            v = m.tangent(random_sym(rng, 4, scale=0.2))
            if m.max_step(x, v) <= 1.2:
                v = (0.5 * m.max_step(x, v)) * v
            self._check(m, x, v, to_array=lambda t: t.mat)


class TestHingeInequality:
    # Nonnegative curvature: endpoints of two geodesics from the same point
    # are no farther apart than the initial velocities.

    def test_sphere(self):
        m = Sphere()
        rng = np.random.default_rng(104)
        for _ in range(200):
            x = random_unit(rng, 5)
            v1 = random_sphere_tangent(rng, x, rng.uniform(0.1, 1.0))
            v2 = random_sphere_tangent(rng, x, rng.uniform(0.1, 1.0))
            lhs = m.distance(m.exp(x, v1), m.exp(x, v2))
            assert lhs <= m.norm(x, v1 - v2) + 1e-8

    def test_bures_wasserstein(self):
        m = BuresWasserstein()
        rng = np.random.default_rng(105)
        done = 0
        while done < 200:
            n = int(rng.integers(2, 5))
            x = random_spd(rng, n)
            v1 = m.tangent(random_sym(rng, n, scale=0.2))
            v2 = m.tangent(random_sym(rng, n, scale=0.2))
            if min(m.max_step(x, v1), m.max_step(x, v2)) <= 1.05:
                continue
            lhs = m.distance(m.exp(x, v1), m.exp(x, v2))
            rhs = m.norm(x, v1 - v2)
            assert lhs <= rhs + 1e-8
            done += 1


class TestDistanceAxioms:
    @pytest.mark.parametrize("case", ["sphere", "orthant", "bw"])
    def test_zero_and_symmetric(self, case):
        rng = np.random.default_rng(106)
        if case == "sphere":
            m = Sphere()
            pts = [random_unit(rng, 5) for _ in range(10)]
        elif case == "orthant":
            m = PositiveOrthant()
            pts = [rng.uniform(0.2, 3.0, size=5) for _ in range(10)]
        else:
            m = BuresWasserstein()
            pts = [random_spd(rng, 4) for _ in range(10)]
        for p in pts:
            assert m.distance(p, p) == 0.0
            assert m.distance(p, p.copy()) == 0.0
        for p, q in zip(pts[::2], pts[1::2]):
            assert abs(m.distance(p, q) - m.distance(q, p)) <= 1e-10
            assert m.distance(p, q) >= 0.0


class TestCurvatureClasses:
    def test_max_step_finite_only_on_incomplete(self):
        rng = np.random.default_rng(107)
        sphere = Sphere()
        x = random_unit(rng, 4)
        assert sphere.max_step(x, random_sphere_tangent(rng, x)) == math.inf
        orthant = PositiveOrthant()
        assert orthant.max_step(np.ones(3), rng.standard_normal(3)) == math.inf
        bw = BuresWasserstein()
        xs = random_spd(rng, 3)
        g = bw.egrad_to_rgrad(xs, random_sym(rng, 3, scale=2.0))
        caps = [bw.max_step(xs, s * g) for s in (1.0, -1.0)]
        assert min(caps) < math.inf
