import math

import numpy as np
import pytest

from adgd import problems
from adgd.errors import DomainError
from adgd.optimizers import RunConfig, adgd_run

from conftest import random_sphere_tangent, random_unit


def e(i, n=3):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestRiemannianGradient:
    def test_already_tangent(self, sphere):
        assert np.allclose(sphere.egrad_to_rgrad(e(0), e(1)), e(1))

    def test_radial_annihilated(self, sphere):
        assert np.allclose(sphere.egrad_to_rgrad(e(0), e(0)), 0.0)

    def test_mixed_direction(self, sphere):
        # (I - x x^T)(e1 + e2) at x = e1 keeps only e2.
        out = sphere.egrad_to_rgrad(e(0), e(0) + e(1))
        assert np.allclose(out, e(1))

    def test_output_tangency(self, sphere):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = random_unit(rng, 6)
            g = rng.standard_normal(6)
            v = sphere.egrad_to_rgrad(x, g)
            assert abs(np.dot(x, v)) <= 1e-9 * (1.0 + np.linalg.norm(v))


class TestExp:
    def test_zero_velocity(self, sphere):
        x = e(0)
        assert sphere.exp(x, np.zeros(3)) is x

    def test_quarter_circle(self, sphere):
        out = sphere.exp(e(0), (math.pi / 2) * e(1))
        assert np.allclose(out, e(1), atol=1e-15)

    def test_antipode(self, sphere):
        out = sphere.exp(e(0), math.pi * e(1))
        assert np.allclose(out, -e(0), atol=1e-15)

    def test_stays_on_sphere(self, sphere):
        rng = np.random.default_rng(1)
        for _ in range(500):
            x = random_unit(rng, 5)
            v = random_sphere_tangent(rng, x, scale=rng.uniform(0.0, 10.0))
            y = sphere.exp(x, v)
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-10

    def test_geodesic_speed(self, sphere):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = random_unit(rng, 4)
            v = random_sphere_tangent(rng, x)
            v /= np.linalg.norm(v)
            t = rng.uniform(0.0, math.pi)
            assert abs(sphere.distance(x, sphere.exp(x, t * v)) - t) <= 1e-9

    def test_overflowing_step_norm_raises(self, sphere):
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="overflowed"):
            sphere.exp(e(0), 1e200 * e(1))
        # A NaN norm is not an overflow: the NaN point reaches the caller.
        assert np.isnan(sphere.exp(e(0), np.array([0.0, math.nan, 0.0]))).all()


class TestTransport:
    def test_zero_step_identity(self, sphere):
        w = np.array([0.0, 1.0, 2.0])
        assert np.allclose(sphere.transport_along_step(e(0), np.zeros(3), w), w)

    def test_own_velocity_quarter_circle(self, sphere):
        v = (math.pi / 2) * e(1)
        out = sphere.transport_along_step(e(0), v, v)
        assert np.allclose(out, -(math.pi / 2) * e(0), atol=1e-15)

    def test_normal_component_fixed(self, sphere):
        out = sphere.transport_along_step(e(0), (math.pi / 2) * e(1), e(2))
        assert np.allclose(out, e(2), atol=1e-15)

    def test_result_tangent_at_endpoint(self, sphere):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = random_unit(rng, 5)
            v = random_sphere_tangent(rng, x)
            w = random_sphere_tangent(rng, x)
            y = sphere.exp(x, v)
            out = sphere.transport_along_step(x, v, w)
            assert abs(np.dot(y, out)) <= 1e-9 * (1.0 + np.linalg.norm(out))


class TestDistance:
    def test_self(self, sphere):
        x = random_unit(np.random.default_rng(4), 7)
        assert sphere.distance(x, x) == 0.0

    def test_orthogonal(self, sphere):
        assert abs(sphere.distance(e(0), e(1)) - math.pi / 2) <= 1e-15

    def test_antipodal(self, sphere):
        assert abs(sphere.distance(e(0), -e(0)) - math.pi) <= 1e-15

    def test_clamps_rounding_drift(self, sphere):
        x = random_unit(np.random.default_rng(5), 3)
        assert sphere.distance(x, 1.0000000000000002 * x) == 0.0



class TestSqrtDotOracle:
    """The kernels are byte-equal to their np.linalg.norm / np.dot form."""

    def test_kernels_match_norm_and_dot_forms(self, sphere):
        rng = np.random.default_rng(16)
        for n in (2, 10, 50):
            for scale in (1e-13, 1e-3, 1.0, 3.0):
                x = random_unit(rng, n)
                v = random_sphere_tangent(rng, x, scale)
                w = random_sphere_tangent(rng, x)
                g = rng.standard_normal(n)
                nv = float(np.linalg.norm(v))
                if nv < 1e-12:
                    y, out = x, w
                else:
                    y = math.cos(nv) * x + (math.sin(nv) / nv) * v
                    y = y / np.linalg.norm(y)
                    u = v / nv
                    a = float(np.dot(w, u))
                    out = a * (-math.sin(nv) * x + math.cos(nv) * u) + (w - a * u)
                assert sphere.exp(x, v).tobytes() == y.tobytes()
                assert sphere.transport_along_step(x, v, w).tobytes() == out.tobytes()
                assert sphere.egrad_to_rgrad(x, g).tobytes() == (g - np.dot(x, g) * x).tobytes()
                assert sphere.inner(x, v, w) == float(np.dot(v, w))
                assert sphere.norm(x, v) == math.sqrt(max(float(np.dot(v, v)), 0.0))
                c = float(np.dot(x, y))
                assert sphere.distance(x, y) == (0.0 if np.array_equal(x, y) else math.acos(min(1.0, max(-1.0, c))))


class TestDistanceFrom:
    """The distance column: one stacked equality test, then a ddot and
    ``math.acos`` per unequal point, bit for bit the single distance."""

    @staticmethod
    def bits(values):
        return np.array(values, dtype=float).tobytes()

    def test_column_equals_single_distances(self, sphere):
        rng = np.random.default_rng(5)
        y = random_unit(rng, 10)
        y[3] = 0.0
        y /= math.sqrt(y.dot(y))
        signed_zero = y.copy()
        signed_zero[3] = -0.0
        nan_point = y.copy()
        nan_point[0] = math.nan
        xs = [y, y.copy(), signed_zero, -y, nan_point] + [random_unit(rng, 10) for _ in range(20)]
        column = sphere.distance_from(y)(xs)
        assert self.bits(column) == self.bits([sphere.distance(x, y) for x in xs])
        # The per-point form the column replaced, away from NaN.
        for x, dist in zip(xs, column):
            if not np.isnan(x).any():
                c = float(x.dot(y))
                assert dist == (0.0 if np.array_equal(x, y) else math.acos(min(1.0, max(-1.0, c))))
        assert column[:3] == [0.0, 0.0, 0.0]
        assert column[3] == pytest.approx(math.pi, abs=1e-7)
        assert math.isnan(column[4])
        assert sphere.distance_from(y)([]) == []

    def test_nan_point_is_nan_not_pi(self, sphere):
        x = e(0)
        assert math.isnan(sphere.distance(x, np.array([math.nan, 0.0, 0.0])))
        assert math.isnan(sphere.distance(np.array([math.nan, 0.0, 0.0]), x))
        assert sphere.distance(x, -x) == math.pi


class TestDistanceColumnFloor:
    """Where the ``acos`` column stops resolving, on the CLI-default
    center-of-mass run, against the cancellation-free chord form
    ``2 asin(||x - y|| / 2)``."""

    def test_cli_default_center_of_mass(self, sphere):
        prob = problems.center_of_mass(10, 50, 0)
        config = RunConfig()
        tr = adgd_run(config, sphere, prob)
        assert len(tr.rows) == 24
        y = prob.optimum_point
        oracle = [2.0 * math.asin(math.sqrt((x - y).dot(x - y)) / 2.0) for x in tr.points]
        column = tr.column("dist_to_opt")
        # Down to 1e-6 (k <= 12) the column agrees within 1e-5 relative
        # (3.4e-6 measured, at k = 11).
        resolved = [k for k, d in enumerate(oracle) if d >= 1e-6]
        assert resolved == list(range(13))
        assert max(abs(column[k] - oracle[k]) / oracle[k] for k in resolved) <= 1e-5
        # Below about 1.05e-8 the dot product rounds to 1: from k = 16 on
        # the column reads 0, although the iterate has not reached the optimum.
        zeros = [k for k, d in enumerate(column) if d == 0.0]
        assert zeros == list(range(16, 24))
        assert all(oracle[k] > 0.0 for k in zeros)
        assert all(tr.rows[k].grad_norm > config.tol for k in range(16, 23))


class TestStartingPoint:
    """``_drive`` asks ``Sphere.check_point`` of ``x0`` before row 0: a
    finite vector with unit norm within 1e-10, else ValueError."""

    def test_scaled_start_raises(self, sphere):
        # Unchecked, a start of norm 3 runs to max-iters, its row 0
        # writing phi 14.49 where the unit start's value is 38.0.
        prob = problems.center_of_mass(10, 50, 0)
        prob.x0 = 3.0 * prob.x0
        with pytest.raises(ValueError, match="unit norm"):
            adgd_run(RunConfig(), sphere, prob)

    @pytest.mark.parametrize(
        "x0, match",
        [
            ([1.0 + 2e-10, 0.0, 0.0], "unit norm"),
            ([1.0 - 2e-10, 0.0, 0.0], "unit norm"),
            ([0.0, 0.0, 0.0], "unit norm"),
            ([1e200, 0.0, 0.0], "unit norm"),
            ([1.0, 0.0, np.nan], "finite"),
            ([1.0, -np.inf, 0.0], "finite"),
            ([[1.0, 0.0], [0.0, 1.0]], "finite vector"),
        ],
        ids=["long", "short", "zero", "overflow", "nan", "inf", "matrix"],
    )
    def test_off_sphere_points_rejected(self, sphere, x0, match):
        with pytest.raises(ValueError, match=match):
            sphere.check_point(np.array(x0))

    def test_unit_points_accepted(self, sphere):
        rng = np.random.default_rng(24)
        for n in (1, 2, 10, 100):
            sphere.check_point(random_unit(rng, n))
        sphere.check_point(np.array([1.0 + 5e-11, 0.0]))
