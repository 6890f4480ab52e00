import math
import warnings

import numpy as np
import pytest

from adgd import problems
from adgd.errors import DomainError
from adgd.optimizers import RunConfig, adgd_run

from conftest import bits, random_sphere_tangent, random_unit


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

    def test_overflowing_step_norm_raises_without_a_warning(self, sphere):
        # No caller-side np.errstate: exp_transport, and so exp and
        # transport_along_step, take the step norm with np.vdot, which
        # raises no floating-point warning.
        x, v = e(0), 1e300 * e(1)
        message = r"^sphere step norm overflowed \(\|\|v\|\| = inf\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (sphere.exp_transport, sphere.exp):
                with pytest.raises(DomainError, match=message):
                    call(x, v)
            with pytest.raises(DomainError, match=message):
                sphere.transport_along_step(x, v, e(2))


    @pytest.mark.parametrize("scale", [0.0, 1e-300, 0.99e-12])
    def test_step_below_the_floor_returns_the_point_itself(self, sphere, scale):
        # The point itself, not a copy: a run answers evaluations at a
        # returned x from the iterate's own.
        rng = np.random.default_rng(5)
        x = random_unit(rng, 4)
        v = random_sphere_tangent(rng, x)
        y, clamped, transport, _ = sphere.exp_transport(x, scale * v / np.linalg.norm(v))
        assert y is x and clamped is False
        w = random_sphere_tangent(rng, x)
        assert bits(transport(w)) == bits(w)
        y, _, _, _ = sphere.exp_transport(x, 1.01e-12 * v / np.linalg.norm(v))
        assert y is not x


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
        for n in (2, 10, 50, 1000):
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
        valid = [i for i, x in enumerate(xs) if not np.isnan(x).any()]
        assert valid == [0, 1, 2, 3] + list(range(5, 25))
        assert bits([column[i] for i in valid]) == bits([sphere.distance(xs[i], y) for i in valid])
        # The NaN row: the column, which checks no point, reads NaN, and the
        # single distance, which checks both, raises.
        with pytest.raises(ValueError, match="finite vector"):
            sphere.distance(nan_point, y)
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
        nan_point = np.array([math.nan, 0.0, 0.0])
        for a, b in ((x, nan_point), (nan_point, x)):
            with pytest.raises(ValueError, match="finite vector"):
                sphere.distance(a, b)
        assert math.isnan(sphere.distance_from(x)([nan_point])[0])
        assert math.isnan(sphere.distance_from(nan_point)([x])[0])
        assert sphere.distance(x, -x) == math.pi


class TestDistanceColumnFloor:
    """Where the ``acos`` column stops resolving, on the CLI-default
    center-of-mass run, against the cancellation-free chord form
    ``2 asin(||x - y|| / 2)``.

    The bound is first order in the error ``Delta`` of the cosine the
    column takes: the ddot of n products is off by up to ``n u`` (Higham's
    ``gamma_n``, u = eps / 2 being one ulp just below 1), and each point,
    divided once by its computed norm, has unit norm within
    ``(n / 2 + 2) u``; one more u covers the rounding of ``cos d`` below.
    So ``Delta = (2 n + 5) u``, and where ``cos d + Delta < 1`` the column
    is within ``Delta / sqrt(1 - (cos d + Delta)^2)`` of d (mean value
    theorem on ``acos``), about ``Delta / d``: one ulp of the cosine moves
    ``acos`` by about ``eps / (2 d)``.  Nothing here depends on the BLAS
    kernel's summation order, which moves the column's low digits.
    """

    def test_cli_default_center_of_mass(self, sphere):
        prob = problems.center_of_mass(10, 50, 0)
        config = RunConfig()
        tr = adgd_run(config, sphere, prob)
        y = prob.optimum_point
        oracle = [2.0 * math.asin(math.sqrt((x - y).dot(x - y)) / 2.0) for x in tr.points]
        column = tr.column("dist_to_opt")
        u = np.finfo(float).eps / 2.0
        delta = (2 * y.size + 5) * u
        resolved = []
        for k, d in enumerate(oracle):
            c = math.cos(d)
            if c + delta < 1.0:
                resolved.append(k)
                # The chord form's own rounding is a few ulps of d.
                bound = delta / math.sqrt(1.0 - (c + delta) ** 2) + 4.0 * u * d
                assert abs(column[k] - d) <= bound, k
            else:
                # Unresolved: anywhere in [0, acos(cos d - Delta)].
                assert column[k] <= math.acos(c - delta), k
        assert resolved and resolved == list(range(len(resolved)))
        # Where x . y rounds to 1 the column reads 0, although the iterate
        # has not reached the optimum: the stable form is still positive and
        # the gradient norm above tol.
        zeros = [k for k, d in enumerate(column) if d == 0.0]
        assert zeros and all(oracle[k] > 0.0 for k in zeros)
        assert all(tr.rows[k].grad_norm > config.tol for k in zeros if k < len(tr.rows) - 1)
        assert any(tr.rows[k].grad_norm > config.tol for k in zeros)
