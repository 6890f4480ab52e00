import math

import numpy as np
import pytest

from adgd import problems
from adgd.optimizers import RunConfig, adgd_run


class TestRiemannianGradient:
    def test_ones_unchanged(self, orthant):
        g = np.array([1.0, -2.0, 3.0])
        assert np.allclose(orthant.egrad_to_rgrad(np.ones(3), g), g)

    def test_scalar_case(self, orthant):
        out = orthant.egrad_to_rgrad(np.array([2.0]), np.array([3.0]))
        assert np.allclose(out, [12.0])

    def test_metric_duality(self, orthant):
        # <grad, v>_x must equal the Euclidean pairing <g, v> for every v.
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(0.1, 5.0, size=6)
            g = rng.standard_normal(6)
            v = rng.standard_normal(6)
            rgrad = orthant.egrad_to_rgrad(x, g)
            assert abs(orthant.inner(x, rgrad, v) - float(np.dot(g, v))) <= 1e-10 * (
                1.0 + abs(np.dot(g, v))
            )

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="x * x underflows near 1.7e-304, so x * x * g is -0 and inner takes 0/0; "
        "mending it moves golden adgd-orthant-abort (ROADMAP item 5 D)",
    )
    def test_norm_is_finite_where_x_squared_underflows(self, orthant):
        # Row 1 of golden adgd-orthant-abort: the run aborts on this NaN.
        problem = problems.linear_minus_log(4, 0)
        x = adgd_run(RunConfig(alpha0=1e9, max_iters=50), orthant, problem).points[1]
        assert 1e-304 < np.max(x) < 1e-303
        g = problem.euclidean_grad(x)
        with np.errstate(under="ignore", invalid="ignore", divide="ignore"):
            norm = orthant.norm(x, orthant.egrad_to_rgrad(x, g))
        # ||grad||_x = ||x * g||, 1.878 here.
        assert norm == pytest.approx(float(np.linalg.norm(x * g)), rel=1e-12)


class TestExp:
    def test_zero(self, orthant):
        x = np.array([1.0, 2.0])
        assert np.allclose(orthant.exp(x, np.zeros(2)), x)

    def test_unit_case(self, orthant):
        assert np.allclose(orthant.exp(np.array([1.0]), np.array([1.0])), [math.e])

    def test_log3_case(self, orthant):
        out = orthant.exp(np.array([2.0]), np.array([2.0 * math.log(3.0)]))
        assert np.allclose(out, [6.0])

    def test_output_positive(self, orthant):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(0.1, 3.0, size=4)
            v = rng.standard_normal(4) * 5.0
            assert np.all(orthant.exp(x, v) > 0.0)

    def test_overflow_clamp_flagged(self, orthant):
        x = np.array([1.0])
        y, clamped, _, _ = orthant.exp_transport(x, np.array([1e6]))
        assert clamped
        assert np.isfinite(y).all()
        _, unclamped, _, _ = orthant.exp_transport(x, np.array([1.0]))
        assert not unclamped

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exponent_guard_boundary(self, orthant):
        # |v / x| = 700 exactly is left alone; just above it is clamped.
        x = np.array([1.0, 3.0, 1.0, 3.0])
        at = np.array([700.0, 2100.0, -700.0, -2100.0])
        y, clamped, _, _ = orthant.exp_transport(x, at)
        assert not clamped
        assert np.array_equal(y, x * np.exp([700.0, 700.0, -700.0, -700.0]))
        for sign in (1.0, -1.0):
            above = sign * np.nextafter(700.0, np.inf) * np.ones(1)
            y, clamped, _, _ = orthant.exp_transport(np.ones(1), above)
            assert clamped and np.isfinite(y).all()
            assert y[0] == np.exp(sign * 700.0)


class TestTransport:
    def test_zero_step(self, orthant):
        x = np.array([1.0, 2.0])
        w = np.array([3.0, -1.0])
        assert np.allclose(orthant.transport_along_step(x, np.zeros(2), w), w)

    def test_gradient_transport_formula(self, orthant):
        # For w = grad phi(x) the transport is diag(x) diag(eg) y coordinatewise.
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.0, size=5)
        eg = rng.standard_normal(5)
        grad = orthant.egrad_to_rgrad(x, eg)
        v = -0.3 * grad
        y = orthant.exp(x, v)
        out = orthant.transport_along_step(x, v, grad)
        assert np.allclose(out, x * eg * y, atol=1e-12)

    def test_isometry_exact(self, orthant):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(0.2, 4.0, size=6)
            v = rng.standard_normal(6)
            w = rng.standard_normal(6)
            y = orthant.exp(x, v)
            out = orthant.transport_along_step(x, v, w)
            nw = orthant.norm(x, w)
            assert abs(orthant.norm(y, out) - nw) <= 1e-12 * (1.0 + nw)


class TestMetricAndDistance:
    def test_inner_unit_point(self, orthant):
        val = orthant.inner(np.ones(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert val == 1.0

    def test_distance_log_coordinates(self, orthant):
        assert abs(orthant.distance(np.array([1.0]), np.array([math.e])) - 1.0) <= 1e-15


class TestChangeOfVariables:
    def test_gradient_norms_match_flat_chart(self, orthant):
        # With f(y) = phi(exp(y)): ||grad f(y)|| equals the Riemannian
        # gradient norm, and the flat gradient difference equals the norm of
        # grad_new - P grad_old after one step.
        rng = np.random.default_rng(5)
        prob = problems.linear_minus_log(6, seed=5)
        eg, pullback_grad = prob.euclidean_grad, prob.extras["pullback"][1]

        for _ in range(20):
            x = rng.uniform(0.3, 3.0, size=6)
            grad = orthant.egrad_to_rgrad(x, eg(x))
            y = np.log(x)
            grad_f = pullback_grad(y)
            n_riem = orthant.norm(x, grad)
            n_flat = float(np.linalg.norm(grad_f))
            assert abs(n_riem - n_flat) <= 1e-10 * (1.0 + n_flat)

            alpha = 0.2
            step = -alpha * grad
            x_next = orthant.exp(x, step)
            transported = orthant.transport_along_step(x, step, grad)
            grad_next = orthant.egrad_to_rgrad(x_next, eg(x_next))
            y_next = y - alpha * grad_f
            diff_flat = float(np.linalg.norm(pullback_grad(y_next) - grad_f))
            diff_riem = orthant.norm(x_next, grad_next - transported)
            assert abs(diff_riem - diff_flat) <= 1e-10 * (1.0 + diff_flat)
