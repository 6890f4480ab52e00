import dataclasses
import math
import warnings

import numpy as np
import pytest

from adgd import linalg, problems
from adgd.errors import DomainError
from adgd.manifolds import BuresWasserstein, BWTangent, PositiveOrthant, Sphere

from conftest import random_sym, random_unit


class TestCenterOfMass:
    def test_single_point_minimum(self, sphere):
        prob = problems.center_of_mass(4, n_points=1, seed=0)
        p = prob.extras["points"][0]
        assert prob.value(p) == 0.0
        rgrad = sphere.egrad_to_rgrad(p, prob.euclidean_grad(p))
        assert np.linalg.norm(rgrad) <= 1e-12

    def test_two_point_symmetry(self, sphere):
        prob = problems.center_of_mass(3, n_points=2, seed=0)
        prob.extras["points"][0] = np.array([1.0, 0.0, 0.0])
        prob.extras["points"][1] = np.array([0.0, 1.0, 0.0])
        mid = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        rgrad = sphere.egrad_to_rgrad(mid, prob.euclidean_grad(mid))
        assert np.linalg.norm(rgrad) <= 1e-12

    def test_near_coincident_coefficient_limit(self):
        prob = problems.center_of_mass(3, n_points=1, seed=1)
        p = prob.extras["points"][0]
        g = prob.euclidean_grad(p)
        # Exactly at the data point the angle is zero and the coefficient is 1.
        assert np.allclose(g, -p)

    def test_antipodal_rejected(self):
        prob = problems.center_of_mass(3, n_points=1, seed=2)
        p = prob.extras["points"][0]
        with pytest.raises(DomainError):
            prob.value(-p)

    def test_reference_optimum_is_stationary(self, sphere):
        prob = problems.center_of_mass(10, n_points=50, seed=7)
        xstar = prob.optimum_point
        assert abs(np.linalg.norm(xstar) - 1.0) <= 1e-12
        rgrad = sphere.egrad_to_rgrad(xstar, prob.euclidean_grad(xstar))
        assert np.linalg.norm(rgrad) <= 1e-10

    def test_reference_stops_at_its_fixed_point(self, sphere, monkeypatch):
        # The gradient floor sits above tol; the solve stops once a step
        # returns its own start point instead of spinning to max_iters.
        calls = []
        exp = Sphere.exp

        def counting_exp(self, x, v):
            calls.append(x)
            return exp(self, x, v)

        monkeypatch.setattr(Sphere, "exp", counting_exp)
        for seed in range(3):
            del calls[:]
            prob = problems.center_of_mass(10, n_points=50, seed=seed)
            assert len(calls) <= 100
            xstar = prob.optimum_point
            g = sphere.egrad_to_rgrad(xstar, prob.euclidean_grad(xstar))
            assert np.array_equal(exp(sphere, xstar, (-1.0 / 50) * g), xstar)

    def test_reference_reports_its_stop(self, sphere, monkeypatch):
        # Every solve ends at its floating-point fixed point; tol never fires.
        calls = []
        exp = Sphere.exp

        def counting_exp(self, x, v):
            calls.append(x)
            return exp(self, x, v)

        monkeypatch.setattr(Sphere, "exp", counting_exp)
        for seed in range(12):
            del calls[:]
            prob = problems.center_of_mass(10, n_points=50, seed=seed)
            ref = prob.extras["reference"]
            assert ref["stop"] == "fixed-point"
            assert ref["steps"] == len(calls) and 38 <= ref["steps"] <= 55
            xstar = prob.optimum_point
            g = sphere.egrad_to_rgrad(xstar, prob.euclidean_grad(xstar))
            assert ref["grad_norm"] == sphere.norm(xstar, g)
            assert 2e-11 <= ref["grad_norm"] <= 5e-11

    def test_reference_tol_and_cap_stops(self, sphere, monkeypatch):
        prob = problems.center_of_mass(10, n_points=50, seed=0)
        monkeypatch.setattr(problems, "_REFERENCE_MAX_ITERS", 3)
        x, stop, steps, grad_norm = problems.fixed_step_reference(prob, sphere, 0.02)
        x3 = prob.x0
        for _ in range(3):
            x3 = sphere.exp(x3, -0.02 * sphere.egrad_to_rgrad(x3, prob.euclidean_grad(x3)))
        assert (stop, steps) == ("cap", 3) and np.array_equal(x, x3)
        assert grad_norm == sphere.norm(x, sphere.egrad_to_rgrad(x, prob.euclidean_grad(x)))

        flat = problems.Problem(value=lambda x: 0.0, euclidean_grad=np.zeros_like, x0=prob.x0)
        assert problems.fixed_step_reference(flat, sphere, 0.02)[1:] == ("tol", 0, 0.0)

    def test_points_on_open_hemisphere(self):
        prob = problems.center_of_mass(6, n_points=40, seed=3)
        assert np.all(prob.extras["points"][:, -1] > 0.0)


def _com_oracle(pts):
    """The center-of-mass value and gradient in their np.clip / np.sum /
    boolean-mask form, kept as the byte oracle for the ufunc form."""

    def angles(x):
        c = pts @ x
        if np.any(c <= -1.0 + 1e-12):
            raise DomainError("center-of-mass term evaluated at an antipodal point")
        return np.clip(c, -1.0, 1.0)

    def value(x):
        theta = np.arccos(angles(x))
        return 0.5 * float(np.sum(theta * theta))

    def euclidean_grad(x):
        c = angles(x)
        theta = np.arccos(c)
        sin2 = 1.0 - c * c
        near = 1.0 - c < 1e-12
        coef = np.empty_like(c)
        coef[near] = 1.0
        coef[~near] = theta[~near] / np.sqrt(sin2[~near])
        return -(pts.T @ coef)

    return value, euclidean_grad


def _com_masked_grad(pts):
    """The center-of-mass gradient in its two-sided clip and masked
    np.divide form, which the unmasked quotient replaced."""

    def euclidean_grad(x):
        c = pts @ x
        if np.count_nonzero(c <= -1.0 + 1e-12):
            raise DomainError("center-of-mass term evaluated at an antipodal point")
        c = np.minimum(np.maximum(c, -1.0), 1.0)
        theta = np.arccos(c)
        coef = np.divide(theta, np.sqrt(1.0 - c * c), out=np.ones_like(c), where=~(1.0 - c < 1e-12))
        return -(pts.T @ coef)

    return euclidean_grad


class TestCenterOfMassOracle:
    """Value and gradient are byte-equal to the oracle and the gradient to
    its masked form, NaNs and edge coefficients included."""

    @staticmethod
    def assert_same_bytes(prob, x):
        value, grad = _com_oracle(prob.extras["points"])
        masked = _com_masked_grad(prob.extras["points"])
        assert np.float64(prob.value(x)).tobytes() == np.float64(value(x)).tobytes()
        assert prob.euclidean_grad(x).tobytes() == grad(x).tobytes() == masked(x).tobytes()

    @staticmethod
    def crafted(cs):
        # With x = e_0, row i = (c_i, sqrt(1 - c_i^2), 0) gives pts @ x == cs exactly.
        prob = problems.center_of_mass(3, n_points=len(cs), seed=0)
        pts = prob.extras["points"]
        pts[:] = 0.0
        pts[:, 0] = cs
        pts[:, 1] = np.sqrt(np.maximum(1.0 - np.square(cs), 0.0))
        x = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(pts @ x, np.asarray(cs), equal_nan=True)
        return prob, x

    def test_random_points(self):
        rng = np.random.default_rng(16)
        for n in (3, 10):
            prob = problems.center_of_mass(n, n_points=50, seed=n)
            for _ in range(20):
                self.assert_same_bytes(prob, random_unit(rng, n))

    def test_data_points_take_coefficient_one_without_warnings(self):
        prob = problems.center_of_mass(10, n_points=50, seed=4)
        pts = prob.extras["points"]
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            for p in pts[:10]:
                self.assert_same_bytes(prob, p)
        # The coefficient path: exactly at a lone data point the gradient is -p.
        single = problems.center_of_mass(10, n_points=1, seed=4)
        p = single.extras["points"][0]
        assert np.array_equal(single.euclidean_grad(p), -p)

    def test_one_ulp_from_a_data_point_without_warnings(self):
        # c one ulp below 1, where 1 - c * c rounds to 0, and x one ulp off
        # a data point in each coordinate: the near branch, whose quotient
        # is theta / 0, sets the coefficient without a warning.
        prob, x = self.crafted(np.array([np.nextafter(1.0, 0.0), 0.5]))
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            self.assert_same_bytes(prob, x)
            prob = problems.center_of_mass(10, n_points=50, seed=4)
            p = prob.extras["points"][7]
            for i in range(10):
                for toward in (-np.inf, np.inf):
                    x = p.copy()
                    x[i] = np.nextafter(x[i], toward)
                    self.assert_same_bytes(prob, x)

    def test_threshold_straddle(self):
        c0 = 1.0 - 1e-12
        cs = [c0]
        for _ in range(4):
            cs = [np.nextafter(cs[0], 0.0)] + cs + [np.nextafter(cs[-1], 2.0)]
        cs = np.array(cs)
        near = 1.0 - cs < 1e-12
        assert near.any() and not near.all()
        prob, x = self.crafted(cs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_same_bytes(prob, x)

    def test_all_nan_angles(self):
        prob = problems.center_of_mass(5, n_points=50, seed=1)
        x = np.full(5, np.nan)
        assert math.isnan(prob.value(x))
        assert np.isnan(prob.euclidean_grad(x)).all()
        self.assert_same_bytes(prob, x)

    def test_nan_angle_beside_a_data_point(self):
        # The rare branch sets the near coefficient and keeps the NaN one.
        prob, x = self.crafted(np.array([1.0, np.nan, 0.25]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_same_bytes(prob, x)

    def test_nan_beside_an_antipodal_term_raises(self):
        # np.minimum.reduce would return NaN here and lose the antipodal term.
        for cs in ([np.nan, -1.0], [-1.0 + 1e-12, np.nan]):
            prob, x = self.crafted(np.array(cs))
            value, grad = _com_oracle(prob.extras["points"])
            for fn in (prob.value, prob.euclidean_grad, value, grad):
                with pytest.raises(DomainError, match="antipodal"):
                    fn(x)


class TestRayleigh:
    def test_identity_matrix_constant(self, sphere):
        prob = problems.rayleigh(5, seed=0)
        prob.extras["A"][:] = np.eye(5)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        assert prob.value(x) == pytest.approx(1.0)
        rgrad = sphere.egrad_to_rgrad(x, prob.euclidean_grad(x))
        assert np.linalg.norm(rgrad) <= 1e-12

    def test_diagonal_minimum(self):
        prob = problems.rayleigh(2, seed=0)
        prob.extras["A"][:] = np.diag([1.0, 5.0])
        assert prob.value(np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_optimum_is_smallest_eigenvalue(self):
        prob = problems.rayleigh(8, seed=5)
        w = linalg.sym_eig(prob.extras["A"]).eigenvalues
        assert prob.optimum_value == pytest.approx(w[0], rel=1e-12)

    def test_sampling_lower_bound(self):
        prob = problems.rayleigh(6, seed=9)
        a = prob.extras["A"]
        rng = np.random.default_rng(123)
        lowest = math.inf
        for _ in range(10):
            xs = rng.standard_normal((100_000, 6))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            vals = np.einsum("ij,jk,ik->i", xs, a, xs)
            lowest = min(lowest, float(vals.min()))
        assert lowest >= prob.optimum_value - 1e-12


class TestLyapunovObjective:
    def test_identity_pencil_closed_form(self):
        prob = problems.lyapunov_objective(4, seed=0)
        c = prob.extras["C"]
        prob.extras["A"][:] = np.eye(4)
        xstar = linalg.solve_lyapunov(np.eye(4), c)
        assert np.allclose(xstar, c / 2.0)
        phi_star = prob.value(xstar)
        assert phi_star == pytest.approx(-0.25 * float(np.trace(c @ c)), rel=1e-12)

    def test_gradient_vanishes_at_solution(self):
        prob = problems.lyapunov_objective(7, seed=3)
        g = prob.euclidean_grad(prob.optimum_point)
        assert np.linalg.norm(g) <= 1e-9

    def test_solution_solves_equation(self):
        prob = problems.lyapunov_objective(9, seed=11)
        a, c, xs = prob.extras["A"], prob.extras["C"], prob.optimum_point
        assert np.linalg.norm(a @ xs + xs @ a - c) <= 1e-10 * (1.0 + np.linalg.norm(c))


class TestWeightedLeastSquares:
    def test_exact_fit_zero(self):
        prob = problems.weighted_least_squares(5, seed=0)
        a = prob.extras["A"]
        rng = np.random.default_rng(1)
        x = random_sym(rng, 5)
        prob.extras["B"][:] = a * x
        assert prob.value(x) == 0.0
        assert np.allclose(prob.euclidean_grad(x), 0.0)

    def test_all_ones_mask(self):
        prob = problems.weighted_least_squares(4, seed=2)
        prob.extras["A"][:] = np.ones((4, 4))
        b = prob.extras["B"]
        rng = np.random.default_rng(2)
        x = random_sym(rng, 4)
        assert prob.value(x) == pytest.approx(float(np.sum((x - b) ** 2)))
        assert np.allclose(prob.euclidean_grad(x), 2.0 * (x - b))

    def test_sparse_mask_symmetric_and_sparse(self):
        prob = problems.weighted_least_squares(20, seed=4, density=0.1)
        a = prob.extras["A"]
        assert np.allclose(a, a.T)
        frac = np.count_nonzero(a) / a.size
        assert frac < 0.35

    def test_interior_optimum_with_zero_value(self):
        from adgd import linalg

        for density in (None, 0.1):
            prob = problems.weighted_least_squares(8, seed=5, density=density)
            s = prob.extras["S"]
            assert prob.optimum_value == 0.0
            assert prob.value(s) == 0.0
            assert linalg.is_spd_spectrum(linalg.sym_eig(s).eigenvalues)


class TestLinearMinusLog:
    def test_optimum_at_c(self, orthant):
        prob = problems.linear_minus_log(6, seed=0)
        c = prob.extras["c"]
        assert np.allclose(prob.optimum_point, c)
        rgrad = orthant.egrad_to_rgrad(c, prob.euclidean_grad(c))
        assert np.linalg.norm(rgrad) <= 1e-12

    def test_pullback_convexity_witness(self):
        # f(y) = phi(exp(y)) has Hessian diag(e^y) > 0: sample midpoint convexity.
        prob = problems.linear_minus_log(4, seed=1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            y1 = rng.uniform(-1.0, 1.0, size=4)
            y2 = rng.uniform(-1.0, 1.0, size=4)
            f = lambda y: prob.value(np.exp(y))
            assert f(0.5 * (y1 + y2)) <= 0.5 * f(y1) + 0.5 * f(y2) + 1e-12


def _unit_tangent(manifold, rng, x):
    if isinstance(manifold, Sphere):
        v = rng.standard_normal(x.size)
        v -= np.dot(x, v) * x
    elif isinstance(manifold, PositiveOrthant):
        v = rng.standard_normal(x.size)
    else:
        v = BWTangent(random_sym(rng, x.shape[0]))
    n = manifold.norm(x, v)
    return (1.0 / n) * v


def _problem_grid():
    return [
        ("center-of-mass", Sphere(), lambda s: problems.center_of_mass(8, 30, s)),
        ("rayleigh", Sphere(), lambda s: problems.rayleigh(8, s)),
        ("lyapunov", BuresWasserstein(), lambda s: problems.lyapunov_objective(5, s)),
        ("wls-dense", BuresWasserstein(), lambda s: problems.weighted_least_squares(5, s)),
        ("wls-sparse", BuresWasserstein(), lambda s: problems.weighted_least_squares(8, s, density=0.1)),
        ("linear-minus-log", PositiveOrthant(), lambda s: problems.linear_minus_log(8, s)),
    ]


@pytest.mark.parametrize(
    "name,manifold,factory", _problem_grid(), ids=[case[0] for case in _problem_grid()]
)
def test_gradient_matches_directional_derivative(name, manifold, factory):
    # Central differences along geodesics validate euclidean_grad and
    # egrad_to_rgrad together.
    h = 1e-6
    for seed in range(3):
        prob = factory(seed)
        rng = np.random.default_rng(1000 + seed)
        x = prob.x0
        grad = manifold.egrad_to_rgrad(x, prob.euclidean_grad(x))
        phi = prob.value(x)
        for _ in range(20):
            v = _unit_tangent(manifold, rng, x)
            fd = (prob.value(manifold.exp(x, h * v)) - prob.value(manifold.exp(x, (-h) * v))) / (
                2.0 * h
            )
            assert abs(manifold.inner(x, grad, v) - fd) <= max(1e-5, 1e-5 * abs(phi))


@pytest.mark.parametrize("case", ["center-of-mass", "lyapunov", "linear-minus-log"])
def test_smooth_convexity_gap_inequality(case):
    # g-convex, locally smooth objectives obey the one-dimensional
    # co-coercivity bound along each geodesic: the convexity gap dominates
    # the squared end-slope difference over twice the segment smoothness.
    # The smoothness constant of t -> phi(exp(x, t v)) is overestimated
    # from second differences on a grid (sampling only on the interior, so
    # the estimate brackets the segment with margin).
    rng = np.random.default_rng(2024)
    if case == "center-of-mass":
        manifold = Sphere()
        prob = problems.center_of_mass(6, 25, 0)
        center = prob.x0
    elif case == "lyapunov":
        manifold = BuresWasserstein()
        prob = problems.lyapunov_objective(4, 0)
    else:
        manifold = PositiveOrthant()
        prob = problems.linear_minus_log(6, 0)

    for _ in range(40):
        if case == "center-of-mass":
            # Stay near the cluster center, where squared distances to all
            # data points remain well inside their convexity radius.
            x = manifold.exp(center, random_sphere_tangent_small(rng, center, 0.3))
            v = rng.standard_normal(6)
            v -= np.dot(x, v) * x
            v *= rng.uniform(0.05, 0.3) / np.linalg.norm(v)
        elif case == "lyapunov":
            x = linalg.symmetrize(np.eye(4) + 0.15 * random_sym(rng, 4))
            grad = manifold.egrad_to_rgrad(x, prob.euclidean_grad(x))
            scale = rng.uniform(0.01, 0.05) / manifold.norm(x, grad)
            v = (-scale) * grad
        else:
            x = rng.uniform(0.5, 2.0, size=6)
            v = rng.standard_normal(6) * 0.2

        grad_x = manifold.egrad_to_rgrad(x, prob.euclidean_grad(x))
        y = manifold.exp(x, v)
        grad_y = manifold.egrad_to_rgrad(y, prob.euclidean_grad(y))
        endpoint_velocity = manifold.transport_along_step(x, v, v)
        gap = prob.value(y) - prob.value(x) - manifold.inner(x, grad_x, v)
        pairing = manifold.inner(x, grad_x, v) - manifold.inner(y, grad_y, endpoint_velocity)

        ts = np.linspace(0.0, 1.0, 21)
        vals = np.array([prob.value(manifold.exp(x, float(t) * v)) for t in ts])
        h = ts[1] - ts[0]
        second = np.abs(vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h**2
        smooth = 1.5 * float(second.max()) + 1e-12

        assert gap >= pairing**2 / (2.0 * smooth) - 1e-8


def random_sphere_tangent_small(rng, x, scale):
    v = rng.standard_normal(x.size)
    v -= np.dot(x, v) * x
    return scale * v / np.linalg.norm(v)


def _bits(value):
    """A float's or an array's bit pattern, with its dtype and shape."""
    arr = np.asarray(value, dtype=float)
    return arr.shape, arr.tobytes()


class TestJointEvaluator:
    """``center_of_mass``'s joint evaluator, the only one a generator gives."""

    def test_equals_separate_evaluations_bit_for_bit(self):
        prob = problems.center_of_mass(6, 20, 3)
        assert prob.joint is not None
        assert prob.joint.value is prob.value and prob.joint.euclidean_grad is prob.euclidean_grad
        rng = np.random.default_rng(11)
        for x in [prob.x0] + [random_unit(rng, 6) for _ in range(20)]:
            phi, grad = prob.joint.evaluate(x)
            assert isinstance(phi, float)
            assert _bits(phi) == _bits(prob.value(x))
            assert _bits(grad) == _bits(prob.euclidean_grad(x))
            assert [_bits(v) for v in prob.value_and_grad(x)] == [_bits(phi), _bits(grad)]

    def test_used_only_while_both_callables_are_its_own(self):
        prob = problems.center_of_mass(6, 20, 3)
        joint_calls, value_calls = [], []

        def evaluate(x):
            joint_calls.append(1)
            return prob.joint.evaluate(x)

        def value(x):
            value_calls.append(1)
            return prob.value(x)

        spied = dataclasses.replace(prob, joint=prob.joint._replace(evaluate=evaluate))
        spied.value_and_grad(prob.x0)
        assert (len(joint_calls), len(value_calls)) == (1, 0)
        for replaced in (
            dataclasses.replace(spied, value=value),
            dataclasses.replace(spied, euclidean_grad=lambda x: prob.euclidean_grad(x)),
        ):
            phi, grad = replaced.value_and_grad(prob.x0)
            assert _bits(phi) == _bits(prob.value(prob.x0))
            assert _bits(grad) == _bits(prob.euclidean_grad(prob.x0))
        assert (len(joint_calls), len(value_calls)) == (1, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: problems.rayleigh(7, 0),
        lambda: problems.lyapunov_objective(5, 0),
        lambda: problems.weighted_least_squares(5, 0),
        lambda: problems.linear_minus_log(4, 0),
    ],
    ids=["rayleigh", "lyapunov", "wls", "linear-minus-log"],
)
def test_without_joint_evaluator_value_and_grad_calls_both(build):
    prob = build()
    assert prob.joint is None
    phi, grad = prob.value_and_grad(prob.x0)
    assert _bits(phi) == _bits(prob.value(prob.x0))
    assert _bits(grad) == _bits(prob.euclidean_grad(prob.x0))


def test_joint_antipodal_point_raises_the_same_domain_error():
    prob = problems.center_of_mass(3, n_points=4, seed=2)
    antipode = -prob.extras["points"][1]
    messages = []
    for evaluate in (prob.value, prob.euclidean_grad, prob.joint.evaluate, prob.value_and_grad):
        with pytest.raises(DomainError) as err:
            evaluate(antipode)
        messages.append(str(err.value))
    assert messages == ["center-of-mass term evaluated at an antipodal point"] * 4
