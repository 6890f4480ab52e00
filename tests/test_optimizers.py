import dataclasses
import math

import numpy as np
import pytest

from adgd import cli, diagnostics, optimizers, problems, trace_io
from adgd.errors import DomainError
from adgd.manifolds import BuresWasserstein, PositiveOrthant, Sphere, bures_wasserstein
from adgd.optimizers import (
    STATUS_ABORTED,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    RunConfig,
    adgd_run,
    armijo_run,
    euclidean_adgd_run,
    fixed_run,
)

from conftest import is_spd_spectrum

SQRT2 = math.sqrt(2.0)


def quadratic():
    return (lambda y: 0.5 * float(y @ y)), (lambda y: y.copy())


class TestStepRule:
    def test_half_power_branch_hand_case(self):
        # y0 = (1, 0), alpha0 = 1 on 0.5||y||^2: the first adaptive step is
        # min(sqrt(1 + 0) * 1, 1 / (sqrt(2) * 1)) = 1/sqrt(2), theta likewise.
        f, g = quadratic()
        tr = euclidean_adgd_run(RunConfig(max_iters=5, tol=0.0, alpha0=1.0), f, g, np.array([1.0, 0.0]))
        row1 = tr.rows[1]
        assert row1.alpha == pytest.approx(1.0 / SQRT2, rel=1e-15)
        assert row1.theta == pytest.approx(1.0 / SQRT2, rel=1e-15)
        assert row1.ell == pytest.approx(1.0, rel=1e-15)

    def test_quadratic_trajectory(self):
        f, g = quadratic()
        tr = euclidean_adgd_run(
            RunConfig(max_iters=40, tol=0.0, alpha0=0.1), f, g, np.array([1.0, 0.0])
        )
        assert np.allclose(tr.points[1], [0.9, 0.0])
        # Gradient differences equal step lengths here, so the local
        # inverse-smoothness estimate is identically one...
        for row in tr.rows[1:]:
            assert row.ell == pytest.approx(1.0, rel=1e-12)
        # ...and the second branch pins steps at 1/sqrt(2) once the growth
        # branch has caught up.
        alphas = tr.column("alpha")
        assert alphas.max() <= 1.0 / SQRT2 + 1e-15
        assert alphas[-1] == pytest.approx(1.0 / SQRT2, rel=1e-12)

    def test_zero_denominator_takes_growth_branch(self):
        # Linear objective: the transported gradient equals the new gradient,
        # the local branch is +inf, and steps grow by sqrt(1 + theta).
        f = lambda y: float(y[0])
        g = lambda y: np.array([1.0, 0.0])
        tr = euclidean_adgd_run(RunConfig(max_iters=6, tol=0.0, alpha0=0.5), f, g, np.array([0.0, 0.0]))
        assert tr.status == STATUS_MAX_ITERS
        for k in range(1, len(tr.rows)):
            prev, cur = tr.rows[k - 1], tr.rows[k]
            assert cur.ell == 0.0
            assert cur.alpha == pytest.approx(math.sqrt(1.0 + prev.theta) * prev.alpha, rel=1e-15)

    def test_growth_cap_and_theta_recursion_all_manifolds(self):
        runs = [
            (Sphere(), problems.center_of_mass(8, 30, 1), 0.05),
            (Sphere(), problems.rayleigh(12, 2), 0.05),
            (BuresWasserstein(), problems.lyapunov_objective(5, 3), 0.05),
            (PositiveOrthant(), problems.linear_minus_log(8, 4), 0.3),
        ]
        for manifold, prob, alpha0 in runs:
            tr = adgd_run(RunConfig(max_iters=150, tol=1e-12, alpha0=alpha0), manifold, prob)
            for k in range(1, len(tr.rows)):
                prev, cur = tr.rows[k - 1], tr.rows[k]
                cap = math.sqrt(1.0 + prev.theta) * prev.alpha
                assert cur.alpha <= cap * (1.0 + 1e-15)
                assert cur.theta == cur.alpha / prev.alpha

    def test_step_floor(self):
        # min alpha never falls below min(alpha0, 1 / (2 L)) with L taken
        # from the recorded local estimates.
        f, g = quadratic()
        tr = euclidean_adgd_run(RunConfig(max_iters=60, tol=0.0, alpha0=0.2), f, g, np.array([2.0, -1.0]))
        observed, floor = diagnostics.step_floor_bound(tr)
        assert observed >= floor - 1e-15

    def test_flat_ell_matches_definition(self):
        f, g = quadratic()
        tr = euclidean_adgd_run(RunConfig(max_iters=15, tol=0.0, alpha0=0.3), f, g, np.array([1.5, 0.7]))
        for k in range(1, len(tr.rows)):
            g_prev = g(tr.points[k - 1])
            g_cur = g(tr.points[k])
            num = tr.rows[k - 1].alpha * np.linalg.norm(g_prev)
            den = np.linalg.norm(g_cur - g_prev)
            assert tr.rows[k].ell == pytest.approx(num / den, rel=1e-12)


class TestTermination:
    def test_stationary_start_single_row(self):
        f = lambda y: 1.0
        g = lambda y: np.zeros_like(y)
        tr = euclidean_adgd_run(RunConfig(max_iters=100), f, g, np.array([3.0]))
        assert tr.status == STATUS_CONVERGED
        assert len(tr.rows) == 1
        assert tr.rows[0].theta == 0.0

    def test_max_iters_one_gives_two_rows(self):
        f, g = quadratic()
        tr = euclidean_adgd_run(RunConfig(max_iters=1, tol=0.0, alpha0=0.3), f, g, np.array([1.0]))
        assert tr.status == STATUS_MAX_ITERS
        assert [r.k for r in tr.rows] == [0, 1]

    def test_max_iters_zero_evaluates_only(self):
        f, g = quadratic()
        tr = euclidean_adgd_run(RunConfig(max_iters=0, tol=0.0), f, g, np.array([1.0]))
        assert tr.status == STATUS_MAX_ITERS
        assert len(tr.rows) == 1
        assert tr.rows[0].exp_evals == 0

    def test_non_finite_objective_aborts(self):
        with np.errstate(over="ignore"):
            f = lambda y: float(y[0] ** 4)
            g = lambda y: 4.0 * y**3
            tr = euclidean_adgd_run(RunConfig(max_iters=50, alpha0=1e200), f, g, np.array([2.0]))
        assert tr.status == STATUS_ABORTED
        assert "non-finite" in tr.message

    def test_counters_monotone(self):
        prob = problems.rayleigh(10, 5)
        tr = adgd_run(RunConfig(max_iters=80, alpha0=0.1), Sphere(), prob)
        for name in ("fn_evals", "exp_evals", "expensive_ops"):
            col = tr.column(name)
            assert np.all(np.diff(col) >= 0)
        assert tr.rows[-1].fn_evals == len(tr.rows)


class TestFirstIterationLineSearch:
    def test_doubles_until_ratio_reaches_one(self):
        # On 0.5||y||^2 (smoothness exactly 1) the ratio is 1/(sqrt(2) a0):
        # from 0.001 it takes ten doublings to pass 1/sqrt(2).
        f, g = quadratic()
        tr = euclidean_adgd_run(
            RunConfig(max_iters=3, tol=0.0, alpha0=0.001, first_ls=True),
            f,
            g,
            np.array([1.0, 2.0]),
        )
        assert tr.rows[0].alpha == pytest.approx(0.001 * 2**10)
        assert tr.rows[0].exp_evals == 11

    def test_doubling_stops_at_the_cap(self):
        # A linear objective's gradient never changes, so the ratio stays
        # infinite and the search takes the trial after 60 doublings.
        c = np.array([1.0, -2.0])
        tr = euclidean_adgd_run(
            RunConfig(max_iters=1, tol=0.0, alpha0=0.001, first_ls=True),
            lambda y: float(c @ y),
            lambda y: c.copy(),
            np.zeros(2),
        )
        assert tr.rows[0].alpha == 0.001 * 2**60
        assert tr.rows[0].exp_evals == 61

    def test_doubling_stops_before_the_step_overflows(self):
        # From 1e300 the 27th doubling reaches 1.34e308 and a 28th would
        # overflow to inf: that trial is taken as it stands, uncompared.
        c = np.array([1.0, -2.0])
        tr = euclidean_adgd_run(
            RunConfig(max_iters=1, tol=0.0, alpha0=1e300, first_ls=True),
            lambda y: float(c @ y),
            lambda y: c.copy(),
            np.zeros(2),
        )
        assert tr.rows[0].alpha == 1e300 * 2**27
        assert tr.rows[0].exp_evals == 28

    def test_orthant_rows_stay_finite_from_a_huge_alpha0(self, tmp_path):
        # The orthant's exponent clamp keeps every trial point finite, so
        # only the step itself could overflow.
        out = tmp_path / "o.csv"
        argv = ["run", "--experiment", "orthant-equivalence", "--n", "2", "--seed", "3",
                "--alpha0", "1e300", "--first-ls", "--max-iters", "5", "--out", str(out)]
        cli.main(argv)
        _, trace, deviations = trace_io.read_trace(out)
        assert trace.rows[0].alpha == 1e300 * 2**27
        assert trace.rows[0].exp_evals == 28
        for row, deviation in zip(trace.rows, deviations):
            values = [getattr(row, f.name) for f in dataclasses.fields(row)] + [deviation]
            assert all(math.isfinite(value) for value in values if value is not None)

    @pytest.mark.parametrize(
        "objective,y0,max_iters,exp_evals,expensive_ops",
        [
            # 60 doublings: 61 trials, and the 61st is not compared.
            ("linear", [0.0, 0.0], 1, 61, 3 + 61 * 4 + 60),
            # Ten doublings: 11 trials, each compared.
            ("quadratic", [1.0, 2.0], 3, 11, 3 + 11 * 4 + 11),
        ],
    )
    def test_metering_with_price_tags(self, objective, y0, max_iters, exp_evals, expensive_ops):
        # Each trial charges an exponential (2) and a gradient (1 + 1); each
        # comparison charges 1; x_0's value and gradient charge 3.
        class PricedFlat(optimizers._FlatSpace):
            rgrad_ops = 1
            exp_ops = 2
            adapt_extra_ops = 1

        c = np.array([1.0, -2.0])
        if objective == "quadratic":
            f, g = quadratic()
        else:
            f, g = (lambda y: float(c @ y)), (lambda y: c.copy())
        prob = problems.Problem(
            value=f, euclidean_grad=g, x0=np.array(y0), value_ops=1, grad_ops=1
        )
        config = RunConfig(max_iters=max_iters, tol=0.0, alpha0=0.001, first_ls=True)
        row = adgd_run(config, PricedFlat(), prob).rows[0]
        assert (row.fn_evals, row.exp_evals, row.expensive_ops) == (1, exp_evals, expensive_ops)

    def test_disabled_by_default(self):
        f, g = quadratic()
        tr = euclidean_adgd_run(RunConfig(max_iters=3, tol=0.0, alpha0=0.001), f, g, np.array([1.0]))
        assert tr.rows[0].alpha == 0.001
        assert tr.rows[0].exp_evals == 1

    def test_respects_domain_clamp(self):
        prob = problems.lyapunov_objective(4, 6)
        tr = adgd_run(
            RunConfig(max_iters=30, alpha0=1.0, first_ls=True), BuresWasserstein(), prob
        )
        assert tr.status in (STATUS_CONVERGED, STATUS_MAX_ITERS)


class TestArmijo:
    def test_accepted_step_never_exceeds_growth(self):
        prob = problems.center_of_mass(8, 30, 7)
        config = RunConfig(max_iters=60, tol=1e-9, alpha0=0.02, armijo_lambda=2.0)
        tr = armijo_run(config, Sphere(), prob)
        for k in range(1, len(tr.rows) - 1):
            assert tr.rows[k].alpha <= config.armijo_lambda * tr.rows[k - 1].alpha + 1e-15

    def test_sufficient_decrease_along_trace(self):
        prob = problems.rayleigh(10, 8)
        config = RunConfig(max_iters=50, tol=1e-9, alpha0=0.05, armijo_c=1e-4)
        tr = armijo_run(config, Sphere(), prob)
        for k in range(len(tr.rows) - 1):
            row = tr.rows[k]
            assert tr.rows[k + 1].phi <= row.phi - config.armijo_c * row.alpha * row.grad_norm**2 + 1e-12

    def test_single_evaluation_per_iteration_without_growth(self):
        # With lambda = 1 on a well-scaled problem the first trial is
        # accepted, costing one objective evaluation per iteration.
        prob = problems.rayleigh(10, 9)
        config = RunConfig(max_iters=30, tol=0.0, alpha0=0.05, armijo_lambda=1.0)
        tr = armijo_run(config, Sphere(), prob)
        fn = tr.column("fn_evals")
        assert np.all(np.diff(fn)[:-1] == 1)

    def test_first_trial_accepted_on_gentle_objective(self):
        sphere = Sphere()
        prob = problems.center_of_mass(5, 1, 11)
        # Start away from the single data point so a genuine step is needed.
        p = prob.extras["points"][0]
        off = np.zeros(5)
        off[np.argmin(np.abs(p))] = 0.4
        x0 = p + off - np.dot(p, off) * p
        prob.x0 = x0 / np.linalg.norm(x0)
        config = RunConfig(max_iters=10, tol=1e-12, alpha0=0.01)
        tr = armijo_run(config, sphere, prob)
        assert tr.rows[0].alpha == config.alpha0

    def test_abort_after_sixty_backtracks(self):
        # A kink with a lying gradient: every trial increases the objective,
        # so no amount of backtracking finds sufficient decrease.
        from adgd.optimizers import _FlatSpace

        prob = problems.Problem(
            value=lambda y: abs(float(y[0])),
            euclidean_grad=lambda y: np.array([1.0]),
            x0=np.array([0.0]),
        )
        tr = armijo_run(RunConfig(max_iters=5, alpha0=1.0), _FlatSpace(), prob)
        assert tr.status == STATUS_ABORTED
        assert "backtracking" in tr.message


class TestFixed:
    def test_zero_step_is_stationary(self):
        prob = problems.rayleigh(6, 10)
        tr = fixed_run(RunConfig(max_iters=20, tol=0.0), Sphere(), prob, 0.0)
        phis = tr.column("phi")
        assert np.all(phis == phis[0])
        assert all(np.array_equal(p, tr.points[0]) for p in tr.points)

    def test_inverse_smoothness_step_decreases_monotonically(self):
        prob = problems.rayleigh(20, 12)
        from adgd import linalg

        w = linalg.sym_eig(prob.extras["A"]).eigenvalues
        alpha = 1.0 / (2.0 * max(abs(w[0]), abs(w[-1])))
        tr = fixed_run(RunConfig(max_iters=200, tol=1e-10), Sphere(), prob, alpha)
        phis = tr.column("phi")
        assert np.all(np.diff(phis) <= 1e-12)

    def test_divergence_abort(self):
        f, g = quadratic()
        prob = problems.Problem(value=f, euclidean_grad=g, x0=np.array([1.0]))
        from adgd.optimizers import _FlatSpace

        tr = fixed_run(RunConfig(max_iters=400, tol=0.0), _FlatSpace(), prob, 2.5)
        assert tr.status == STATUS_ABORTED
        assert "diverging" in tr.message


class TestEuclideanTwin:
    def test_constant_function_converges_immediately(self):
        tr = euclidean_adgd_run(RunConfig(max_iters=10), lambda y: 2.0, lambda y: np.zeros_like(y), np.ones(3))
        assert tr.status == STATUS_CONVERGED
        assert len(tr.rows) == 1

    def test_orthant_pairing(self, orthant):
        # The Riemannian run on the orthant and the flat run on the pullback
        # generate the same sequence through x = exp(y).
        prob = problems.linear_minus_log(10, 3)
        config = RunConfig(max_iters=100, tol=0.0, alpha0=0.5)
        riem = adgd_run(config, orthant, prob)
        c = prob.extras["c"]
        f = lambda y: float(np.sum(np.exp(y) - c * y))
        g = lambda y: np.exp(y) - c
        flat = euclidean_adgd_run(config, f, g, np.log(prob.x0))
        assert len(riem.points) == len(flat.points)
        for xk, yk in zip(riem.points, flat.points):
            ref = np.exp(yk)
            assert np.max(np.abs(xk - ref) / np.abs(ref)) <= 1e-8


class TestDomainSafety:
    def test_clamp_keeps_iterates_positive_definite(self, bw):
        from adgd import linalg

        prob = problems.lyapunov_objective(6, 21)
        tr = adgd_run(RunConfig(max_iters=60, tol=1e-10, alpha0=50.0), bw, prob)
        assert tr.status != STATUS_ABORTED
        assert any(r.clamped for r in tr.rows)
        for point in tr.points:
            assert is_spd_spectrum(linalg.sym_eig(point).eigenvalues)

    @pytest.mark.parametrize(
        "run",
        [
            lambda prob: adgd_run(RunConfig(alpha0=1e300), Sphere(), prob),
            lambda prob: adgd_run(RunConfig(alpha0=1e300, first_ls=True), Sphere(), prob),
            lambda prob: fixed_run(RunConfig(), Sphere(), prob, 1e300),
            lambda prob: armijo_run(RunConfig(alpha0=1e300), Sphere(), prob),
        ],
        ids=["adgd", "first-ls", "fixed", "armijo"],
    )
    def test_overflowing_sphere_step_aborts(self, run):
        # ||alpha0 g_0||^2 overflows, so the first exponential cannot be taken.
        tr = run(problems.rayleigh(5, 0))
        assert tr.status == STATUS_ABORTED
        assert tr.message == "sphere step norm overflowed (||v|| = inf)"
        assert tr.rows == []

    def test_without_clamp_the_domain_error_surfaces(self, bw, monkeypatch):
        monkeypatch.setattr(optimizers, "_clamp_alpha", lambda alpha, *_: (alpha, False))
        prob = problems.lyapunov_objective(6, 21)
        tr = adgd_run(RunConfig(max_iters=60, tol=1e-10, alpha0=50.0), bw, prob)
        assert tr.status == STATUS_ABORTED
        assert "SPD cone" in tr.message


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha0": 0.0},
            {"alpha0": -1.0},
            {"armijo_beta": 1.0},
            {"armijo_beta": 0.0},
            {"armijo_lambda": 0.5},
            {"armijo_c": 0.0},
            {"armijo_c": 1.0},
            {"tol": -1e-3},
            {"max_iters": -1},
            {"max_iters": 2.5},
            {"max_iters": True},
            {"max_iters": "5"},
            {"first_ls": "no"},
            {"first_ls": 1},
            {"track_distance": "false"},
            {"track_distance": 0},
            {"tol": True},
            {"tol": None},
            {"alpha0": "1"},
            {"alpha0": True},
            {"armijo_c": None},
            {"armijo_beta": "0.5"},
            {"armijo_lambda": False},
            {"armijo_lambda": [2.0]},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_accepts_numpy_integer_max_iters(self):
        assert RunConfig(max_iters=np.int64(5)).max_iters == 5

    def test_accepts_numpy_floats(self):
        fields = {
            "tol": np.float64(1e-8),
            "alpha0": np.float32(0.5),
            "armijo_c": np.float64(1e-3),
            "armijo_beta": np.float64(0.25),
            "armijo_lambda": np.int64(2),
        }
        config = RunConfig(**fields)
        assert {name: getattr(config, name) for name in fields} == fields

    @pytest.mark.parametrize("field", ["alpha0", "armijo_lambda"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_step_sizes(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_fixed_run_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fixed_run(RunConfig(max_iters=5), Sphere(), problems.rayleigh(4, 0), alpha)


_EDGE_PROBLEMS = {
    "lyapunov": (BuresWasserstein, lambda: problems.lyapunov_objective(4, 0)),
    "center-of-mass": (Sphere, lambda: problems.center_of_mass(6, 20, 0)),
}
_EDGE_METHODS = {
    "adgd": adgd_run,
    "armijo": armijo_run,
    "fixed": lambda config, manifold, problem: fixed_run(config, manifold, problem, 0.01),
}


def _overflow_at_fourth_grad(problem):
    """``problem`` whose fourth Euclidean gradient is rescaled to 1e308."""
    calls = 0

    def euclidean_grad(x):
        nonlocal calls
        calls += 1
        g = problem.euclidean_grad(x)
        return g * (1e308 / np.max(np.abs(g))) if calls == 4 else g

    return dataclasses.replace(problem, euclidean_grad=euclidean_grad)


def _nan_from_fifth_value(problem):
    """``problem`` whose objective is NaN from its fifth evaluation on, and
    a one-item list that counts its evaluations."""
    calls = [0]

    def value(x):
        calls[0] += 1
        return math.nan if calls[0] >= 5 else problem.value(x)

    return dataclasses.replace(problem, value=value), calls


@pytest.mark.parametrize("method", sorted(_EDGE_METHODS))
@pytest.mark.parametrize("name", sorted(_EDGE_PROBLEMS))
class TestDriverEdges:
    def _run(self, name, method, problem=None, **config):
        manifold_cls, build = _EDGE_PROBLEMS[name]
        problem = build() if problem is None else problem
        return _EDGE_METHODS[method](RunConfig(**config), manifold_cls(), problem)

    def test_max_iters_zero_takes_no_step(self, name, method):
        tr = self._run(name, method, max_iters=0)
        assert tr.status == STATUS_MAX_ITERS
        assert [(r.k, r.exp_evals) for r in tr.rows] == [(0, 0)]

    def test_max_iters_one(self, name, method):
        tr = self._run(name, method, max_iters=1, tol=0.0, alpha0=0.01)
        assert tr.status == STATUS_MAX_ITERS
        assert [r.k for r in tr.rows] == [0, 1]
        # The adaptive rule still takes and charges the last row's exponential.
        extra = 0 if method == "armijo" else 1
        assert tr.rows[1].exp_evals == tr.rows[0].exp_evals + extra

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gradient_aborts_without_warnings(self, name, method):
        problem = _overflow_at_fourth_grad(_EDGE_PROBLEMS[name][1]())
        tr = self._run(name, method, problem, max_iters=10, tol=0.0, alpha0=0.01)
        assert tr.status == STATUS_ABORTED
        assert "non-finite" in tr.message
        assert [r.k for r in tr.rows] == [0, 1, 2]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_objective_aborts_keeping_earlier_rows(self, name, method):
        clean = self._run(name, method, max_iters=10, tol=0.0, alpha0=0.01)
        problem, calls = _nan_from_fifth_value(_EDGE_PROBLEMS[name][1]())
        tr = self._run(name, method, problem, max_iters=10, tol=0.0, alpha0=0.01)
        assert tr.status == STATUS_ABORTED
        assert "nan" in tr.message
        # Armijo's first NaN trial ends iteration 3; the others stop at x_4.
        # Either way the fifth evaluation, the first NaN, is the last.
        assert len(tr.rows) == (3 if method == "armijo" else 4)
        assert calls == [5]
        assert tr.rows == clean.rows[: len(tr.rows)]


@pytest.mark.parametrize("name", sorted(_EDGE_PROBLEMS))
class TestDistanceColumn:
    """``_drive`` fills ``dist_to_opt`` after the loop, on every exit path."""

    @pytest.mark.parametrize(
        "max_iters, tol, nan, status",
        [
            (1000, 1e-6, False, STATUS_CONVERGED),
            (7, 0.0, False, STATUS_MAX_ITERS),
            (10, 0.0, True, STATUS_ABORTED),
        ],
        ids=["converged", "max-iters", "aborted"],
    )
    def test_filled_row_by_row(self, name, max_iters, tol, nan, status):
        manifold_cls, build = _EDGE_PROBLEMS[name]
        problem = _nan_from_fifth_value(build())[0] if nan else build()
        manifold = manifold_cls()
        tr = adgd_run(RunConfig(max_iters=max_iters, tol=tol, alpha0=0.01), manifold, problem)
        assert tr.status == status
        assert len(tr.rows) > 1
        expected = [manifold.distance(problem.optimum_point, x) for x in tr.points[: len(tr.rows)]]
        assert tr.column("dist_to_opt").tolist() == expected

    def test_none_without_optimum_or_tracking(self, name):
        manifold_cls, build = _EDGE_PROBLEMS[name]
        unknown = dataclasses.replace(build(), optimum_point=None)
        for problem, track in [(unknown, True), (build(), False)]:
            config = RunConfig(max_iters=5, tol=0.0, alpha0=0.01, track_distance=track)
            tr = adgd_run(config, manifold_cls(), problem)
            assert [r.dist_to_opt for r in tr.rows] == [None] * 6


def test_distance_chunk_size_moves_no_bit(monkeypatch):
    problem = problems.lyapunov_objective(5, 3)
    config = RunConfig(max_iters=10, tol=0.0, alpha0=0.1)
    columns = []
    for chunk in (1, 3, bures_wasserstein._DISTANCE_CHUNK):
        monkeypatch.setattr(bures_wasserstein, "_DISTANCE_CHUNK", chunk)
        columns.append(adgd_run(config, BuresWasserstein(), problem).column("dist_to_opt").tobytes())
    assert columns[0] == columns[1] == columns[2]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", sorted(_EDGE_METHODS))
def test_near_antipodal_start_aborts_before_the_first_row(method):
    # A one-point center of mass started 1e-7 from the antipode of its point.
    prob = problems.center_of_mass(5, 1, 3)
    antipode = -prob.extras["points"][0]
    off = np.zeros(5)
    off[np.argmin(np.abs(antipode))] = 1e-7
    x0 = antipode + off - np.dot(antipode, off) * antipode
    prob.x0 = x0 / np.linalg.norm(x0)
    tr = _EDGE_METHODS[method](RunConfig(max_iters=10, alpha0=0.01), Sphere(), prob)
    assert tr.status == STATUS_ABORTED
    assert tr.rows == []
    assert "antipodal" in tr.message


class TestStartingPoint:
    """``_drive`` checks ``x0`` once, before row 0 (``Manifold.check_point``);
    each manifold's own cases are in its test file."""

    def test_base_class_and_flat_space_accept_anything(self):
        for x in (np.array([-1.0, np.nan, np.inf]), np.zeros((2, 3))):
            assert optimizers._FlatSpace().check_point(x) is None
        tr = euclidean_adgd_run(RunConfig(max_iters=3, tol=0.0, alpha0=0.1), *quadratic(), np.array([-2.0, 0.0]))
        assert tr.status == STATUS_MAX_ITERS and tr.rows[0].phi == 2.0

    @pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
    def test_cli_default_starts_pass(self, experiment):
        n, manifold_cls, build = cli.EXPERIMENTS[experiment]
        assert manifold_cls().check_point(build(n, 0).x0) is None

    @pytest.mark.parametrize("method", sorted(_EDGE_METHODS))
    def test_checked_before_any_evaluation(self, method):
        prob = problems.lyapunov_objective(4, 0)
        prob.x0 = np.diag([1.0, 1.0, 1.0, -1.0])
        calls = []
        prob = dataclasses.replace(prob, value=lambda x: calls.append(x))
        with pytest.raises(ValueError, match="positive definite"):
            _EDGE_METHODS[method](RunConfig(), BuresWasserstein(), prob)
        assert calls == []


class TestOptimumPoint:
    """With the distance column on, ``_drive`` checks the known optimum
    next to ``x0``, before row 0; with the column off it never reads it."""

    CASES = {
        "sphere": (Sphere, lambda: problems.center_of_mass(6, 20, 0), lambda x: 3.0 * x),
        "orthant": (PositiveOrthant, lambda: problems.linear_minus_log(5, 0), lambda x: -x),
        "bw": (BuresWasserstein, lambda: problems.lyapunov_objective(4, 0), lambda x: -x),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_off_manifold_optimum(self, case):
        manifold_cls, build, move = self.CASES[case]
        valid = build()
        calls = []

        def value(x):
            calls.append(1)
            return valid.value(x)

        bad = dataclasses.replace(valid, value=value, optimum_point=move(valid.optimum_point))
        with pytest.raises(ValueError) as raised:
            manifold_cls().check_point(bad.optimum_point)
        config = RunConfig(max_iters=20)
        with pytest.raises(ValueError) as got:
            adgd_run(config, manifold_cls(), bad)
        assert str(got.value) == str(raised.value) and calls == []
        off = dataclasses.replace(config, track_distance=False)
        tr = adgd_run(off, manifold_cls(), bad)
        assert calls and tr.rows == adgd_run(off, manifold_cls(), valid).rows

    def test_ill_conditioned_optimum_fills_the_column(self):
        # A point check_point accepts has a square root: the column's fixed
        # point decides positive definiteness as check_point does, so a
        # valid optimum of condition 1e13 never costs the run its trace.
        prob = dataclasses.replace(problems.lyapunov_objective(3, 0), optimum_point=np.diag([1.0, 1.0, 1e-13]))
        tr = adgd_run(RunConfig(), BuresWasserstein(), prob)
        assert tr.status == STATUS_CONVERGED
        assert np.isfinite(tr.column("dist_to_opt")).all()

    @pytest.mark.parametrize("method", sorted(_EDGE_METHODS))
    def test_distance_column_built_before_any_evaluation(self, method, monkeypatch):
        # The fixed point's work, and anything it refuses, comes before row 0.
        def refuse(self, y):
            raise DomainError("no distance")

        monkeypatch.setattr(BuresWasserstein, "distance_from", refuse)
        calls = []
        valid = problems.lyapunov_objective(4, 0)

        def value(x):
            calls.append(1)
            return valid.value(x)

        prob = dataclasses.replace(valid, value=value, joint=None)
        with pytest.raises(DomainError, match="no distance"):
            _EDGE_METHODS[method](RunConfig(max_iters=5), BuresWasserstein(), prob)
        assert calls == []


class TestJointEvaluation:
    """``_drive`` evaluates phi and the gradient of an iterate through one
    ``Problem.value_and_grad`` call, charged as both, and a replaced
    callable still sees every evaluation."""

    @staticmethod
    def _counting(fn, calls):
        def counted(x):
            calls.append(1)
            return fn(x)

        return counted

    def test_one_joint_call_per_adaptive_iterate(self):
        problem = problems.center_of_mass(6, 20, 0)
        joint_calls = []
        spied = dataclasses.replace(
            problem,
            joint=problem.joint._replace(evaluate=self._counting(problem.joint.evaluate, joint_calls)),
        )
        config = RunConfig(max_iters=10, tol=0.0, alpha0=0.01)
        tr = adgd_run(config, Sphere(), spied)
        assert len(joint_calls) == len(tr.rows) == 11
        assert [r.fn_evals for r in tr.rows] == list(range(1, 12))
        assert tr.rows == adgd_run(config, Sphere(), dataclasses.replace(problem, joint=None)).rows

    @pytest.mark.parametrize("replaced", ["value", "euclidean_grad"])
    def test_replaced_callable_sees_every_evaluation(self, replaced):
        problem = problems.center_of_mass(6, 20, 0)
        calls = []
        counted = dataclasses.replace(
            problem, **{replaced: self._counting(getattr(problem, replaced), calls)}
        )
        config = RunConfig(max_iters=10, tol=0.0, alpha0=0.01)
        tr = adgd_run(config, Sphere(), counted)
        assert len(calls) == len(tr.rows) == 11
        assert tr.rows == adgd_run(config, Sphere(), problem).rows
