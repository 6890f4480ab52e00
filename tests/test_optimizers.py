import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from adgd import cli, diagnostics, optimizers, problems, trace_io
from adgd.errors import DomainError
from adgd.manifolds import BuresWasserstein, Euclidean, PositiveOrthant, Sphere, bures_wasserstein
from adgd.optimizers import (
    STATUS_ABORTED,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    RunConfig,
    adgd_run,
    armijo_run,
    fixed_run,
)
from adgd.problems import Problem

from conftest import METHODS, assert_floor_sound, bits

SQRT2 = math.sqrt(2.0)


def quadratic():
    return (lambda y: 0.5 * float(y @ y)), (lambda y: y.copy())


class TestStepRule:
    def test_half_power_branch_hand_case(self):
        # y0 = (1, 0), alpha0 = 1 on 0.5||y||^2: the first adaptive step is
        # min(sqrt(1 + 0) * 1, 1 / (sqrt(2) * 1)) = 1/sqrt(2), theta likewise.
        f, g = quadratic()
        tr = adgd_run(
            RunConfig(max_iters=5, tol=0.0, alpha0=1.0),
            Euclidean(),
            Problem(f, g, np.array([1.0, 0.0])),
        )
        row1 = tr.rows[1]
        assert row1.alpha == pytest.approx(1.0 / SQRT2, rel=1e-15)
        assert row1.theta == pytest.approx(1.0 / SQRT2, rel=1e-15)
        assert row1.ell == pytest.approx(1.0, rel=1e-15)

    def test_quadratic_trajectory(self):
        f, g = quadratic()
        tr = adgd_run(
            RunConfig(max_iters=40, tol=0.0, alpha0=0.1),
            Euclidean(),
            Problem(f, g, np.array([1.0, 0.0])),
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
        tr = adgd_run(
            RunConfig(max_iters=6, tol=0.0, alpha0=0.5),
            Euclidean(),
            Problem(f, g, np.array([0.0, 0.0])),
        )
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
        tr = adgd_run(
            RunConfig(max_iters=60, tol=0.0, alpha0=0.2),
            Euclidean(),
            Problem(f, g, np.array([2.0, -1.0])),
        )
        observed, floor = diagnostics.step_floor_bound(tr)
        assert observed >= floor - 1e-15

    def test_flat_ell_matches_definition(self):
        f, g = quadratic()
        tr = adgd_run(
            RunConfig(max_iters=15, tol=0.0, alpha0=0.3),
            Euclidean(),
            Problem(f, g, np.array([1.5, 0.7])),
        )
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
        tr = adgd_run(RunConfig(max_iters=100), Euclidean(), Problem(f, g, np.array([3.0])))
        assert tr.status == STATUS_CONVERGED
        assert len(tr.rows) == 1
        assert tr.rows[0].theta == 0.0

    def test_max_iters_one_gives_two_rows(self):
        f, g = quadratic()
        tr = adgd_run(
            RunConfig(max_iters=1, tol=0.0, alpha0=0.3), Euclidean(), Problem(f, g, np.array([1.0]))
        )
        assert tr.status == STATUS_MAX_ITERS
        assert [r.k for r in tr.rows] == [0, 1]

    def test_max_iters_zero_evaluates_only(self):
        f, g = quadratic()
        tr = adgd_run(RunConfig(max_iters=0, tol=0.0), Euclidean(), Problem(f, g, np.array([1.0])))
        assert tr.status == STATUS_MAX_ITERS
        assert len(tr.rows) == 1
        assert tr.rows[0].exp_evals == 0

    def test_non_finite_objective_aborts(self):
        with np.errstate(over="ignore"):
            f = lambda y: float(y[0] ** 4)
            g = lambda y: 4.0 * y**3
            tr = adgd_run(
                RunConfig(max_iters=50, alpha0=1e200), Euclidean(), Problem(f, g, np.array([2.0]))
            )
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
        tr = adgd_run(
            RunConfig(max_iters=3, tol=0.0, alpha0=0.001, first_ls=True),
            Euclidean(),
            Problem(f, g, np.array([1.0, 2.0])),
        )
        assert tr.rows[0].alpha == pytest.approx(0.001 * 2**10)
        assert tr.rows[0].exp_evals == 11

    def test_doubling_stops_at_the_cap(self):
        # A linear objective's gradient never changes, so the ratio stays
        # infinite and the search takes the trial after 60 doublings.
        c = np.array([1.0, -2.0])
        tr = adgd_run(
            RunConfig(max_iters=1, tol=0.0, alpha0=0.001, first_ls=True),
            Euclidean(),
            Problem(lambda y: float(c @ y), lambda y: c.copy(), np.zeros(2)),
        )
        assert tr.rows[0].alpha == 0.001 * 2**60
        assert tr.rows[0].exp_evals == 61

    def test_doubling_stops_before_the_step_overflows(self):
        # From 1e300 the 27th doubling reaches 1.34e308 and a 28th would
        # overflow to inf: that trial is taken as it stands, uncompared.
        c = np.array([1.0, -2.0])
        tr = adgd_run(
            RunConfig(max_iters=1, tol=0.0, alpha0=1e300, first_ls=True),
            Euclidean(),
            Problem(lambda y: float(c @ y), lambda y: c.copy(), np.zeros(2)),
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
        class PricedFlat(Euclidean):
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
        tr = adgd_run(
            RunConfig(max_iters=3, tol=0.0, alpha0=0.001),
            Euclidean(),
            Problem(f, g, np.array([1.0])),
        )
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
        # The value is asked once at x0 and once per trial: the first trial
        # and exactly 60 reductions, README's limit.
        calls = []
        prob = problems.Problem(
            value=lambda y: calls.append(1) or abs(float(y[0])),
            euclidean_grad=lambda y: np.array([1.0]),
            x0=np.array([0.0]),
        )
        tr = armijo_run(RunConfig(max_iters=5, alpha0=1.0), Euclidean(), prob)
        assert tr.status == STATUS_ABORTED
        assert "Armijo backtracking exceeded 60 reductions at iteration 0" in tr.message
        assert len(calls) == 1 + 61


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
        tr = fixed_run(RunConfig(max_iters=400, tol=0.0), Euclidean(), prob, 2.5)
        assert tr.status == STATUS_ABORTED
        assert "objective increased for 50 consecutive iterations" in tr.message
        # Every step increases phi, so row k sees the k-th increase: the run
        # aborts on row 50, which is recorded (fixed_run's docstring).
        assert all(b.phi > a.phi for a, b in zip(tr.rows, tr.rows[1:]))
        assert len(tr.rows) == 51 and tr.rows[-1].k == 50


class TestEuclideanTwin:
    def test_constant_function_converges_immediately(self):
        tr = adgd_run(
            RunConfig(max_iters=10),
            Euclidean(),
            Problem(lambda y: 2.0, lambda y: np.zeros_like(y), np.ones(3)),
        )
        assert tr.status == STATUS_CONVERGED
        assert len(tr.rows) == 1

    @pytest.mark.parametrize(
        "alpha0,first_step", [(0.5, (1.0, 2)), (1e-3, (1.024, 11))], ids=["alpha0-0.5", "alpha0-1e-3"]
    )
    def test_first_ls_orthant_pairing(self, orthant, alpha0, first_step):
        # With first-LS the Riemannian run on the orthant and the flat run
        # on the pullback double to the same first step in as many trials,
        # then generate the same sequence through x = exp(y).
        config = RunConfig(max_iters=100, tol=0.0, alpha0=alpha0, first_ls=True)
        for seed in range(20):
            prob = problems.linear_minus_log(10, seed)
            riem = adgd_run(config, orthant, prob)
            pullback = Problem(*prob.extras["pullback"], x0=np.log(prob.x0))
            flat = adgd_run(config, Euclidean(), pullback)
            for trace in (riem, flat):
                assert (trace.rows[0].alpha, trace.rows[0].exp_evals) == first_step
            assert max(cli.twin_deviations(riem.points, flat.points, 101)) <= 1e-8


class TestDomainSafety:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_overflowing_sphere_step_aborts(self, method):
        # ||alpha0 g_0||^2 overflows, so the first exponential cannot be taken.
        tr = METHODS[method](RunConfig(alpha0=1e300), Sphere(), problems.rayleigh(5, 0), 1e300)
        assert tr.status == STATUS_ABORTED
        assert tr.message == "sphere step norm overflowed (||v|| = inf)"
        assert tr.rows == []


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
        max_iters = RunConfig(max_iters=np.int64(5)).max_iters
        assert max_iters == 5 and type(max_iters) is int

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
        assert all(type(getattr(config, name)) is float for name in fields)

    @pytest.mark.parametrize(
        "method, field, value",
        [("adgd", "alpha0", 0.1), ("armijo", "armijo_beta", 0.5), ("armijo", "armijo_c", 1e-4), ("fixed", None, 0.1)],
        ids=["alpha0", "armijo-beta", "armijo-c", "fixed-step"],
    )
    def test_float32_settings_run_as_their_python_floats(self, method, field, value):
        # RunConfig stores a real field as a float, and fixed_run its step,
        # so a float32 setting runs in double precision: its trace is the
        # one of the same value given as a Python float, bit for bit.  The
        # Armijo runs backtrack (lambda = 2), so beta and c take part.
        prob = problems.lyapunov_objective(5, 1)
        base = dict(armijo_lambda=2.0, alpha0=0.1) if method == "armijo" else {}
        traces = []
        for setting in (np.float32(value), float(np.float32(value))):
            config = RunConfig(max_iters=30, **(base | ({} if field is None else {field: setting})))
            traces.append(METHODS[method](config, BuresWasserstein(), prob, setting))
        assert len(traces[0].rows) > 1 and bits(traces[0].rows) == bits(traces[1].rows)
        assert all(type(getattr(row, name)) is float for row in traces[0].rows for name in ("alpha", "theta", "ell"))

    @pytest.mark.parametrize("field", ["alpha0", "armijo_lambda"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_step_sizes(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_fixed_run_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fixed_run(RunConfig(max_iters=5), Sphere(), problems.rayleigh(4, 0), alpha)

    @pytest.mark.parametrize(
        "alpha", [True, np.True_, np.array(0.1), "0.1"], ids=["bool", "numpy-bool", "0-d-array", "str"]
    )
    def test_fixed_run_rejects_what_run_config_rejects(self, alpha):
        # The step is held to RunConfig's rule for its float fields.
        with pytest.raises(ValueError, match="real number"):
            RunConfig(alpha0=alpha)
        with pytest.raises(ValueError, match="real number"):
            fixed_run(RunConfig(max_iters=5), Sphere(), problems.rayleigh(4, 0), alpha)


_EDGE_PROBLEMS = {
    "lyapunov": (BuresWasserstein, lambda: problems.lyapunov_objective(4, 0)),
    "center-of-mass": (Sphere, lambda: problems.center_of_mass(6, 20, 0)),
}
# The methods the edge tests run, the fixed one at step 0.01.
_EDGE_METHODS = ("adgd", "armijo", "fixed")


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


@pytest.mark.parametrize("method", _EDGE_METHODS)
@pytest.mark.parametrize("name", sorted(_EDGE_PROBLEMS))
class TestDriverEdges:
    def _run(self, name, method, problem=None, **config):
        manifold_cls, build = _EDGE_PROBLEMS[name]
        problem = build() if problem is None else problem
        return METHODS[method](RunConfig(**config), manifold_cls(), problem, 0.01)

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
@pytest.mark.parametrize("method", _EDGE_METHODS)
def test_near_antipodal_start_aborts_before_the_first_row(method):
    # A one-point center of mass started 1e-7 from the antipode of its point.
    prob = problems.center_of_mass(5, 1, 3)
    antipode = -prob.extras["points"][0]
    off = np.zeros(5)
    off[np.argmin(np.abs(antipode))] = 1e-7
    x0 = antipode + off - np.dot(antipode, off) * antipode
    prob.x0 = x0 / np.linalg.norm(x0)
    tr = METHODS[method](RunConfig(max_iters=10, alpha0=0.01), Sphere(), prob, 0.01)
    assert tr.status == STATUS_ABORTED
    assert tr.rows == []
    assert "antipodal" in tr.message


class TestStartingPoint:
    """``_drive`` checks ``x0`` once, before row 0 (``Manifold.check_point``);
    the verdicts on single points are the one table in
    ``test_manifold_contract.py``."""

    def test_base_class_and_flat_space_accept_anything(self):
        for x in (np.array([-1.0, np.nan, np.inf]), np.zeros((2, 3))):
            assert Euclidean().check_point(x) is None
        tr = adgd_run(
            RunConfig(max_iters=3, tol=0.0, alpha0=0.1),
            Euclidean(),
            Problem(*quadratic(), np.array([-2.0, 0.0])),
        )
        assert tr.status == STATUS_MAX_ITERS and tr.rows[0].phi == 2.0

    @pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
    def test_cli_default_starts_pass(self, experiment):
        n, manifold_cls, build = cli.EXPERIMENTS[experiment]
        x0 = build(n, 0).x0
        floor = manifold_cls().check_point(x0)
        if manifold_cls is BuresWasserstein:
            assert_floor_sound(x0, floor)
        else:
            assert floor is None

    @pytest.mark.parametrize("method", _EDGE_METHODS)
    @pytest.mark.parametrize(
        "manifold_cls, build, start",
        [
            (Sphere, lambda: problems.center_of_mass(10, 50, 0), list),
            (PositiveOrthant, lambda: problems.linear_minus_log(4, 0), list),
            (PositiveOrthant, lambda: problems.linear_minus_log(4, 0), lambda x: x.astype(np.float32)),
        ],
        ids=["sphere-list", "orthant-list", "orthant-float32"],
    )
    def test_runs_from_the_array_check_point_accepted(self, manifold_cls, build, start, method):
        # check_point vets x0 as a float64 array and the run starts from
        # that array, so a list or float32 start runs as its float64 value.
        prob = build()
        x0 = start(prob.x0)
        twin = np.asarray(x0, dtype=float)
        config = RunConfig(max_iters=20, tol=0.0, alpha0=0.1)
        traces = [
            METHODS[method](config, manifold_cls(), dataclasses.replace(prob, x0=x), 0.01) for x in (x0, twin)
        ]
        assert len(traces[0].rows) > 1 and bits(traces[0]) == bits(traces[1])

    # Each x0 off its manifold, and what an unchecked run made of it.
    BAD_STARTS = {
        # Runs to max-iters, its row 0 writing phi 14.49 where the unit
        # start's value is 38.0.
        "sphere": (Sphere, lambda: problems.center_of_mass(10, 50, 0), lambda x: 3.0 * x),
        # Runs until the objective's log turns NaN and aborts.
        "orthant": (
            PositiveOrthant, lambda: problems.linear_minus_log(4, 0), lambda x: x * [1.0, -1.0, 1.0, 1.0]
        ),
        # Ends "converged" after one row: inner(g, g) < 0 there, and
        # Manifold.norm's max(., 0) reads it as a zero gradient.
        "bw-negative": (BuresWasserstein, lambda: problems.lyapunov_objective(5, 0), lambda x: -np.eye(5)),
        "bw-indefinite": (
            BuresWasserstein, lambda: problems.lyapunov_objective(4, 0), lambda x: np.diag([1, 1, 1, -1.0])
        ),
    }

    @pytest.mark.parametrize("method", _EDGE_METHODS)
    @pytest.mark.parametrize("case", sorted(BAD_STARTS))
    def test_checked_before_any_evaluation(self, case, method):
        manifold_cls, build, move = self.BAD_STARTS[case]
        valid = build()
        calls = []

        def counted(fn):
            return lambda x: calls.append(1) or fn(x)

        prob = dataclasses.replace(
            valid,
            x0=move(valid.x0),
            value=counted(valid.value),
            euclidean_grad=counted(valid.euclidean_grad),
        )
        with pytest.raises(ValueError) as raised:
            manifold_cls().check_point(prob.x0)
        with pytest.raises(ValueError) as got:
            METHODS[method](RunConfig(), manifold_cls(), prob, 0.01)
        assert str(got.value) == str(raised.value) and calls == []


class TestObjectiveOutputs:
    """Row 0's stage checks what the objective returns: a real scalar
    value and a Euclidean gradient of ``x0``'s shape, else a ValueError
    naming the callable and both shapes, before any step."""

    # case -> (manifold, problem, replaced field, its wrong output, message)
    CASES = {
        # Unchecked, adgd and Armijo broadcast it and end max-iters.
        "orthant-grad": (
            PositiveOrthant, lambda: problems.linear_minus_log(3, 0), "euclidean_grad",
            lambda g: g[:1], "Problem.euclidean_grad returned shape (1,), not x0's shape (3,)",
        ),
        # Unchecked: TypeError, only 0-dimensional arrays convert to scalars.
        "sphere-grad": (
            Sphere, lambda: problems.center_of_mass(3, 10, 0), "euclidean_grad",
            lambda g: g[:, None], "Problem.euclidean_grad returned shape (3, 1), not x0's shape (3,)",
        ),
        # Unchecked, this and the next raise numpy's matmul ValueError.
        "bw-scalar-grad": (
            BuresWasserstein, lambda: problems.lyapunov_objective(3, 0), "euclidean_grad",
            lambda g: g[0, 0], "Problem.euclidean_grad returned shape (), not x0's shape (3, 3)",
        ),
        "bw-grad": (
            BuresWasserstein, lambda: problems.lyapunov_objective(3, 0), "euclidean_grad",
            lambda g: g[:1, :1], "Problem.euclidean_grad returned shape (1, 1), not x0's shape (3, 3)",
        ),
        "orthant-value": (
            PositiveOrthant, lambda: problems.linear_minus_log(3, 0), "value",
            lambda v: np.array([v]),
            "Problem.value returned ndarray of shape (1,), not a real scalar (shape ())",
        ),
        "sphere-value": (
            Sphere, lambda: problems.center_of_mass(3, 10, 0), "value",
            lambda v: complex(v),
            "Problem.value returned complex of shape (), not a real scalar (shape ())",
        ),
        "bw-value": (
            BuresWasserstein, lambda: problems.lyapunov_objective(3, 0), "value",
            lambda v: np.full((1, 1), v),
            "Problem.value returned ndarray of shape (1, 1), not a real scalar (shape ())",
        ),
    }

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_wrong_output_raises_at_row_0(self, case, method):
        manifold_cls, build, field, wrong, message = self.CASES[case]
        valid = build()
        right = getattr(valid, field)
        prob = dataclasses.replace(valid, **{field: lambda x: wrong(right(x))})
        config = RunConfig(max_iters=5, tol=0.0, alpha0=0.01)
        with pytest.raises(ValueError) as got:
            METHODS[method](config, manifold_cls(), prob, 0.01)
        assert got.type is ValueError and str(got.value) == message

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_zero_dimensional_value_is_a_scalar(self, method):
        valid = problems.linear_minus_log(3, 0)
        prob = dataclasses.replace(valid, value=lambda x: np.asarray(valid.value(x)))
        config = RunConfig(max_iters=5, tol=0.0, alpha0=0.01)
        runs = [METHODS[method](config, PositiveOrthant(), p, 0.01) for p in (prob, valid)]
        assert bits(runs[0].rows) == bits(runs[1].rows)


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

    @pytest.mark.parametrize("method", _EDGE_METHODS)
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
            METHODS[method](RunConfig(max_iters=5), BuresWasserstein(), prob, 0.01)
        assert calls == []


class _CopyingSphere(Sphere):
    """The sphere with a copy of ``x`` wherever ``Sphere.exp_transport``
    returns ``x`` itself, so that no run on it repeats a point."""

    def exp_transport(self, x, v, floor=None):
        y, clamped, transport, floor_y = super().exp_transport(x, v, floor)
        return (y.copy() if y is x else y), clamped, transport, floor_y


class TestJointEvaluation:
    """Every objective evaluation of a run is one stage of
    ``Problem.stager()``, through the joint evaluator or its fallback, and
    only first-LS trials call ``euclidean_grad`` directly; a replaced
    callable still sees every evaluation, except the requests at the
    iterate's own point, which the iterate's evaluations answer."""

    @staticmethod
    def _counting(fn, calls):
        def counted(*args):
            calls.append(1)
            return fn(*args)

        return counted

    _PROBLEMS = {
        "center-of-mass": (lambda: problems.center_of_mass(6, 20, 0), Sphere),
        "lyapunov": (lambda: problems.lyapunov_objective(5, 0), BuresWasserstein),
    }
    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("name", sorted(_PROBLEMS))
    def test_every_evaluation_is_one_stage(self, name, method, monkeypatch):
        """These runs repeat no point, so no request is answered from the
        iterate's own evaluations and every one reaches the stager."""
        build, manifold_cls = self._PROBLEMS[name]
        problem = build()
        # armijo_c = 0.5 rejects trials on both problems; they are staged too.
        # Only Armijo reads it, and Armijo starts from the default alpha0.
        config = RunConfig(max_iters=10, tol=0.0, alpha0=1.0 if method == "armijo" else 0.01, armijo_c=0.5)

        def run(manifold, prob):
            return METHODS[method](config, manifold, prob, 0.01)

        plain = run(manifold_cls(), dataclasses.replace(problem, joint=None))
        stages, finishes, grads = [], [], []
        # The counted gradient goes into the joint too, so it stays the problem's own.
        counted_grad = self._counting(problem.euclidean_grad, grads)
        joint = problem.joint and problem.joint._replace(euclidean_grad=counted_grad)
        spied = dataclasses.replace(problem, euclidean_grad=counted_grad, joint=joint)
        stager = problems.Problem.stager

        def counted_stager(prob):
            stage = stager(prob)
            assert joint is None or stage is joint.stage

            def counted(x):
                phi, finish = self._counting(stage, stages)(x)
                return phi, self._counting(finish, finishes)

            return counted

        monkeypatch.setattr(problems.Problem, "stager", counted_stager)
        tr = run(manifold_cls(), spied)
        assert len(tr.rows) == 11
        assert all(y is not x for x, y in zip(tr.points, tr.points[1:]))
        assert len(stages) == tr.rows[-1].fn_evals
        # First-LS trials take a gradient each, and the taken one serves row 1.
        trials = tr.rows[0].exp_evals if method == "first-ls" else 0
        assert len(finishes) == len(tr.rows) - (trials > 0)
        # The fallback's finish calls euclidean_grad; the joint's reuses the stage's work.
        assert len(grads) == trials + (len(finishes) if joint is None else 0)
        assert (trials > 1) == (method == "first-ls")
        assert (tr.rows[-1].fn_evals > len(tr.rows)) == (method == "armijo")
        assert tr.rows == plain.rows
        assert bits(tr.points) == bits(plain.points)

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

    @pytest.mark.parametrize("replaced", ["value", "euclidean_grad"])
    def test_armijo_replaced_callable_sees_every_evaluation(self, replaced):
        problem = problems.center_of_mass(6, 20, 0)
        calls = []
        counted = dataclasses.replace(
            problem, **{replaced: self._counting(getattr(problem, replaced), calls)}
        )
        config = RunConfig(max_iters=10, tol=0.0, alpha0=1.0)
        tr = armijo_run(config, Sphere(), counted)
        evaluations = tr.rows[-1].fn_evals if replaced == "value" else len(tr.rows)
        assert len(calls) == evaluations
        assert tr.rows == armijo_run(config, Sphere(), problem).rows

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_a_run_that_stands_still_equals_one_that_moves(self, method):
        # Past the floating-point floor a sphere step returns its own point.
        problem = problems.center_of_mass(10, 50, 0)
        config = RunConfig(max_iters=300, tol=0.0)
        runs, values, grads = [], [], []
        for manifold in (Sphere(), _CopyingSphere()):
            value_calls, grad_calls = [], []
            spied = dataclasses.replace(
                problem,
                value=self._counting(problem.value, value_calls),
                euclidean_grad=self._counting(problem.euclidean_grad, grad_calls),
            )
            runs.append(METHODS[method](config, manifold, spied, 0.01))
            values.append(len(value_calls))
            grads.append(len(grad_calls))
        plain, copying = runs
        assert sum(y is x for x, y in zip(plain.points, plain.points[1:])) > 100
        assert not any(y is x for x, y in zip(copying.points, copying.points[1:]))
        assert bits(plain.rows) == bits(copying.rows)
        assert bits(plain.points) == bits(copying.points)
        assert bits(plain.rows) == bits(METHODS[method](config, Sphere(), problem, 0.01).rows)
        assert values[1] == copying.rows[-1].fn_evals == plain.rows[-1].fn_evals
        assert values[0] < values[1] and grads[0] < grads[1]

    @pytest.mark.parametrize("method", ["adgd", "armijo", "first-ls"])
    def test_a_repeated_point_is_normed_once(self, method, monkeypatch):
        # A row at its iterate's own point object reads that point's
        # gradient norm instead of norming the same gradient again.
        problem = problems.center_of_mass(10, 50, 0)
        norms = []
        norm = Sphere.norm
        monkeypatch.setattr(Sphere, "norm", lambda self, x, v: norms.append(1) or norm(self, x, v))
        tr = METHODS[method](RunConfig(max_iters=300, tol=0.0), Sphere(), problem, 0.01)
        distinct = {id(x) for x in tr.points[: len(tr.rows)]}
        assert len(norms) == len(distinct) < len(tr.rows) == 301


class TestPointRecords:
    """A point's record keeps its evaluations and floor, the next iterate
    is the record its rule had from the meter, and a copy of a point's
    array is a new record (``_Meter.hold``)."""

    @staticmethod
    def _spied(problem, calls):
        def counted(name):
            fn = getattr(problem, name)
            return lambda x: calls.append(name) or fn(x)

        return dataclasses.replace(problem, value=counted("value"), euclidean_grad=counted("euclidean_grad"))

    @pytest.mark.parametrize("method", ["armijo", "first-ls"])
    def test_real_calls_are_the_charged_requests(self, method, monkeypatch):
        # No Bures-Wasserstein step returns its own point, so every charged
        # request is one real call, and the accepted Armijo trial's value
        # and first-LS's taken gradient are not asked for twice.
        requests = []
        grad = optimizers._Meter.grad
        monkeypatch.setattr(optimizers._Meter, "grad", lambda self, p: requests.append(1) or grad(self, p))
        calls = []
        prob = self._spied(problems.lyapunov_objective(5, 0), calls)
        # armijo_c = 0.5 rejects Armijo trials from alpha0 = 1; first-LS doubles from 0.01.
        alpha0 = 1.0 if method == "armijo" else 0.01
        config = RunConfig(max_iters=10, tol=0.0, alpha0=alpha0, armijo_c=0.5, track_distance=False)
        tr = METHODS[method](config, BuresWasserstein(), prob, 0.01)
        assert calls.count("value") == tr.rows[-1].fn_evals
        assert calls.count("euclidean_grad") == len(requests)
        trials = tr.rows[0].exp_evals
        if method == "armijo":
            assert len(requests) == len(tr.rows) == 11 < tr.rows[-1].fn_evals
        else:
            assert len(requests) == len(tr.rows) - 1 + trials and trials > 1

    @pytest.mark.parametrize("name", ["adaptive", "armijo"])
    def test_a_copied_point_carries_nothing(self, name, monkeypatch):
        # A rule whose next point is a record of a copy of its last
        # exponential's point gets neither that point's floor nor its
        # evaluations: the copy is evaluated afresh, to the same bits.
        make_rule = {"adaptive": optimizers._adaptive_rule, "armijo": optimizers._armijo_rule}[name]

        def copying(config, meter):
            rule = make_rule(config, meter)

            def copied(*args):
                step = rule(*args)
                return step if step.x_next is None else step._replace(x_next=optimizers._Point(step.x_next.x.copy()))

            return copied

        floors = []
        exp_transport = BuresWasserstein.exp_transport
        monkeypatch.setattr(
            BuresWasserstein,
            "exp_transport",
            lambda self, x, v, floor=None: floors.append(floor is not None) or exp_transport(self, x, v, floor),
        )
        prob = problems.lyapunov_objective(5, 0)
        config = RunConfig(max_iters=10, tol=0.0, alpha0=0.1, armijo_c=0.5, track_distance=False)
        runs, values, carried = [], [], []
        for make in (make_rule, copying):
            calls = []
            floors.clear()
            runs.append(optimizers._drive(config, BuresWasserstein(), self._spied(prob, calls), make))
            values.append(calls.count("value"))
            carried.append(list(floors))
        plain, copy = runs
        # Only the steps from x0 take a floor, check_point's, after a copy.
        from_x0 = plain.rows[0].exp_evals
        assert carried[0] == [True] * len(carried[0])
        assert carried[1] == [True] * from_x0 + [False] * (len(carried[1]) - from_x0)
        assert len(carried[1]) == len(carried[0]) > from_x0
        assert bits(copy.points) == bits(plain.points)
        assert values == [plain.rows[-1].fn_evals, copy.rows[-1].fn_evals]
        if name == "adaptive":
            assert bits(copy.rows) == bits(plain.rows)
        else:
            # Row k's copy was staged once more at each of the k steps before it.
            value_ops = prob.value_ops
            restated = [
                dataclasses.replace(row, fn_evals=row.fn_evals - k, expensive_ops=row.expensive_ops - k * value_ops)
                for k, row in enumerate(copy.rows)
            ]
            assert bits(restated) == bits(plain.rows)
            assert copy.rows[-1].fn_evals == plain.rows[-1].fn_evals + 10


class TestSlottedRows:
    """A run's rows are slotted: no ``__dict__`` and no other attribute,
    while the dataclass helpers, copies, pickles and the CSV round trip
    keep every field, bit for bit."""

    @pytest.fixture(scope="class")
    def run(self):
        return adgd_run(RunConfig(max_iters=30, alpha0=0.05), Sphere(), problems.center_of_mass(4, 5, 0))

    def test_rows_have_no_dict(self, run):
        row = run.rows[0]
        assert not any(hasattr(r, "__dict__") for r in run.rows)
        with pytest.raises(TypeError):
            vars(row)
        with pytest.raises(AttributeError):
            row.note = "x"

    def test_copies_keep_every_bit(self, run):
        for row in run.rows:
            assert bits(list(dataclasses.asdict(row).values())) == bits(row)
            for copied in (dataclasses.replace(row), copy.copy(row), copy.deepcopy(row),
                           pickle.loads(pickle.dumps(row))):
                assert copied is not row and type(copied) is type(row)
                assert bits(copied) == bits(row)

    def test_read_trace_rebuilds_the_rows(self, run, tmp_path):
        path = tmp_path / "run.csv"
        trace_io.write_trace(path, run, {"status": run.status})
        read = trace_io.read_trace(path)[1].rows
        assert read == run.rows and bits(read) == bits(run.rows)
