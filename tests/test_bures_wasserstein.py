import math

import numpy as np
import pytest

from adgd import linalg, problems
from adgd.cli import main
from adgd.errors import DomainError
from adgd.manifolds import BuresWasserstein, BWTangent
from adgd.optimizers import STATUS_CONVERGED, STEP_SAFETY, RunConfig, _clamp_alpha, adgd_run

from conftest import random_spd, random_sym


class TestRiemannianGradient:
    def test_trace_objective(self, bw):
        # phi(X) = Tr X has Euclidean gradient I; the Riemannian gradient is
        # 4X with Lyapunov factor 2I, so that <grad, V>_X = Tr V exactly.
        rng = np.random.default_rng(0)
        x = random_spd(rng, 4)
        g = bw.egrad_to_rgrad(x, np.eye(4))
        assert np.allclose(g.mat, 4.0 * x)
        assert np.allclose(g.factor, 2.0 * np.eye(4))
        v = BWTangent(random_sym(rng, 4))
        assert bw.inner(x, g, v) == pytest.approx(float(np.trace(v.mat)), rel=1e-12)

    def test_zero_gradient(self, bw):
        x = np.eye(3)
        g = bw.egrad_to_rgrad(x, np.zeros((3, 3)))
        assert np.allclose(g.mat, 0.0)

    def test_factor_solves_lyapunov(self, bw):
        rng = np.random.default_rng(1)
        x = random_spd(rng, 6)
        eg = random_sym(rng, 6)
        g = bw.egrad_to_rgrad(x, eg)
        assert np.allclose(linalg.solve_lyapunov(x, g.mat), 2.0 * eg, atol=1e-9)


class TestExp:
    def test_zero_tangent(self, bw):
        rng = np.random.default_rng(2)
        x = random_spd(rng, 4)
        out = bw.exp(x, BWTangent(np.zeros((4, 4))))
        assert np.allclose(out, x, atol=1e-14)

    def test_identity_base_diagonal(self, bw):
        # At X = I with V = 2 diag(d): L = diag(d), result diag((1+d)^2).
        d = np.array([0.1, -0.2, 0.3])
        v = BWTangent(2.0 * np.diag(d))
        out = bw.exp(np.eye(3), v)
        assert np.allclose(out, np.diag((1.0 + d) ** 2), atol=1e-13)

    def test_gradient_step_identity(self, bw):
        # Exp_X(-a grad) = X - a grad + a^2 L X L with L = 2 eg the factor:
        # exponential and transport share the expensive L X L term.
        rng = np.random.default_rng(3)
        x = random_spd(rng, 5)
        eg = random_sym(rng, 5, scale=0.1)
        grad = bw.egrad_to_rgrad(x, eg)
        alpha = 0.3
        step = (-alpha) * grad
        assert bw.max_step(x, step) > 1.0
        out = bw.exp(x, step)
        expected = x - alpha * grad.mat + alpha**2 * ((2.0 * eg) @ x @ (2.0 * eg))
        assert np.allclose(out, expected, atol=1e-12)

    def test_result_spd_inside_domain(self, bw):
        rng = np.random.default_rng(4)
        for seed in range(200):
            local = np.random.default_rng(seed)
            n = int(local.integers(2, 11))
            x = random_spd(local, n)
            v = BWTangent(random_sym(local, n))
            cap = bw.max_step(x, v)
            horizon = min(0.99 * cap, 3.0)
            for t in (0.25, 0.5, 0.75, 1.0):
                y = bw.exp(x, (t * horizon) * v)
                eig = linalg.sym_eig(y)
                assert linalg.is_spd_spectrum(eig.eigenvalues)

    def test_outside_domain_raises_with_max_step(self, bw):
        rng = np.random.default_rng(5)
        x = random_spd(rng, 4)
        v = BWTangent(random_sym(rng, 4))
        cap = bw.max_step(x, v)
        if math.isinf(cap):
            v = -1.0 * v
            cap = bw.max_step(x, v)
        step = (1.01 * cap) * v
        with pytest.raises(DomainError, match="step leaves the SPD cone"):
            bw.exp(x, step)
        # max_step describes the tangent actually passed: a unit step along
        # 1.01 cap v is admissible only up to 1 / 1.01.
        assert bw.max_step(x, step) == pytest.approx(1.0 / 1.01)


class TestTransport:
    def test_zero_step_identity(self, bw):
        rng = np.random.default_rng(6)
        x = random_spd(rng, 4)
        g = bw.egrad_to_rgrad(x, random_sym(rng, 4))
        out = bw.transport_along_step(x, BWTangent(np.zeros((4, 4))), g)
        assert np.allclose(out.mat, g.mat)

    def test_diagonal_closed_form(self, bw):
        # X = I, eg = diag(g): grad = 4 diag(g) with factor L = 2 diag(g),
        # and P(grad) = grad - 2 a L X L = 4 diag(g) - 8 a diag(g^2).
        gvec = np.array([0.2, -0.3, 0.25])
        x = np.eye(3)
        grad = bw.egrad_to_rgrad(x, np.diag(gvec))
        alpha = 0.1
        step = (-alpha) * grad
        bw.exp(x, step)
        out = bw.transport_along_step(x, step, grad)
        expected = 4.0 * np.diag(gvec) - 8.0 * alpha * np.diag(gvec**2)
        assert np.allclose(out.mat, expected, atol=1e-12)

    def test_matches_finite_difference_velocity(self, bw):
        # P(grad) = -(1/a) d/dt Exp_X(t(-a grad)) at t = 1.
        rng = np.random.default_rng(7)
        x = random_spd(rng, 5)
        eg = random_sym(rng, 5, scale=0.2)
        grad = bw.egrad_to_rgrad(x, eg)
        alpha = 0.25
        step = (-alpha) * grad
        assert bw.max_step(x, step) > 1.1
        out = bw.transport_along_step(x, step, grad)
        h = 1e-4
        plus = bw.exp(x, (1.0 + h) * step)
        minus = bw.exp(x, (1.0 - h) * step)
        velocity = (plus - minus) / (2.0 * h)
        assert np.linalg.norm(out.mat - (-1.0 / alpha) * velocity) <= 1e-5 * (
            1.0 + np.linalg.norm(out.mat)
        )

    def test_rejects_non_collinear(self, bw):
        rng = np.random.default_rng(8)
        x = random_spd(rng, 4)
        v = BWTangent(random_sym(rng, 4, scale=0.1))
        w = BWTangent(random_sym(rng, 4, scale=0.1))
        with pytest.raises(DomainError):
            bw.transport_along_step(x, v, w)

    def test_transported_gradient_isometry(self, bw):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            x = random_spd(rng, n)
            eg = random_sym(rng, n, scale=0.3)
            grad = bw.egrad_to_rgrad(x, eg)
            alpha = min(0.3, 0.5 * bw.max_step(x, (-1.0) * grad))
            step = (-alpha) * grad
            y = bw.exp(x, step)
            transported = bw.transport_along_step(x, step, grad)
            n_before = bw.norm(x, grad)
            n_after = bw.norm(y, transported)  # fresh Lyapunov solve at y
            assert abs(n_after - n_before) <= 1e-8 * (1.0 + n_before)


class TestInner:
    def test_identity_base_quarter_trace(self, bw):
        rng = np.random.default_rng(10)
        u_mat = random_sym(rng, 4)
        v_mat = random_sym(rng, 4)
        x = np.eye(4)
        u = BWTangent(u_mat)
        v = BWTangent(v_mat)
        assert abs(bw.inner(x, u, v) - 0.25 * np.trace(u_mat @ v_mat)) <= 1e-12

    def test_gradient_norm_via_cached_factor(self, bw):
        # ||grad||^2 = Tr(L grad)/2 reuses the cached factor, no fresh solve.
        rng = np.random.default_rng(11)
        x = random_spd(rng, 5)
        eg = random_sym(rng, 5)
        grad = bw.egrad_to_rgrad(x, eg)
        direct = 0.5 * float(np.sum((2.0 * eg) * grad.mat))
        assert abs(bw.inner(x, grad, grad) - direct) <= 1e-12 * (1.0 + abs(direct))

    def test_cross_term_single_product(self, bw):
        # 2 <g_k, P g_{k-1}> = Tr(L_k P g_{k-1}): one product worth of work.
        rng = np.random.default_rng(12)
        x = random_spd(rng, 5)
        eg0 = random_sym(rng, 5, scale=0.1)
        g0 = bw.egrad_to_rgrad(x, eg0)
        alpha = 0.2
        step = (-alpha) * g0
        y = bw.exp(x, step)
        transported = bw.transport_along_step(x, step, g0)
        eg1 = random_sym(rng, 5, scale=0.1)
        g1 = bw.egrad_to_rgrad(y, eg1)
        lhs = 2.0 * bw.inner(y, g1, transported)
        rhs = float(np.trace((2.0 * eg1) @ transported.mat))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_denominator_two_routes_agree(self, bw):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            x = random_spd(rng, n)
            g0 = bw.egrad_to_rgrad(x, random_sym(rng, n, scale=0.3))
            alpha = min(0.2, 0.5 * bw.max_step(x, (-1.0) * g0))
            step = (-alpha) * g0
            y = bw.exp(x, step)
            transported = bw.transport_along_step(x, step, g0)
            g1 = bw.egrad_to_rgrad(y, random_sym(rng, n, scale=0.3))
            prev_sq = bw.inner(x, g0, g0)
            expansion = bw.grad_diff_norm_sq(y, g1, transported, prev_sq)
            diff = g1 - transported
            assert diff.factor is None
            direct = bw.inner(y, diff, diff)
            assert abs(expansion - direct) <= 1e-8 * max(1.0, direct)


class TestMaxStep:
    def test_positive_semidefinite_factor_unbounded(self, bw):
        x = np.eye(3)
        v = BWTangent(2.0 * np.diag([1.0, 2.0, 0.5]))
        assert bw.max_step(x, v) == math.inf

    def test_mixed_factor_bound(self, bw):
        # Factor diag(1, -2): I + t L stays SPD iff t < 1/2.
        x = np.eye(2)
        v = BWTangent(2.0 * np.diag([1.0, -2.0]))
        assert bw.max_step(x, v) == pytest.approx(0.5, rel=1e-12)

    def test_zero_tangent(self, bw):
        assert bw.max_step(np.eye(3), BWTangent(np.zeros((3, 3)))) == math.inf


def _tangent_with_factor(bw, x, fac):
    # egrad_to_rgrad carries the factor 2 * sym(g), here exactly fac.
    return bw.egrad_to_rgrad(x, 0.5 * fac)


def _exact_clamp(alpha, bw, x, v):
    """_clamp_alpha without the screen: always the Jacobi max_step."""
    cap = bw.max_step(x, v)
    if math.isinf(cap) or alpha <= STEP_SAFETY * cap:
        return alpha, False
    return STEP_SAFETY * cap, True


def _ulps_around(value, k):
    """``value`` and its ``k`` nearest floats on each side."""
    out = [value]
    for direction in (math.inf, -math.inf):
        y = value
        for _ in range(k):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


class TestMaxStepScreen:
    """Differential tests: the LAPACK certificate against the Jacobi max_step."""

    def test_never_exceeds_max_step(self, bw):
        rng = np.random.default_rng(41)
        eps = np.finfo(float).eps
        finite = useful = 0
        for n in (1, 2, 3, 5, 8, 13, 20):
            x = random_spd(rng, n)
            u = rng.standard_normal((n, 1))
            for scale in (1e-4, 1.0, 1e4):
                # (factor, whether the screen must already pass every step)
                factors = [
                    (np.zeros((n, n)), True),
                    (scale * random_spd(rng, n), True),
                    (scale * (u @ u.T), False),
                    (-scale * (u @ u.T), False),
                    (random_sym(rng, n, scale), False),
                    (scale * (random_spd(rng, n) - np.eye(n)), False),
                ]
                for fac, unbounded in factors:
                    v = _tangent_with_factor(bw, x, fac)
                    exact = bw.max_step(x, v)
                    if unbounded:
                        assert exact == math.inf
                        assert all(bw.max_step_lower_bound(x, v, t) for t in (1.0, 1e8, math.inf))
                        continue
                    if math.isinf(exact):
                        continue
                    finite += 1
                    # Around the boundary down to a few ulps, where only
                    # the margin keeps rounding from certifying too much.
                    rels = (0.5, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 4 * eps, 1 + 16 * eps, 1 + 1e-12, 2.0)
                    for t in [rel * exact for rel in rels] + [np.nextafter(exact, math.inf)]:
                        assert not bw.max_step_lower_bound(x, v, t) or t <= exact, (n, scale, t / exact)
                    # Sound but not uselessly conservative, wherever the
                    # boundary lies outside the margin: a PSD factor can get
                    # a rounding-level negative Jacobi eigenvalue instead.
                    if exact * linalg.frobenius_norm(fac) < 1e9:
                        useful += 1
                        assert bw.max_step_lower_bound(x, v, 0.5 * exact), (n, scale)
        # Only the 21 rank-one PSD factors may skip the usefulness check.
        assert finite > 0 and useful >= finite - 21, (finite, useful)

    def test_edge_cases(self, bw, monkeypatch):
        x = np.eye(3)
        v = _tangent_with_factor(bw, x, np.diag([-2.0, 1.0, 1.0]))
        assert bw.max_step(x, v) == 0.5
        assert not bw.max_step_lower_bound(x, v, math.nan)
        assert not bw.max_step_lower_bound(x, v, math.inf)
        assert not bw.max_step_lower_bound(x, v, 5e-324)  # 1/t overflows
        nan_factor = _tangent_with_factor(bw, x, np.diag([np.nan, 1.0, 1.0]))
        assert not bw.max_step_lower_bound(x, nan_factor, 0.25)
        # t = inf certifies exactly a positive definite factor.
        assert bw.max_step_lower_bound(x, _tangent_with_factor(bw, x, np.diag([1e-3, 1.0, 2.0])), math.inf)
        assert not bw.max_step_lower_bound(x, _tangent_with_factor(bw, x, np.diag([0.0, 1.0, 2.0])), math.inf)
        zero = _tangent_with_factor(bw, x, np.zeros((3, 3)))
        for t in (1e-300, 1.0, 1e300, math.inf):
            assert bw.max_step_lower_bound(x, zero, t)

        def fail(*_):
            raise AssertionError("a step of length <= 0 ran a factorization")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        monkeypatch.setattr(bw, "max_step", fail)
        for t in (0.0, -0.0, -1.0, -math.inf):
            assert bw.max_step_lower_bound(x, v, t)
        assert _clamp_alpha(0.0, bw, x, v) == (0.0, False)

    @pytest.mark.parametrize("n", [1, 2, 269, 270, 300])
    def test_margin_at_every_size(self, bw, n):
        # A diagonal factor with one eigenvalue -1: max_step is exactly 1,
        # LAPACK's answer is the sign of each shifted diagonal entry, and
        # no Jacobi sweep runs at any n.
        x = np.eye(n)
        d = np.full(n, 0.5)
        d[n // 2] = -1.0
        fac = np.diag(d)
        v = _tangent_with_factor(bw, x, fac)
        assert bw.max_step(x, v) == 1.0
        norm = linalg.frobenius_norm(fac)
        margin = max(1e-10, 6.2 * n * (n + 1) * np.finfo(float).eps) * norm
        # Up to n = 269 the margin is the fixed 1e-10 ||L||_F.
        assert (margin == 1e-10 * norm) == (n <= 269)
        for rel, certified in ((0.0, False), (1 - 5e-5, False), (1 + 5e-5, True), (2.0, True)):
            t = 1.0 / (1.0 + rel * margin)
            assert bw.max_step_lower_bound(x, v, t) == certified, (n, rel)
        # Steps at 0.99 max_step, give or take an ulp, clamp as the exact path does.
        for alpha in (STEP_SAFETY * (1 - 1e-12), np.nextafter(STEP_SAFETY, 0.0), STEP_SAFETY,
                      np.nextafter(STEP_SAFETY, 1.0)):
            assert _clamp_alpha(alpha, bw, x, v) == _exact_clamp(alpha, bw, x, v)
        assert _clamp_alpha(np.nextafter(STEP_SAFETY, 1.0), bw, x, v) == (STEP_SAFETY, True)

    @pytest.mark.parametrize(
        "flags",
        [
            "--experiment lyapunov --n 5 --seed 1 --max-iters 200 --tol 1e-8 --alpha0 50",
            "--experiment lyapunov --seed 0",
            "--experiment wls-dense --seed 0",
        ],
        ids=["golden-clamped", "lyapunov", "wls-dense"],
    )
    def test_exact_fallbacks_stay_rare(self, flags, monkeypatch, tmp_path):
        # A sound but conservative screen keeps every byte and pays for an
        # exact eigensolve each iteration; each of these runs needs one.
        calls = []
        exact = BuresWasserstein.max_step
        monkeypatch.setattr(BuresWasserstein, "max_step", lambda self, x, v: calls.append(1) or exact(self, x, v))
        assert main(["run", *flags.split(), "--out", str(tmp_path / "t.csv")]) == 0
        assert len(calls) == 1

    def test_clamp_at_the_boundary_matches_exact_path(self, bw):
        rng = np.random.default_rng(43)
        flags = set()
        for n in (1, 2, 4, 7, 12):
            for _ in range(4):
                x = random_spd(rng, n)
                fac = random_sym(rng, n) - 0.5 * np.eye(n)
                v = _tangent_with_factor(bw, x, fac)
                cap = bw.max_step(x, v)
                for rel in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
                    alpha = STEP_SAFETY * cap * rel
                    got = _clamp_alpha(alpha, bw, x, v)
                    assert got == _exact_clamp(alpha, bw, x, v)
                    flags.add(got[1])
        assert flags == {False, True}

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_clamp_with_the_smallest_eigenvalue_ulps_from_the_step(self, bw, n):
        # A diagonal factor whose smallest eigenvalue sits within 4 ulps of
        # -1/t for the screen's t = alpha / 0.99, so max_step is within a
        # few ulps of t.  Inside the margin the screen must refuse, and on
        # either side the step stays within 0.99 max_step.
        x = np.eye(n)
        for alpha in (1e-3, 0.7, 1.0, 123.456, 1e4):
            t = alpha / STEP_SAFETY
            for position, lam in enumerate(_ulps_around(-1.0 / t, 4)):
                d = np.linspace(0.5, 2.0, n) / t
                d[position % n] = lam
                v = _tangent_with_factor(bw, x, np.diag(d))
                cap = bw.max_step(x, v)
                assert abs(cap / t - 1.0) <= 8 * np.finfo(float).eps
                assert not bw.max_step_lower_bound(x, v, t), (n, alpha, lam)
                got = _clamp_alpha(alpha, bw, x, v)
                assert got[0] <= STEP_SAFETY * cap, (n, alpha, lam)
                assert got == _exact_clamp(alpha, bw, x, v)


class TestDistance:
    def test_self(self, bw):
        rng = np.random.default_rng(14)
        x = random_spd(rng, 4)
        assert bw.distance(x, x) <= 1e-8

    def test_commuting_closed_form(self, bw):
        # d(I, 4I)^2 = 2 + 8 - 2 tr sqrt(4 I) = 2 in dimension 2.
        assert bw.distance(np.eye(2), 4.0 * np.eye(2)) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_against_geodesic_length_quadrature(self, bw):
        rng = np.random.default_rng(15)
        x = random_spd(rng, 3)
        y = random_spd(rng, 3)
        direct = bw.distance(x, y)

        eig = linalg.sym_eig(x)
        root = (eig.basis * np.sqrt(eig.eigenvalues)) @ eig.basis.T
        inv_root = (eig.basis / np.sqrt(eig.eigenvalues)) @ eig.basis.T
        middle = linalg.spd_sqrt(linalg.symmetrize(root @ y @ root))
        t_mat = linalg.symmetrize(inv_root @ middle @ inv_root)

        def speed(t):
            blend = (1.0 - t) * np.eye(3) + t * t_mat
            gamma = linalg.symmetrize(blend @ x @ blend)
            vel = linalg.symmetrize((t_mat - np.eye(3)) @ x @ blend + blend @ x @ (t_mat - np.eye(3)))
            fac = linalg.solve_lyapunov(gamma, vel)
            return math.sqrt(max(0.5 * float(np.sum(fac * vel)), 0.0))

        nodes = np.linspace(0.0, 1.0, 81)
        vals = np.array([speed(t) for t in nodes])
        h = nodes[1] - nodes[0]
        length = h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())
        assert abs(direct - length) <= 1e-4

    def test_rejects_non_spd(self, bw):
        with pytest.raises(DomainError):
            bw.distance(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(DomainError):
            bw.distance(np.eye(2), np.diag([1.0, 0.0]))

    def test_distance_from_matches(self, bw):
        rng = np.random.default_rng(16)
        y = random_spd(rng, 5)
        xs = [random_spd(rng, 5), y.copy(), random_spd(rng, 5)]
        assert bw.distance_from(y)(xs) == [bw.distance(y, x) for x in xs]
        assert bw.distance_from(y)([]) == []


def _sqrt_and_inverse_sqrt(m):
    eig = linalg.sym_eig(m)
    q, w = eig.basis, eig.eigenvalues
    return (q * np.sqrt(w)) @ q.T, (q / np.sqrt(w)) @ q.T


class TestDistanceColumnFloor:
    """Where the closed-form column ``tr X + tr Y - 2 sum sqrt(lambda)``
    stops resolving, on the CLI-default Lyapunov run (n = 20, seed 0),
    against the cancellation-free ``||Y^{-1/2} M^{1/2} - Y^{1/2}||_F`` with
    ``M = Y^{1/2} X Y^{1/2}``, each square root through ``sym_eig`` with
    its basis."""

    def test_cli_default_lyapunov(self, bw):
        prob = problems.lyapunov_objective(20, 0)
        config = RunConfig()
        tr = adgd_run(config, bw, prob)
        assert tr.status == STATUS_CONVERGED and len(tr.rows) == 39
        root_y, inv_root_y = _sqrt_and_inverse_sqrt(prob.optimum_point)

        def oracle(x):
            root_m = _sqrt_and_inverse_sqrt(linalg.symmetrize(root_y @ x @ root_y))[0]
            return linalg.frobenius_norm(inv_root_y @ root_m - root_y)

        truth = [oracle(x) for x in tr.points]
        column = tr.column("dist_to_opt")
        # Down to 1e-4 (k <= 20) the column agrees within 2e-6 relative
        # (8.2e-7 measured, at k = 20).
        resolved = [k for k, d in enumerate(truth) if d >= 1e-4]
        assert resolved == list(range(21))
        assert max(abs(column[k] - truth[k]) / truth[k] for k in resolved) <= 2e-6
        # Then d^2 nears the rounding of the traces: 1.5% off at k = 26
        # (1.1e-6), 20% at k = 27, and from k = 28 on the column reads 0
        # while the true distance is 9.8e-8 and the gradient norm 4.2e-7.
        assert 0.01 < abs(column[26] - truth[26]) / truth[26] < 0.02
        assert 0.1 < abs(column[27] - truth[27]) / truth[27] < 0.3
        zeros = [k for k, d in enumerate(column) if d == 0.0]
        assert zeros == list(range(28, 39))
        assert all(truth[k] > 0.0 for k in zeros)
        assert all(tr.rows[k].grad_norm > config.tol for k in range(28, 38))


class TestStartingPoint:
    """``_drive`` asks ``BuresWasserstein.check_point`` of ``x0`` before
    row 0: symmetric, finite and positive definite, else ValueError."""

    def test_negative_definite_start_raises(self, bw):
        # Unchecked, x0 = -I ends "converged" after one row: inner(g, g) < 0
        # there, and Manifold.norm's max(., 0) reads it as a zero gradient.
        prob = problems.lyapunov_objective(5, 0)
        prob.x0 = -np.eye(5)
        with pytest.raises(ValueError, match="positive definite"):
            adgd_run(RunConfig(), bw, prob)

    @pytest.mark.parametrize(
        "x0, match",
        [
            (np.diag([1.0, 1.0, 0.0]), "positive definite"),
            (np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "not symmetric"),
            (np.diag([1.0, np.nan, 1.0]), "NaN or infinite"),
            (np.diag([1.0, np.inf, 1.0]), "NaN or infinite"),
        ],
        ids=["singular", "asymmetric", "nan", "inf"],
    )
    def test_off_manifold_points_rejected(self, bw, x0, match):
        with pytest.raises(ValueError, match=match):
            bw.check_point(x0)

    def test_spd_points_accepted(self, bw):
        rng = np.random.default_rng(23)
        for n in (1, 2, 5, 20):
            bw.check_point(random_spd(rng, n))
        bw.check_point(1e-300 * np.eye(3))  # the exact Cholesky decides


class TestTangentArithmetic:
    def test_scaling_propagates_caches(self, bw):
        rng = np.random.default_rng(17)
        x = random_spd(rng, 4)
        g = bw.egrad_to_rgrad(x, random_sym(rng, 4))
        scaled = -0.5 * g
        assert np.allclose(scaled.mat, -0.5 * g.mat)
        assert np.allclose(scaled.factor, -0.5 * g.factor)
        assert scaled.base is x

    def test_difference_carries_no_factor(self, bw):
        rng = np.random.default_rng(18)
        x = random_spd(rng, 4)
        g1 = bw.egrad_to_rgrad(x, random_sym(rng, 4))
        g2 = bw.egrad_to_rgrad(x, random_sym(rng, 4))
        diff = g1 - g2
        assert np.array_equal(diff.mat, g1.mat - g2.mat)
        assert diff.factor is None and diff.base is None


class TestBasePoint:
    def test_factor_used_at_another_point_raises(self, bw):
        # A gradient's factor solves the Lyapunov equation at its own base
        # point only; elsewhere it would give a wrong metric and exponential.
        rng = np.random.default_rng(20)
        x = random_spd(rng, 4)
        y = random_spd(rng, 4)
        g = bw.egrad_to_rgrad(x, random_sym(rng, 4, scale=0.1))
        step = -0.1 * g
        with pytest.raises(ValueError):
            bw.inner(y, g, g)
        with pytest.raises(ValueError):
            bw.exp(y, step)
        with pytest.raises(ValueError):
            bw.max_step(y, step)
        with pytest.raises(ValueError):
            bw.max_step_lower_bound(y, step, 1.0)

    def test_equal_copy_of_base_point_accepted(self, bw):
        rng = np.random.default_rng(21)
        x = random_spd(rng, 4)
        g = bw.egrad_to_rgrad(x, random_sym(rng, 4))
        assert g.factor_at(x.copy()) is g.factor
        assert bw.inner(x.copy(), g, g) == bw.inner(x, g, g)

    def test_tangent_without_factor_stores_nothing(self, bw):
        rng = np.random.default_rng(22)
        x = random_spd(rng, 4)
        y = random_spd(rng, 4)
        v = BWTangent(random_sym(rng, 4))
        assert np.allclose(v.factor_at(x), linalg.solve_lyapunov(x, v.mat))
        assert v.factor is None and v.base is None
        assert np.allclose(v.factor_at(y), linalg.solve_lyapunov(y, v.mat))

