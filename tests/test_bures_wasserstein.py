import dataclasses
import fractions
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from adgd import linalg, problems
from adgd.cli import main
from adgd.errors import DomainError
from adgd.manifolds import BuresWasserstein, BWTangent, bures_wasserstein
from adgd.optimizers import STATUS_CONVERGED, STEP_SAFETY, RunConfig, _Meter, _Point, adgd_run, armijo_run

from conftest import assert_floor_sound, bits, is_spd_spectrum, random_spd, random_sym


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
                assert is_spd_spectrum(eig.eigenvalues)

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

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100])
    def test_small_factor_skips_the_domain_certificate(self, bw, n, monkeypatch):
        # ||L||_F <= 1/2 keeps I + L positive definite, so only the new
        # point takes a LAPACK certificate; just above, I + L takes one too.
        rng = np.random.default_rng(n)
        x = random_spd(rng, n)
        u = rng.standard_normal((n, 1))
        u /= np.linalg.norm(u)
        calls = []
        certify = linalg._lapack_bound
        monkeypatch.setattr(linalg, "_lapack_bound", lambda a, s, level: calls.append(1) or certify(a, s, level))
        for fac in (-np.eye(n) / (2.0 * math.sqrt(n)), -0.5 * (u @ u.T), random_sym(rng, n)):
            at, above = _factors_either_side_of_half(fac)
            for f, certificates in ((at, 1), (above, 2)):
                calls.clear()
                bw.exp_transport(x, _tangent_with_factor(bw, x, f))
                assert len(calls) == certificates, (n, certificates)
            linalg.cholesky(np.eye(n) + at)
        # Outside the domain, and where the norm reads inf or NaN, the
        # certificate runs and raises.
        for fac in (-1.5 * (u @ u.T), -1e200 * (u @ u.T), np.full((n, n), np.nan)):
            with pytest.raises(DomainError, match="step leaves the SPD cone"):
                bw.exp_transport(x, _tangent_with_factor(bw, x, fac))

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_carried_floor_at_the_skip_level(self, bw, n, monkeypatch):
        # x = diag(m, 2, ..., n) has the exact smallest eigenvalue m, so the
        # floor bound m is certified.  The factor -(1/2) u u^T along a random
        # unit u, at and just above ||L||_F = 1/2 (the norm path and the
        # shifted I + L certificate), shrinks the new point's smallest
        # eigenvalue by about 4.  Sweeping m from 1e-8 to 1e-19 takes the
        # carried bound from above the skip level to below it, and the new
        # point down to where require_spd refuses it.  Each skipped
        # certificate must be one cholesky gives, and the run with the floor
        # must raise, or return the point, exactly as the run without it.
        rng = np.random.default_rng(n)
        u = rng.standard_normal((n, 1))
        spd_calls = []
        require_spd = linalg.require_spd
        monkeypatch.setattr(linalg, "require_spd", lambda a: spd_calls.append(1) or require_spd(a))
        for fac in _factors_either_side_of_half(-0.5 * (u @ u.T) / float(np.vdot(u, u))):
            fac = linalg.symmetrize(fac)
            outcomes = set()
            for m in np.geomspace(1e-8, 1e-19, 45):
                x = np.diag(np.r_[m, np.arange(2.0, n + 1.0)])
                v = _tangent_with_factor(bw, x, fac)
                floor = bures_wasserstein._Floor(m, m, x)
                results = []
                for args in ((x, v), (x, v, floor)):
                    spd_calls.clear()
                    try:
                        results.append(bw.exp_transport(*args)[0])
                    except DomainError as exc:
                        results.append(str(exc))
                assert bits(results[0]) == bits(results[1]), (n, m)
                if isinstance(results[1], str):
                    outcomes.add("refused")
                elif spd_calls:
                    outcomes.add("certified")
                else:
                    linalg.cholesky(results[1])
                    outcomes.add("skipped")
            assert outcomes >= {"skipped", "certified"}, (n, outcomes)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_carried_floor_counts_the_tangent_residual(self, bw, n):
        # V = L X + X L - D, with D = d w w^T for w the bottom unit
        # eigenvector of S = (I + L) X (I + L) and d = 2 lambda_min(S), so
        # the new point X + V + L X L = S - D has the eigenvalue
        # -lambda_min(S) and cholesky refuses it.  The floor's m c^2 alone
        # clears the skip level, on the norm path and off it; only the
        # measured residual ||V - L X - X L||_F = d in the bound's E keeps
        # the step from skipping the certificate, so the call with the
        # floor must raise as the call without it does.
        rng = np.random.default_rng(n)
        u = rng.standard_normal((n, 1))
        x = np.diag(np.arange(1.0, n + 1.0))
        floor = bures_wasserstein._Floor(1.0, 1.0, x)
        for fac, shrink in zip(
            _factors_either_side_of_half(-0.5 * (u @ u.T) / float(np.vdot(u, u))), (0.5, 0.25)
        ):
            fac = linalg.symmetrize(fac)
            eye_l = np.eye(n) + fac
            lam, vecs = np.linalg.eigh(eye_l @ x @ eye_l)
            d = 2.0 * lam[0]
            vmat = linalg.symmetrize(fac @ x + x @ fac - d * np.outer(vecs[:, 0], vecs[:, 0]))
            y = linalg.symmetrize(x + vmat + fac @ x @ fac)
            assert np.linalg.eigvalsh(y)[0] < -0.5 * lam[0]
            level = bures_wasserstein._floor_level(n, linalg._norm(y))
            assert floor.bound * (0.99 * shrink) ** 2 > 1e6 * level and d > floor.bound * shrink**2
            for args in ((), (floor,)):
                with pytest.raises(DomainError, match="not positive definite"):
                    bw.exp_transport(x, BWTangent(vmat, fac, x), *args)

    @pytest.mark.parametrize(
        "run, config, share",
        [
            (armijo_run, dict(max_iters=100, armijo_lambda=2.0), 0.25),
            (adgd_run, dict(), 2.0 / 3.0),
        ],
        ids=["armijo", "adaptive"],
    )
    def test_runs_carry_floors(self, run, config, share, monkeypatch):
        # The benchmark's Lyapunov n = 20 configs: the meter carries each
        # iterate's floor into its steps, so a run makes at most this share
        # of the LAPACK factorizations it makes with floors switched off, and
        # the same trace.
        factorizations = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factorizations.append(1) or cholesky(a))
        prob = problems.lyapunov_objective(20, 7)
        config = RunConfig(alpha0=0.1, track_distance=False, **config)
        traces, counts = [], []
        for level in (bures_wasserstein._FLOOR_LEVEL, math.inf):
            monkeypatch.setattr(bures_wasserstein, "_FLOOR_LEVEL", level)
            factorizations.clear()
            traces.append(run(config, BuresWasserstein(), prob))
            counts.append(len(factorizations))
        assert bits(traces[0]) == bits(traces[1])
        assert counts[0] <= share * counts[1], counts

    @pytest.mark.parametrize(
        "run, config, counts",
        [
            (armijo_run, dict(max_iters=100, armijo_lambda=2.0, alpha0=0.1), (17, 12, 17)),
            (adgd_run, dict(), (24, 30, 26)),
            (armijo_run, dict(), (22, 22, 24)),
            (adgd_run, dict(first_ls=True), (24, 30, 26)),
        ],
        ids=["armijo-100", "adaptive", "armijo", "first-ls"],
    )
    def test_factorizations_per_run_do_not_rise(self, run, config, counts, monkeypatch):
        # LAPACK factorizations (np.linalg.cholesky calls) of whole runs on
        # lyapunov_objective(20, seed) for seeds 7, 8 and 9, with the
        # distance column off: floors and seeds keep each at most this.
        factorizations = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factorizations.append(1) or cholesky(a))
        config = RunConfig(track_distance=False, **config)
        for seed, most in zip((7, 8, 9), counts):
            prob = problems.lyapunov_objective(20, seed)
            factorizations.clear()
            run(config, BuresWasserstein(), prob)
            assert len(factorizations) <= most, (seed, len(factorizations))

    def test_domain_abort_factorizations_do_not_rise(self, monkeypatch, tmp_path):
        # Golden fixed-lyapunov-domain-abort's run: the smallest eigenvalue
        # falls every step, so re-seeds keep failing; each failed one costs
        # a factorization, and the run makes at most 60.  The count is the
        # golden trajectory's: another BLAS kernel takes other steps, and
        # the golden comparison reports that.
        factorizations = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factorizations.append(1) or cholesky(a))
        flags = "--experiment lyapunov --n 5 --seed 1 --max-iters 200 --tol 1e-8 --optimizer fixed --fixed-alpha 5"
        out = tmp_path / "t.csv"
        assert main(["run", *flags.split(), "--out", str(out)]) == 3
        golden = Path(__file__).parent / "golden" / "fixed-lyapunov-domain-abort.csv"
        if out.read_bytes() != golden.read_bytes():
            pytest.skip("this BLAS kernel does not take the golden's steps")
        assert len(factorizations) <= 60

    @pytest.mark.parametrize("max_iters", [0, 5])
    def test_x0_is_factored_once_at_the_door(self, max_iters, monkeypatch):
        # x0's check_point is its seed: a run that takes no step makes that
        # one factorization and no other, and a 5-iteration Armijo run
        # factors x0 no second time, its trials from x0 all taking the floor
        # check_point returned (armijo_c = 0.5 rejects its first two).
        factored, door, floors = [], [], []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))
        check_point, exp_transport = BuresWasserstein.check_point, BuresWasserstein.exp_transport

        def spied_check_point(self, x):
            door.append(check_point(self, x))
            return door[-1]

        def spied_exp_transport(self, x, v, floor=None):
            if x is prob.x0:
                floors.append(floor)
            return exp_transport(self, x, v, floor)

        monkeypatch.setattr(BuresWasserstein, "check_point", spied_check_point)
        monkeypatch.setattr(BuresWasserstein, "exp_transport", spied_exp_transport)
        prob = problems.lyapunov_objective(5, 7)
        config = RunConfig(max_iters=max_iters, track_distance=False, armijo_c=0.5)
        tr = armijo_run(config, BuresWasserstein(), prob)
        x0 = prob.x0
        # x0 shifted by a multiple of I: the same off-diagonal, and one
        # difference along the diagonal.
        shifted = [
            a for a in factored
            if np.array_equal(a - np.diag(np.diag(a)), x0 - np.diag(np.diag(x0)))
            and np.ptp(np.diag(x0) - np.diag(a)) == 0.0
        ]
        assert len(door) == len(shifted) == 1 and door[0].bound > 0.0
        assert len(floors) == tr.rows[0].exp_evals
        assert all(floor is door[0] for floor in floors)
        if max_iters == 0:
            assert len(factored) == 1 and floors == []
        else:
            assert len(tr.rows) == 6 and len(floors) == 3


    @pytest.mark.parametrize(
        "run, config",
        [(armijo_run, dict(armijo_lambda=2.0)), (adgd_run, dict())],
        ids=["armijo", "adaptive"],
    )
    def test_start_not_exactly_symmetric_carries_floors(self, run, config, monkeypatch):
        # x0 = Q diag(w) Q^T as computed is symmetric only up to rounding,
        # which check_symmetric accepts.  LAPACK reads one triangle, so x0's
        # floor bounds nothing, but its first re-seed takes the shift its
        # symmetrized twin is seeded at: the run makes at most one
        # factorization more than the twin's, not one per step.
        factorizations = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factorizations.append(1) or cholesky(a))
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        x0 = q @ np.diag(rng.uniform(0.5, 2.0, 20)) @ q.T
        assert not np.array_equal(x0, x0.T)
        prob = problems.lyapunov_objective(20, 7)
        config = RunConfig(alpha0=0.1, max_iters=100, track_distance=False, **config)
        counts = []
        for start in (x0, linalg.symmetrize(x0)):
            factorizations.clear()
            run(config, BuresWasserstein(), dataclasses.replace(prob, x0=start))
            counts.append(len(factorizations))
        assert counts[0] <= counts[1] + 1, counts

    def test_step_chains_match_the_floors_off_twin(self, bw, monkeypatch):
        # The floors' twin.  Chains of steps at 0.3 to 1.00001 of max_step,
        # from points whose spectra span up to 1e16, some with one
        # eigenvalue near 1e-16 of the largest, at scales from 1e-200 to
        # 1e200: each step with the carried floor gives the bits, or the
        # exception, of the same step with floors switched off, and every
        # floor is sound.  Steps near max_step drive the smallest
        # eigenvalue down to the floor level, where seeds fail.
        rng = np.random.default_rng(47)
        kinds = set()
        rels = [0.3, 0.5, 0.7, 0.9, 0.98, 0.999, 1.0 - 1e-9, 1.00001]

        def step(x, v, floor, level):
            with monkeypatch.context() as patched:
                patched.setattr(bures_wasserstein, "_FLOOR_LEVEL", level)
                try:
                    return bw.exp_transport(x, v, floor)
                except DomainError as exc:
                    return str(exc)

        for chain in range(120):
            n = int(rng.choice([2, 3, 5, 8, 20]))
            w = 10.0 ** rng.uniform(0.0, rng.choice([1.0, 2.0, 4.0, 16.0]), n)
            if chain % 3 == 0:
                w[0] = 1e-16 * w.max()
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            x = linalg.symmetrize((q * (w * 10.0 ** rng.uniform(-200.0, 200.0))) @ q.T)
            try:
                floor = bw.check_point(x)
            except ValueError:
                continue
            with monkeypatch.context() as patched:
                patched.setattr(bures_wasserstein, "_FLOOR_LEVEL", math.inf)
                off = bw.check_point(x)
            for _ in range(12):
                v = bw.egrad_to_rgrad(x, random_sym(rng, n))
                lam = np.linalg.eigvalsh(v.factor)  # max_step is about -1 / lam[0]
                if lam[0] >= 0.0:
                    v, lam = -1.0 * v, -lam[::-1]
                v = (rng.choice(rels, p=[0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05]) / -lam[0]) * v
                ours, twin = step(x, v, floor, bures_wasserstein._FLOOR_LEVEL), step(x, v, off, math.inf)
                if isinstance(ours, str) or isinstance(twin, str):
                    assert ours == twin, chain
                    kinds.add("refused")
                    break
                assert bits(ours[0]) == bits(twin[0]), chain
                (x, _, _, new), off = ours, twin[3]
                if new.bound == -math.inf:
                    kinds.add("no floor")
                else:
                    kinds.add("carried" if new.seed == floor.seed else "seeded")
                    assert_floor_sound(x, new)
                    linalg.cholesky(x)
                floor = new
        assert kinds == {"refused", "no floor", "carried", "seeded"}, kinds

    def test_floor_of_another_point_raises(self, bw):
        # x is nearly singular and the step's new point fails its SPD
        # certificate.  10 I's floor would skip that certificate and return
        # a point cholesky refuses, so exp_transport refuses the floor.
        # x's entries are exact, its determinant is u - u^2 > 0 (u = eps)
        # and its smallest eigenvalue about u / 2.  The step is v = x / 2
        # with factor L = I / 4, so y = (5/4)^2 x, SPD, and its rounded
        # entries form an indefinite matrix.  At n = 2 with L a multiple
        # of I every product is exact and every rounding elementwise, so
        # no BLAS kernel moves a bit of y or of cholesky's pivots.
        u = linalg._EPS
        x = np.array([[1.0, 1.0 + u], [1.0 + u, 1.0 + 3.0 * u]])
        exact = fractions.Fraction
        det = exact(x[0, 0]) * exact(x[1, 1]) - exact(x[0, 1]) ** 2
        assert x[0, 0] > 0.0 and det == exact(u) - exact(u) ** 2
        v = bw.egrad_to_rgrad(x, 0.125 * np.eye(2))
        assert bits([v.mat, v.factor]) == bits([0.5 * x, 0.25 * np.eye(2)])
        with pytest.raises(DomainError, match="not positive definite"):
            bw.exp_transport(x, v)
        with pytest.raises(ValueError, match="floor belongs to a different point"):
            bw.exp_transport(x, v, bw.check_point(10.0 * np.eye(2)))

    def test_floor_with_an_equal_copy_of_its_point(self, bw):
        # A floor names its point by value, as a tangent's factor names its
        # base: an equal copy takes the floor and gives the same bits.
        rng = np.random.default_rng(12)
        x = random_spd(rng, 5)
        floor = bw.check_point(x)
        v = -0.1 * bw.egrad_to_rgrad(x, random_sym(rng, 5))
        here, there = (bw.exp_transport(p, v, floor) for p in (x, x.copy()))
        assert floor.bound > 0.0 and there[3].point is there[0]
        assert bits([here[0], here[3]]) == bits([there[0], there[3]])

    @staticmethod
    def _spy_lapack_bound(monkeypatch):
        calls = []
        lapack_bound = linalg._lapack_bound

        def spied(a, shift, level):
            calls.append(bits([a, shift, level]))
            return lapack_bound(a, shift, level)

        monkeypatch.setattr(linalg, "_lapack_bound", spied)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_floorless_step_returns_a_floor_of_its_point(self, bw, n, monkeypatch):
        # A missing floor is _Floor(-inf, 0.0, x): it bounds and seeds
        # nothing, so on the norm path the new point's one LAPACK bound is
        # require_spd's own, and its floor names it and bounds nothing.
        rng = np.random.default_rng(n)
        x = random_spd(rng, n)
        v = bw.egrad_to_rgrad(x, random_sym(rng, n))
        v = (-0.25 / linalg._norm(v.factor)) * v
        calls = self._spy_lapack_bound(monkeypatch)
        y, _, _, floor_y = bw.exp_transport(x, v)
        assert type(floor_y) is bures_wasserstein._Floor and floor_y.point is y
        assert floor_y.bound == -math.inf and bits(floor_y.seed) == bits(0.0)
        stepped = calls[:]
        calls.clear()
        linalg.require_spd(y)
        assert len(stepped) == 1 and stepped == calls

    @pytest.mark.parametrize("shift", [0.0, -0.0])
    def test_zero_shift_seeds_nothing(self, shift, monkeypatch):
        # A zero shift's bound lies below zero and cannot clear
        # _floor_level, so _certify asks LAPACK for no seed: its one bound
        # is require_spd's.
        x = random_spd(np.random.default_rng(3), 5)
        calls = self._spy_lapack_bound(monkeypatch)
        floor = bures_wasserstein._certify(x, shift, linalg._norm(x))
        assert floor.point is x and floor.bound == -math.inf and bits(floor.seed) == bits(shift)
        certified = calls[:]
        calls.clear()
        linalg.require_spd(x)
        assert len(certified) == 1 and certified == calls


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

    def test_collinearity_tolerance(self, bw):
        # The transport exp_transport returns refuses w off the step's line
        # by a relative 1e-6, well above the 1e-8 tolerance, and carries w
        # off it by 1e-10.
        rng = np.random.default_rng(9)
        x = random_spd(rng, 4)
        g = bw.egrad_to_rgrad(x, random_sym(rng, 4, scale=0.1))
        v = -0.1 * g
        r = random_sym(rng, 4)
        r -= (np.vdot(r, g.mat) / np.vdot(g.mat, g.mat)) * g.mat
        r *= np.linalg.norm(g.mat) / np.linalg.norm(r)
        transport = bw.exp_transport(x, v)[2]
        with pytest.raises(DomainError, match="collinear"):
            transport(BWTangent(g.mat + 1e-6 * r))
        out = transport(BWTangent(g.mat + 1e-10 * r))
        np.testing.assert_allclose(out.mat, transport(g).mat, rtol=1e-8, atol=1e-8)

    def test_extreme_scales_transport_without_warnings(self, bw):
        # <w, w> overflows for w = diag(1e200, -1e200); unscaled, the ratio
        # read 0 with an overflow warning and the transport raised.
        v = BWTangent(np.diag([1e200, -1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bw.transport_along_step(np.eye(2), 1e-300 * v, v)
            # W + (2 / c) L X L with c = 1e-300 and L = diag(0.5e-100, -0.5e-100):
            # the 5e99 correction is below half an ulp of 1e200.
            assert np.array_equal(out.mat, v.mat)
            # A step diag(1, -1), c = 1e-200: W + 2e200 diag(0.25, 0.25).
            out = bw.transport_along_step(np.eye(2), 1e-200 * v, v)
            np.testing.assert_allclose(out.mat.diagonal(), [1.5e200, -5e199], rtol=1e-15)
            with pytest.raises(DomainError, match="overflows"):
                bures_wasserstein._step_ratio(np.diag([1e300, -1e300]), np.diag([1e-300, -1e-300]))

    def test_scaled_ratio_keeps_the_formula_bits(self):
        # Scaling by powers of two is exact: where the unscaled formula's
        # sums are normal floats, the scaled path gives its bits.
        # Each scale puts v's norm outside [2^-510, 2^510], about
        # [3.0e-154, 3.4e153], so the ratio takes the scaled path.
        rng = np.random.default_rng(30)
        for scale in (1e-155, 1e-200, 3e155):
            w = random_sym(rng, 4)
            v = (scale * 0.37) * w
            unscaled = float(np.add.reduce(v * w, axis=None)) / float(np.add.reduce(w * w, axis=None))
            assert bures_wasserstein._step_ratio(v, w) == unscaled

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_scaled_ratio_tests_collinearity_against_the_scaled_norm(self, scale):
        # v = scale (0.37 w + d r) with r orthogonal to w: its residual from
        # the line through w is d ||r||, set at 0.99 and 1.01 times
        # _COLLINEAR_TOL ||v||.  v's norm lies outside [2^-510, 2^510], so
        # both the residual and ||v|| are taken of the scaled pair.
        rng = np.random.default_rng(31)
        w = random_sym(rng, 4)
        r = random_sym(rng, 4)
        r -= (np.vdot(r, w) / np.vdot(w, w)) * w
        r /= np.linalg.norm(r)
        tol = bures_wasserstein._COLLINEAR_TOL
        for factor, collinear in ((0.99, True), (1.01, False)):
            d = factor * tol * 0.37 * np.linalg.norm(w)
            v = scale * (0.37 * w + d * r)
            if collinear:
                assert bures_wasserstein._step_ratio(v, w) == pytest.approx(0.37 * scale, rel=1e-12)
            else:
                with pytest.raises(DomainError, match="collinear"):
                    bures_wasserstein._step_ratio(v, w)

    def test_step_outside_the_cone_raises(self, bw):
        # The transport comes with its step's exponential, which certifies
        # the step first.
        rng = np.random.default_rng(5)
        x = random_spd(rng, 4)
        grad = bw.egrad_to_rgrad(x, random_sym(rng, 4))
        cap = bw.max_step(x, grad)
        if math.isinf(cap):
            grad = -1.0 * grad
            cap = bw.max_step(x, grad)
        with pytest.raises(DomainError, match="step leaves the SPD cone"):
            bw.transport_along_step(x, (1.01 * cap) * grad, grad)

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

    @pytest.mark.parametrize(
        "call, answer",
        [
            (lambda bw, x, v: bw.max_step_lower_bound(x, v, 1.0), False),
            (lambda bw, x, v: bw.max_step(x, v), 2e-200),
        ],
        ids=["max_step_lower_bound", "max_step"],
    )
    def test_huge_factor_answers_without_a_warning(self, bw, call, answer):
        # The squared norm of entries of 1e200 overflows.  The decision norm
        # reads inf without numpy's overflow warning: the screen cannot
        # certify the step and the exact path gives -1 / lambda_min.
        x = np.eye(2)
        v = BWTangent(np.diag([1e200, -1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = call(bw, x, v)
        assert got == answer


def _tangent_with_factor(bw, x, fac):
    # egrad_to_rgrad carries the factor 2 * sym(g), here exactly fac.
    return bw.egrad_to_rgrad(x, 0.5 * fac)


def _factors_either_side_of_half(fac):
    """``fac`` scaled to the largest multiple whose norm, as
    ``exp_transport`` takes it, reads at most 1/2, and to the first
    multiple above it that reads more."""

    norm = linalg._norm
    at = fac * (0.5 / norm(fac))
    while norm(at) > 0.5:
        at = at * (1.0 - np.finfo(float).eps)
    above = at
    while norm(above) <= 0.5:
        at, above = above, above * (1.0 + np.finfo(float).eps)
    assert norm(at) >= 0.5 * (1.0 - 8.0 * np.finfo(float).eps)
    return at, above


def _clamp(bw, x, v, alpha):
    """``_Meter.clamp`` in a run started at ``x``; it reads nothing else
    of the run."""
    return _Meter(bw, problems.Problem(None, None, x)).clamp(_Point(x), v, alpha)


def _exact_clamp(alpha, bw, x, v):
    """``_Meter.clamp`` without the screen: always the Jacobi max_step."""
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

    def test_never_exceeds_max_step(self, bw, monkeypatch):
        rng = np.random.default_rng(41)
        eps = np.finfo(float).eps
        finite = useful = 0

        def fail(*_):
            raise AssertionError("a step with t ||L||_F <= 1/2 ran a factorization")

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
                    norm = linalg._norm(fac)  # the screen's own norm
                    if norm > 0.0:
                        # The largest t with t ||L||_F <= 1/2 as computed,
                        # and the next float: the norm bound decides the
                        # first without LAPACK, the screen the second.
                        half = 0.5 / norm
                        while half * norm > 0.5:
                            half = np.nextafter(half, 0.0)
                        while np.nextafter(half, math.inf) * norm <= 0.5:
                            half = np.nextafter(half, math.inf)
                        above = np.nextafter(half, math.inf)
                        with monkeypatch.context() as patched:
                            patched.setattr(np.linalg, "cholesky", fail)
                            for t in (half, 0.5 * half, 1e-300):
                                assert bw.max_step_lower_bound(x, v, t) and t <= exact, (n, scale, t)
                        assert not bw.max_step_lower_bound(x, v, above) or above <= exact, (n, scale)
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
                    if exact * linalg._norm(fac) < 1e9:
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
        # Within the norm bound: 5e-324 <= max_step = 0.5, though 1/t overflows.
        assert bw.max_step_lower_bound(x, v, 5e-324)
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
        assert _clamp(bw, x, v, 0.0) == (0.0, False)

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
        norm = linalg._norm(fac)
        margin = max(1e-10, 6.2 * n * (n + 1) * np.finfo(float).eps) * norm
        # Up to n = 269 the margin is the fixed 1e-10 ||L||_F.
        assert (margin == 1e-10 * norm) == (n <= 269)
        for rel, certified in ((0.0, False), (1 - 5e-5, False), (1 + 5e-5, True), (2.0, True)):
            t = 1.0 / (1.0 + rel * margin)
            assert bw.max_step_lower_bound(x, v, t) == certified, (n, rel)
        # Steps at 0.99 max_step, give or take an ulp, clamp as the exact path does.
        for alpha in (STEP_SAFETY * (1 - 1e-12), np.nextafter(STEP_SAFETY, 0.0), STEP_SAFETY,
                      np.nextafter(STEP_SAFETY, 1.0)):
            assert _clamp(bw, x, v, alpha) == _exact_clamp(alpha, bw, x, v)
        assert _clamp(bw, x, v, np.nextafter(STEP_SAFETY, 1.0)) == (STEP_SAFETY, True)

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
                    got = _clamp(bw, x, v, alpha)
                    assert got == _exact_clamp(alpha, bw, x, v)
                    flags.add(got[1])
        assert flags == {False, True}

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_passed_screen_keeps_the_clamp(self, bw, n):
        # The screen's twin: wherever max_step_lower_bound passes t = alpha
        # / 0.99, alpha <= 0.99 * max_step as _Meter.clamp computes it, and
        # the clamp equals the exact path's, at t from 0.98 to 1.00001 of
        # max_step and around t ||L||_F = 1/2.  Both verdicts occur.
        rng = np.random.default_rng(200 + n)
        verdicts = set()
        for _ in range(4):
            x = random_spd(rng, n)
            u = rng.standard_normal((n, 1))
            u /= np.linalg.norm(u)
            for fac in (random_sym(rng, n), 1e-3 * random_sym(rng, n) - u @ u.T,
                        random_spd(rng, n) - 1.5 * np.eye(n)):
                v = _tangent_with_factor(bw, x, fac)
                cap = bw.max_step(x, v)
                half = 0.5 / linalg._norm(fac)
                ts = [half * rel for rel in (1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.001)]
                if not math.isinf(cap):
                    ts += [cap * rel for rel in np.linspace(0.98, 1.00001, 12)]
                for t in ts:
                    alpha = STEP_SAFETY * t
                    passed = bw.max_step_lower_bound(x, v, alpha / STEP_SAFETY)
                    verdicts.add(passed)
                    assert not passed or alpha <= STEP_SAFETY * cap, (n, t / cap)
                    # _exact_clamp's answer, from the cap computed once.
                    exact = (alpha, False) if alpha <= STEP_SAFETY * cap else (STEP_SAFETY * cap, True)
                    assert _clamp(bw, x, v, alpha) == exact, (n, t / cap)
        assert verdicts == {True, False}

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
                got = _clamp(bw, x, v, alpha)
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
        # Both points go through check_point, as x0 does.
        with pytest.raises(ValueError, match="must be positive definite"):
            bw.distance(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(ValueError, match="must be positive definite"):
            bw.distance(np.eye(2), np.diag([1.0, 0.0]))

    def test_distance_from_refuses_an_indefinite_point(self, bw):
        # The clip of M's eigenvalues to 0 would give these distance 0.
        column = bw.distance_from(np.eye(2))
        for x in (-np.eye(2), np.diag([1.0, -1.0])):
            with pytest.raises(DomainError, match="indefinite point"):
                column([x])
        with pytest.raises(DomainError, match="indefinite point"):
            column([np.eye(2), np.diag([1.0, -1.0])])

    def test_positive_semidefinite_point_keeps_its_distance(self, bw):
        assert bw.distance_from(np.eye(2))([np.diag([1.0, 0.0])]) == [1.0]
        # A rank-one point along the small eigenvector of a fixed point of
        # condition 1.9e9: M's rounding gives it an eigenvalue near -1e-8
        # times its largest, yet far inside the Tr(Y) ||X||_F scale of the
        # check, so the point keeps its distance.
        y = np.array([[0.2971418290645748, 0.45699952091225143],
                      [0.45699952091225143, 0.702858171462852]])
        u = np.array([-0.8372322801416229, 0.5443673178648474])
        (d,) = bw.distance_from(y)([np.outer(u, u)])
        exact = math.sqrt(np.trace(y) + u @ u - 2.0 * math.sqrt(u @ y @ u))
        assert d == pytest.approx(exact, rel=1e-6)

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
    its basis.

    The bound is first order in the error E of the column's ``d^2``: its
    O(n) rounded sums are off by up to ``(n + 1) eps (tr X + tr Y)``
    (``2 sum sqrt(lambda) <= tr X + tr Y``), and each eigenvalue of M by
    ``4 rho Tr(Y) ||X||_F``, which moves ``2 sqrt(lambda)`` by that over
    ``sqrt(lambda)``.  Here ``rho = 1e-14 + S n eps`` is one Jacobi
    eigensolve's error relative to its matrix (its target, and ``n eps``
    of rotation rounding per sweep for the ``S = 100`` sweeps of its cap),
    and the 4 counts M's eigensolve, the fixed point's root (which enters
    M twice) and the two products forming M (``2 n eps``, below rho);
    ``||M||_F <= Tr(Y) ||X||_F``.  Where ``d^2 > E`` the column is within
    ``E / (d + sqrt(d^2 - E))`` of d, where not it is at most
    ``sqrt(d^2 + E)``.  The bound is a worst case, far above the rounding
    a run meets, and does not depend on the BLAS kernel.
    """

    def test_cli_default_lyapunov(self, bw):
        prob = problems.lyapunov_objective(20, 0)
        config = RunConfig()
        tr = adgd_run(config, bw, prob)
        assert tr.status == STATUS_CONVERGED
        y = prob.optimum_point
        n = y.shape[0]
        root_y, inv_root_y = _sqrt_and_inverse_sqrt(y)
        trace_y = float(np.trace(y))
        eps = np.finfo(float).eps
        rho = linalg._JACOBI_TOL + linalg._JACOBI_MAX_SWEEPS * n * eps
        column = tr.column("dist_to_opt")
        truth, resolved = [], []
        for k, x in enumerate(tr.points):
            eig = linalg.sym_eig(linalg.symmetrize(root_y @ x @ root_y))
            root_m = (eig.basis * np.sqrt(eig.eigenvalues)) @ eig.basis.T
            d = float(np.linalg.norm(inv_root_y @ root_m - root_y))
            truth.append(d)
            dlam = 4.0 * rho * trace_y * float(np.linalg.norm(x))
            e = (n + 1) * eps * (float(np.trace(x)) + trace_y)
            e += dlam * float(np.sum(1.0 / np.sqrt(eig.eigenvalues)))
            if d * d > e:
                resolved.append(k)
                # The oracle's own error: its roots are off by about rho.
                own = 4.0 * rho * (np.linalg.norm(inv_root_y) * np.linalg.norm(root_m) + np.linalg.norm(root_y))
                assert abs(column[k] - d) <= e / (d + math.sqrt(d * d - e)) + own, k
            else:
                assert column[k] <= math.sqrt(d * d + e), k
        assert resolved and resolved == list(range(len(resolved)))
        # Once d^2 sinks below the rounding of the traces the column reads
        # 0, although the iterate has not reached the optimum: the stable
        # form is still positive and the gradient norm above tol.
        zeros = [k for k, d in enumerate(column) if d == 0.0]
        assert zeros and all(truth[k] > 0.0 for k in zeros)
        assert all(tr.rows[k].grad_norm > config.tol for k in zeros if k < len(tr.rows) - 1)
        assert any(tr.rows[k].grad_norm > config.tol for k in zeros)


class TestTangentArithmetic:
    def test_scaling_propagates_caches(self, bw):
        rng = np.random.default_rng(17)
        x = random_spd(rng, 4)
        g = bw.egrad_to_rgrad(x, random_sym(rng, 4))
        scaled = -0.5 * g
        assert np.allclose(scaled.mat, -0.5 * g.mat)
        assert np.allclose(scaled.factor, -0.5 * g.factor)
        assert scaled.base is x

    def test_every_real_scales_as_its_float(self, bw):
        rng = np.random.default_rng(19)
        x = random_spd(rng, 4)
        g = bw.egrad_to_rgrad(x, random_sym(rng, 4))
        for s in (0.5, np.float64(0.5), 2, True, fractions.Fraction(1, 2)):
            for scaled in (g * s, s * g):
                expected = g * float(s)
                assert bits([scaled.mat, scaled.factor]) == bits([expected.mat, expected.factor])
                assert scaled.base is x
        with pytest.raises(TypeError):
            g * "a"

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

    def test_fresh_solve_refuses_a_point_that_check_point_accepts(self, bw):
        # Lyapunov's eigenvalue-ratio cutoff is stricter than require_spd.
        x = np.diag([1.0, 1e-13])
        bw.check_point(x)
        g = bw.egrad_to_rgrad(x, np.eye(2))
        assert bw.norm(x, g) == 2.0000000000001
        with pytest.raises(DomainError, match="solve_lyapunov requires a positive definite matrix"):
            BWTangent(g.mat).factor_at(x)
