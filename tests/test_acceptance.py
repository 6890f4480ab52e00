"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line
per criterion.  Every tolerance below is part of the release contract;
none is calibrated at runtime.  Seeds are fixed here and documented in
the README.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest

from adgd import diagnostics, linalg, optimizers, problems, trace_io
from adgd.cli import main as cli_main
from adgd.manifolds import BuresWasserstein, BWTangent, PositiveOrthant, Sphere
from adgd.optimizers import (
    STATUS_ABORTED,
    RunConfig,
    adgd_run,
    euclidean_adgd_run,
)

from conftest import is_spd_spectrum, random_sphere_tangent, random_spd, random_sym, random_unit

GCONVEX_SEEDS = list(range(10))
EQUIVALENCE_SEEDS = list(range(20))
END_TO_END_SEED = 0


@pytest.fixture(scope="module")
def com_traces():
    sphere = Sphere()
    out = []
    for seed in GCONVEX_SEEDS:
        prob = problems.center_of_mass(10, 50, seed)
        trace = adgd_run(RunConfig(max_iters=1000, tol=0.0, alpha0=0.05), sphere, prob)
        out.append((prob, trace))
    return out


@pytest.fixture(scope="module")
def lyapunov_traces():
    bw = BuresWasserstein()
    out = []
    for seed in GCONVEX_SEEDS:
        prob = problems.lyapunov_objective(10, seed)
        trace = adgd_run(RunConfig(max_iters=1000, tol=0.0, alpha0=0.1), bw, prob)
        out.append((prob, trace))
    return out


def test_criterion_1_orthant_flat_equivalence():
    # The adaptive loop on the positive orthant and its flat-space twin
    # generate the same sequence through x = exp(y): max coordinatewise
    # relative deviation <= 1e-8 over 100 iterations, 20 seeds, n = 10.
    orthant = PositiveOrthant()
    worst = 0.0
    for seed in EQUIVALENCE_SEEDS:
        prob = problems.linear_minus_log(10, seed)
        config = RunConfig(max_iters=100, tol=0.0, alpha0=0.5)
        riem = adgd_run(config, orthant, prob)
        c = prob.extras["c"]
        flat = euclidean_adgd_run(
            config,
            lambda y, c=c: float(np.sum(np.exp(y) - c * y)),
            lambda y, c=c: np.exp(y) - c,
            np.log(prob.x0),
        )
        # A run may hit a bit-exact stationary point before iteration 100;
        # the sequence is constant from there on, so extend it as such.
        for trace in (riem, flat):
            if len(trace.points) < 101:
                assert trace.rows[-1].grad_norm == 0.0
        for k in range(101):
            xk = riem.points[min(k, len(riem.points) - 1)]
            yk = flat.points[min(k, len(flat.points) - 1)]
            ref = np.exp(yk)
            worst = max(worst, float(np.max(np.abs(xk - ref) / np.abs(ref))))
    assert worst <= 1e-8
    print(f"PASS criterion 1: orthant equivalence, max deviation {worst:.3e} <= 1e-8")


def test_criterion_2_radius_and_energy(com_traces, lyapunov_traces):
    # d(x_k, x*) <= R + 1e-6 for every iterate, and the descent energy is
    # non-increasing within 1e-7, on both geodesically convex benchmarks.
    worst_excess = -math.inf
    worst_increase = -math.inf
    for prob, trace in com_traces + lyapunov_traces:
        radius = diagnostics.radius(trace)
        dists = np.array([r.dist_to_opt for r in trace.rows])
        worst_excess = max(worst_excess, float(dists.max() - radius))
        energy = diagnostics.energy_sequence(trace, prob.optimum_value)
        worst_increase = max(worst_increase, float(np.diff(energy).max()))
        assert dists.max() <= radius + 1e-6
        assert np.all(np.diff(energy) <= 1e-7)
    print(
        f"PASS criterion 2: radius slack {worst_excess:.3e} <= 1e-6, "
        f"worst energy increase {worst_increase:.3e} <= 1e-7 "
        f"({len(GCONVEX_SEEDS)} seeds per problem)"
    )


def test_criterion_3_certified_rate(com_traces, lyapunov_traces):
    # Best objective gap after k iterations <= R^2 / (2 sum alpha_i) + 1e-7
    # at k in {10, 100, 1000}.
    checkpoints = (10, 100, 1000)
    worst = -math.inf
    for prob, trace in com_traces + lyapunov_traces:
        for gap, bound in diagnostics.rate_gap_bounds(trace, prob.optimum_value, checkpoints):
            worst = max(worst, gap - bound)
            assert gap <= bound + 1e-7
    print(f"PASS criterion 3: rate bound slack {worst:.3e} <= 1e-7 at k in {checkpoints}")


def _bits(value):
    """A float's bytes, or a container of values with each float replaced by its bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def test_written_traces_read_back_bit_for_bit(com_traces, lyapunov_traces, tmp_path):
    # Criteria 2 and 3 evaluated on the CSV traces give the in-memory
    # numbers bit for bit: every row, phi_star and each diagnostic.
    for i, (prob, trace) in enumerate(com_traces + lyapunov_traces):
        path = tmp_path / f"run{i}.csv"
        trace_io.write_trace(path, trace, {"phi_star": prob.optimum_value, "status": trace.status})
        meta, read, deviations = trace_io.read_trace(path)
        assert (read.status, read.message, read.points, deviations) == (trace.status, "", [], None)
        assert read.rows == trace.rows
        for r, t in zip(read.rows, trace.rows):
            assert _bits(dataclasses.astuple(r)) == _bits(dataclasses.astuple(t))
            assert type(r.clamped) is bool
        phi_star = float(meta["phi_star"])
        assert _bits(phi_star) == _bits(prob.optimum_value)
        for got, want in (
            (diagnostics.energy_sequence(read, phi_star),
             diagnostics.energy_sequence(trace, prob.optimum_value)),
            (diagnostics.radius(read), diagnostics.radius(trace)),
            (diagnostics.rate_gap_bounds(read, phi_star, (10, 100, 1000)),
             diagnostics.rate_gap_bounds(trace, prob.optimum_value, (10, 100, 1000))),
            (diagnostics.step_floor_bound(read), diagnostics.step_floor_bound(trace)),
        ):
            assert _bits(np.asarray(got).tolist()) == _bits(np.asarray(want).tolist())


def test_certificates_are_products_and_left_to_right_sums(com_traces, lyapunov_traces):
    # Criteria 2 and 3's numbers, bit for bit, as correctly rounded
    # products and plain left-to-right sums: neither libm's pow nor a
    # compensated sum (builtin sum from Python 3.12) may move them.
    checkpoints = (10, 100, 1000)
    for prob, trace in com_traces + lyapunov_traces:
        rows, phi_star = trace.rows, prob.optimum_value
        energy = []
        for prev, cur in zip(rows, rows[1:]):
            step = prev.alpha * prev.grad_norm
            energy.append(cur.dist_to_opt * cur.dist_to_opt + step * step
                          + 2.0 * cur.alpha * cur.theta * (prev.phi - phi_star))
        step = rows[0].alpha * rows[0].grad_norm
        r = math.sqrt(rows[0].dist_to_opt * rows[0].dist_to_opt + 2.0 * (step * step))
        bounds = []
        for k in checkpoints:
            best, total = rows[1].phi, 0.0
            for row in rows[1 : k + 1]:
                best = min(best, row.phi)
                total = total + row.alpha
            bounds.append((best - phi_star, r * r / (2.0 * total)))
        assert _bits(diagnostics.energy_sequence(trace, phi_star).tolist()) == _bits(energy)
        assert _bits(diagnostics.radius(trace)) == _bits(r)
        assert _bits(diagnostics.rate_gap_bounds(trace, phi_star, checkpoints)) == _bits(bounds)


def test_criterion_4_geometry_suites():
    sphere = Sphere()
    orthant = PositiveOrthant()
    bw = BuresWasserstein()

    # Transport isometry, 500 samples per manifold, 1e-9 relative.
    rng = np.random.default_rng(1)
    for _ in range(500):
        x = random_unit(rng, 5)
        v = random_sphere_tangent(rng, x)
        w = random_sphere_tangent(rng, x)
        before = sphere.norm(x, w)
        after = sphere.norm(sphere.exp(x, v), sphere.transport_along_step(x, v, w))
        assert abs(after - before) <= 1e-9 * (1.0 + before)
    for _ in range(500):
        x = rng.uniform(0.2, 3.0, size=5)
        v = rng.standard_normal(5)
        w = rng.standard_normal(5)
        before = orthant.norm(x, w)
        after = orthant.norm(orthant.exp(x, v), orthant.transport_along_step(x, v, w))
        assert abs(after - before) <= 1e-9 * (1.0 + before)
    for i in range(500):
        local = np.random.default_rng(i)
        n = int(local.integers(2, 6))
        x = random_spd(local, n)
        v = BWTangent(random_sym(local, n, scale=0.3))
        cap = bw.max_step(x, v)
        if cap <= 1.2:
            v = (0.5 * cap) * v
        w = float(local.uniform(0.3, 2.0)) * v
        before = bw.norm(x, w)
        after = bw.norm(bw.exp(x, v), bw.transport_along_step(x, v, w))
        assert abs(after - before) <= 1e-9 * (1.0 + before)

    # Transport of the step velocity equals the exponential's derivative.
    h = 1e-4
    for _ in range(100):
        x = random_unit(rng, 4)
        v = random_sphere_tangent(rng, x)
        fd = (sphere.exp(x, (1 + h) * v) - sphere.exp(x, (1 - h) * v)) / (2 * h)
        out = sphere.transport_along_step(x, v, v)
        assert np.linalg.norm(out - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))
    for _ in range(100):
        x = rng.uniform(0.3, 2.0, size=4)
        v = rng.standard_normal(4)
        fd = (orthant.exp(x, (1 + h) * v) - orthant.exp(x, (1 - h) * v)) / (2 * h)
        out = orthant.transport_along_step(x, v, v)
        assert np.linalg.norm(out - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))
    for i in range(100):
        local = np.random.default_rng(1000 + i)
        x = random_spd(local, 4)
        v = BWTangent(random_sym(local, 4, scale=0.2))
        if bw.max_step(x, v) <= 1.2:
            v = (0.5 * bw.max_step(x, v)) * v
        fd = (bw.exp(x, (1 + h) * v) - bw.exp(x, (1 - h) * v)) / (2 * h)
        out = bw.transport_along_step(x, v, v)
        assert np.linalg.norm(out.mat - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))

    # Hinge comparison on the curved manifolds, 200 hinges each.
    for _ in range(200):
        x = random_unit(rng, 5)
        v1 = random_sphere_tangent(rng, x, rng.uniform(0.1, 1.0))
        v2 = random_sphere_tangent(rng, x, rng.uniform(0.1, 1.0))
        lhs = sphere.distance(sphere.exp(x, v1), sphere.exp(x, v2))
        assert lhs - sphere.norm(x, v1 - v2) <= 1e-8
    done = 0
    i = 0
    while done < 200:
        local = np.random.default_rng(5000 + i)
        i += 1
        n = int(local.integers(2, 5))
        x = random_spd(local, n)
        v1 = BWTangent(random_sym(local, n, scale=0.2))
        v2 = BWTangent(random_sym(local, n, scale=0.2))
        if min(bw.max_step(x, v1), bw.max_step(x, v2)) <= 1.05:
            continue
        lhs = bw.distance(bw.exp(x, v1), bw.exp(x, v2))
        assert lhs - bw.norm(x, v1 - v2) <= 1e-8
        done += 1

    # Sphere exponential never drifts off the unit sphere.
    for _ in range(500):
        x = random_unit(rng, 5)
        v = random_sphere_tangent(rng, x, rng.uniform(0.0, 10.0))
        assert abs(np.linalg.norm(sphere.exp(x, v)) - 1.0) <= 1e-10
    print(
        "PASS criterion 4: transport isometry (3x500), exp-velocity FD (3x100), "
        "hinge (2x200), sphere unit drift (500)"
    )


def test_criterion_5_linalg_oracles():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        m = random_sym(rng, n)
        eig = linalg.sym_eig(m)
        assert np.linalg.norm((eig.basis * eig.eigenvalues) @ eig.basis.T - m) <= 1e-10 * (1.0 + np.linalg.norm(m))

        x = random_spd(rng, n, 0.2, 4.0)
        u = random_sym(rng, n)
        sol = linalg.solve_lyapunov(x, u)
        assert np.linalg.norm(x @ sol + sol @ x - u) <= 1e-10 * (1.0 + np.linalg.norm(u))

        s = linalg.spd_sqrt(x)
        assert np.linalg.norm(s @ s - x) <= 1e-10 * np.linalg.norm(x)
    print("PASS criterion 5: eigen/Lyapunov/sqrt residuals over 100 instances, n <= 12")


def test_criterion_6_end_to_end_convergence():
    bw = BuresWasserstein()
    prob = problems.lyapunov_objective(20, END_TO_END_SEED)
    trace = adgd_run(
        RunConfig(max_iters=2000, tol=1e-11, alpha0=0.1, track_distance=False), bw, prob
    )
    a, c = prob.extras["A"], prob.extras["C"]
    x = trace.final_point
    lyap_resid = np.linalg.norm(a @ x + x @ a - c) / np.linalg.norm(c)
    assert lyap_resid <= 1e-6
    assert trace.rows[-1].k <= 2000

    sphere = Sphere()
    prob = problems.rayleigh(100, END_TO_END_SEED)
    trace = adgd_run(RunConfig(max_iters=5000, tol=1e-10, alpha0=0.05), sphere, prob)
    ray_gap = abs(trace.rows[-1].phi - prob.optimum_value)
    assert ray_gap <= 1e-8
    assert trace.rows[-1].k <= 5000

    prob = problems.center_of_mass(10, 50, END_TO_END_SEED)
    trace = adgd_run(RunConfig(max_iters=2000, tol=1e-8, alpha0=0.05), sphere, prob)
    assert trace.status == "converged"
    com_grad = trace.rows[-1].grad_norm
    assert com_grad <= 1e-8
    print(
        f"PASS criterion 6: lyapunov n=20 residual {lyap_resid:.3e} <= 1e-6, "
        f"rayleigh n=100 gap {ray_gap:.3e} <= 1e-8, "
        f"center-of-mass grad {com_grad:.3e} <= 1e-8 (seed {END_TO_END_SEED})"
    )


def test_criterion_7_gradient_consistency():
    h = 1e-6
    cases = [
        (Sphere(), lambda s: problems.center_of_mass(8, 30, s)),
        (Sphere(), lambda s: problems.rayleigh(8, s)),
        (BuresWasserstein(), lambda s: problems.lyapunov_objective(6, s)),
        (BuresWasserstein(), lambda s: problems.weighted_least_squares(6, s)),
        (BuresWasserstein(), lambda s: problems.weighted_least_squares(6, s, density=0.1)),
        (PositiveOrthant(), lambda s: problems.linear_minus_log(8, s)),
    ]
    for manifold, factory in cases:
        for seed in range(10):
            prob = factory(seed)
            rng = np.random.default_rng(9000 + seed)
            x = prob.x0
            grad = manifold.egrad_to_rgrad(x, prob.euclidean_grad(x))
            phi = prob.value(x)
            tol = max(1e-5, 1e-5 * abs(phi))
            for _ in range(20):
                if isinstance(manifold, Sphere):
                    v = random_sphere_tangent(rng, x)
                elif isinstance(manifold, PositiveOrthant):
                    v = rng.standard_normal(x.size)
                else:
                    v = BWTangent(random_sym(rng, x.shape[0]))
                v = (1.0 / manifold.norm(x, v)) * v
                fd = (
                    prob.value(manifold.exp(x, h * v))
                    - prob.value(manifold.exp(x, (-h) * v))
                ) / (2.0 * h)
                assert abs(manifold.inner(x, grad, v) - fd) <= tol
    print("PASS criterion 7: directional-derivative checks, 4 problems x 10 seeds x 20 directions")


def test_criterion_8_domain_safety(lyapunov_traces, monkeypatch):
    # With the step clamp active no Bures-Wasserstein run ever leaves the
    # SPD cone; with the clamp disabled an aggressive instance does.
    bw = BuresWasserstein()
    checked = 0
    for _, trace in lyapunov_traces:
        for point in trace.points[:: max(1, len(trace.points) // 50)]:
            assert is_spd_spectrum(linalg.sym_eig(point).eigenvalues)
            checked += 1
    prob = problems.lyapunov_objective(20, END_TO_END_SEED)
    trace = adgd_run(
        RunConfig(max_iters=200, tol=1e-11, alpha0=50.0, track_distance=False), bw, prob
    )
    assert trace.status != STATUS_ABORTED
    assert any(r.clamped for r in trace.rows)
    for point in trace.points:
        assert is_spd_spectrum(linalg.sym_eig(point).eigenvalues)
        checked += 1

    aborted = 0
    monkeypatch.setattr(optimizers, "_clamp_alpha", lambda alpha, *_: (alpha, False))
    for seed in GCONVEX_SEEDS:
        prob = problems.lyapunov_objective(6, seed)
        unclamped = adgd_run(
            RunConfig(max_iters=60, alpha0=50.0, track_distance=False),
            bw,
            prob,
        )
        if unclamped.status == STATUS_ABORTED and "SPD cone" in unclamped.message:
            aborted += 1
    assert aborted >= 1
    print(
        f"PASS criterion 8: {checked} iterates SPD under clamping; "
        f"{aborted}/{len(GCONVEX_SEEDS)} unclamped runs hit the domain error"
    )


def test_criterion_9_cli_determinism(tmp_path):
    specs = [
        ("run", "--experiment", "rayleigh", "--n", "12", "--seed", "5",
         "--max-iters", "60", "--alpha0", "0.05"),
        ("run", "--experiment", "lyapunov", "--n", "6", "--seed", "2",
         "--max-iters", "40", "--alpha0", "0.1"),
        ("run", "--experiment", "orthant-equivalence", "--n", "10", "--seed", "3",
         "--max-iters", "50", "--alpha0", "0.5"),
        ("run", "--experiment", "wls-sparse", "--n", "8", "--seed", "1",
         "--max-iters", "40", "--optimizer", "armijo", "--armijo-lambda", "2",
         "--alpha0", "0.05"),
    ]
    for i, spec in enumerate(specs):
        a = tmp_path / f"a{i}.csv"
        b = tmp_path / f"b{i}.csv"
        assert cli_main([*spec, "--out", str(a)]) == 0
        assert cli_main([*spec, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    print(f"PASS criterion 9: byte-identical traces for {len(specs)} CLI specs run twice")
