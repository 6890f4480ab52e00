#!/usr/bin/env python3
"""Weighted least squares ||A . X - B||_F^2 over SPD matrices.

Objective evaluations cost only entrywise products here, while the
geometry still pays matrix products, so iteration counts and expensive-op
counts tell different stories.  Sparse weights (10% density) separate the
methods sharply: line search without growth crawls.
"""
from adgd import RunConfig, adgd_run, armijo_run, problems
from adgd.manifolds import BuresWasserstein

bw = BuresWasserstein()

for label, density in (("dense", None), ("sparse 10%", 0.1)):
    prob = problems.weighted_least_squares(20, seed=0, density=density)
    # Nothing below prints a distance, so the per-row diagnostic stays off.
    base = dict(max_iters=3000, tol=1e-9, alpha0=0.05, track_distance=False)
    runs = [
        ("adaptive", adgd_run(RunConfig(**base), bw, prob)),
        ("armijo(1)", armijo_run(RunConfig(**base, armijo_lambda=1.0), bw, prob)),
        ("armijo(2)", armijo_run(RunConfig(**base, armijo_lambda=2.0), bw, prob)),
    ]
    print(f"--- weights: {label} ---")
    for name, tr in runs:
        last = tr.rows[-1]
        print(f"  {name:>9}: {tr.status:>9} iters={last.k:5d} fn={last.fn_evals:6d} "
              f"matmuls={last.expensive_ops:6d} phi={last.phi:.6e}")
    print()
