#!/usr/bin/env python3
"""The positive orthant with metric diag(x^-2) is flat space in disguise.

Running the adaptive method on phi over the orthant and its Euclidean
twin on f(y) = phi(exp(y)) produces the same sequence through x = exp(y):
here we print the per-iteration deviation, which stays at rounding level.
"""
import numpy as np

from adgd import RunConfig, adgd_run, problems
from adgd.cli import twin_deviations
from adgd.manifolds import Euclidean, PositiveOrthant

prob = problems.linear_minus_log(10, seed=3)
config = RunConfig(max_iters=100, tol=0.0, alpha0=0.5)

riemannian = adgd_run(config, PositiveOrthant(), prob)
flat = adgd_run(config, Euclidean(), problems.Problem(*prob.extras["pullback"], x0=np.log(prob.x0)))

print("k    max |x_k - exp(y_k)| / |exp(y_k)|")
shared = min(len(riemannian.points), len(flat.points))
deviations = twin_deviations(riemannian.points, flat.points, shared)
for k, dev in enumerate(deviations):
    if k < 10 or k % 20 == 0:
        print(f"{k:<4d} {dev:.3e}")
print(f"\nworst deviation over {shared} shared iterates: {max(deviations):.3e}")
print(f"both runs end at x = c up to rounding: "
      f"{np.max(np.abs(riemannian.final_point - prob.extras['c'])):.2e}")
