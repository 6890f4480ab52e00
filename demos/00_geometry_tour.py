#!/usr/bin/env python3
"""A quick numerical tour of the three geometries.

For each manifold: move along a geodesic, carry a tangent vector along it,
and verify the two facts the optimizer relies on -- transport preserves
norms, and transporting the step's own velocity gives the derivative of
the exponential map.
"""
import numpy as np

from adgd.manifolds import BuresWasserstein, PositiveOrthant, Sphere

rng = np.random.default_rng(0)

print("=== Sphere ===")
sphere = Sphere()
x = rng.standard_normal(5)
x /= np.linalg.norm(x)
v = rng.standard_normal(5)
v -= np.dot(x, v) * x
w = rng.standard_normal(5)
w -= np.dot(x, w) * x
y = sphere.exp(x, v)
print(f"|exp(x,v)| - 1              = {abs(np.linalg.norm(y) - 1):.2e}")
print(f"distance(x, exp(x,v))       = {sphere.distance(x, y):.6f}  (speed {sphere.norm(x, v):.6f})")
pw = sphere.transport_along_step(x, v, w)
print(f"norm drift under transport  = {abs(sphere.norm(y, pw) - sphere.norm(x, w)):.2e}")

print("\n=== Positive orthant, metric diag(x^-2) ===")
orthant = PositiveOrthant()
x = rng.uniform(0.5, 2.0, size=5)
v = rng.standard_normal(5)
y = orthant.exp(x, v)
print(f"exp stays positive          = {bool(np.all(y > 0))}")
print(f"distance = |log x - log y|  = {orthant.distance(x, y):.6f}  (speed {orthant.norm(x, v):.6f})")
pw = orthant.transport_along_step(x, v, v)
h = 1e-6
fd = (orthant.exp(x, (1 + h) * v) - orthant.exp(x, (1 - h) * v)) / (2 * h)
print(f"transport vs exp derivative = {np.linalg.norm(pw - fd):.2e}")

print("\n=== SPD matrices, Bures-Wasserstein metric ===")
bw = BuresWasserstein()
a = rng.standard_normal((4, 4))
x = a @ a.T + 4 * np.eye(4)
eg = 0.1 * (lambda m: 0.5 * (m + m.T))(rng.standard_normal((4, 4)))
grad = bw.egrad_to_rgrad(x, eg)
print(f"max admissible step along -grad = {bw.max_step(x, -1.0 * grad):.4f}")
alpha = 0.25 * bw.max_step(x, -1.0 * grad)
step = (-alpha) * grad
y = bw.exp(x, step)
print(f"iterate eigenvalues stay positive: {np.linalg.eigvalsh(y).min():.4f} > 0")
transported = bw.transport_along_step(x, step, grad)
print(f"transported gradient norm drift = "
      f"{abs(bw.norm(y, transported) - bw.norm(x, grad)):.2e}")
print(f"Bures distance moved            = {bw.distance(x, y):.6f}")
