"""Trace-level diagnostics for the adaptive method's descent guarantees.

Each function reads a :class:`~adgd.optimizers.Trace`, purely from its
recorded quantities: the descent energy (:func:`energy_sequence`), the
containment radius (:func:`radius`), the certified gap bound
(:func:`rate_gap_bounds`) and the step-size floor
(:func:`step_floor_bound`).  All but the floor need the rows' distance to
a known optimum, and raise ValueError without it; all but the energy,
which is then empty, raise ValueError on a trace with no rows.

Squares are products and sums run left to right, so no certificate
depends on libm's ``pow`` or on the interpreter's ``sum``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["energy_sequence", "radius", "rate_gap_bounds", "step_floor_bound"]


def _require_distances(trace):
    if any(r.dist_to_opt is None for r in trace.rows):
        raise ValueError("trace lacks distance-to-optimum data (unknown optimum)")


def _rows(trace):
    # A run that aborts before row 0 leaves none, and so does a CSV whose
    # only row is its error marker.
    if not trace.rows:
        raise ValueError("trace has no rows")
    return trace.rows


def energy_sequence(trace, phi_star):
    """Descent energy ``E_k = d(x_k, x*)^2 + ||alpha_{k-1} grad_{k-1}||^2 +
    2 alpha_k theta_k (phi(x_{k-1}) - phi_*)`` for k = 1 .. len(rows)-1
    (k = 0 has no predecessor); non-increasing on geodesically convex runs."""
    _require_distances(trace)
    rows = trace.rows
    return np.array([
        cur.dist_to_opt * cur.dist_to_opt + step * step
        + 2.0 * cur.alpha * cur.theta * (prev.phi - phi_star)
        for prev, cur in zip(rows, rows[1:])
        for step in (prev.alpha * prev.grad_norm,)
    ])


def radius(trace):
    """R = sqrt(d_0^2 + 2 (alpha_0 ||grad_0||)^2), which bounds every
    iterate's distance to the optimum."""
    _require_distances(trace)
    r0 = _rows(trace)[0]
    step = r0.alpha * r0.grad_norm
    return math.sqrt(r0.dist_to_opt * r0.dist_to_opt + 2.0 * (step * step))


def rate_gap_bounds(trace, phi_star, ks):
    """Pairs (best objective gap up to k, certified bound R^2 / (2 sum alpha_i)).

    The sum runs over i = 1 .. k; requested indices beyond the trace are
    evaluated at the last recorded iterate.
    """
    rows = trace.rows
    r = radius(trace)
    # Entry k - 1 covers rows 1 .. k: one left-to-right pass each.
    best_phi = list(itertools.accumulate((row.phi for row in rows[1:]), min))
    alpha_sum = list(itertools.accumulate(row.alpha for row in rows[1:]))
    out = []
    for k in ks:
        k_eff = min(k, len(rows) - 1)
        if k_eff < 1:
            raise ValueError("rate bound needs at least one adaptive iteration")
        out.append((best_phi[k_eff - 1] - phi_star, r * r / (2.0 * alpha_sum[k_eff - 1])))
    return out


def step_floor_bound(trace):
    """(observed min alpha, min(alpha_0, 1 / (2 L))) with L = max over the
    trace of the reciprocal local inverse-smoothness estimate."""
    rows = _rows(trace)
    ells = [r.ell for r in rows if r.ell > 0.0]
    if not ells:
        return min(r.alpha for r in rows), rows[0].alpha
    lipschitz = max(1.0 / e for e in ells)
    return min(r.alpha for r in rows), min(rows[0].alpha, 1.0 / (2.0 * lipschitz))
