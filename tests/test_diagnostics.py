import pytest

from adgd import diagnostics
from adgd.optimizers import Trace, TraceRow


def trace_of(*rows):
    """A trace of rows given as (alpha, ell, dist_to_opt) triples."""
    return Trace(
        rows=[
            TraceRow(k=k, phi=1.0 / (k + 1), grad_norm=1.0, alpha=alpha, theta=0.0, ell=ell,
                     fn_evals=k + 1, exp_evals=k, expensive_ops=0, dist_to_opt=dist, clamped=False)
            for k, (alpha, ell, dist) in enumerate(rows)
        ],
        points=[],
        status="converged",
    )


def test_distances_required():
    trace = trace_of((0.1, 0.0, 1.0), (0.2, 0.5, None))
    for call in (lambda: diagnostics.energy_sequence(trace, 0.0), lambda: diagnostics.radius(trace)):
        with pytest.raises(ValueError, match="lacks distance-to-optimum data"):
            call()


def test_rate_bound_needs_an_adaptive_iteration():
    trace = trace_of((0.1, 0.0, 1.0))
    with pytest.raises(ValueError, match="at least one adaptive iteration"):
        diagnostics.rate_gap_bounds(trace, 0.0, [5])


def test_step_floor_without_smoothness_estimate_is_alpha0():
    # No row has a positive ell, so there is no Lipschitz estimate and the
    # floor is alpha_0 itself.
    trace = trace_of((0.3, 0.0, 1.0), (0.2, 0.0, 0.5))
    assert diagnostics.step_floor_bound(trace) == (0.2, 0.3)
