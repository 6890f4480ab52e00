import numpy as np
import pytest

from adgd import diagnostics, problems, trace_io
from adgd.manifolds import Sphere
from adgd.optimizers import RunConfig, adgd_run

from conftest import trace_of


def test_distances_required():
    trace = trace_of((0.1, 0.0, 1.0), (0.2, 0.5, None))
    for call in (lambda: diagnostics.energy_sequence(trace, 0.0), lambda: diagnostics.radius(trace)):
        with pytest.raises(ValueError, match="lacks distance-to-optimum data"):
            call()


def test_energy_of_fewer_than_two_rows_is_empty():
    for trace in (trace_of(), trace_of((0.1, 0.0, 1.0))):
        energy = diagnostics.energy_sequence(trace, 0.0)
        assert energy.dtype == np.float64 and energy.shape == (0,)
    # The distance check comes first, whatever the length.
    with pytest.raises(ValueError, match="lacks distance-to-optimum data"):
        diagnostics.energy_sequence(trace_of((0.1, 0.0, None)), 0.0)


def test_rate_bound_needs_an_adaptive_iteration():
    trace = trace_of((0.1, 0.0, 1.0))
    with pytest.raises(ValueError, match="at least one adaptive iteration"):
        diagnostics.rate_gap_bounds(trace, 0.0, [5])


def test_step_floor_without_smoothness_estimate_is_alpha0():
    # No row has a positive ell, so there is no Lipschitz estimate and the
    # floor is alpha_0 itself.
    trace = trace_of((0.3, 0.0, 1.0), (0.2, 0.0, 0.5))
    assert diagnostics.step_floor_bound(trace) == (0.2, 0.3)


@pytest.mark.parametrize("read_back", [False, True], ids=["in-memory", "read-back"])
def test_trace_without_rows(read_back, tmp_path):
    # A center of mass started next to the antipode of its one point aborts
    # before row 0; its CSV holds only the error marker.
    prob = problems.center_of_mass(5, 1, 3)
    x0 = 1e-9 * np.roll(prob.extras["points"][0], 1) - prob.extras["points"][0]
    prob.x0 = x0 / np.linalg.norm(x0)
    trace = adgd_run(RunConfig(max_iters=10, alpha0=0.01), Sphere(), prob)
    if read_back:
        trace_io.write_trace(tmp_path / "t.csv", trace, {"status": trace.status})
        trace = trace_io.read_trace(tmp_path / "t.csv")[1]
    assert trace.rows == [] and trace.status == "aborted"
    assert diagnostics.energy_sequence(trace, 0.0).shape == (0,)
    for call in (
        diagnostics.radius,
        lambda t: diagnostics.rate_gap_bounds(t, 0.0, [1]),
        diagnostics.step_floor_bound,
    ):
        with pytest.raises(ValueError, match="trace has no rows"):
            call(trace)
