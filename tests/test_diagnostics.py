import dataclasses

import numpy as np
import pytest

from trijunction.diagnostics import (
    RecordChart,
    decay_fit,
    energy_law_residual,
    kappa_l2_sq_sigma_grid,
    record_from_state,
    records_from_states,
    resample,
)
from trijunction.errors import (MatrixMNotInvertible, NonPositiveSeries, NotOnBoundary,
                                SingularGradient)
from trijunction.parameterization import (GraphState, chart_geometry, coefficients,
                                          state_from_rho)
from trijunction.tensions import SurfaceTensions, junction_matrix, young_angles

from conftest import NanGradientDisk

from oracles import (
    circle_points,
    energy,
    junction_and_robin_residuals,
    kappa_norms,
    sample_network,
    shooting_eigenfunction,
    shooting_lambda_max,
)


def test_resample_straight_segment():
    pts = np.linspace(0.0, 1.0, 33)[:, None] * np.array([0.6, 0.8])
    b = resample(pts)
    assert np.abs(b.kappa).max() < 1e-10
    assert abs(b.length - 1.0) < 1e-12
    seg = np.linalg.norm(np.diff(b.points, axis=0), axis=1).sum()
    assert abs(b.length - seg) < 1e-12
    assert np.abs(np.linalg.norm(b.tangents, axis=1) - 1.0).max() < 1e-10


def test_resample_circle_arc_curvature_and_order():
    errors = {}
    for n in (32, 64, 128):
        b = resample(circle_points(2.0, 0.3, 1.7, n))
        errors[n] = np.abs(np.abs(b.kappa) - 0.5).max()
    assert errors[32] / errors[64] > 3.0
    assert errors[64] / errors[128] > 3.0
    assert errors[128] < 1e-4


def test_energy_disk_steady(disk, disk_network, unit_tensions):
    state = GraphState(np.zeros((3, 17)), np.zeros(3))
    sample = sample_network(disk_network, disk, state)
    assert abs(energy(sample, unit_tensions) - 3.0) < 1e-10
    assert abs(record_from_state(disk_network, disk, unit_tensions, state).E - 3.0) < 1e-10


def test_energy_scales_with_length(disk, disk_network, unit_tensions):
    from trijunction.domains import CircleDomain
    from trijunction.steady import SteadyGuess, find_stationary

    big = CircleDomain(2.0)
    net2 = find_stationary(big, unit_tensions, SteadyGuess(p=(0.02, 0.0), gauge=0.0))
    state = GraphState(np.zeros((3, 17)), np.zeros(3))
    sample = sample_network(net2, big, state)
    assert abs(energy(sample, unit_tensions) - 6.0) < 1e-9
    assert abs(record_from_state(net2, big, unit_tensions, state).E - 6.0) < 1e-9


def test_arclength_and_sigma_grid_norms_agree(trefoil, trefoil_network, unit_tensions):
    from test_parameterization import smooth_state

    diffs = []
    for n in (40, 80):
        state = smooth_state(trefoil_network, unit_tensions, n, amp=0.03, seed=2)
        sample = sample_network(trefoil_network, trefoil, state)
        a = kappa_norms(sample, unit_tensions)["kappa_l2_sq"]
        coef = coefficients(trefoil_network, trefoil, unit_tensions, state)
        b = kappa_l2_sq_sigma_grid(trefoil_network, unit_tensions, coef)
        diffs.append(abs(a - b) / b)
    assert diffs[0] < 0.05
    assert diffs[1] < diffs[0] / 2.0


def test_stationary_residuals_vanish(trefoil, trefoil_network, unit_tensions):
    state = GraphState(np.zeros((3, 33)), np.zeros(3))
    sample = sample_network(trefoil_network, trefoil, state)
    res = junction_and_robin_residuals(sample, unit_tensions, trefoil)
    rec = record_from_state(trefoil_network, trefoil, unit_tensions, state)
    for key in ("res_junction", "res_flux", "res_sum_gamma_v", "res_outer", "res_perp"):
        assert res[key] < 1e-9, key
        assert getattr(rec, key) < 1e-9, key


def test_record_fields_finite_and_consistent(trefoil, trefoil_network, unit_tensions):
    from test_parameterization import smooth_state

    state = smooth_state(trefoil_network, unit_tensions, 48, amp=0.02, seed=9)
    rec = record_from_state(trefoil_network, trefoil, unit_tensions, state)
    assert rec.E > 0
    for name in ("kappa_l2_sq", "kappa_l4_4", "kappa_linf", "kappa_s_l2_sq",
                 "kappa_ss_l2_sq", "res_junction", "res_flux", "res_outer", "res_perp"):
        val = getattr(rec, name)
        assert np.isfinite(val) and val >= 0.0, name
    # junction position consistent with the three per-branch reconstructions
    pts = (trefoil_network.p_star
           + state.mu[:, None] * trefoil_network.tangents
           + state.rho[:, 0, None] * trefoil_network.normals)
    assert np.abs(pts - rec.p).max() < 1e-10


def test_record_agrees_with_arclength_oracle_at_second_order(trefoil, trefoil_network,
                                                              unit_tensions):
    # the continuous eigenmode of the trefoil fork, sampled on each grid
    net, g = trefoil_network, unit_tensions.array
    lam = shooting_lambda_max(net.lengths, net.h_star, g)
    diffs = []
    for n in (48, 96):
        phi = shooting_eigenfunction(lam, net.lengths, net.h_star, g, n)
        state = state_from_rho(net, unit_tensions, 0.05 * phi / np.abs(phi).max())
        rec = record_from_state(net, trefoil, unit_tensions, state)
        sample = sample_network(net, trefoil, state)
        norms = kappa_norms(sample, unit_tensions)
        diffs.append(np.abs([rec.E - energy(sample, unit_tensions),
                             rec.kappa_l2_sq - norms["kappa_l2_sq"],
                             rec.kappa_s_l2_sq - norms["kappa_s_l2_sq"]]))
    assert np.all(diffs[0] >= 3.0 * diffs[1]), diffs


def test_record_skips_the_step_det_m_floor(disk, disk_network, unit_tensions):
    # junction slopes (1.4, 0, -1.4) give det M = 0.35 under unit tensions;
    # the floor of coefficients is 0.5
    sigma = disk_network.sigma_grid(32)
    slopes = np.array([1.4, 0.0, -1.4])[:, None]
    rho = slopes * sigma * (1.0 - sigma / disk_network.lengths[:, None])
    state = state_from_rho(disk_network, unit_tensions, rho)
    with pytest.raises(MatrixMNotInvertible):
        coefficients(disk_network, disk, unit_tensions, state)
    rec = record_from_state(disk_network, disk, unit_tensions, state)
    values = [getattr(rec, name) for name in rec.__dataclass_fields__]
    assert np.all(np.isfinite(np.hstack(values)))


def test_record_raises_on_a_nan_wall_gradient(disk, disk_network, unit_tensions):
    # NaN passes a "below the floor" test, so the record would carry NaN
    # res_outer and res_perp; the wall curvature raises instead.
    sigma = disk_network.sigma_grid(32)
    rho = 1e-2 * np.cos(np.pi * sigma / disk_network.lengths[:, None])
    state = state_from_rho(disk_network, unit_tensions, rho)
    for chart in (None, chart_geometry(disk_network, disk, state)):
        with pytest.raises(SingularGradient, match="not finite"):
            record_from_state(disk_network, NanGradientDisk(1.0), unit_tensions, state,
                              chart=chart)


def _assert_bitwise(record, want):
    for f in dataclasses.fields(record):
        a, b = np.asarray(getattr(record, f.name)), np.asarray(getattr(want, f.name))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


def _mixed_charts(network, domain, tensions, states):
    """Per state in turn: none, the plain chart, the step's coefficients and
    the slices of a chart that a run keeps."""
    charts = []
    for k, state in enumerate(states):
        kind = k % 4
        if kind == 0:
            charts.append(None)
        elif kind == 2:
            charts.append(coefficients(network, domain, tensions, state))
        else:
            geo = chart_geometry(network, domain, state)
            charts.append(geo if kind == 1 else RecordChart.of(geo))
    return charts


@pytest.mark.parametrize("fork", ["disk", "ellipse", "trefoil", "two_dents"])
def test_batch_records_equal_their_singles_bitwise(request, fork, unit_tensions):
    # A record does not depend on the batch it is evaluated in, so the
    # batch of one (record_from_state) and every larger batch agree in
    # every bit; also under unequal tensions, where the junction sums round
    # differently in each order of their three terms.  Those sums are
    # numpy's products of one record, so the stored trajectories keep
    # their bits.
    from test_parameterization import smooth_state

    domain = request.getfixturevalue(fork)
    network = request.getfixturevalue(f"{fork}_network")
    for tensions in (unit_tensions, SurfaceTensions((0.9, 1.3, 1.1))):
        states = [smooth_state(network, tensions, 40, amp=0.01 + 0.002 * k, seed=k)
                  for k in range(9)]
        charts = _mixed_charts(network, domain, tensions, states)
        singles = [record_from_state(network, domain, tensions, state, chart=chart)
                   for state, chart in zip(states, charts)]
        q = junction_matrix(young_angles(tensions))
        for state, chart, want in zip(states, charts, singles):
            geo = chart_geometry(network, domain, state) if chart is None else chart
            kap0 = geo.kappa[:, 0]
            assert want.res_junction == abs(tensions.array @ kap0)
            assert want.res_sum_gamma_v == abs(tensions.array @ (q @ kap0))
        for size in (1, 3, 8, 9):
            for start in range(0, 9, size):
                batch = records_from_states(network, domain, tensions,
                                            states[start:start + size],
                                            charts[start:start + size])
                for record, want in zip(batch, singles[start:start + size], strict=True):
                    _assert_bitwise(record, want)
    assert records_from_states(network, domain, unit_tensions, []) == []


def test_a_failing_batch_raises_its_first_failing_records_error(disk, disk_network,
                                                               unit_tensions):
    # Records 2 and 3 have their wall ends moved off the circle.  The batch
    # raises record 2's own NotOnBoundary, message included, not one that
    # lists the psi values of the whole batch.
    from test_parameterization import smooth_state

    states = [smooth_state(disk_network, unit_tensions, 32, amp=0.01, seed=k)
              for k in range(5)]
    charts = [RecordChart.of(chart_geometry(disk_network, disk, s)) for s in states]
    for k, shift in ((2, 1e-3), (3, 2e-3)):
        charts[k] = charts[k]._replace(mu_b=charts[k].mu_b + shift)
    with pytest.raises(NotOnBoundary) as single:
        record_from_state(disk_network, disk, unit_tensions, states[2], chart=charts[2])
    with pytest.raises(NotOnBoundary) as batch:
        records_from_states(disk_network, disk, unit_tensions, states, charts)
    assert str(batch.value) == str(single.value)
    with pytest.raises(SingularGradient, match="not finite"):
        records_from_states(disk_network, NanGradientDisk(1.0), unit_tensions, states, charts)


def test_energy_law_residual_stationary(trefoil, trefoil_network, unit_tensions):
    state = GraphState(np.zeros((3, 25)), np.zeros(3))
    recs = []
    for t in (0.0, 0.1, 0.2):
        r = record_from_state(trefoil_network, trefoil, unit_tensions, state)
        r.t = t
        recs.append(r)
    _, res = energy_law_residual(recs)
    assert np.abs(res).max() < 1e-12


def test_decay_fit_exact_exponential():
    t = np.linspace(0.0, 2.0, 41)
    rate, intercept, r2 = decay_fit(t, 0.7 * np.exp(-3.0 * t), window=1.0)
    assert abs(rate + 3.0) < 1e-10
    assert abs(intercept - np.log(0.7)) < 1e-10
    assert r2 > 1.0 - 1e-12


def test_decay_fit_rejects_nonpositive():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(NonPositiveSeries):
        decay_fit(t, np.zeros(10), window=1.0)


@pytest.mark.filterwarnings("error")
def test_decay_fit_needs_a_window_with_three_samples():
    # On 10 samples a window of 0 or 0.05 keeps fewer than three of them,
    # from which no fit is made; a window outside (0, 1] or NaN is rejected.
    t = np.linspace(0.0, 1.0, 10)
    y = np.exp(-1.5 * t) * (1.0 + 0.01 * np.cos(7.0 * t))
    for window in (0.05, 0.2):
        with pytest.raises(NonPositiveSeries, match="trailing window"):
            decay_fit(t, y, window=window)
    for window in (0.0, -0.5, 1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="window must lie in"):
            decay_fit(t, y, window=window)
    rate, _, r2 = decay_fit(t, y, window=0.3)  # three samples
    assert abs(rate + 1.5) < 0.1 and r2 < 1.0

