import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trijunction import diagnostics, domains, parameterization
from trijunction import evolution as evolution_module
from trijunction import tensions as tensions_module
from trijunction.diagnostics import decay_fit, record_from_state
from trijunction.domains import CircleDomain
from trijunction.errors import (CflViolation, CompatibilityFailed, MatrixMNotInvertible,
                               NewtonDiverged)
from trijunction.evolution import (
    EvolveConfig,
    Stepper,
    initial_state,
    junction_kinematics,
    run,
)
from trijunction.parameterization import GraphState
from trijunction.stability import max_eigenvalue
from trijunction.tensions import SurfaceTensions, constraint_basis, junction_matrix, young_angles

from conftest import NanGradientDisk
from oracles import boundary_residuals_reference, dirichlet_interior_step


def make_config(network, n, t_end, safety=0.4, **kw):
    dsig = float(network.lengths.min()) / n
    return EvolveConfig(dt=safety * dsig**2, t_end=t_end, n=n, **kw)


def test_zero_state_is_machine_fixed_point(disk, disk_network, unit_tensions):
    n = 24
    cfg = make_config(disk_network, n, 1.0)
    stepper = Stepper(disk_network, disk, unit_tensions, cfg)
    state = GraphState(np.zeros((3, n + 1)), np.zeros(3))
    for _ in range(1000):
        state = stepper.step(state)
    assert np.abs(state.rho).max() == 0.0
    assert np.abs(state.mu).max() == 0.0


def test_unset_step_is_the_default_step_bitwise(disk, disk_network, unit_tensions):
    # EvolveConfig(dt=None) steps at 0.45 dsigma_min^2, resolved once per
    # Stepper; the run is bit for bit the run with that dt set.
    n = 24
    dt = 0.45 * float(np.min(disk_network.lengths / n) ** 2)
    runs = []
    for step in (None, dt):
        cfg = EvolveConfig(dt=step, t_end=40 * dt, n=n, output_every=10)
        assert Stepper(disk_network, disk, unit_tensions, cfg).dt == dt
        init = initial_state(disk_network, disk, unit_tensions, cfg)
        runs.append(run(disk_network, disk, unit_tensions, init, cfg))
    unset, fixed = runs
    assert unset.status == fixed.status == "completed"
    assert len(unset.states) == len(fixed.states) == 5
    for a, b in zip(unset.states, fixed.states):
        assert a.t == b.t
        assert a.rho.tobytes() == b.rho.tobytes() and a.mu.tobytes() == b.mu.tobytes()
    assert [(r.t, r.E, r.kappa_l2_sq) for r in unset.records] == \
        [(r.t, r.E, r.kappa_l2_sq) for r in fixed.records]


class _NanSlopeDisk(CircleDomain):
    """Unit disk whose exit slope mu_b' is NaN at the six branch ends that
    the boundary sweep evaluates through its exit binding's ends.  The sweep
    reads its wall normals from that slope, so the wall residuals are NaN
    and no step of the sweep can lower the residual norm; the chart's exits
    on the full grids (the binding's chart) are exact."""

    def network_exits(self, network, n):
        exits = super().network_exits(network, n)
        ends = exits.ends

        def nan_slopes(q):
            s, _ = ends(q)
            return s, [float("nan")] * len(s)

        exits.ends = nan_slopes
        return exits


def _break_boundary_sweep(failure, domain, monkeypatch):
    """Set up one failure of the boundary Newton sweep for Steppers built
    after the call; returns the domain to build them on."""
    if failure == "singular":
        # a plane basis whose second row is zero: the second unknown moves
        # no boundary value, so its Jacobian column is exactly zero
        def degenerate_basis(tensions):
            b = constraint_basis(tensions)
            b[1] = 0.0
            return b

        monkeypatch.setattr(SurfaceTensions, "basis", property(degenerate_basis))
    elif failure == "cap":
        monkeypatch.setattr(domains, "_NEWTON_MAX", 1)
    else:
        domain = _NanSlopeDisk(1.0)
    return domain


_SWEEP_FAILURES = {"singular": "singular", "stall": "stalled", "cap": "did not reach"}


@pytest.mark.parametrize("failure", sorted(_SWEEP_FAILURES))
def test_failed_sweep_raises_newton_diverged_from_step(disk, disk_network, unit_tensions,
                                                       failure, monkeypatch):
    cfg = make_config(disk_network, 24, 1.0)
    state = initial_state(disk_network, disk, unit_tensions, cfg, kind="cosine",
                          amplitude=1e-2)
    domain = _break_boundary_sweep(failure, disk, monkeypatch)
    stepper = Stepper(disk_network, domain, unit_tensions, cfg)
    with pytest.raises(NewtonDiverged, match=_SWEEP_FAILURES[failure]):
        stepper.step(state)
    # run() ends the trajectory with the typed status instead of raising
    traj = run(disk_network, domain, unit_tensions, state, cfg)
    assert traj.status == "NewtonDiverged" and _SWEEP_FAILURES[failure] in traj.message


@pytest.mark.parametrize("failure", sorted(_SWEEP_FAILURES))
def test_failed_sweep_raises_compatibility_failed_from_initial_state(
        disk, disk_network, unit_tensions, failure, monkeypatch):
    cfg = make_config(disk_network, 24, 1.0)
    domain = _break_boundary_sweep(failure, disk, monkeypatch)
    with pytest.raises(CompatibilityFailed, match=_SWEEP_FAILURES[failure]):
        initial_state(disk_network, domain, unit_tensions, cfg, kind="cosine",
                      amplitude=1e-2)


def test_step_evaluates_no_wall_gradient(disk, disk_network, two_dents, two_dents_network,
                                        unit_tensions, monkeypatch):
    # The sweep reads its wall normals from the exit jet and the chart needs
    # none, so neither a step nor the initial boundary solve calls grad.
    def no_grad(self, x):
        raise AssertionError("domain.grad called")

    for network, domain in ((disk_network, disk), (two_dents_network, two_dents)):
        cfg = make_config(network, 24, 1.0)
        with monkeypatch.context() as patch:
            patch.setattr(type(domain), "grad", no_grad)
            state = initial_state(network, domain, unit_tensions, cfg, kind="cosine",
                                  amplitude=1e-2)
            stepper = Stepper(network, domain, unit_tensions, cfg)
            for _ in range(5):
                state = stepper.step(state)
            rho = state.rho.copy()
            rho[:, [0, -1]] += 1e-4  # off the conditions: the sweep iterates
            stepper.enforce_bcs(rho)


def test_cfl_guard(disk, disk_network, unit_tensions):
    n = 24
    dsig = 1.0 / n
    cfg = EvolveConfig(dt=dsig**2, t_end=1.0, n=n)  # twice the guard
    state = GraphState(np.zeros((3, n + 1)), np.zeros(3))
    with pytest.raises(CflViolation):
        Stepper(disk_network, disk, unit_tensions, cfg).step(state)


@pytest.mark.parametrize("family", ["disk", "two_dents"])
def test_cfl_guard_reads_max_r_on_every_node(family, unit_tensions, request):
    # the guard admits dt = 0.5 / max(a / dsigma^2) and refuses (1 + 1e-6) of it
    domain, network = (request.getfixturevalue(f) for f in (family, f"{family}_network"))
    n = 48
    state = _perturbed_state(network, domain, unit_tensions, n, seed=0)
    a = Stepper(network, domain, unit_tensions, make_config(network, n, 0.0)).chart(state).a
    dt = 0.5 / float(np.max(a / ((network.lengths / n) ** 2)[:, None]))
    cfg = EvolveConfig(dt=dt, t_end=0.0, n=n)
    assert Stepper(network, domain, unit_tensions, cfg).step(state).t == dt
    cfg = EvolveConfig(dt=(1.0 + 1e-6) * dt, t_end=0.0, n=n)
    with pytest.raises(CflViolation):
        Stepper(network, domain, unit_tensions, cfg).step(state)


def _perturbed_state(network, domain, tensions, n, seed):
    # compatible cosine data of modes 0-4 with coefficients uniform in
    # [-1, 1], so that max |rho| <= 0.01
    coefficients = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 5)).tolist()
    return initial_state(network, domain, tensions, make_config(network, n, 0.0),
                         kind="cosine", amplitude=0.002, cosine_coefficients=coefficients)


def _dirichlet_step(stepper, state):
    # one step by the predictor and Dirichlet interior route, then the sweep
    rho = dirichlet_interior_step(stepper.network, state, stepper.chart(state), stepper.dt)
    rho, r0 = stepper.enforce_bcs(rho)
    return GraphState(rho=rho, mu=stepper.tensions.q @ r0, t=state.t + stepper.dt)


# Bounds on max |rho - rho_oracle| / max |rho_oracle|, set from the draws of
# _perturbed_state at seeds 0-199 on each fixture below (800 states): one
# step read at most 4.3e-16 (median 1.9e-16); 300 steps read at most
# 3.3e-15 on the disk, the ellipse and the trefoil and 7.5e-14 on the two
# dents, where the difference grows at the sweep's Jacobian refresh after
# 100 sweeps: its forward difference (step 1e-7) magnifies rounding by
# about 1e7 in the lagged Jacobian the two routes then hold
_ONE_STEP_BOUND, _LONG_RUN_BOUND = 1e-15, 2e-13


@pytest.mark.parametrize("family, n", [("disk", 200), ("ellipse", 64), ("trefoil", 48),
                                       ("two_dents", 48)])
def test_step_agrees_with_the_dirichlet_interior_route(family, n, unit_tensions, request):
    # The step solves (I - r D2) delta = dt F on all nodes with identity end
    # rows; the oracle predicts the ends by rho + dt F and solves the
    # interior with them as Dirichlet data.  The two are one scheme in exact
    # arithmetic, and the end columns before the sweep are the same bits.
    domain, network = (request.getfixturevalue(f) for f in (family, f"{family}_network"))
    state = _perturbed_state(network, domain, unit_tensions, n, seed=0)
    stepper = Stepper(network, domain, unit_tensions, make_config(network, n, 0.0))
    swept = []
    sweep = stepper.enforce_bcs
    stepper.enforce_bcs = lambda rho: sweep(swept.append(rho.copy()) or rho)
    coef = stepper.chart(state)
    stepper.step(state)
    want = dirichlet_interior_step(network, state, coef, stepper.dt)
    F = coef.L * coef.kappa + coef.Lam * coef.mu_t[:, None]
    got = swept[0]
    assert np.array_equal(got[:, ::n], state.rho[:, ::n] + stepper.dt * F[:, ::n])
    assert np.array_equal(got[:, ::n], want[:, ::n])
    assert np.abs(got - want).max() <= _ONE_STEP_BOUND * np.abs(want).max()

    new = Stepper(network, domain, unit_tensions, make_config(network, n, 0.0))
    old = Stepper(network, domain, unit_tensions, make_config(network, n, 0.0))
    a = b = state
    for _ in range(300):
        a, b = new.step(a), _dirichlet_step(old, b)
    assert a.t == b.t
    assert np.abs(a.rho - b.rho).max() <= _LONG_RUN_BOUND * np.abs(b.rho).max()


def test_initial_state_zero_perturbation(trefoil, trefoil_network, unit_tensions):
    cfg = make_config(trefoil_network, 24, 0.1)
    state = initial_state(trefoil_network, trefoil, unit_tensions, cfg,
                          kind="cosine", amplitude=0.0)
    assert np.abs(state.rho).max() == 0.0


def test_initial_state_compatibility(trefoil, trefoil_network, unit_tensions):
    n = 48
    cfg = make_config(trefoil_network, n, 0.1)
    spec = max_eigenvalue(trefoil_network, unit_tensions, n)
    state = initial_state(trefoil_network, trefoil, unit_tensions, cfg,
                          kind="eigenmode", amplitude=1e-2,
                          eigenfunction=spec.eigenfunction)
    g = unit_tensions.array
    assert abs(g @ state.rho[:, 0]) < 1e-12
    # checked by the per-branch reference route, not the stepper's operator
    g12, g13, *outer = boundary_residuals_reference(
        trefoil_network, trefoil, young_angles(unit_tensions), state.rho,
        state.rho[:, 0], state.rho[:, -1], state.mu)
    assert abs(g12) < 1e-10 and abs(g13) < 1e-10
    for i in range(3):
        assert abs(outer[i]) < 1e-10
    # the eigenfunction already satisfies the linear conditions, so the
    # nonlinear correction of the boundary values is second order
    raw = 1e-2 * spec.eigenfunction / np.abs(spec.eigenfunction).max()
    assert np.abs(state.rho - raw).max() < 5e-4


_BAD_CONFIGS = {
    "n=1": ("n", dict(n=1)),
    "n=2": ("n", dict(n=2)),
    "n=16.0": ("n", dict(n=16.0)),
    "dt=0": ("dt", dict(dt=0.0)),
    "dt<0": ("dt", dict(dt=-1e-5)),
    "dt=inf": ("dt", dict(dt=np.inf)),
    "dt=nan": ("dt", dict(dt=np.nan)),
    "t_end=nan": ("t_end", dict(t_end=np.nan)),
    "t_end=inf": ("t_end", dict(t_end=np.inf)),
    "t_end<0": ("t_end", dict(t_end=-0.1)),
    "output_every=0": ("output_every", dict(output_every=0)),
    "output_every=-1": ("output_every", dict(output_every=-1)),
    "output_every=2.0": ("output_every", dict(output_every=2.0)),
    "amplitude_cap=nan": ("amplitude_cap", dict(amplitude_cap=np.nan)),
    "amplitude_cap=0": ("amplitude_cap", dict(amplitude_cap=0.0)),
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_bad_evolve_config_raises_value_error_naming_the_field(case):
    field, bad = _BAD_CONFIGS[case]
    with pytest.raises(ValueError, match=rf"EvolveConfig\.{field} "):
        EvolveConfig(**{"t_end": 0.0, "dt": 1e-4, **bad})


def test_evolve_config_takes_numpy_integers_and_an_unset_step():
    cfg = EvolveConfig(t_end=0.0, n=np.int64(3), output_every=np.int32(1),
                       amplitude_cap=np.inf)
    assert cfg.dt is None and cfg.n == 3


_BAD_RECIPES = {
    "zero eigenfunction": dict(kind="eigenmode", eigenfunction=0.0),
    "nan eigenfunction": dict(kind="eigenmode", eigenfunction=np.nan),
    "inf eigenfunction": dict(kind="eigenmode", eigenfunction=np.inf),
    "nan amplitude": dict(kind="cosine", amplitude=np.nan),
    "inf amplitude": dict(kind="eigenmode", amplitude=np.inf, eigenfunction=1.0),
    "nan coefficient": dict(kind="cosine", cosine_coefficients=[[0.0, 1.0], [np.nan], [1.0]]),
    "two coefficient lists": dict(kind="cosine", cosine_coefficients=[[0.0, 1.0], [1.0]]),
    "nested coefficients": dict(kind="cosine", cosine_coefficients=[[[1.0]], [1.0], [1.0]]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_BAD_RECIPES))
def test_bad_initial_recipe_raises_value_error_before_any_work(case, disk, disk_network,
                                                               unit_tensions, monkeypatch):
    n = 12
    recipe = dict(_BAD_RECIPES[case])
    if "eigenfunction" in recipe:
        phi = np.zeros((3, n + 1))
        phi[1, 3] = recipe["eigenfunction"]
        recipe["eigenfunction"] = phi
    # no projection, no sweep: the recipe is refused first
    monkeypatch.setattr(evolution_module, "state_from_rho", _never)
    monkeypatch.setattr(evolution_module, "Stepper", _never)
    with pytest.raises(ValueError):
        initial_state(disk_network, disk, unit_tensions, make_config(disk_network, n, 0.0),
                      **recipe)


def _never(*args, **kwargs):
    raise AssertionError("called")


def test_initial_state_projects_constraint_violation(trefoil, trefoil_network,
                                                     unit_tensions):
    cfg = make_config(trefoil_network, 24, 0.1)
    state = initial_state(trefoil_network, trefoil, unit_tensions, cfg,
                          kind="cosine", amplitude=1e-2,
                          cosine_coefficients=[[1.0], [0.3], [0.0]])
    g = unit_tensions.array
    assert abs(g @ state.rho[:, 0]) < 1e-12


def test_constraints_preserved_along_run(trefoil, trefoil_network, unit_tensions):
    n = 32
    cfg = make_config(trefoil_network, n, 0.02, output_every=10)
    state = initial_state(trefoil_network, trefoil, unit_tensions, cfg,
                          kind="cosine", amplitude=5e-3)
    q = junction_matrix(young_angles(unit_tensions))
    g = unit_tensions.array
    stepper = Stepper(trefoil_network, trefoil, unit_tensions, cfg)
    for _ in range(50):
        state = stepper.step(state)
        assert abs(g @ state.rho[:, 0]) < 1e-10
        assert np.abs(state.mu - q @ state.rho[:, 0]).max() < 1e-10


@settings(max_examples=10, deadline=None)
@given(on_dents=st.booleans(), amplitude=st.floats(1e-3, 2e-2),
       mix=st.lists(st.floats(-1.0 / 3.0, 1.0 / 3.0), min_size=9, max_size=9))
def test_constraints_hold_to_rounding_after_every_step(disk, disk_network, two_dents,
                                                       two_dents_network, unit_tensions,
                                                       on_dents, amplitude, mix):
    # mu is slaved to rho(0) through Q bitwise, and the weighted junction
    # constraint holds to a few ulps step after step.  The ulps are those of
    # the predicted junction values the sweep projects, which max|rho|
    # bounds; the final rho(0) can cancel far below them (to 4e-14 from a
    # 1.6e-2 cos(2 pi sigma) mode on the disk, with sum gamma rho(0) = 9e-19).
    # The mix keeps max|rho| <= amplitude, inside the admissible neighbourhood
    # (three -1 modes at 2e-2 on the dented branches reach det M = 0.10).
    network, domain = (two_dents_network, two_dents) if on_dents else (disk_network, disk)
    n = 24
    cfg = make_config(network, n, 1.0)
    state = initial_state(network, domain, unit_tensions, cfg, kind="cosine",
                          amplitude=amplitude,
                          cosine_coefficients=[mix[0:3], mix[3:6], mix[6:9]])
    stepper = Stepper(network, domain, unit_tensions, cfg)
    g = unit_tensions.array
    for _ in range(20):
        state = stepper.step(state)
        r0 = state.rho[:, 0]
        assert np.array_equal(state.mu, unit_tensions.q @ r0)
        assert abs(g @ r0) <= 8 * np.finfo(float).eps * g.sum() * np.abs(state.rho).max()


def test_single_step_decreases_energy(trefoil, trefoil_network, unit_tensions):
    n = 48
    cfg = make_config(trefoil_network, n, 0.01)
    state = initial_state(trefoil_network, trefoil, unit_tensions, cfg,
                          kind="cosine", amplitude=2e-2)
    before = record_from_state(trefoil_network, trefoil, unit_tensions, state)
    stepper = Stepper(trefoil_network, trefoil, unit_tensions, cfg)
    for _ in range(5):
        state = stepper.step(state)
    after = record_from_state(trefoil_network, trefoil, unit_tensions, state)
    assert after.E < before.E


def test_eigenmode_decay_rate(trefoil, trefoil_network, unit_tensions):
    n = 48
    spec = max_eigenvalue(trefoil_network, unit_tensions, n)
    cfg = make_config(trefoil_network, n, 0.5, output_every=100)
    init = initial_state(trefoil_network, trefoil, unit_tensions, cfg,
                         kind="eigenmode", amplitude=1e-3,
                         eigenfunction=spec.eigenfunction)
    traj = run(trefoil_network, trefoil, unit_tensions, init, cfg)
    assert traj.status == "completed"
    # the state norm itself decays at lambda_max; kappa^2 at twice that
    norms = np.array([np.abs(s.rho).max() for s in traj.states])
    rate, _, r2 = decay_fit(traj.times, norms, window=0.8)
    assert abs(rate - spec.lambda_max) / abs(spec.lambda_max) < 0.05
    assert r2 > 0.999
    k2 = np.array([r.kappa_l2_sq for r in traj.records])
    rate2, _, _ = decay_fit(traj.times, k2, window=0.8)
    assert abs(rate2 - 2 * spec.lambda_max) / abs(2 * spec.lambda_max) < 0.05


def test_unstable_run_reports_amplitude_cap(two_dents, two_dents_network,
                                            unit_tensions):
    n = 32
    spec = max_eigenvalue(two_dents_network, unit_tensions, n)
    assert spec.lambda_max > 0
    cfg = make_config(two_dents_network, n, 10.0, output_every=100,
                      amplitude_cap=0.02)
    init = initial_state(two_dents_network, two_dents, unit_tensions, cfg,
                         kind="eigenmode", amplitude=5e-3,
                         eigenfunction=spec.eigenfunction)
    traj = run(two_dents_network, two_dents, unit_tensions, init, cfg)
    assert traj.status == "amplitude_cap"
    k2 = np.array([r.kappa_l2_sq for r in traj.records])
    assert k2[-1] > 4.0 * k2[0]


def test_run_reports_admissibility_loss(disk, disk_network, unit_tensions):
    # state engineered past the det M floor; run() must end with the typed
    # status on its first step instead of raising
    from trijunction.parameterization import state_from_rho

    n = 24
    sigma = disk_network.sigma_grid(n)
    l = disk_network.lengths[:, None]
    rho = -2.0 * sigma * (1.0 - sigma / l) ** 2
    state = state_from_rho(disk_network, unit_tensions, rho)
    cfg = make_config(disk_network, n, 0.01, output_every=5, amplitude_cap=5.0)
    traj = run(disk_network, disk, unit_tensions, state, cfg)
    assert traj.status == "MatrixMNotInvertible"
    assert "det M" in traj.message
    # the record falls back to the plain chart when the step's chart fails
    assert len(traj.records) == 1
    want = record_from_state(disk_network, disk, unit_tensions, state)
    moves, _ = _record_moves(traj.records, [want])
    assert not any(moves.values()), moves


def test_run_meeting_the_det_m_floor_at_a_record_on_a_polynomial_wall(
        two_dents, two_dents_network, unit_tensions, monkeypatch):
    # The Stepper's exit binding moves its anchor as soon as a chart's exits
    # are found, before coefficients checks det M.  A run that meets the
    # floor at a record charts the failing state twice: for the record, from
    # the jet of the state before it, and for the step, from its own jet,
    # whose exits are accepted as they are.  Both raise the same error; the
    # record is taken on the plain chart and the run stops there.  The floor
    # is raised here so that the negated eigenmode on the two dents, where
    # det M falls by about 1.3e-6 per step from 0.99698, meets it at state
    # k: a dry run reads det M of the first k + 1 states, and the floor goes
    # halfway between the last two.
    network, domain, tensions = two_dents_network, two_dents, unit_tensions
    n, k = 24, 11
    cfg = make_config(network, n, 0.0, output_every=1)
    cfg.t_end = 40 * cfg.dt
    phi = max_eigenvalue(network, tensions, n).eigenfunction
    init = initial_state(network, domain, tensions, cfg, kind="eigenmode", amplitude=0.02,
                         eigenfunction=-phi)
    stepper, state, det_M = Stepper(network, domain, tensions, cfg), init, []
    for step in range(k + 1):
        det_M.append(stepper.chart(state).det_M)
        if step < k:
            state = stepper.step(state)
    floor = 0.5 * (det_M[k - 1] + det_M[k])
    assert min(det_M[:k]) > floor > det_M[k]
    monkeypatch.setattr(parameterization, "_DET_M_FLOOR", floor)
    traj = run(network, domain, tensions, init, cfg)
    assert traj.status == "MatrixMNotInvertible"
    assert traj.message == f"det M = {det_M[k]:.4f} at or below floor {floor}"
    assert len(traj.records) == len(traj.states) == k + 1
    last = traj.states[-1]
    assert traj.records[-1].t == last.t == traj.states[-2].t + cfg.dt
    moves, _ = _record_moves(traj.records[-1:],
                             [record_from_state(network, domain, tensions, last)])
    assert not any(moves.values()), moves

    # the run's last two charts again, on a fresh Stepper
    stepper = Stepper(network, domain, tensions, cfg)
    found, chart = [], stepper._exits.chart
    stepper._exits.chart = lambda q: found.append(chart(q)) or found[-1]
    stepper.chart(traj.states[-2])
    for _ in range(2):
        with pytest.raises(MatrixMNotInvertible) as err:
            stepper.chart(last)
        assert str(err.value) == traj.message
    assert [a.tobytes() for a in found[1]] == [a.tobytes() for a in found[2]]


def _record_moves(records, others):
    """Per record field, the largest |difference| between two record lists,
    and the largest magnitude of the field in `others`."""
    moves, scales = {}, {}
    for rec, other in zip(records, others, strict=True):
        for f in dataclasses.fields(rec):
            a = np.asarray(getattr(rec, f.name), dtype=float)
            b = np.asarray(getattr(other, f.name), dtype=float)
            moves[f.name] = max(moves.get(f.name, 0.0), float(np.max(np.abs(a - b))))
            scales[f.name] = max(scales.get(f.name, 0.0), float(np.max(np.abs(b))))
    return moves, scales


def _run_and_rerecord(network, domain, tensions, cfg, init):
    traj = run(network, domain, tensions, init, cfg)
    again = [record_from_state(network, domain, tensions, s) for s in traj.states]
    return traj, _record_moves(traj.records, again)


def test_run_records_equal_records_of_its_states_on_conics(disk, disk_network, ellipse,
                                                          ellipse_network, unit_tensions):
    # A run records the chart its next step reads.  Conic exits are closed
    # form and ignore their start, so every field equals the plain record
    # of the stored state bitwise: on the disk eigenmode run, and on the
    # ellipse with cosine data (the CLI pipeline's config, every step).
    n = 48
    cfg = make_config(disk_network, n, 0.0, output_every=7)
    cfg.t_end = 50 * cfg.dt
    phi = max_eigenvalue(disk_network, unit_tensions, n).eigenfunction
    init = initial_state(disk_network, disk, unit_tensions, cfg, kind="eigenmode",
                         amplitude=1e-2, eigenfunction=phi)
    traj, (moves, _) = _run_and_rerecord(disk_network, disk, unit_tensions, cfg, init)
    assert traj.status == "completed" and len(traj.records) == 9  # 0, 7, ..., 49 and 50
    assert not any(moves.values()), moves

    n = 64
    dt = 0.45 * float(np.min(ellipse_network.lengths / n) ** 2)
    cfg = EvolveConfig(dt=dt, t_end=30 * dt, n=n, output_every=1)
    init = initial_state(ellipse_network, ellipse, unit_tensions, cfg, kind="cosine",
                         amplitude=0.01)
    traj, (moves, _) = _run_and_rerecord(ellipse_network, ellipse, unit_tensions, cfg, init)
    assert traj.status == "completed" and len(traj.records) == 31
    assert not any(moves.values()), moves


def test_run_records_match_records_of_its_states_on_two_dents(two_dents, two_dents_network,
                                                             unit_tensions):
    # Polynomial exits are Newton roots, so the run's records (exits
    # predicted from the last chart) and the plain ones (cold-started)
    # differ at rounding, the amplitude-cap record included: within 1e-12 of
    # each field's largest magnitude along the run.  The identity residuals
    # sit at rounding level themselves (res_perp at 1e-10, the sweep's
    # tolerance) and are read against absolute tolerances, so they are held
    # to 1e-12 absolute.
    n = 48
    cfg = make_config(two_dents_network, n, 10.0, output_every=100, amplitude_cap=0.08)
    phi = max_eigenvalue(two_dents_network, unit_tensions, n).eigenfunction
    init = initial_state(two_dents_network, two_dents, unit_tensions, cfg,
                         kind="eigenmode", amplitude=0.072, eigenfunction=phi)
    traj, (moves, scales) = _run_and_rerecord(two_dents_network, two_dents, unit_tensions,
                                              cfg, init)
    assert traj.status == "amplitude_cap"
    for name, move in moves.items():
        scale = 1.0 if name.startswith("res_") else scales[name]
        assert move <= 1e-12 * scale, (name, move, scales[name])


def test_run_on_a_nan_gradient_wall_equals_the_disks(disk, disk_network, unit_tensions):
    # Neither the step nor the records evaluate a wall gradient: both read
    # the wall off the exit jet.  So a run on a wall whose gradient is NaN
    # everywhere, with the disk's exits, completes with the disk's states
    # and records in every bit, over a closing partial batch of records
    # (3 steps) and a full one (12 steps).
    n = 24
    cfg = make_config(disk_network, n, 0.0, output_every=1)
    init = initial_state(disk_network, disk, unit_tensions, cfg, kind="cosine",
                         amplitude=1e-2)
    for steps in (3, 12):
        cfg.t_end = steps * cfg.dt
        traj = run(disk_network, NanGradientDisk(1.0), unit_tensions, init, cfg)
        want = run(disk_network, disk, unit_tensions, init, cfg)
        assert traj.status == want.status == "completed"
        assert len(traj.records) == steps + 1
        for state, other in zip(traj.states, want.states, strict=True):
            assert state.rho.tobytes() == other.rho.tobytes() and state.t == other.t
        for record, other in zip(traj.records, want.records, strict=True):
            for f in dataclasses.fields(record):
                a = np.asarray(getattr(record, f.name))
                assert a.tobytes() == np.asarray(getattr(other, f.name)).tobytes(), f.name


@pytest.mark.parametrize("when", ["initial", "after_3_steps"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("family", ["disk", "ellipse", "trefoil", "two_dents"])
def test_non_finite_state_ends_run_with_typed_status(family, value, when, unit_tensions,
                                                     request, monkeypatch):
    # One non-finite interior node ends the run with the same status on a
    # conic and on a polynomial domain, without a warning: the chart rejects
    # the state before any exit search, and the state is not recorded.  With
    # a record every other step, NaN after step 3 reaches the next step's
    # chart, and an infinity the record of its amplitude-cap state.
    domain = request.getfixturevalue(family)
    network = request.getfixturevalue(f"{family}_network")
    cfg = make_config(network, 48, 0.0, output_every=2)
    cfg.t_end = 8 * cfg.dt
    init = initial_state(network, domain, unit_tensions, cfg, kind="cosine",
                         amplitude=1e-2)
    if when == "initial":
        init.rho[1, 20] = value
    else:
        step, steps = Stepper.step, []

        def corrupted_step(self, state):
            new = step(self, state)
            steps.append(new)
            if len(steps) == 3:
                new.rho[1, 20] = value
            return new

        monkeypatch.setattr(Stepper, "step", corrupted_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(network, domain, unit_tensions, init, cfg)
    assert traj.status == "NonFiniteState", (traj.status, traj.message)
    assert len(traj.records) == len(traj.states) == (0 if when == "initial" else 2)
    assert all(np.isfinite(s.rho).all() for s in traj.states)


_HUGE_OFFSET_STATUS = {
    ("disk", 1e3): "OffsetMissesBoundary", ("disk", 1e200): "OffsetMissesBoundary",
    ("ellipse", 1e3): "OffsetMissesBoundary", ("ellipse", 1e200): "OffsetMissesBoundary",
    ("trefoil", 1e3): "OffsetMissesBoundary", ("trefoil", 1e200): "NoIntersection",
    ("two_dents", 1e3): "OffsetMissesBoundary", ("two_dents", 1e200): "NoIntersection",
}


@pytest.mark.parametrize("family, offset", sorted(_HUGE_OFFSET_STATUS))
def test_huge_offset_ends_run_with_typed_status(family, offset, unit_tensions, request):
    # A finite offset far off the wall makes the chart's exit search fail;
    # run returns that failure as its status, and records no state whose
    # chart failed.  A conic's discriminant is a quadratic in q whose q^2
    # coefficient (T, N)^2 - |T|^2 |N|^2 is negative, so at 1e200 it reads
    # -inf, a miss, on the ellipse as on the disk (an expansion in
    # o = base + q N overflowed there to a NaN chart instead).
    domain = request.getfixturevalue(family)
    network = request.getfixturevalue(f"{family}_network")
    cfg = make_config(network, 48, 1.0)
    init = initial_state(network, domain, unit_tensions, cfg, kind="cosine",
                         amplitude=1e-2)
    init.rho[1, 20] = offset
    with np.errstate(all="ignore"):
        traj = run(network, domain, unit_tensions, init, cfg)
    assert traj.status == _HUGE_OFFSET_STATUS[family, offset], (traj.status, traj.message)
    assert len(traj.records) == len(traj.states) == (traj.status == "NewtonDiverged")


def test_run_on_a_fresh_triple_derives_its_constants_once(disk, disk_network, monkeypatch):
    # Q, the Young angles and the plane basis live on SurfaceTensions: a
    # whole run computes each once, however many steps and records it takes.
    calls = []
    for name in ("young_angles", "junction_matrix", "constraint_basis"):
        original = getattr(tensions_module, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(tensions_module, name, counted)
    fresh = SurfaceTensions((1.0, 1.0, 1.0))
    cfg = make_config(disk_network, 24, 0.0, output_every=2)
    cfg.t_end = 10 * cfg.dt
    init = initial_state(disk_network, disk, fresh, cfg, kind="cosine", amplitude=1e-2)
    traj = run(disk_network, disk, fresh, init, cfg)
    assert traj.status == "completed" and len(traj.records) == 6
    assert sorted(calls) == ["constraint_basis", "junction_matrix", "young_angles"], calls


def test_step_reads_only_the_chart_of_its_own_state(disk, disk_network, unit_tensions):
    # A chart taken of another state is not read: the step evaluates its own.
    n = 24
    cfg = make_config(disk_network, n, 0.0)
    state = initial_state(disk_network, disk, unit_tensions, cfg, kind="cosine",
                          amplitude=1e-2)
    other = initial_state(disk_network, disk, unit_tensions, cfg, kind="cosine",
                          amplitude=2e-2)
    fresh = Stepper(disk_network, disk, unit_tensions, cfg).step(state)
    stepper = Stepper(disk_network, disk, unit_tensions, cfg)
    stepper.chart(other)
    stepped = stepper.step(state)
    assert np.array_equal(stepped.rho, fresh.rho) and np.array_equal(stepped.mu, fresh.mu)


def test_run_evaluates_one_chart_per_step(disk, disk_network, unit_tensions, monkeypatch):
    # With a record every step, each step reads the chart its state's record
    # evaluated: K steps cost K + 1 charts, where evaluating it for the step
    # and again for the record cost 2K + 1.
    n, steps = 24, 12
    cfg = make_config(disk_network, n, 0.0, output_every=1)
    cfg.t_end = steps * cfg.dt
    init = initial_state(disk_network, disk, unit_tensions, cfg, kind="cosine",
                         amplitude=1e-2)
    calls = []
    chart_geometry = parameterization.chart_geometry

    def counted(*args, **kwargs):
        calls.append(1)
        return chart_geometry(*args, **kwargs)

    monkeypatch.setattr(parameterization, "chart_geometry", counted)
    monkeypatch.setattr(diagnostics, "chart_geometry", counted)
    traj = run(disk_network, disk, unit_tensions, init, cfg)
    assert traj.status == "completed" and len(traj.records) == steps + 1
    assert len(calls) == steps + 1


def test_junction_kinematics_zero_on_stationary(trefoil, trefoil_network,
                                                unit_tensions):
    n = 24
    cfg = make_config(trefoil_network, n, 0.01)
    s0 = GraphState(np.zeros((3, n + 1)), np.zeros(3), t=0.0)
    stepper = Stepper(trefoil_network, trefoil, unit_tensions, cfg)
    s1 = stepper.step(s0)
    V, v = junction_kinematics(trefoil_network, trefoil, s0, s1)
    assert np.abs(V).max() < 1e-12
    assert np.abs(v).max() < 1e-12


def test_junction_kinematics_tangential_coupling(trefoil, trefoil_network,
                                                 unit_tensions):
    # v = Q V and sum gamma v = 0 at the junction, up to O(dt + dsigma)
    n = 64
    cfg = make_config(trefoil_network, n, 0.02, output_every=25)
    spec = max_eigenvalue(trefoil_network, unit_tensions, n)
    init = initial_state(trefoil_network, trefoil, unit_tensions, cfg,
                         kind="eigenmode", amplitude=5e-3,
                         eigenfunction=spec.eigenfunction)
    traj = run(trefoil_network, trefoil, unit_tensions, init, cfg)
    q = junction_matrix(young_angles(unit_tensions))
    g = unit_tensions.array
    scale = max(np.abs(r.kappa_linf) for r in traj.records)
    for s0, s1 in zip(traj.states[:-2], traj.states[1:-1]):
        V, v = junction_kinematics(trefoil_network, trefoil, s0, s1)
        dsig = float(trefoil_network.lengths.min()) / n
        dt_rec = s1.t - s0.t
        tol = 20.0 * scale * (dt_rec + dsig)
        assert np.abs(v - q @ V).max() < tol
        assert abs(g @ v) < tol
