import itertools

import numpy as np
import pytest

from trijunction import domains, steady
from trijunction.errors import NoConvergence, SingularJacobian
from trijunction.evolution import EvolveConfig, initial_state, run
from trijunction.parameterization import network_residuals
from trijunction.stability import max_eigenvalue
from trijunction.steady import (
    SteadyGuess,
    find_stationary,
    h2_ratio_series,
    steady_residual,
)
from trijunction.tensions import SurfaceTensions

from conftest import random_tensions
from oracles import (forward_difference_jacobian, h2_bound_check, jacobian_mp,
                     steady_residual_mp)


def test_disk_solution_from_offset_guess(disk, unit_tensions):
    net = find_stationary(disk, unit_tensions, SteadyGuess(p=(0.05, 0.03), gauge=0.0))
    assert np.linalg.norm(net.p_star) < 1e-10
    assert np.abs(net.lengths - 1.0).max() < 1e-10
    assert np.abs(net.h_star + 1.0).max() < 1e-8
    res = steady_residual(disk, unit_tensions,
                          SteadyGuess(p=tuple(net.p_star), phi=0.0))
    assert np.abs(res).max() < 1e-10


def test_disk_center_residual_vanishes_for_any_rotation(disk, unit_tensions):
    for phi in (0.0, 0.31, 1.7):
        res = steady_residual(disk, unit_tensions, SteadyGuess(p=(0.0, 0.0), phi=phi))
        assert np.abs(res).max() < 1e-12


def test_disk_offset_residual_nonzero(disk, unit_tensions):
    res = steady_residual(disk, unit_tensions, SteadyGuess(p=(0.1, 0.0), phi=0.0))
    assert np.abs(res).max() > 1e-3
    # on-axis ray stays perpendicular, the tilted pair picks up opposite signs
    assert abs(res[0]) < 1e-12
    assert abs(res[1] + res[2]) < 1e-12


def test_disk_without_gauge_raises(disk, unit_tensions):
    with pytest.raises(SingularJacobian):
        find_stationary(disk, unit_tensions, SteadyGuess(p=(0.05, 0.03)))


def test_missing_gauge_raises_from_every_start(disk, unit_tensions):
    # The disk's rotation is neutral at every p, so the exact Jacobian is
    # singular up to rounding (condition numbers 1e15 and more); a healthy
    # steady Jacobian reads at most a few hundred.
    rng = np.random.default_rng(40)
    for _ in range(40):
        guess = SteadyGuess(p=tuple(rng.uniform(-0.2, 0.2, 2)), phi=rng.uniform(-0.5, 0.5))
        with pytest.raises(SingularJacobian, match="fix the rotation gauge"):
            find_stationary(disk, unit_tensions, guess)


@pytest.mark.parametrize("gammas", [(1.219, 0.74, 1.602), (1.638, 1.818, 0.653)])
def test_missing_gauge_raises_near_a_neutral_fork(two_dents, gammas):
    # From this start all three rays end on the outer circle, where a
    # rotation about its center is neutral: the exact Jacobian at the
    # start reads condition numbers of 2e14 and more.
    with pytest.raises(SingularJacobian):
        find_stationary(two_dents, SurfaceTensions(gammas), SteadyGuess(p=(0.03, 0.02)))


def _census_triple(k):
    # tension triple k (from 1) of the steady census (tests/census.py steady)
    rng = np.random.default_rng(0)
    for _ in range(k):
        tensions = random_tensions(rng)
    return tensions


@pytest.mark.parametrize("tensions", [_census_triple(20), SurfaceTensions((1.219, 0.74, 1.602)),
                                      SurfaceTensions((1.638, 1.818, 0.653))],
                         ids=["census_20", "neutral_a", "neutral_b"])
def test_missing_gauge_verdict_holds_a_one_ulp_move_of_the_start(two_dents, tensions):
    # The ungauged two-dents solves from (0.03, 0.02) with phi = 0: census
    # triple 20 and the near-neutral forks above.  The start and each of
    # its 26 neighbours one ulp away in p_x, p_y or phi raise
    # SingularJacobian.  A forward difference (step 1e-7) read condition
    # numbers about 7e5 at the first of them, on either side of the 1e6
    # guard as the hits rounded, so some neighbours stalled instead; the
    # exact Jacobian reads 1.6e11 there and 2e14 and more at the others.
    x, y = 0.03, 0.02
    for dx, dy, dphi in itertools.product((-1.0, 0.0, 1.0), repeat=3):
        guess = SteadyGuess(p=(float(np.nextafter(x, x + dx)) if dx else x,
                               float(np.nextafter(y, y + dy)) if dy else y),
                            phi=float(np.nextafter(0.0, dphi)) if dphi else 0.0)
        with pytest.raises(SingularJacobian, match="fix the rotation gauge"):
            find_stationary(two_dents, tensions, guess)


# Bounds on max |J - J_mp| / max |J_mp| for the exact steady Jacobian
# against a 40-digit derivative of the residual through oracles.ray_hit_mp
# (oracles.jacobian_mp, oracles.steady_residual_mp), from 400 draws per
# fixture of the draw below (p within 0.05 of the root, phi within 0.3,
# unit and random tensions, default_rng(7)): at most 6.9e-16 on the disk,
# 7.4e-16 on the ellipse and 1.8e-14 on the trefoil.  On the two dents the
# error grows where a hit nears a corner of the wall (an outer circle
# meeting a dent), where |grad psi| falls to 0.04 and the rounding of the
# hit and of grad psi and the Hessian there is magnified: it read up to
# 1.9e-9, and at most 3.2e-14 / min |grad psi|^3 over the three hits.  Two
# of those 400 draws were left out: a ray grazed a dent, and the scan and
# the exact roots took different first crossings.
_CONIC_JAC_BOUND, _TREFOIL_JAC_BOUND, _DENTS_JAC_SCALE = 2e-15, 4e-14, 7e-14


def test_exact_jacobian_matches_a_40_digit_derivative(disk, ellipse, trefoil, two_dents,
                                                     unit_tensions):
    rng = np.random.default_rng(8)
    for domain, p, bound in ((disk, (0.05, 0.03), _CONIC_JAC_BOUND),
                             (ellipse, (0.1, 0.0), _CONIC_JAC_BOUND),
                             (trefoil, (0.02, 0.01), _TREFOIL_JAC_BOUND),
                             (two_dents, (0.03, 0.02), None)):
        root = find_stationary(domain, unit_tensions, SteadyGuess(p=p, gauge=0.0)).p_star
        for k in range(4):
            tensions = unit_tensions if k % 2 == 0 else random_tensions(rng)
            u = [*(root + rng.uniform(-0.05, 0.05, 2)).tolist(), float(rng.uniform(-0.3, 0.3))]
            shot = steady._shoot(domain, tensions, np.array(u[:2]), u[2])
            exact = np.array(steady_residual_mp(domain, tensions.angles, u[:2], u[2]),
                             dtype=float)
            assert np.abs(shot[0] - exact).max() < 1e-12  # the same three crossings
            J = steady._jacobian(domain, shot, True)
            assert np.array_equal(J[:, :2], steady._jacobian(domain, shot, False))
            want = jacobian_mp(lambda v: steady_residual_mp(domain, tensions.angles, v[:2],
                                                            v[2], dps=60), u)
            scale = bound or _DENTS_JAC_SCALE / np.linalg.norm(shot[5], axis=1).min() ** 3
            assert np.abs(J - want).max() <= scale * np.abs(want).max(), (domain.family, k)


def test_forward_difference_route_reaches_the_same_roots(monkeypatch, disk, ellipse, trefoil,
                                                         two_dents, unit_tensions):
    # newton with the forward difference (step 1e-7) that it formed before
    # its callers gave exact Jacobians: the same roots within 1e-10, for
    # two to three times the rays.
    exact = {}
    for route in ("exact", "forward"):
        hits = []
        hit = steady.boundary_hit
        with monkeypatch.context() as patch:
            patch.setattr(steady, "boundary_hit", lambda *a: hits.append(a) or hit(*a))
            if route == "forward":
                newton = steady.newton
                patch.setattr(steady, "newton", lambda residual, jacobian, u: newton(
                    residual, lambda v: forward_difference_jacobian(residual, v), u))
            for domain, p in ((disk, (0.05, 0.03)), (ellipse, (0.1, 0.0)),
                              (trefoil, (0.02, 0.01)), (two_dents, (0.03, 0.02))):
                hits.clear()
                net = find_stationary(domain, unit_tensions, SteadyGuess(p=p, gauge=0.0))
                if route == "exact":
                    exact[domain] = net.p_star, len(hits)
                else:
                    assert np.abs(net.p_star - exact[domain][0]).max() < 1e-10
                    assert len(hits) >= 2 * exact[domain][1], (domain.family, len(hits))


def test_fixture_solves_take_no_line_root_search(monkeypatch, disk, ellipse, trefoil,
                                                two_dents, unit_tensions):
    # A route pin by call counts: a conic's ray hit is closed form, and on
    # the trefoil and the two dents Newton from the scan's bracket meets
    # |psi| < 1e-13 on every hit of the fixtures' solves, so brentq, the
    # fallback, never runs.  Every start is off its root, so each solve
    # evaluates its three rays at least twice, which the spy must see.
    hits, searches = [], []
    hit, search = steady.boundary_hit, domains.brentq
    monkeypatch.setattr(steady, "boundary_hit", lambda *a: hits.append(a) or hit(*a))
    monkeypatch.setattr(domains, "brentq",
                        lambda *a, **kw: searches.append(a) or search(*a, **kw))
    for domain, p in ((disk, (0.05, 0.03)), (ellipse, (0.1, 0.0)),
                      (trefoil, (0.02, 0.01)), (two_dents, (0.03, 0.02))):
        hits.clear()
        find_stationary(domain, unit_tensions, SteadyGuess(p=p, gauge=0.0))
        assert len(hits) >= 6 and not searches, (domain.family, len(hits), len(searches))


def test_stall_reports_its_iteration(ellipse):
    # Unequal tensions leave no root on the gauge slice phi = 0 of the
    # ellipse; Gauss-Newton stalls at the least-squares residual and says
    # on which iteration, well before the cap.
    with pytest.raises(NoConvergence, match="stalled at residual") as info:
        find_stationary(ellipse, SurfaceTensions((1.0, 1.3, 0.8)),
                        SteadyGuess(p=(0.1, 0.0), gauge=0.0))
    assert info.value.stalled and 1 <= info.value.iterations < 20
    assert f"on iteration {info.value.iterations}" in str(info.value)
    assert info.value.residual > 1e-6


def test_line_search_trial_outside_the_domain_is_a_failed_trial(ellipse):
    # Draw 5 of the ungauged ellipse solves (tensions as in the benchmark's
    # random_tensions, default_rng(0)): a full Newton step moves the
    # junction out of the ellipse, where the residual raises NoIntersection
    # ("ray origin must lie inside the domain").  The line search halves
    # that step as it halves one that raises the residual norm.
    tensions = SurfaceTensions((0.7634834309038385, 1.7947683835248298, 1.3121918303736375))
    net = find_stationary(ellipse, tensions, SteadyGuess(p=(0.1, 0.0)))
    assert np.abs(net.p_star - (-0.02824, 0.32572)).max() < 1e-5
    assert max(network_residuals(net, ellipse, tensions).values()) <= 3.2e-12


def test_ellipse_solution_invariants(ellipse, ellipse_network, unit_tensions):
    res = network_residuals(ellipse_network, ellipse, unit_tensions)
    assert max(res.values()) < 1e-8
    resid = steady_residual(
        ellipse, unit_tensions,
        SteadyGuess(p=tuple(ellipse_network.p_star), phi=0.0),
    )
    assert np.abs(resid).max() < 1e-10


def test_ellipse_symmetric_residual_pattern(ellipse, unit_tensions):
    # guess on the symmetry axis: branch 1 stays perpendicular, branches 2/3
    # see mirror-image defects
    res = steady_residual(ellipse, unit_tensions, SteadyGuess(p=(0.05, 0.0), phi=0.0))
    assert abs(res[0]) < 1e-12
    assert abs(res[1] + res[2]) < 1e-12
    assert abs(res[1]) > 1e-4


def test_restart_from_solution_is_fixed_point(trefoil, trefoil_network, unit_tensions):
    again = find_stationary(
        trefoil, unit_tensions,
        SteadyGuess(p=tuple(trefoil_network.p_star), phi=0.0, gauge=0.0),
    )
    assert np.linalg.norm(again.p_star - trefoil_network.p_star) < 1e-12


@pytest.fixture(scope="module")
def short_stable_run(trefoil, trefoil_network, unit_tensions):
    n = 40
    dsig = float(trefoil_network.lengths.min()) / n
    cfg = EvolveConfig(dt=0.4 * dsig**2, t_end=0.15, n=n, output_every=60)
    spec = max_eigenvalue(trefoil_network, unit_tensions, n)
    init = initial_state(trefoil_network, trefoil, unit_tensions, cfg,
                         kind="eigenmode", amplitude=1e-3,
                         eigenfunction=spec.eigenfunction)
    return run(trefoil_network, trefoil, unit_tensions, init, cfg)


def test_h2_ratio_bounded_along_decay(trefoil, trefoil_network, unit_tensions,
                                      short_stable_run):
    ratios = h2_ratio_series(trefoil_network, trefoil, unit_tensions,
                             short_stable_run.states)
    assert ratios.size >= 3
    assert np.all(np.isfinite(ratios))
    # eigenmode data: the ratio is essentially constant in the linear regime
    assert ratios.max() / ratios.min() < 1.2
    assert h2_bound_check(trefoil_network, trefoil, unit_tensions,
                          short_stable_run.states) == pytest.approx(ratios.max())


def test_h2_ratio_stable_under_amplitude_halving(trefoil, trefoil_network,
                                                 unit_tensions):
    n = 40
    dsig = float(trefoil_network.lengths.min()) / n
    cfg = EvolveConfig(dt=0.4 * dsig**2, t_end=0.02, n=n, output_every=50)
    spec = max_eigenvalue(trefoil_network, unit_tensions, n)
    sups = []
    for amp in (2e-3, 1e-3):
        init = initial_state(trefoil_network, trefoil, unit_tensions, cfg,
                             kind="eigenmode", amplitude=amp,
                             eigenfunction=spec.eigenfunction)
        traj = run(trefoil_network, trefoil, unit_tensions, init, cfg)
        sups.append(h2_bound_check(trefoil_network, trefoil, unit_tensions,
                                   traj.states))
    assert abs(sups[0] - sups[1]) / sups[1] < 0.2
