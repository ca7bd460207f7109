import itertools

import numpy as np
import pytest

from trijunction.domains import PolynomialDomain
from trijunction.errors import MatrixMNotInvertible
from trijunction.parameterization import (
    BoundaryOperator,
    GraphState,
    StationaryNetwork,
    chart_geometry,
    coefficients,
    curve_from_graph,
    mu_boundary,
    network_residuals,
    psi_first_jet,
    rho_derivatives,
    state_from_rho,
    _junction_solve,
)
from trijunction.tensions import ROT90, SurfaceTensions, junction_matrix, young_angles

from oracles import (
    boundary_residuals_mp,
    boundary_residuals_reference,
    curvature_kappa,
    metric_J,
    psi_jet,
    psi_map,
    rho_derivatives_stencils,
)

from conftest import random_tensions


def geometric_curvature(points):
    """Arc-length FD curvature of a polyline, oracle for the chart formula."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    hl = s[1:-1] - s[:-2]
    hr = s[2:] - s[1:-1]

    def deriv(f):
        fl, fc, fr = f[:-2], f[1:-1], f[2:]
        d1 = (hl**2 * fr - hr**2 * fl + (hr**2 - hl**2) * fc) / (hl * hr * (hl + hr))
        d2 = 2.0 * (hl * fr + hr * fl - (hl + hr) * fc) / (hl * hr * (hl + hr))
        return d1, d2

    x1, x2 = deriv(points[:, 0])
    y1, y2 = deriv(points[:, 1])
    return (x1 * y2 - y1 * x2) / (x1**2 + y1**2) ** 1.5


def smooth_state(network, tensions, n, amp=0.02, seed=0):
    """Admissible random-ish state: low cosine modes, junction constraint
    absorbed into the constant mode so rho stays smooth along each branch."""
    rng = np.random.default_rng(seed)
    sigma = network.sigma_grid(n)
    rho = np.zeros((3, n + 1))
    for i in range(3):
        for k in range(3):
            rho[i] += rng.normal() * np.cos(k * np.pi * sigma[i] / network.lengths[i])
    rho *= amp / max(1.0, np.abs(rho).max())
    g = tensions.array
    rho -= (g * (g @ rho[:, 0]) / (g @ g))[:, None]
    return state_from_rho(network, tensions, rho)


# ---------------------------------------------------------------------------
# networks


def test_network_invariants(disk_network, disk, ellipse_network, ellipse,
                            trefoil_network, trefoil, unit_tensions):
    for net, dom in ((disk_network, disk), (ellipse_network, ellipse),
                     (trefoil_network, trefoil)):
        res = network_residuals(net, dom, unit_tensions)
        assert res["force_balance"] < 1e-10
        assert res["on_boundary"] < 1e-10
        assert res["perpendicular"] < 1e-8
        assert res["angles"] < 1e-10


# ---------------------------------------------------------------------------
# the offset exit abscissa


def test_mu_boundary_at_zero_is_length(disk_network, disk, trefoil_network, trefoil):
    for net, dom in ((disk_network, disk), (trefoil_network, trefoil)):
        for i in range(3):
            assert abs(mu_boundary(net, dom, i, 0.0) - net.lengths[i]) < 1e-12


def test_mu_boundary_disk_chord(disk, unit_tensions):
    # offsetting a radius by q meets the unit circle at sqrt(1 - q^2);
    # exact synthetic network so the solver tolerance does not intrude
    from trijunction.tensions import tangent_frames

    T, N = tangent_frames(young_angles(unit_tensions), 0.0)
    net = StationaryNetwork(np.zeros(2), T, N, np.ones(3), -np.ones(3), T.copy())
    val = mu_boundary(net, disk, 0, 0.1)
    assert abs(val - np.sqrt(1.0 - 0.01)) < 1e-14


def test_mu_boundary_second_derivative_is_wall_curvature(
        disk_network, disk, ellipse_network, ellipse, trefoil_network, trefoil):
    # symmetric second difference of mu_b tends to h_* (checked against the
    # disk closed form sqrt(R^2 - q^2), whose quadratic coefficient is -1/2R,
    # i.e. mu_b'' (0) = -1/R = h_*)
    q = 1e-3
    for net, dom in ((disk_network, disk), (ellipse_network, ellipse),
                     (trefoil_network, trefoil)):
        for i in range(3):
            fd2 = (
                mu_boundary(net, dom, i, q)
                + mu_boundary(net, dom, i, -q)
                - 2.0 * net.lengths[i]
            ) / q**2
            assert abs(fd2 - net.h_star[i]) < 1e-3


def test_mu_terms_derivatives_match_fd(trefoil_network, trefoil):
    net, dom = trefoil_network, trefoil
    eps = 1e-5
    for i in range(3):
        for q0 in (0.0, 0.04, -0.07):
            mu_b, dmu, ddmu = (v[0, 0] for v in dom.offset_exit(
                net.p_star, net.tangents[[i]], net.normals[[i]], np.full((1, 1), q0),
                net.lengths[i]))
            f = lambda q: mu_boundary(net, dom, i, q)
            fd1 = (f(q0 + eps) - f(q0 - eps)) / (2 * eps)
            fd2 = (f(q0 + eps) - 2 * f(q0) + f(q0 - eps)) / eps**2
            assert abs(fd1 - float(dmu)) < 1e-8
            assert abs(fd2 - float(ddmu)) < 1e-4


# ---------------------------------------------------------------------------
# chart jets


def test_reference_identities_all_branches(disk_network, disk, ellipse_network,
                                           ellipse, trefoil_network, trefoil):
    # at (q, mu) = (0, 0): Psi_sigma = T, Psi_q = N, Psi_mu = (1 - s/l) T,
    # Psi_ss = 0, Psi_sq = 0, Psi_smu = -T/l, and the third-order traces
    # Psi_ssq = Psi_ssmu = 0 follow since Psi_ss vanishes identically here
    for net, dom in ((disk_network, disk), (ellipse_network, ellipse),
                     (trefoil_network, trefoil)):
        for i in range(3):
            s = np.linspace(0.0, net.lengths[i], 9)
            z = np.zeros_like(s)
            jet = psi_jet(net, dom, i, s, z, z)
            T, N, l = net.tangents[i], net.normals[i], net.lengths[i]
            assert np.abs(jet.psi - (net.p_star + s[:, None] * T)).max() < 1e-12
            assert np.abs(jet.d_sigma - T).max() < 1e-12
            assert np.abs(jet.d_q - N).max() < 1e-10
            assert np.abs(jet.d_mu - (1.0 - s / l)[:, None] * T).max() < 1e-12
            assert np.abs(jet.d_sigma_sigma).max() == 0.0
            assert np.abs(jet.d_sigma_q).max() < 1e-10
            assert np.abs(jet.d_sigma_mu + T / l).max() < 1e-12


def test_jet_matches_finite_differences_off_reference(trefoil_network, trefoil):
    net, dom = trefoil_network, trefoil
    h = 1e-5
    i, s0, q0, m0 = 1, 0.31, 0.05, 0.02
    jet = psi_jet(net, dom, i, s0, q0, m0)

    def fd_c(f, x):
        return (f(x + h) - f(x - h)) / (2 * h)

    assert np.abs(fd_c(lambda s: psi_map(net, dom, i, s, q0, m0), s0) - jet.d_sigma).max() < 1e-8
    assert np.abs(fd_c(lambda q: psi_map(net, dom, i, s0, q, m0), q0) - jet.d_q).max() < 1e-8
    assert np.abs(fd_c(lambda m: psi_map(net, dom, i, s0, q0, m), m0) - jet.d_mu).max() < 1e-8
    assert np.abs(
        fd_c(lambda q: psi_jet(net, dom, i, s0, q, m0).d_sigma, q0) - jet.d_sigma_q
    ).max() < 1e-8
    assert np.abs(
        fd_c(lambda q: psi_jet(net, dom, i, s0, q, m0).d_q, q0) - jet.d_qq
    ).max() < 1e-6
    assert np.abs(
        fd_c(lambda m: psi_jet(net, dom, i, s0, q0, m).d_sigma, m0) - jet.d_sigma_mu
    ).max() < 1e-8


# ---------------------------------------------------------------------------
# curve reconstruction


def test_zero_state_reproduces_segments(disk_network, disk):
    n = 16
    state = GraphState(np.zeros((3, n + 1)), np.zeros(3))
    curves = curve_from_graph(disk_network, disk, state)
    sigma = disk_network.sigma_grid(n)
    for i in range(3):
        expected = disk_network.p_star + sigma[i][:, None] * disk_network.tangents[i]
        assert np.abs(curves[i] - expected).max() < 1e-12


def test_curves_share_junction_and_end_on_wall(trefoil_network, trefoil, unit_tensions):
    state = smooth_state(trefoil_network, unit_tensions, 24, amp=0.03, seed=3)
    curves = curve_from_graph(trefoil_network, trefoil, state)
    assert np.abs(curves[0, 0] - curves[1, 0]).max() < 1e-9
    assert np.abs(curves[0, 0] - curves[2, 0]).max() < 1e-9
    assert np.abs(trefoil.psi(curves[:, -1])).max() < 1e-9


@pytest.mark.parametrize("n", [24, 48, 200])
def test_first_jet_routes_match_vector_oracle_bitwise(n, disk, disk_network, ellipse,
                                                      ellipse_network, trefoil,
                                                      trefoil_network, two_dents,
                                                      two_dents_network, unit_tensions):
    # curve_from_graph and the junction-end jet of junction_kinematics read
    # psi_first_jet; the oracle's vector jet must give the same bits
    for net, dom in ((disk_network, disk), (ellipse_network, ellipse),
                     (trefoil_network, trefoil), (two_dents_network, two_dents)):
        state = smooth_state(net, unit_tensions, n, amp=0.03, seed=7)
        sigma = net.sigma_grid(n)
        oracle = psi_jet(net, dom, np.arange(3), sigma, state.rho, state.mu[:, None])
        assert np.array_equal(curve_from_graph(net, dom, state), oracle.psi)

        ends = (net, dom, np.arange(3), np.zeros((3, 1)), state.rho[:, :1], state.mu[:, None])
        _, d_sigma, d_q = psi_first_jet(*ends)
        oracle = psi_jet(*ends)
        assert np.array_equal(d_sigma, oracle.d_sigma)
        assert np.array_equal(d_q, oracle.d_q)


# ---------------------------------------------------------------------------
# metric and curvature


def test_metric_reference_values(disk_network, disk):
    assert abs(metric_J(disk_network, disk, 0, 0.0, 0.0, 0.0, 0.5) - 1.0) < 1e-14
    eps = 1e-6
    dJ = (metric_J(disk_network, disk, 0, 0.0, 0.0, eps, 0.5) - 1.0) / eps
    assert abs(dJ + 1.0 / disk_network.lengths[0]) < 1e-5


def test_flat_wall_reduces_to_cartesian_graph():
    # lower half-plane: the chart is exactly y = rho(x) over the segment
    hp = PolynomialDomain([(0, 1, 1.0)])
    T = np.array([[0.0, 1.0], [-np.sqrt(3) / 2, -0.5], [np.sqrt(3) / 2, -0.5]])
    net = StationaryNetwork(np.array([0.0, -1.0]), T, T @ ROT90.T,
                            np.ones(3), np.zeros(3), None)
    rs, rss = 0.37, -0.8
    J = metric_J(net, hp, 0, 0.2, rs, 0.0, 0.4)
    assert abs(J - np.sqrt(1 + rs**2)) < 1e-14
    kap = curvature_kappa(net, hp, 0, 0.2, rs, rss, 0.0, 0.4)
    assert abs(kap - rss / (1 + rs**2) ** 1.5) < 1e-14


def test_zero_state_curvature_vanishes(trefoil_network, trefoil):
    for i in range(3):
        k = curvature_kappa(trefoil_network, trefoil, i, 0.0, 0.0, 0.0, 0.0, 0.3)
        assert abs(k) < 1e-14


def kappa_fd_error(network, domain, tensions, n, seed=0):
    state = smooth_state(network, tensions, n, amp=0.05, seed=seed)
    sigma = network.sigma_grid(n)
    rs, rss = rho_derivatives(state.rho, network.lengths)
    curves = curve_from_graph(network, domain, state)
    err = 0.0
    for i in range(3):
        kap = curvature_kappa(network, domain, i, state.rho[i], rs[i], rss[i],
                              state.mu[i], sigma[i])
        kap_geo = geometric_curvature(curves[i])
        err = max(err, np.abs(kap[1:-1] - kap_geo).max())
    return err


def test_curvature_matches_geometric_fd_with_second_order(trefoil_network, trefoil,
                                                          unit_tensions):
    errs = [kappa_fd_error(trefoil_network, trefoil, unit_tensions, n, seed=5)
            for n in (32, 64, 128)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.9


# ---------------------------------------------------------------------------
# coefficients and boundary operators


def test_coefficients_reference_values(disk_network, disk, unit_tensions):
    n = 12
    state = GraphState(np.zeros((3, n + 1)), np.zeros(3))
    coef = coefficients(disk_network, disk, unit_tensions, state)
    assert np.abs(coef.Lam).max() < 1e-12
    assert abs(coef.det_M - 1.0) < 1e-12
    assert np.abs(coef.a - 1.0).max() < 1e-12
    assert np.abs(coef.kappa).max() < 1e-12


def test_curvature_routes_agree(trefoil_network, trefoil, unit_tensions):
    state = smooth_state(trefoil_network, unit_tensions, 20, amp=0.03, seed=11)
    sigma = trefoil_network.sigma_grid(20)
    rs, rss = rho_derivatives(state.rho, trefoil_network.lengths)
    coef = coefficients(trefoil_network, trefoil, unit_tensions, state)
    for i in range(3):
        kap = curvature_kappa(trefoil_network, trefoil, i, state.rho[i], rs[i],
                              rss[i], state.mu[i], sigma[i])
        J = metric_J(trefoil_network, trefoil, i, state.rho[i], rs[i],
                     state.mu[i], sigma[i])
        assert np.abs(kap - coef.kappa[i]).max() < 1e-12
        assert np.abs(J - coef.J[i]).max() < 1e-12


def test_matrix_m_floor_raises(disk_network, disk, unit_tensions):
    # a steep common negative slope at the junction drives det M below 0.5
    n = 24
    sigma = disk_network.sigma_grid(n)
    l = disk_network.lengths[:, None]
    rho = -2.0 * sigma * (1.0 - sigma / l) ** 2
    state = state_from_rho(disk_network, unit_tensions, rho)
    with pytest.raises(MatrixMNotInvertible):
        coefficients(disk_network, disk, unit_tensions, state)


def bc_residuals(network, domain, angles, rho, r0, w, mu):
    """[g12, g13, outer_1, outer_2, outer_3] of the BoundaryOperator, the
    route the boundary sweep runs, at boundary values (r0, w) of rho."""
    n = rho.shape[1] - 1
    op = BoundaryOperator(network, domain.network_exits(network, n), angles, n)
    return np.array(op(op.nodes(rho), *(np.asarray(v, dtype=float).tolist()
                                        for v in (r0, w, mu))))


def state_bc_residuals(network, domain, tensions, state):
    """bc_residuals at the boundary values a state already holds."""
    return bc_residuals(network, domain, young_angles(tensions), state.rho,
                        state.rho[:, 0], state.rho[:, -1], state.mu)


def test_junction_angle_residuals_zero_state(disk_network, disk, unit_tensions):
    n = 12
    state = GraphState(np.zeros((3, n + 1)), np.zeros(3))
    g12, g13 = state_bc_residuals(disk_network, disk, unit_tensions, state)[:2]
    assert abs(g12) < 1e-14 and abs(g13) < 1e-14


def test_junction_angle_residual_linearization(trefoil_network, trefoil, unit_tensions):
    # d g12 = (rho1_s - rho2_s) sin(theta3), d g13 = (rho3_s - rho1_s) sin(theta2)
    net, dom = trefoil_network, trefoil
    angles = young_angles(unit_tensions)
    n = 32
    sigma = net.sigma_grid(n)
    rng = np.random.default_rng(8)
    slopes = rng.normal(size=3)
    rho_unit = slopes[:, None] * sigma * (1.0 - sigma / net.lengths[:, None]) ** 2
    rho_unit[:, 0] = 0.0  # junction values stay zero: pure slope perturbation
    eps = 1e-6
    state = state_from_rho(net, unit_tensions, eps * rho_unit)
    g12, g13 = state_bc_residuals(net, dom, unit_tensions, state)[:2]
    rs, _ = rho_derivatives(rho_unit, net.lengths)
    expected12 = (rs[0, 0] - rs[1, 0]) * angles.sin[2]
    expected13 = (rs[2, 0] - rs[0, 0]) * angles.sin[1]
    assert abs(g12 / eps - expected12) < 1e-4
    assert abs(g13 / eps - expected13) < 1e-4


def test_outer_bc_residual_zero_state(trefoil_network, trefoil, unit_tensions):
    n = 12
    state = GraphState(np.zeros((3, n + 1)), np.zeros(3))
    outer = state_bc_residuals(trefoil_network, trefoil, unit_tensions, state)[2:]
    assert np.abs(outer).max() < 1e-12


def test_outer_bc_residual_linearization(disk_network, disk, ellipse_network,
                                         ellipse, unit_tensions):
    # linearization rho_sigma + h_* rho at sigma = l; pure end-value bumps on
    # the disk give residual h_* * eps = -eps
    for net, dom in ((disk_network, disk), (ellipse_network, ellipse)):
        n = 64
        sigma = net.sigma_grid(n)
        for i in range(3):
            eps = 1e-6
            rho = np.zeros((3, n + 1))
            rho[i] = eps * (sigma[i] / net.lengths[i]) ** 4  # rho(l)=eps, slope 4eps/l
            state = state_from_rho(net, unit_tensions, rho)
            res = state_bc_residuals(net, dom, unit_tensions, state)[2 + i]
            rs, _ = rho_derivatives(rho, net.lengths)
            expected = rs[i, -1] + net.h_star[i] * eps
            assert abs(res - expected) < 1e-9


def test_boundary_residuals_match_reference_route(trefoil_network, trefoil,
                                                  two_dents_network, two_dents,
                                                  ellipse_network, ellipse,
                                                  disk_network, disk, unit_tensions):
    # The stepper's float route and the per-branch psi_jet route of
    # tests/oracles.py, each against the 40-digit reference at perturbed
    # boundary values, on both exit routes (line polynomial, closed-form
    # conic); unequal tensions make the two Young angles in g12 and g13
    # differ.  The bounds are about twice the largest error of either route
    # over 1600 draws (200 seeds of this draw, state seeds 0-199): 3.9e-16
    # on the conics, and 1.08e-13 on the polynomials, whose exits stop once
    # |psi| < 1e-13.
    rng = np.random.default_rng(21)
    for tensions in (unit_tensions, SurfaceTensions((1.0, 1.3, 0.8))):
        angles = young_angles(tensions)
        q = junction_matrix(angles)
        for net, dom, bound in ((trefoil_network, trefoil, 2e-13),
                                (two_dents_network, two_dents, 2e-13),
                                (ellipse_network, ellipse, 1e-15), (disk_network, disk, 1e-15)):
            state = smooth_state(net, unit_tensions, 40, amp=0.03, seed=4)
            r0 = state.rho[:, 0] + 1e-3 * rng.normal(size=3)
            w = state.rho[:, -1] + 1e-3 * rng.normal(size=3)
            args = (net, dom, angles, state.rho, r0, w, q @ r0)
            exact = np.array(boundary_residuals_mp(*args), dtype=float)
            F = bc_residuals(*args)
            assert np.abs(F[:2]).max() > 1e-3  # off the junction conditions
            assert np.abs(F - exact).max() <= bound
            assert np.abs(boundary_residuals_reference(*args) - exact).max() <= bound


def test_exit_jet_gives_the_wall_normal(disk_network, disk, ellipse_network, ellipse,
                                        trefoil_network, trefoil, two_dents_network,
                                        two_dents, unit_tensions):
    # psi(p_* + mu_b T + q N) = 0 differentiated in q gives
    # grad psi = (grad psi, T) (T - mu_b' N) with (grad psi, T) > 0 at an
    # outward crossing, so the boundary sweep reads its wall normals from the
    # exit jet.  At every exit of perturbed charts, T - mu_b' N points along
    # domain.grad to within 1e-14 rad, on both exit routes.
    for net, dom in ((disk_network, disk), (ellipse_network, ellipse),
                     (trefoil_network, trefoil), (two_dents_network, two_dents)):
        for seed, amp in enumerate((1e-3, 1e-2, 5e-2)):
            state = smooth_state(net, unit_tensions, 32, amp=amp, seed=seed)
            geo = chart_geometry(net, dom, state)
            T, N = net.tangents[:, None, :], net.normals[:, None, :]
            wall = net.p_star + geo.mu_b[..., None] * T + state.rho[..., None] * N
            g = dom.grad(wall)
            v = T - geo.dmu_b[..., None] * N
            angle = np.arctan2(v[..., 0] * g[..., 1] - v[..., 1] * g[..., 0],
                               np.sum(v * g, axis=-1))
            assert np.abs(angle).max() <= 1e-14, (dom.family, amp, np.abs(angle).max())


def test_state_from_rho_projects_constraint(unit_tensions, trefoil_network):
    rng = np.random.default_rng(0)
    rho = rng.normal(size=(3, 9))
    state = state_from_rho(trefoil_network, unit_tensions, rho)
    g = unit_tensions.array
    assert abs(g @ state.rho[:, 0]) < 1e-12
    q = junction_matrix(young_angles(unit_tensions))
    assert np.abs(state.mu - q @ state.rho[:, 0]).max() < 1e-12


@pytest.mark.parametrize("n", [4, 8, 48, 200])
def test_derivatives_from_one_difference_array_match_the_node_stencils(n):
    # rho_derivatives reads every stencil off D = diff(rho); the same
    # stencils on the nodes themselves round differently.  Over these 100
    # draws per n (unstacked and stacked, 400 in all) the differences read
    # at most 6.3 eps max|rho| / dsigma for rho_sigma and 14.5 eps max|rho| /
    # dsigma^2 for rho_sigmasigma, per branch; the bounds are about twice
    # that.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(27)
    for shape in [(3, n + 1), (5, 3, n + 1)]:
        for _ in range(50):
            rho = rng.normal(size=shape) * rng.uniform(1e-3, 1)
            lengths = rng.uniform(0.2, 3, 3)
            d = (lengths / n)[:, None]
            scale = eps * np.abs(rho).max(axis=-1, keepdims=True)
            rs, rss = rho_derivatives(rho, lengths)
            want_rs, want_rss = rho_derivatives_stencils(rho, lengths)
            assert np.all(np.abs(rs - want_rs) * d <= 12 * scale)
            assert np.all(np.abs(rss - want_rss) * d**2 <= 32 * scale)
            first, _ = rho_derivatives(rho, lengths, second=False)
            assert first.tobytes() == rs.tobytes()


def test_junction_solve_in_floats_matches_numpy_linalg():
    # det M and mu_t = Q M^-1 v for M = Id - diag(Lam(0)) Q, solved in
    # Python floats, against np.linalg.det and inv.  Errors are in units of
    # eps times the size of the terms they sum: the permanent of |M| for
    # det M, |Q| |M^-1| |v| for mu_t.  Over these 2000 draws (random
    # admissible tensions, Lam(0) uniform in [-0.5, 0.5], v normal; draws
    # with det M at or below the floor are checked to raise) they read at
    # most 2.3 and 2.6; the bounds are about twice that.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(27)
    solved = 0
    while solved < 2000:
        tensions = random_tensions(rng)
        Q, lam, v = tensions.q, rng.uniform(-0.5, 0.5, 3), rng.normal(size=3)
        M = np.eye(3) - lam[:, None] * Q
        want_det = np.linalg.det(M)
        if want_det <= 0.5:
            with pytest.raises(MatrixMNotInvertible):
                _junction_solve(Q.tolist(), lam.tolist(), v.tolist())
            continue
        det, mu_t = _junction_solve(Q.tolist(), lam.tolist(), v.tolist())
        inv = np.linalg.inv(M)
        permanent = sum(np.prod(np.abs(M[[0, 1, 2], list(p)]))
                        for p in itertools.permutations(range(3)))
        assert abs(det - want_det) <= 5 * eps * permanent
        terms = np.abs(Q) @ (np.abs(inv) @ np.abs(v))
        assert np.all(np.abs(np.array(mu_t) - Q @ (inv @ v)) <= 5 * eps * terms)
        solved += 1
