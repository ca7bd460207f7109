"""End-to-end acceptance suite with quantitative targets.

Each test prints one PASS/FAIL line (repeated in the terminal summary) and
asserts its stated tolerance.  Heavy trajectories are computed once per
session and shared.

The unit disk fork is linearly unstable.  Translating its junction by p and
keeping the three rays straight changes the total length to
3 - (3/4)|p|^2 + O(|p|^4), so the symmetric fork is a saddle of the energy.
The wall term enters with h = mu_b''(0) = -1/R, and the dynamics grow along
the translation modes at 2 lambda_max > 0.  The disk targets (3 wall sign,
6 rate, 6 bound, 6 H2 decay) therefore assert h = -1 and the growth that
the spectrum predicts.  The decay-side claims of the paper are checked on a
stable dented domain by the S ... twins at the end of this module.
"""

import time

import numpy as np
import pytest

from trijunction.diagnostics import decay_fit, energy_law_residual
from trijunction.evolution import (
    EvolveConfig,
    initial_state,
    junction_kinematics,
    run,
)
from trijunction.parameterization import (
    GraphState,
    chart_geometry,
    coefficients,
    curve_from_graph,
    network_residuals,
    psi_first_jet,
)
from trijunction.stability import max_eigenvalue, stability_criterion
from trijunction.steady import SteadyGuess, find_stationary, h2_ratio_series, steady_residual
from trijunction.tensions import (
    SurfaceTensions,
    junction_matrix,
    stick_residual,
    young_angles,
)

from conftest import record_acceptance, random_tensions, synthetic_network
from oracles import shooting_lambda_max
from test_parameterization import geometric_curvature, smooth_state


# ---------------------------------------------------------------------------
# shared heavy trajectories


@pytest.fixture(scope="session")
def disk_spec200(disk_network, unit_tensions):
    return max_eigenvalue(disk_network, unit_tensions, 200)


def _disk_run(disk, disk_network, unit_tensions, n, eigenfunction):
    dt = 0.45 / n**2  # lengths are 1, so dsigma = 1/n
    cfg = EvolveConfig(dt=dt, t_end=0.6, n=n, output_every=100)
    init = initial_state(disk_network, disk, unit_tensions, cfg,
                         kind="eigenmode", amplitude=1e-2,
                         eigenfunction=eigenfunction)
    t0 = time.perf_counter()
    traj = run(disk_network, disk, unit_tensions, init, cfg)
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="session")
def disk_run_n100(disk, disk_network, unit_tensions):
    spec = max_eigenvalue(disk_network, unit_tensions, 100)
    return _disk_run(disk, disk_network, unit_tensions, 100, spec.eigenfunction)


@pytest.fixture(scope="session")
def disk_run_n200(disk, disk_network, unit_tensions, disk_spec200):
    return _disk_run(disk, disk_network, unit_tensions, 200,
                     disk_spec200.eigenfunction)


@pytest.fixture(scope="session")
def unstable_run(two_dents, two_dents_network, unit_tensions):
    n = 48
    spec = max_eigenvalue(two_dents_network, unit_tensions, n)
    dsig = float(two_dents_network.lengths.min()) / n
    cfg = EvolveConfig(dt=0.45 * dsig**2, t_end=10.0, n=n, output_every=100,
                       amplitude_cap=0.05)
    init = initial_state(two_dents_network, two_dents, unit_tensions, cfg,
                         kind="eigenmode", amplitude=2e-3,
                         eigenfunction=spec.eigenfunction)
    traj = run(two_dents_network, two_dents, unit_tensions, init, cfg)
    return traj, spec


@pytest.fixture(scope="session")
def stable_run(trefoil, trefoil_network, unit_tensions):
    n = 48
    spec = max_eigenvalue(trefoil_network, unit_tensions, n)
    dsig = float(trefoil_network.lengths.min()) / n
    cfg = EvolveConfig(dt=0.45 * dsig**2, t_end=2.0, n=n, output_every=100)
    init = initial_state(trefoil_network, trefoil, unit_tensions, cfg,
                         kind="eigenmode", amplitude=1e-2,
                         eigenfunction=spec.eigenfunction)
    traj = run(trefoil_network, trefoil, unit_tensions, init, cfg)
    return traj, spec


# ---------------------------------------------------------------------------
# 1: junction algebra


def test_acceptance_1_junction_algebra():
    t0 = time.perf_counter()
    angles = young_angles(SurfaceTensions((1.0, 1.0, 1.0)))
    sym_err = np.abs(np.asarray(angles.theta) - 2.0 * np.pi / 3.0).max()

    rng = np.random.default_rng(42)
    sine_worst = sum_worst = stick_worst = 0.0
    for _ in range(100):
        t = random_tensions(rng)
        a = young_angles(t)
        ratios = a.sin / t.array
        sine_worst = max(sine_worst, (ratios.max() - ratios.min()) / ratios.max())
        sum_worst = max(sum_worst, abs(sum(a.theta) - 2.0 * np.pi))
        q = junction_matrix(a)
        g = t.array
        rho0 = rng.normal(size=3)
        rho0 -= g * (g @ rho0) / (g @ g)
        stick_worst = max(stick_worst, stick_residual(a, rho0, q @ rho0))
    elapsed = time.perf_counter() - t0
    ok = (sym_err < 1e-12 and sine_worst < 1e-12 and sum_worst < 1e-12
          and stick_worst < 1e-10 and elapsed < 1.0)
    record_acceptance(
        "1 algebra", ok,
        f"sym {sym_err:.1e}, sine {sine_worst:.1e}, sum {sum_worst:.1e}, "
        f"stick {stick_worst:.1e}, {elapsed:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2: parameterization kernel


def test_acceptance_2_chart_kernel(disk, disk_network, ellipse, ellipse_network,
                                   trefoil, trefoil_network, unit_tensions):
    # the chart as the package evaluates it: the first-order jet of the
    # boundary sweep and the curve reconstruction, the exit jet that feeds
    # chart_geometry, and chart_geometry's curvature
    t0 = time.perf_counter()
    h = 1e-5

    def fd(f, x):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    jet_worst = 0.0
    for net, dom in ((disk_network, disk), (ellipse_network, ellipse),
                     (trefoil_network, trefoil)):
        T, N = net.tangents[:, None], net.normals[:, None]
        s = np.array([np.linspace(0.05, l * 0.95, 5) for l in net.lengths])
        checks = []
        for q0, m0 in ((0.0, 0.0), (0.02, 0.01)):
            q, m = np.full((3, 5), q0), np.full((3, 5), m0)
            _, d_sigma, d_q = psi_first_jet(net, dom, s, q, m)
            if q0 == 0.0:  # on the reference fork
                checks += [d_sigma - T, d_q - N]
            checks += [
                fd(lambda x: psi_first_jet(net, dom, x, q, m)[0], s) - d_sigma,
                fd(lambda x: psi_first_jet(net, dom, s, x, m)[0], q) - d_q,
            ]

        def exit_jet(q):
            return dom.network_exits(net, 0).chart(np.full((3, 1), q))

        for q0 in (0.0, 0.02):
            _, dmu, ddmu = exit_jet(q0)
            checks += [fd(lambda x: exit_jet(x)[0], q0) - dmu,
                       fd(lambda x: exit_jet(x)[1], q0) - ddmu]
        jet_worst = max(jet_worst, max(np.abs(c).max() for c in checks))

    errs = []
    for n in (32, 64, 128):
        state = smooth_state(trefoil_network, unit_tensions, n, amp=0.05, seed=5)
        kap = chart_geometry(trefoil_network, trefoil, state).kappa
        curves = curve_from_graph(trefoil_network, trefoil, state)
        errs.append(max(np.abs(kap[i, 1:-1] - geometric_curvature(curves[i])).max()
                        for i in range(3)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))

    zero = GraphState(np.zeros((3, 13)), np.zeros(3))
    coef = coefficients(disk_network, disk, unit_tensions, zero)
    det_err = abs(coef.det_M - 1.0)
    lam_err = np.abs(coef.Lam).max()
    elapsed = time.perf_counter() - t0
    ok = (jet_worst < 1e-8 and orders.min() >= 1.9 and det_err < 1e-12
          and lam_err < 1e-12 and elapsed < 5.0)
    record_acceptance(
        "2 chart", ok,
        f"jets {jet_worst:.1e}, curvature order {orders.min():.2f}, "
        f"detM-1 {det_err:.1e}, Lam(0) {lam_err:.1e}, {elapsed:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3: stationary solver


def test_acceptance_3_steady_geometry(disk, ellipse, unit_tensions):
    t0 = time.perf_counter()
    net = find_stationary(disk, unit_tensions, SteadyGuess(p=(0.05, 0.03), gauge=0.0))
    p_err = float(np.linalg.norm(net.p_star))
    l_err = float(np.abs(net.lengths - 1.0).max())
    ell = find_stationary(ellipse, unit_tensions, SteadyGuess(p=(0.1, 0.0), gauge=0.0))
    ell_res = float(np.abs(steady_residual(
        ellipse, unit_tensions, SteadyGuess(p=tuple(ell.p_star), phi=0.0))).max())
    ell_inv = max(network_residuals(ell, ellipse, unit_tensions).values())
    elapsed = time.perf_counter() - t0
    ok = (p_err < 1e-10 and l_err < 1e-10 and ell_res < 1e-10
          and ell_inv < 1e-8 and elapsed < 1.0)
    record_acceptance(
        "3 steady", ok,
        f"|p| {p_err:.1e}, |l-1| {l_err:.1e}, ellipse res {ell_res:.1e}, "
        f"invariants {ell_inv:.1e}, {elapsed:.2f}s",
    )
    assert ok


def test_acceptance_3_disk_wall_sign(disk, disk_network):
    # h is the second derivative of the branch-length response: a branch of
    # the disk fork runs along a diameter, so sliding its wall contact
    # sideways by q leaves mu_b(q) = sqrt(R^2 - q^2) and h = mu_b''(0) = -1/R.
    # The same sign shows in the energy: translating the junction by d with
    # straight rays changes branch i to mu_b(d.N_i) - d.T_i, so the total
    # length is 3R + (h/2) sum_i (d.N_i)^2 = 3R - (3/4)|d|^2 / R + O(|d|^4),
    # below 3R.  The fork is a saddle, whatever sign convention is chosen.
    R = disk.radius
    h_err = float(np.abs(disk_network.h_star - (-1.0 / R)).max())

    d = np.array([0.1, 0.0])
    rel = disk_network.p_star + d - disk.center
    b = disk_network.tangents @ rel
    shifted = float(np.sum(-b + np.sqrt(b * b - rel @ rel + R**2)))
    reference = float(disk_network.lengths.sum())
    expansion_err = abs(shifted - (reference - 0.75 * (d @ d) / R))
    ok = h_err < 1e-8 and shifted < reference and expansion_err < (d @ d) ** 2
    record_acceptance(
        "3 wall sign", ok,
        f"h = {disk_network.h_star[0]:+.6f} vs -1/R (|diff| {h_err:.1e}), "
        f"translated length {shifted:.6f} vs {reference:.6f} "
        f"(vs expansion {expansion_err:.1e})",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4: spectrum against oracle and criterion


def test_acceptance_4_spectrum_vs_criterion(disk_network, unit_tensions):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    checked = mismatches = skipped = 0
    while checked + skipped < 50:
        t = random_tensions(rng)
        l = rng.uniform(0.5, 2.0, 3)
        h = rng.uniform(-0.8, 2.0, 3)
        if np.sum(h <= 0) > 1:
            k = rng.integers(0, 3)
            h = np.abs(h)
            h[k] = rng.uniform(-0.8, 0.0)
        net = synthetic_network(l, h, t)
        lam = max_eigenvalue(net, t, 400).lambda_max
        if abs(lam) < 1e-4:
            skipped += 1
            continue
        verdict = stability_criterion(l, h, t).verdict
        if verdict == "Marginal":
            skipped += 1
            continue
        if (lam < 0) != (verdict == "Stable"):
            mismatches += 1
        checked += 1

    sym = synthetic_network((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), unit_tensions)
    lam_sym = max_eigenvalue(sym, unit_tensions, 400).lambda_max
    oracle_sym = shooting_lambda_max(sym.lengths, sym.h_star, unit_tensions.array)
    lam_disk = max_eigenvalue(disk_network, unit_tensions, 800).lambda_max
    oracle_disk = shooting_lambda_max(disk_network.lengths, disk_network.h_star,
                                      unit_tensions.array)
    flat = synthetic_network((1.0, 1.3, 0.7), (0.0, 0.0, 0.0), unit_tensions)
    lam_flat = max_eigenvalue(flat, unit_tensions, 400).lambda_max
    elapsed = time.perf_counter() - t0
    ok = (mismatches == 0 and checked >= 40
          and abs(lam_sym - oracle_sym) < 1e-6
          and abs(lam_disk - oracle_disk) < 1e-6
          and abs(lam_flat) < 1e-8 and elapsed < 30.0)
    record_acceptance(
        "4 spectrum", ok,
        f"{checked} configs, {mismatches} sign mismatches, "
        f"oracle diffs {abs(lam_sym - oracle_sym):.1e}/{abs(lam_disk - oracle_disk):.1e}, "
        f"h=0 lam {lam_flat:.1e}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5: energy dissipation law


def test_acceptance_5_energy_law(disk_run_n100, disk_run_n200):
    (run100, t100), (run200, t200) = disk_run_n100, disk_run_n200
    res_max = {}
    for label, traj in (("c", run100), ("f", run200)):
        tt, res = energy_law_residual(traj.records)
        keep = tt > 0.1 * traj.records[-1].t
        res_max[label] = float(res[keep].max())
    factor = res_max["c"] / res_max["f"]
    mono = []
    for traj in (run100, run200):
        E = np.array([r.E for r in traj.records])
        mono.append(float(np.diff(E).max()))
    elapsed = t100 + t200
    ok = factor >= 3.0 and max(mono) <= 1e-12 and elapsed < 60.0
    record_acceptance(
        "5 energy law", ok,
        f"residual drop x{factor:.2f}, max dE {max(mono):.2e}, "
        f"runs {t100:.1f}s + {t200:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6: evolution rate against the spectrum, and the decay-side claims


def test_acceptance_6_disk_rate_matches_spectrum(disk_run_n200, disk_spec200):
    traj, t200 = disk_run_n200
    k2 = np.array([r.kappa_l2_sq for r in traj.records])
    rate, _, r2 = decay_fit(traj.times, k2, window=0.5)
    target = 2.0 * disk_spec200.lambda_max
    rel = abs(rate - target) / abs(target)
    ok = rel < 0.10 and t200 < 120.0
    record_acceptance(
        "6 rate", ok,
        f"fitted {rate:+.4f} vs 2*lambda {target:+.4f} (rel {rel:.2%}, "
        f"r2 {r2:.6f}), run {t200:.1f}s",
    )
    assert ok


def test_acceptance_6_disk_weak_decay_bound(disk_run_n200, disk_spec200):
    # The weak bound exp(lambda t / 2) is a decay statement and needs
    # lambda < 0; it is checked on the stable trefoil (S bound).  For either
    # sign the spectrum bounds the linearized flow by the envelope
    # ||kappa(t)||^2 <= ||kappa(0)||^2 exp(2 lambda t), checked here at every
    # record.  The nonlinear terms are quadratic in the displacement, so
    # they change ||kappa||^2 relative to the linearized flow by a factor
    # 1 + O(|rho|); the allowance is that factor with unit constant at the
    # largest |rho| of the run.
    traj, _ = disk_run_n200
    lam = disk_spec200.lambda_max
    k2 = np.array([r.kappa_l2_sq for r in traj.records])
    envelope = k2[0] * np.exp(2.0 * lam * traj.times)
    rho_max = max(float(np.abs(s.rho).max()) for s in traj.states)
    margin = float((k2 / envelope).max())
    ok = margin <= 1.0 + rho_max
    record_acceptance(
        "6 bound", ok,
        f"max ||kappa||^2 / envelope = {margin:.4f}, allowance 1 + max|rho| = "
        f"{1.0 + rho_max:.4f} (lambda = {lam:+.4f})",
    )
    assert ok


def test_acceptance_6_disk_h2_norm_decays(disk_run_n200, disk_spec200):
    # the H2 curvature norm follows the spectrum as ||kappa||^2 does in
    # 6 rate: its fitted exponent has the sign of lambda_max and lies within
    # 10% of 2 lambda_max.  On the disk that exponent is a growth rate; the
    # decaying case is S H2 decay on the stable trefoil.
    traj, _ = disk_run_n200
    h2 = np.array([
        (np.sqrt(r.kappa_l2_sq) + np.sqrt(r.kappa_ss_l2_sq)) ** 2
        for r in traj.records
    ])
    rate, _, _ = decay_fit(traj.times, h2, window=0.5)
    target = 2.0 * disk_spec200.lambda_max
    rel = abs(rate - target) / abs(target)
    ok = np.sign(rate) == np.sign(target) and rel < 0.10
    record_acceptance(
        "6 H2 decay", ok,
        f"fitted H2 rate {rate:+.4f} vs 2*lambda {target:+.4f} (rel {rel:.2%})",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7: instability detection on a dented polynomial domain


def test_acceptance_7_instability_detection(two_dents, two_dents_network,
                                            unit_tensions, unstable_run):
    traj, spec = unstable_run
    verdict = stability_criterion(two_dents_network.lengths,
                                  two_dents_network.h_star, unit_tensions)
    n_negative = int(np.sum(two_dents_network.h_star < 0))
    k2 = np.array([r.kappa_l2_sq for r in traj.records])
    tt = traj.times
    window = (k2 > 4.0 * k2[0]) & (k2 < 0.25 * k2[-1])
    rate, _, r2 = decay_fit(tt[window], k2[window], window=1.0)
    target = 2.0 * spec.lambda_max
    rel = abs(rate - target) / abs(target)
    ok = (n_negative == 1 and verdict.verdict == "Unstable"
          and verdict.criterion_value < 0.0 and spec.lambda_max > 0
          and rel < 0.25 and traj.status == "amplitude_cap")
    record_acceptance(
        "7 instability", ok,
        f"h<0 on {n_negative} branch, criterion {verdict.criterion_value:.2f}, "
        f"rate {rate:+.4f} vs {target:+.4f} (rel {rel:.2%}), status {traj.status}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8: displacement controlled by curvature


def test_acceptance_8_h2_ratio_bounded(disk, disk_network, unit_tensions,
                                       disk_run_n200):
    traj, _ = disk_run_n200
    ratios = h2_ratio_series(disk_network, disk, unit_tensions, traj.states)
    m = ratios.size
    first = ratios[int(0.1 * m):int(0.4 * m)].max()
    last = ratios[int(0.7 * m):].max()
    ok = np.all(np.isfinite(ratios)) and last <= 1.2 * first
    record_acceptance(
        "8 H2 ratio", ok,
        f"first-window max {first:.3f}, last-window max {last:.3f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9: junction/wall identities shrink under refinement


def test_acceptance_9_identity_refinement(disk, disk_network, unit_tensions,
                                          disk_run_n100, disk_run_n200):
    (run100, _), (run200, _) = disk_run_n100, disk_run_n200
    orders = {}
    for name in ("res_junction", "res_flux", "res_sum_gamma_v", "res_outer"):
        worst = {}
        for label, traj in (("c", run100), ("f", run200)):
            vals = np.array([getattr(r, name) for r in traj.records])
            keep = traj.times > 0.2 * traj.records[-1].t
            worst[label] = float(vals[keep].max())
        orders[name] = np.log2(worst["c"] / worst["f"])

    q = junction_matrix(young_angles(unit_tensions))
    vqv = {}
    for label, traj in (("c", run100), ("f", run200)):
        worst = 0.0
        t_final = traj.records[-1].t
        for s0, s1 in zip(traj.states[:-1], traj.states[1:]):
            if s0.t < 0.2 * t_final:
                continue
            V, v = junction_kinematics(disk_network, disk, s0, s1)
            worst = max(worst, float(np.abs(v - q @ V).max()))
        vqv[label] = worst
    orders["v_vs_QV"] = np.log2(vqv["c"] / vqv["f"])

    worst_order = min(orders.values())
    ok = worst_order >= 0.9
    detail = ", ".join(f"{k} {v:.2f}" for k, v in orders.items())
    record_acceptance("9 identities", ok, f"orders: {detail}")
    assert ok


# ---------------------------------------------------------------------------
# exponential stabilization on a genuinely stable (dented) network


def test_stabilization_rate_on_dented_domain(stable_run):
    traj, spec = stable_run
    assert spec.lambda_max < 0
    k2 = np.array([r.kappa_l2_sq for r in traj.records])
    rate, _, r2 = decay_fit(traj.times, k2, window=0.5)
    target = 2.0 * spec.lambda_max
    rel = abs(rate - target) / abs(target)
    ok = rel < 0.10 and traj.status == "completed"
    record_acceptance(
        "S rate", ok,
        f"fitted {rate:+.4f} vs 2*lambda {target:+.4f} (rel {rel:.2%}, r2 {r2:.6f})",
    )
    assert ok


def test_stabilization_weak_bound_on_dented_domain(stable_run):
    traj, spec = stable_run
    k2 = np.array([r.kappa_l2_sq for r in traj.records])
    bound = k2[0] * np.exp(spec.lambda_max * traj.times / 2.0)
    margin = float((k2 / bound).max())
    ok = margin <= 1.0 + 1e-9
    record_acceptance("S bound", ok, f"max ||kappa||^2 / bound = {margin:.3e}")
    assert ok


def test_stabilization_h2_decay_on_dented_domain(stable_run):
    traj, spec = stable_run
    h2 = np.array([
        (np.sqrt(r.kappa_l2_sq) + np.sqrt(r.kappa_ss_l2_sq)) ** 2
        for r in traj.records
    ])
    rate, _, _ = decay_fit(traj.times, h2, window=0.5)
    ok = rate < 0.0
    record_acceptance("S H2 decay", ok, f"fitted H2 rate {rate:+.4f}")
    assert ok


def test_stabilization_energy_monotone_on_dented_domain(trefoil, trefoil_network,
                                                        unit_tensions, stable_run):
    traj, _ = stable_run
    E = np.array([r.E for r in traj.records])
    ratios = h2_ratio_series(trefoil_network, trefoil, unit_tensions, traj.states)
    ok = (float(np.diff(E).max()) <= 1e-12
          and np.all(np.isfinite(ratios))
          and ratios[-max(3, ratios.size // 4):].max() <= 1.2 * ratios[: max(3, ratios.size // 4)].max())
    record_acceptance(
        "S Ljapunov", ok,
        f"max dE {float(np.diff(E).max()):.2e}, H2/L2 ratio spread "
        f"{ratios.max() / ratios.min():.3f}",
    )
    assert ok
