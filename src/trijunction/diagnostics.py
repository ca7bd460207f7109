"""Diagnostics records of network snapshots and trajectory post-processing.

A record measures a state on the sigma grids of its own chart: J and kappa
come from parameterization.chart_geometry, the kernel the time step uses,
so the energy law is checked on the discretization that dissipates it.
evolution.run hands each record the coefficients that the next step reads,
so a recorded state's chart is evaluated once.
Integrals are composite trapezoid sums in the arc element J dsigma;
arc-length derivatives are d/ds = (1/J) d/dsigma with the second-order
stencils of rho_derivatives, one-sided at the junction and the wall.
Norms are gamma-weighted: ||phi||_Lp^p = sum_i gamma_i int |phi^i|^p ds.

The central identities checked along trajectories:
    dE/dt + ||kappa||_L2^2 = 0           (energy law, E = sum gamma_i length_i)
    sum gamma_i kappa_i = 0 at junction
    kappa_s + kappa v equal across branches at the junction
    sum gamma_i v_i = 0 at the junction   (v = Q V, V = kappa)
    kappa_s + h kappa = 0 at the wall

`resample` is an independent arc-length route (chord-length PCHIP
resampling, curvature by nonuniform differences of positions); the test
suite builds its cross-check of the records on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import boundary_curvature
from .errors import DegenerateCurve, NonPositiveSeries
from .parameterization import GraphState, _cross, chart_geometry, junction_point, rho_derivatives
from .tensions import junction_matrix, young_angles


@dataclass
class BranchSample:
    """Arc-length sample of one curve."""

    s: np.ndarray  # (m+1,) cumulative arc length, s[0] = 0
    points: np.ndarray  # (m+1, 2)
    tangents: np.ndarray  # (m+1, 2) unit
    normals: np.ndarray  # (m+1, 2) unit, N = R T
    kappa: np.ndarray  # (m+1,)
    length: float


def _fit_weights(nodes, x, order):
    """Derivative weights at x from the interpolating polynomial on nodes."""
    m = len(nodes)
    V = np.vander(nodes - x, m, increasing=True)
    rhs = np.zeros(m)
    rhs[order] = 1.0 if order == 1 else 2.0
    return np.linalg.solve(V.T, rhs)


def _nonuniform_derivatives(s, f):
    """First/second derivative of nodal data on a mildly nonuniform grid.

    Interior: three-point stencils, exact for quadratics, second order when
    the spacing varies smoothly (it does for chord lengths of a smooth
    curve).  Ends: four-point one-sided stencils (cubic fit), so the second
    derivative stays second order at the boundary nodes as well; endpoint
    values feed the wall Robin residual and must not degrade to first order.
    """
    s = np.asarray(s, dtype=float)
    f = np.asarray(f, dtype=float)
    d1 = np.empty_like(f)
    d2 = np.empty_like(f)
    hl = s[1:-1] - s[:-2]
    hr = s[2:] - s[1:-1]
    fl, fc, fr = f[..., :-2], f[..., 1:-1], f[..., 2:]
    d1[..., 1:-1] = (hl**2 * fr - hr**2 * fl + (hr**2 - hl**2) * fc) / (
        hl * hr * (hl + hr)
    )
    d2[..., 1:-1] = 2.0 * (hl * fr + hr * fl - (hl + hr) * fc) / (hl * hr * (hl + hr))
    for k, sl in ((0, slice(0, 4)), (-1, slice(-4, None))):
        nodes = s[sl]
        vals = f[..., sl]
        w1 = _fit_weights(nodes, s[k], 1)
        w2 = _fit_weights(nodes, s[k], 2)
        d1[..., k] = vals @ w1
        d2[..., k] = vals @ w2
    return d1, d2


def resample(points: np.ndarray) -> BranchSample:
    """Arc-length sample of a polyline read off a smooth curve.

    Nodes are redistributed to (nearly) uniform cumulative chord length with
    monotone cubic (PCHIP) reinterpolation of the coordinates; geometric
    fields are computed on the original nodes, where the spacing varies
    smoothly, and transported by the same interpolation.
    """
    from scipy.interpolate import PchipInterpolator  # loaded on first use, not with the package

    pts = np.asarray(points, dtype=float)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(seg < 1e-14):
        raise DegenerateCurve("repeated points in curve sample")
    t = np.concatenate([[0.0], np.cumsum(seg)])
    if t[-1] < 1e-12:
        raise DegenerateCurve("curve has vanishing length")

    d1, d2 = _nonuniform_derivatives(t, pts.T)
    speed = np.linalg.norm(d1, axis=0)
    kappa = (d1[0] * d2[1] - d1[1] * d2[0]) / speed**3

    s_new = np.linspace(0.0, t[-1], pts.shape[0])
    stacked = np.column_stack([pts[:, 0], pts[:, 1], kappa, d1[0] / speed, d1[1] / speed])
    vals = PchipInterpolator(t, stacked, axis=0)(s_new)
    kap = vals[:, 2]
    tang = vals[:, 3:5]
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    norm = np.stack([-tang[:, 1], tang[:, 0]], axis=1)

    new_pts = vals[:, 0:2]
    new_seg = np.linalg.norm(np.diff(new_pts, axis=0), axis=1)
    s_nodes = np.concatenate([[0.0], np.cumsum(new_seg)])
    return BranchSample(
        s=s_nodes,
        points=new_pts,
        tangents=tang,
        normals=norm,
        kappa=kap,
        length=float(s_nodes[-1]),
    )


# ---------------------------------------------------------------------------
# records


def _csv(*columns, repr=True):
    """A record field that the trajectory CSV stores, in field order: under
    the field's name, or under `columns`, one per vector component."""
    return field(repr=repr, metadata={"csv": columns})


@dataclass
class DiagnosticsRecord:
    # the fields the trajectory CSV stores come first, in column order;
    # storage derives its columns from their metadata
    t: float = _csv()
    E: float = _csv()
    kappa_l2_sq: float = _csv()
    kappa_s_l2_sq: float = _csv()
    kappa_ss_l2_sq: float = _csv()
    p: np.ndarray = _csv("px", "py", repr=False)  # junction position
    mu: np.ndarray = _csv("mu1", "mu2", "mu3", repr=False)
    res_junction: float = _csv()  # |sum gamma_i kappa_i| at the junction
    res_flux: float = _csv()  # max pairwise spread of kappa_s + kappa v there
    res_outer: float = _csv()  # max_i |kappa_s + h kappa| at the wall
    res_perp: float = _csv()  # max_i |(N, grad psi /|grad psi|)| at the wall
    kappa_l4_4: float
    kappa_linf: float
    res_sum_gamma_v: float  # |sum gamma_i v_i| with v = Q kappa(0)
    lengths: np.ndarray = field(repr=False)


def _branch_integrals(values, J, dx):
    """Per-branch trapezoid integrals of values in the arc element J dsigma,
    over the last axis; values may stack several integrands."""
    return np.trapezoid(values * J, dx=1.0, axis=-1) * dx


def _weighted_integral(gammas, values, J, dx) -> float:
    return float(np.sum(gammas * _branch_integrals(values, J, dx)))


def record_from_state(network, domain, tensions, state: GraphState, chart=None,
                      q_matrix=None) -> DiagnosticsRecord:
    """Energy, curvature norms and identity residuals of one state.

    chart is the ChartGeometry (or the Coefficients) of `state`, such as the
    ones the next time step reads; without it the record evaluates
    chart_geometry, cold-started.  q_matrix is the junction matrix of
    `tensions`, computed when not given.  The det M floor of `coefficients`
    is not applied: it guards the time step, and records are also taken of
    states no step has evaluated.
    """
    geo = chart_geometry(network, domain, state) if chart is None else chart
    if q_matrix is None:
        q_matrix = junction_matrix(young_angles(tensions))
    g = tensions.array
    dx = network.lengths / state.n
    kap, J = geo.kappa, geo.J
    kap_s = rho_derivatives(kap, network.lengths, second=False)[0] / J
    kap_ss = rho_derivatives(kap_s, network.lengths, second=False)[0] / J
    # one quadrature of the stacked integrands and one weighted sum of its
    # rows: row for row the sums of _branch_integrals and _weighted_integral
    integrals = _branch_integrals(
        np.stack([np.ones_like(kap), kap**2, kap**4, kap_s**2, kap_ss**2]), J, dx)
    E, k2, k4, ks2, kss2 = (g * integrals).sum(axis=1).tolist()

    # junction: tangential speeds v = Q V from the flow law V = kappa
    kap0 = kap[:, 0]
    velocities = q_matrix.q @ kap0
    flux = kap_s[:, 0] + kap0 * velocities

    # wall: contact points p_* + mu_b T + rho N and the unit tangent
    # Phi_sigma / J there, with Phi_sigma = phi_T T + rho_sigma N
    T, N = network.tangents, network.normals
    wall = network.p_star + geo.mu_b[:, -1, None] * T + state.rho[:, -1, None] * N
    tangent = (geo.phi_T[:, -1, None] * T + geo.rho_sigma[:, -1, None] * N) / J[:, -1, None]
    h = boundary_curvature(domain, wall)
    grad = domain.grad(wall)
    perp = _cross(tangent, grad) / np.linalg.norm(grad, axis=1)  # (R tangent, grad) / |grad|

    return DiagnosticsRecord(
        t=float(state.t),
        E=E,
        kappa_l2_sq=k2,
        kappa_l4_4=k4,
        kappa_linf=float(np.abs(kap).max()),
        kappa_s_l2_sq=ks2,
        kappa_ss_l2_sq=kss2,
        res_junction=float(abs(g @ kap0)),
        res_flux=float(flux.max() - flux.min()),
        res_sum_gamma_v=float(abs(g @ velocities)),
        res_outer=float(np.abs(kap_s[:, -1] + h * kap[:, -1]).max()),
        res_perp=float(np.abs(perp).max()),
        p=junction_point(network, state),
        mu=state.mu.copy(),
        lengths=integrals[0],
    )


# ---------------------------------------------------------------------------
# trajectory post-processing


def energy_law_residual(records) -> tuple[np.ndarray, np.ndarray]:
    """|dE/dt + ||kappa||^2| at interior record times, by centered differences."""
    t = np.array([r.t for r in records])
    E = np.array([r.E for r in records])
    k2 = np.array([r.kappa_l2_sq for r in records])
    if len(records) < 3:
        raise ValueError("need at least three records")
    dEdt = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    return t[1:-1], np.abs(dEdt + k2[1:-1])


_FIT_FLOOR = 1e-12  # decay_fit drops samples at or below this


def decay_fit(times, series, window: float = 0.5):
    """(rate, intercept, r2) of a log-linear fit on the trailing window.

    The fit uses the last `window` fraction of the samples whose values
    exceed 1e-12; raises NonPositiveSeries if fewer than three remain.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    keep = series > _FIT_FLOOR
    times, series = times[keep], series[keep]
    if times.size < 3:
        raise NonPositiveSeries("too few usable samples for a decay fit")
    start = int(np.floor((1.0 - window) * times.size))
    times, series = times[start:], series[start:]
    logy = np.log(series)
    A = np.stack([times, np.ones_like(times)], axis=1)
    coef, *_ = np.linalg.lstsq(A, logy, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((logy - fit) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def kappa_l2_sq_sigma_grid(network, tensions, geo) -> float:
    """||kappa||_L2^2 from the kappa and J of chart_geometry or coefficients,
    by the quadrature of the records."""
    dx = network.lengths / (geo.kappa.shape[1] - 1)
    return _weighted_integral(tensions.array, geo.kappa**2, geo.J, dx)
