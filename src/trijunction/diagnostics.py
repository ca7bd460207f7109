"""Geometric measurements on sampled networks and identity verification.

All quantities that the continuous theory states in arc length (curvature
norms, flux matching at the junction, the wall Robin relation) are measured
here on arc-length data: curves are resampled by cumulative chord length,
with curvature computed by three-point finite differences whose stencils
account for the slightly nonuniform spacing.  Norms are gamma-weighted:
||phi||_Lp^p = sum_i gamma_i int |phi^i|^p ds.

The central identities checked along trajectories:
    dE/dt + ||kappa||_L2^2 = 0           (energy law, E = sum gamma_i length_i)
    sum gamma_i kappa_i = 0 at junction
    kappa_s + kappa v equal across branches at the junction
    sum gamma_i v_i = 0 at the junction   (v = Q V, V = kappa)
    kappa_s + h kappa = 0 at the wall
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .domains import ImplicitDomain, boundary_curvature
from .errors import DegenerateCurve, NonPositiveSeries
from .parameterization import Coefficients, GraphState, StationaryNetwork, curve_from_graph
from .tensions import SurfaceTensions, junction_matrix, young_angles


@dataclass
class BranchSample:
    """Arc-length sample of one curve."""

    s: np.ndarray  # (m+1,) cumulative arc length, s[0] = 0
    points: np.ndarray  # (m+1, 2)
    tangents: np.ndarray  # (m+1, 2) unit
    normals: np.ndarray  # (m+1, 2) unit, N = R T
    kappa: np.ndarray  # (m+1,)
    length: float


@dataclass
class CurveSample:
    """The three branch samples of a network snapshot."""

    branches: list[BranchSample]

    def __iter__(self):
        return iter(self.branches)

    def __getitem__(self, i):
        return self.branches[i]

    @property
    def lengths(self):
        return np.array([b.length for b in self.branches])


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


def sample_network(network: StationaryNetwork, domain: ImplicitDomain,
                   state: GraphState) -> CurveSample:
    curves = curve_from_graph(network, domain, state)
    return CurveSample([resample(curves[i]) for i in range(3)])


# ---------------------------------------------------------------------------
# norms and the energy


def energy(sample: CurveSample, tensions: SurfaceTensions) -> float:
    """Total interfacial energy sum_i gamma_i * length_i."""
    return float(np.dot(tensions.array, sample.lengths))


def _lp_norm_p(sample, tensions, values, p):
    total = 0.0
    for g, b, v in zip(tensions.array, sample.branches, values):
        total += g * np.trapezoid(np.abs(v) ** p, b.s)
    return total


def kappa_norms(sample: CurveSample, tensions: SurfaceTensions) -> dict:
    """Gamma-weighted curvature norms and arc-length derivative norms."""
    kap = [b.kappa for b in sample.branches]
    kap_s, kap_ss = [], []
    for b in sample.branches:
        d1, d2 = _nonuniform_derivatives(b.s, b.kappa)
        kap_s.append(d1)
        kap_ss.append(d2)
    return {
        "kappa_l2_sq": _lp_norm_p(sample, tensions, kap, 2),
        "kappa_l4_4": _lp_norm_p(sample, tensions, kap, 4),
        "kappa_linf": float(max(np.max(np.abs(k)) for k in kap)),
        "kappa_s_l2_sq": _lp_norm_p(sample, tensions, kap_s, 2),
        "kappa_ss_l2_sq": _lp_norm_p(sample, tensions, kap_ss, 2),
        "_kappa_s": kap_s,
        "_kappa_ss": kap_ss,
    }


# ---------------------------------------------------------------------------
# records


@dataclass
class DiagnosticsRecord:
    t: float
    E: float
    kappa_l2_sq: float
    kappa_l4_4: float
    kappa_linf: float
    kappa_s_l2_sq: float
    kappa_ss_l2_sq: float
    res_junction: float  # |sum gamma_i kappa_i| at the junction
    res_flux: float  # max pairwise spread of kappa_s + kappa v there
    res_sum_gamma_v: float  # |sum gamma_i v_i| with v = Q kappa(0)
    res_outer: float  # max_i |kappa_s + h kappa| at the wall
    res_perp: float  # max_i |(N, grad psi /|grad psi|)| at the wall
    p: np.ndarray = field(repr=False, default=None)  # junction position
    mu: np.ndarray = field(repr=False, default=None)
    lengths: np.ndarray = field(repr=False, default=None)


def junction_and_robin_residuals(sample: CurveSample, tensions: SurfaceTensions,
                                 domain: ImplicitDomain,
                                 norms: dict | None = None) -> dict:
    """Residuals of the junction and wall identities on one snapshot.

    The tangential junction speeds follow from the flow law V = kappa via
    v = Q V at the junction.  A precomputed kappa_norms dict may be passed
    to avoid re-differentiating.
    """
    g = tensions.array
    Q = junction_matrix(young_angles(tensions)).q
    kap0 = np.array([b.kappa[0] for b in sample.branches])
    velocities = Q @ kap0
    if norms is None:
        norms = kappa_norms(sample, tensions)
    kap_s0 = np.array([ks[0] for ks in norms["_kappa_s"]])
    flux = kap_s0 + kap0 * velocities
    flux_spread = float(np.max(flux) - np.min(flux))

    robin = []
    perp = []
    for b, kap_s in zip(sample.branches, norms["_kappa_s"]):
        h = boundary_curvature(domain, b.points[-1], tol=1e-5)
        robin.append(abs(kap_s[-1] + h * b.kappa[-1]))
        grad = domain.grad(b.points[-1])
        perp.append(abs(float(b.normals[-1] @ grad) / np.linalg.norm(grad)))
    return {
        "res_junction": float(abs(g @ kap0)),
        "res_flux": flux_spread,
        "res_sum_gamma_v": float(abs(g @ velocities)),
        "res_outer": float(max(robin)),
        "res_perp": float(max(perp)),
    }


def record_from_state(network, domain, tensions, state: GraphState) -> DiagnosticsRecord:
    sample = sample_network(network, domain, state)
    norms = kappa_norms(sample, tensions)
    res = junction_and_robin_residuals(sample, tensions, domain, norms=norms)
    p = (network.p_star
         + state.mu[:, None] * network.tangents
         + state.rho[:, 0, None] * network.normals).mean(axis=0)
    return DiagnosticsRecord(
        t=float(state.t),
        E=energy(sample, tensions),
        kappa_l2_sq=norms["kappa_l2_sq"],
        kappa_l4_4=norms["kappa_l4_4"],
        kappa_linf=norms["kappa_linf"],
        kappa_s_l2_sq=norms["kappa_s_l2_sq"],
        kappa_ss_l2_sq=norms["kappa_ss_l2_sq"],
        res_junction=res["res_junction"],
        res_flux=res["res_flux"],
        res_sum_gamma_v=res["res_sum_gamma_v"],
        res_outer=res["res_outer"],
        res_perp=res["res_perp"],
        p=p,
        mu=state.mu.copy(),
        lengths=sample.lengths,
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


def kappa_l2_sq_sigma_grid(network, tensions, coef: Coefficients) -> float:
    """||kappa||_L2^2 by sigma-grid quadrature of the exact curvature of
    `coefficients` with arc element J dsigma; cross-check for the
    arc-length route."""
    dx = network.lengths / (coef.kappa.shape[1] - 1)
    per = np.trapezoid(coef.kappa**2 * coef.J, dx=1.0, axis=1) * dx
    return float(np.sum(tensions.array * per))
