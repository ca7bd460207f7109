"""Diagnostics records of network snapshots and trajectory post-processing.

A record measures a state on the sigma grids of its own chart: J and kappa
come from parameterization.chart_geometry, the kernel the time step uses,
so the energy law is checked on the discretization that dissipates it.
evolution.run hands each record the chart that the next step reads, so a
recorded state's chart is evaluated once.  records_from_states evaluates
the records of many states on one grid as one batch, vectorized over a
leading record axis, because a record of a small grid costs mostly numpy
dispatch; record_from_state is its batch of one, and a record is bitwise
the same in any batch.  run evaluates its records in batches of 16, each
pending record holding only what it reads of its chart (RecordChart).
Integrals are composite trapezoid sums in the arc element J dsigma;
arc-length derivatives are d/ds = (1/J) d/dsigma with the second-order
stencils of rho_derivatives, one-sided at the junction and the wall.  The
wall terms come from the chart's exit jet, as the boundary sweep's do: the
contact curve x(q) = p_* + mu_b(q) T + q N lies on the wall, so
x' = mu_b' T + N is its tangent, and differentiating psi(x(q)) = 0 twice
gives the wall curvature h = mu_b'' / (1 + mu_b'^2)^(3/2) and the wall
normal, parallel to T - mu_b' N.  A record given its chart makes no
domain call.
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
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCurve, NonPositiveSeries
from .parameterization import GraphState, chart_geometry, rho_derivatives


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


def _branch_integrals(values, J, dx):
    """Per-branch trapezoid integrals of values in the arc element J dsigma,
    over the last axis; values is overwritten.  The trapezoid sum of
    numpy.trapezoid is written out in place, and a row's sum does not
    depend on the leading axes, so an integral is the same in any batch."""
    values *= J
    pairs = values[..., 1:] + values[..., :-1]
    return pairs.sum(axis=-1) / 2.0 * dx  # halving is exact: the bits of sum(pairs / 2)


def _weighted_integral(gammas, values, J, dx) -> float:
    """sum_i gamma_i of _branch_integrals; values is overwritten."""
    return float(np.sum(gammas * _branch_integrals(values, J, dx)))


def _rowwise(a, x):
    """a @ x[k] for every row x[k] of x.  The stacked product makes, per
    row, the BLAS call that one record makes alone, so it rounds alike for
    any batch.  x @ a.T, one matrix product, rounds differently with the
    batch size, and a sum of three written-out terms rounds differently
    from that BLAS call."""
    return (a @ x[..., None])[..., 0]


class RecordChart(NamedTuple):
    """What a record reads of its state's chart: J^2 and kappa J^3 on the
    sigma grids, (3, n+1), and the wall rows mu_b', mu_b'', phi_T and
    rho_sigma, (4, 3), copied out of the chart, so that a RecordChart holds
    no other array of the chart."""

    J2: np.ndarray
    kappa_num: np.ndarray
    wall: np.ndarray


def record_chart(chart) -> RecordChart:
    """The RecordChart of a ChartGeometry (or Coefficients)."""
    return RecordChart(chart.J2, chart.kappa_num,
                       np.array([chart.dmu_b[:, -1], chart.ddmu_b[:, -1], chart.phi_T[:, -1],
                                 chart.rho_sigma[:, -1]]))


# the scalar fields of a record, in the column order of records_from_states
_SCALAR_FIELDS = ("E", "kappa_l2_sq", "kappa_l4_4", "kappa_s_l2_sq", "kappa_ss_l2_sq",
                  "kappa_linf", "res_junction", "res_flux", "res_sum_gamma_v", "res_outer",
                  "res_perp")


def record_from_state(network, domain, tensions, state: GraphState,
                      chart=None) -> DiagnosticsRecord:
    """Energy, curvature norms and identity residuals of one state: the
    batch of one of records_from_states."""
    return records_from_states(network, domain, tensions, [state], [chart])[0]


def records_from_states(network, domain, tensions, states,
                        charts=None) -> list[DiagnosticsRecord]:
    """Records of `states`, all on one grid, evaluated as one batch.

    charts[k] is the ChartGeometry (or the Coefficients) of states[k], such
    as the ones the next time step reads, or its RecordChart; for a None
    entry, or charts=None, the record evaluates chart_geometry,
    cold-started.  The det M floor of `coefficients` is not applied: it
    guards the time step, and records are also taken of states no step has
    evaluated.

    Every field is computed along a leading record axis, and the products
    over the three branches are made record by record, so a record does not
    depend on the batch it is evaluated in.  J = sqrt(J^2) and
    kappa = kappa J^3 / (J^2 J) are formed once for the stacked batch, by
    the elementwise operations of the chart's own J and kappa, so bitwise
    theirs.  Only the charts a batch evaluates can raise, and they are
    evaluated in record order, so the error raised is the first failing
    record's own.
    """
    if charts is None:
        charts = [None] * len(states)
    if not states:
        return []
    parts = [chart if isinstance(chart, RecordChart) else
             record_chart(chart_geometry(network, domain, state) if chart is None else chart)
             for state, chart in zip(states, charts, strict=True)]
    g = tensions.array
    dx = network.lengths / states[0].n
    J3 = np.array([part.J2 for part in parts])  # (records, 3, n+1), J^2 until it is J^3
    J = np.sqrt(J3)
    J3 *= J
    kap = np.array([part.kappa_num for part in parts])
    kap /= J3
    kap_s = rho_derivatives(kap, network.lengths)
    kap_s /= J
    kap_ss = rho_derivatives(kap_s, network.lengths)
    kap_ss /= J
    kap0, kap_wall = kap[..., 0], kap[..., -1]
    # (11, records), in the order of _SCALAR_FIELDS
    scalars = np.empty((len(_SCALAR_FIELDS), len(states)))
    np.abs(kap).max(axis=(1, 2), out=scalars[5])  # kappa_linf
    # the integrals of 1, kappa^2, kappa^4 = (kappa^2)^2, kappa_s^2 and
    # kappa_ss^2, (5, records, 3), each integrand formed in turn in the
    # buffer of J^3, which is not read again
    integrals = np.empty((5,) + kap.shape[:2])
    values = J3
    values.fill(1.0)
    integrals[0] = _branch_integrals(values, J, dx)
    for row, a in ((1, kap), (3, kap_s), (4, kap_ss)):
        np.multiply(a, a, out=values)
        integrals[row] = _branch_integrals(values, J, dx)
    np.multiply(kap, kap, out=values)
    np.multiply(values, values, out=values)
    integrals[2] = _branch_integrals(values, J, dx)

    # junction: tangential speeds v = Q V from the flow law V = kappa
    velocities = _rowwise(tensions.q, kap0)

    # per record the rows mu_b', mu_b'', phi_T and rho_sigma at the wall, and
    # mu and rho at the junction, (records, 6, 3)
    ends = np.array([(*part.wall, state.mu, state.rho[:, 0])
                     for part, state in zip(parts, states)])
    # the wall terms off the exit jet (see the module docstring): with
    # |x'| = sqrt(1 + mu_b'^2), h = mu_b'' / |x'|^3, and the cross product of
    # the unit tangent (phi_T T + rho_sigma N) / J with the wall normal
    # (T - mu_b' N) / |x'| is (phi_T mu_b' + rho_sigma) / (J |x'|)
    dmu, ddmu, phi_T, rho_s, mu, rho0 = ends.transpose(1, 0, 2)
    slope = np.sqrt(1.0 + dmu * dmu)
    h = ddmu / (slope * slope * slope)
    perp = phi_T * dmu
    perp += rho_s
    perp /= J[..., -1] * slope
    # the junction is the mean of the branch starts p_* + mu T + rho(0) N
    # (junction_point)
    starts = (network.p_star + mu[..., None] * network.tangents
              + rho0[..., None] * network.normals)

    (g * integrals).sum(axis=-1, out=scalars[:5])
    weighted = _rowwise(g, np.array([kap0, velocities]))  # sum gamma kappa, sum gamma v
    np.abs(weighted[0], out=scalars[6])
    np.abs(weighted[1], out=scalars[8])
    flux = kap_s[..., 0] + kap0 * velocities
    np.subtract(flux.max(axis=1), flux.min(axis=1), out=scalars[7])
    np.abs(np.array([kap_s[..., -1] + h * kap_wall, perp])).max(axis=-1, out=scalars[9:])
    points = starts.sum(axis=-2) / 3.0
    return [
        DiagnosticsRecord(t=float(state.t), p=p, mu=m, **dict(zip(_SCALAR_FIELDS, fields)))
        for state, fields, p, m in zip(states, scalars.T.tolist(), points, mu)
    ]


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

    The fit uses the last `window` fraction, 0 < window <= 1 (ValueError
    otherwise), of the samples whose values exceed 1e-12; raises
    NonPositiveSeries if fewer than three samples remain, or fewer than
    three in the window.
    """
    if not 0.0 < window <= 1.0:  # NaN fails the test too
        raise ValueError(f"window must lie in (0, 1], got {window}")
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    keep = series > _FIT_FLOOR
    times, series = times[keep], series[keep]
    if times.size < 3:
        raise NonPositiveSeries("too few usable samples for a decay fit")
    start = int(np.floor((1.0 - window) * times.size))
    times, series = times[start:], series[start:]
    if times.size < 3:
        raise NonPositiveSeries(f"fewer than three samples in the trailing window {window}")
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
