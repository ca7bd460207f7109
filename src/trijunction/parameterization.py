"""Graph parameterization of a curve network over a straight reference fork.

A stationary network consists of three straight segments from a common
junction p_* to perpendicular contacts with the boundary.  Nearby networks
are written per branch as

    Phi^i(sigma) = Psi^i(sigma, rho^i(sigma), mu^i),
    Psi^i(sigma, q, mu) = Phi_*^i(xi^i(sigma, q, mu)) + q N_*^i,
    xi^i(sigma, q, mu)  = mu + (sigma / l^i) (mu_b^i(q) - mu),

where rho^i is the normal offset profile on the fixed grid [0, l^i], mu^i a
tangential junction offset, and mu_b^i(q) the abscissa at which the offset
reference line re-crosses the boundary.  Because the reference segments are
straight (extended to full lines), every partial of Psi is an exact closed
form once mu_b and its two q-derivatives are known; those come from implicit
differentiation of psi(Phi_* + q N_*) = 0, never from finite differences.

The chart's evaluators work on the (3, n+1) sigma grids, one branch per
row.  Their exits come from the network's exit binding (the domain's
network_exits): the Stepper's where it holds one, and otherwise a fresh
binding, which starts from the reference lengths.  The exception is the
boundary operator, which the step evaluates a few times on the six branch
ends only and which therefore runs in Python floats, on the ends of the
same binding.  It reads the wall normal from the exit jet: differentiating
psi(p_* + mu_b T + q N) = 0 in q gives grad psi = (grad psi, T)
(T - mu_b' N), and (grad psi, T) > 0 at an outward crossing, so no gradient
of psi is evaluated.  The records read the wall normal and the wall
curvature off the chart's jet in the same way (ChartGeometry keeps
mu_b''), so a chart is the one source of wall geometry.  The chart keeps
its lengths at grid shape, so that its arithmetic runs on equal shapes,
and runs it in place, each line rounding as its formula.  Its
sigma-derivatives (rho_derivatives) read every stencil off one array of
first differences and come out of one stacked pass with one division.

A chart computes what the time step reads and no more: J^2 and its
per-branch minimum, kappa J^3, and in coefficients the right-hand side
F = L kappa + Lambda mu_t with L kappa = kappa J^3 / (xi_sigma J^2), so a
step takes no square root.  J = sqrt(J^2) and kappa = kappa J^3 / (J^2 J),
which the records read, are formed when first asked for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domains import ImplicitDomain, boundary_curvature
from .errors import DegenerateMetric, MatrixMNotInvertible, NonFiniteState
from .tensions import JunctionAngles, SurfaceTensions, force_balance_residual

_J_FLOOR = 1e-8
_DET_M_FLOOR = 0.5


@dataclass
class StationaryNetwork:
    """Reference configuration: junction, frames, lengths, wall curvatures."""

    p_star: np.ndarray
    tangents: np.ndarray  # (3, 2), pointing from the junction to the wall
    normals: np.ndarray  # (3, 2), N = R T
    lengths: np.ndarray  # (3,)
    h_star: np.ndarray  # (3,) boundary curvature at the three contacts
    endpoints: np.ndarray  # (3, 2)

    def sigma_grid(self, n: int) -> np.ndarray:
        """(3, n+1) array of per-branch uniform grid nodes on [0, l^i]."""
        return np.linspace(0.0, 1.0, n + 1)[None, :] * self.lengths[:, None]


@dataclass
class GraphState:
    """Evolving unknowns: nodal offsets rho^i(sigma_j), slaved mu, time."""

    rho: np.ndarray  # (3, n+1)
    mu: np.ndarray  # (3,)
    t: float = 0.0

    @property
    def n(self) -> int:
        return self.rho.shape[1] - 1

    def copy(self) -> "GraphState":
        return GraphState(self.rho.copy(), self.mu.copy(), self.t)


def network_residuals(network: StationaryNetwork, domain: ImplicitDomain,
                      tensions: SurfaceTensions) -> dict:
    """Invariant residuals of a reference network (all should be tiny):
    besides the contact, angle and force-balance conditions, the closure
    max |p_* + l_i T_i - endpoint_i| and the wall curvature
    max |h_i - boundary_curvature(endpoint_i)|, which reads h wherever the
    endpoints lie (on_boundary measures how far off the wall that is)."""
    g = domain.grad(network.endpoints)
    gn = g / np.linalg.norm(g, axis=1, keepdims=True)
    cos_pair = np.array(
        [
            float(network.tangents[i] @ network.tangents[j])
            for i, j in ((1, 2), (2, 0), (0, 1))
        ]
    )
    return {
        "force_balance": force_balance_residual(network.tangents, tensions),
        "on_boundary": float(np.max(np.abs(domain.psi(network.endpoints)))),
        "perpendicular": float(np.max(np.abs(np.einsum("ik,ik->i", network.normals, gn)))),
        "angles": float(np.max(np.abs(cos_pair - tensions.angles.cos))),
        "closure": float(np.max(np.abs(network.p_star + network.lengths[:, None]
                                       * network.tangents - network.endpoints))),
        "curvature": float(np.max(np.abs(
            network.h_star - boundary_curvature(domain, network.endpoints, tol=math.inf)))),
    }


# ---------------------------------------------------------------------------
# stretched coordinates


def mu_boundary(network, domain, i: int, q: float) -> float:
    """Exit abscissa mu_b^i(q) of the reference line offset by q.

    mu_b^i(0) = l^i exactly, (mu_b^i)'(0) = 0 by perpendicularity, and
    (mu_b^i)''(0) = h_*^i, so the branch length responds quadratically to
    lateral sliding with the wall curvature as coefficient.  It is row i
    of a fresh exit binding at n = 0 with the other two lines at q = 0, so
    that only line i can miss the wall.
    """
    offsets = np.zeros((3, 1))
    offsets[i] = q
    return float(domain.network_exits(network, 0).chart(offsets)[0][i, 0])


def psi_first_jet(network, domain, sigma, q, mu):
    """(psi, d_sigma, d_q) of the stretched map at (sigma, q, mu) on rows of
    the three branches: sigma and q (3, R), mu (3, R) or (3, 1); the three
    results are (3, R, 2).  The exit abscissa and its q-derivative
    mu_b' = -(grad psi, N) / (grad psi, T), from differentiating
    psi(p_* + mu_b T + q N) = 0, come from a fresh exit binding at
    n = R - 1 (domain.network_exits), which starts from the reference
    lengths; positions and first-order boundary residuals do not read the
    curvature mu_b''.  A non-finite q or mu raises NonFiniteState before
    any exit search, as in chart_geometry.
    """
    sigma = np.asarray(sigma, dtype=float)
    q = np.asarray(q, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if not (np.isfinite(q).all() and np.isfinite(mu).all()):
        raise NonFiniteState("non-finite rho or mu")
    mu_b, dmu, _ = domain.network_exits(network, q.shape[1] - 1).chart(q)
    T, N, l = network.tangents[:, None], network.normals[:, None], network.lengths[:, None]
    frac = sigma / l
    xi = mu + frac * (mu_b - mu)
    psi = network.p_star + xi[..., None] * T + q[..., None] * N
    d_sigma = ((mu_b - mu) / l)[..., None] * T
    d_q = (frac * dmu)[..., None] * T + N
    return psi, d_sigma, d_q


# ---------------------------------------------------------------------------
# finite differences on the rho grid (second order, one-sided at the ends)

# second-order one-sided stencils on the first differences D = diff(rho),
# stored one row per branch with an unread last column: columns D_0, D_1,
# D_2, D_{n-1}, D_{n-2}, D_{n-3}; rows 2 dsigma rho_sigma = 3 D_0 - D_1 at
# the first node and the same at the last node, mirrored, which flips the
# sign of every difference, then dsigma^2 rho_ss = -2 D_0 + 3 D_1 - D_2 at
# the two nodes
_END_DIFFS = np.array([0, 1, 2, -2, -3, -4])
_END_STENCILS = np.array([[3.0, 0.0, -2.0, 0.0], [-1.0, 0.0, 3.0, 0.0], [0.0, 0.0, -1.0, 0.0],
                          [0.0, 3.0, 0.0, 2.0], [0.0, -1.0, 0.0, -3.0], [0.0, 0.0, 0.0, 1.0]])


def rho_derivatives(rho: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """rho_sigma on the uniform per-branch grids, second order, one-sided at
    the ends (see _stencils); the chart reads rho_sigmasigma as well."""
    rho = np.asarray(rho, dtype=float)
    d = (np.asarray(lengths, dtype=float) / (rho.shape[-1] - 1))[..., None]
    return _stencils(rho, (2.0 * d)[None])[0]  # one divisor row, (1, 3, 1)


def _stencils(rho, scale):
    """rho_sigma, and rho_sigmasigma if scale has two rows, stacked on a
    leading axis: one pass that divides the stacked differences by scale,
    (2 dsigma,) or (2 dsigma, dsigma^2), shaped to broadcast.  Every
    stencil reads one array of first differences D: inside,
    (D_j + D_{j-1}) / (2 dsigma) and (D_j - D_{j-1}) / dsigma^2, and the
    four end stencils are one product of its end columns with
    _END_STENCILS.  The differences and the inner stencils run on the
    flattened rows, as single contiguous passes; what they give across two
    rows lands on end nodes, which the end stencils overwrite, or in the
    last column of D, which no stencil reads."""
    n = rho.shape[-1] - 1
    diff = np.empty(rho.shape)
    flat, d = rho.reshape(-1), diff.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=d[:-1])
    ends = diff.take(_END_DIFFS, axis=-1) @ _END_STENCILS
    out = np.empty(scale.shape[:1] + rho.shape)
    inner = out.reshape(len(out), -1)[:, 1:-1]
    np.add(d[1:-1], d[:-2], out=inner[0])
    out[0, ..., ::n] = ends[..., :2]
    if len(out) == 2:
        np.subtract(d[1:-1], d[:-2], out=inner[1])
        out[1, ..., ::n] = ends[..., 2:]
    out /= scale
    return out


_SLOPE_WEIGHTS = (-3.0, 4.0, -1.0)


def end_slope(v0, v1, v2, two_dsigma):
    """Second-order one-sided slope at node 0 from nodes 0, 1, 2 at spacing
    two_dsigma / 2; the last node's slope is -end_slope(v[-1], v[-2], v[-3], .)."""
    c0, c1, c2 = _SLOPE_WEIGHTS
    return (c0 * v0 + c1 * v1 + c2 * v2) / two_dsigma


# ---------------------------------------------------------------------------
# curve reconstruction


def curve_from_graph(network, domain, state: GraphState) -> np.ndarray:
    """Sampled curves Phi^i(sigma_j), shape (3, n+1, 2)."""
    psi, _, _ = psi_first_jet(network, domain, network.sigma_grid(state.n), state.rho,
                              state.mu[:, None])
    return psi


def junction_point(network, state: GraphState) -> np.ndarray:
    """Junction position: the mean of the three branch starts
    p_* + mu T + rho(0) N, which coincide up to the stick residual.
    state.rho and state.mu may carry a leading axis of stacked states."""
    pts = (network.p_star
           + state.mu[..., None] * network.tangents
           + state.rho[..., 0, None] * network.normals)
    return pts.sum(axis=-2) / 3.0  # the bits of pts.mean(axis=-2), without its dispatch


# ---------------------------------------------------------------------------
# PDE coefficients and boundary operators


@functools.lru_cache(maxsize=16)
def sigma_grids(n: int, lengths: tuple) -> tuple:
    """(l, sigma / l, 1 - sigma / l, scale) on the (3, n+1) grids of
    sigma_grid(n) for the tuple of branch lengths, read-only, cached per
    (n, lengths) since every step reads them.  l repeats the branch
    lengths along the grid, where an operation on two (3, n+1) arrays costs
    about half of one between (3, n+1) and (3, 1); sigma / l is rounded
    exactly as sigma_grid(n) / l; scale, (2, 3, n+1), repeats the divisor
    (2 dsigma, dsigma^2) of the stacked stencils (rho_derivatives)."""
    lengths = np.array(lengths)
    l = np.repeat(lengths[:, None], n + 1, axis=1)
    frac = (np.linspace(0.0, 1.0, n + 1)[None, :] * lengths[:, None]) / lengths[:, None]
    d = (lengths / n)[:, None]
    grids = (l, frac, 1.0 - frac, np.repeat(np.stack((2.0 * d, d * d)), n + 1, axis=2))
    for grid in grids:
        grid.flags.writeable = False
    return grids


@dataclass
class ChartGeometry:
    """Metric and curvature of a state on its sigma grids, with the chart
    terms they come from; all arrays are (3, n+1) but J2_min.  J and kappa
    are read off J2 and kappa_num when first asked for, so a chart that no
    record reads takes no square root."""

    mu_b: np.ndarray  # exit abscissae mu_b(rho)
    dmu_b: np.ndarray  # mu_b'(rho), its q-derivative
    ddmu_b: np.ndarray  # mu_b''(rho)
    frac: np.ndarray  # sigma / l, read-only
    xi_sigma: np.ndarray
    phi_T: np.ndarray  # (Phi_sigma, T_*); (Phi_sigma, N_*) is rho_sigma
    rho_sigma: np.ndarray
    rho_ss: np.ndarray
    J2: np.ndarray
    J2_min: np.ndarray  # (3,) per branch the minimum of J2
    kappa_num: np.ndarray  # kappa J^3

    @functools.cached_property
    def J(self) -> np.ndarray:
        return np.sqrt(self.J2)

    @functools.cached_property
    def kappa(self) -> np.ndarray:
        kappa = self.J2 * self.J
        return np.divide(self.kappa_num, kappa, out=kappa)


def chart_geometry(network, domain, state: GraphState, exits=None) -> ChartGeometry:
    """Exit jet -> xi partials -> J^2 and kappa J^3 on the sigma grids of
    `state`.

    Because the reference fork is straight, every jet component lies in the
    branch frame (T, N); the curvature then collapses to a scalar expression
    in the xi partials.  The general vector route of the chart jet is the
    reference in tests/oracles.py and agrees with these values to rounding.
    exits, the network's exit binding (domain.network_exits), gives the
    exit jet (mu_b, mu_b', mu_b'') from the starts it predicts; without it
    a fresh binding starts from the reference lengths.  A state with a
    non-finite rho or mu raises NonFiniteState before any exit search, and
    a metric J under 1e-8 raises DegenerateMetric.
    """
    return ChartGeometry(*_chart(network, domain, state, exits)[0])


def _chart(network, domain, state, exits):
    """The fields of chart_geometry, in order, and 1 - sigma / l."""
    if not (np.isfinite(state.rho).all() and all(map(math.isfinite, state.mu.tolist()))):
        raise NonFiniteState(f"non-finite rho or mu at t = {state.t:.6g}")
    l, frac, one_minus_frac, scale = sigma_grids(state.n, tuple(network.lengths.tolist()))
    rho_s, rho_ss = _stencils(state.rho, scale)
    mu = state.mu[:, None]

    if exits is None:
        exits = domain.network_exits(network, state.n)
    mu_b, dmu, ddmu = exits.chart(state.rho)
    # in place, each quantity rounding as its formula: with xi_q = frac mu_b',
    # xi_sq = mu_b' / l and xi_qq = frac mu_b'', xi_sigma = (mu_b - mu) / l,
    # phi_T = xi_sigma + xi_q rho_sigma, J^2 = phi_T^2 + rho_sigma^2 and
    # kappa J^3 = xi_sigma rho_ss - (2 xi_sq + xi_qq rho_sigma) rho_sigma^2
    xi_sigma = mu_b - mu
    xi_sigma /= l
    phi_T = frac * dmu
    phi_T *= rho_s
    phi_T += xi_sigma
    rs2 = rho_s * rho_s
    J2 = phi_T * phi_T
    J2 += rs2
    J2_min = J2.min(axis=1)
    # Python's min of the three is NaN or the least non-NaN one, so an entry
    # under the floor always reaches the full test
    if not min(J2_min.tolist()) >= _J_FLOOR**2 and (J2 < _J_FLOOR**2).any():  # NaN entries pass
        raise DegenerateMetric(f"metric J collapsed to {np.sqrt(J2_min.min())}")
    bend = frac * ddmu
    bend *= rho_s
    xi_sq = dmu / l
    xi_sq *= 2.0
    bend += xi_sq
    bend *= rs2
    kappa_num = xi_sigma * rho_ss
    kappa_num -= bend
    return ((mu_b, dmu, ddmu, frac, xi_sigma, phi_T, rho_s, rho_ss, J2, J2_min, kappa_num),
            one_minus_frac)


@dataclass
class Coefficients(ChartGeometry):
    """The right-hand side of the flow and the junction coupling, on top of
    the chart geometry they are built from."""

    F: np.ndarray  # (3, n+1) rho_t = L kappa + Lambda mu_t
    Lam: np.ndarray  # (3, n+1)
    mu_t: np.ndarray  # (3,) tangential junction velocity
    det_M: float  # of the junction matrix M = Id - diag(Lam(0)) Q


def coefficients(network, domain, tensions: SurfaceTensions, state: GraphState,
                 exits=None) -> Coefficients:
    """The chart of `state` (chart_geometry) and the flow's right-hand side
    F = L kappa + Lambda mu_t on it, with the junction matrix M.

    L = J / xi_sigma, so L kappa = kappa J^3 / (xi_sigma J^2) takes no
    square root; Lambda = (1 - sigma / l) rho_sigma / xi_sigma.  The
    tangential velocities mu_t = Q (T0 M)^{-1} T0(L kappa) are a 3x3 solve
    in Python floats (_junction_solve), which also checks the det M floor.
    The mobilities equal the tensions, so L carries no mobility factor.
    The diffusion weight a = 1/J^2 of L kappa = a rho_ss + ... is left to
    the step, which reads J2 and J2_min.  exits is read as in
    chart_geometry.
    """
    fields, one_minus_frac = _chart(network, domain, state, exits)
    *_, xi_sigma, _, rho_s, _, J2, _, kappa_num = fields
    F = xi_sigma * J2
    np.divide(kappa_num, F, out=F)  # L kappa
    Lam = one_minus_frac * rho_s
    Lam /= xi_sigma
    det_M, mu_t = _junction_solve(tensions.q.tolist(), Lam[:, 0].tolist(), F[:, 0].tolist())
    mu_t = np.array(mu_t)
    F += Lam * mu_t[:, None]
    return Coefficients(*fields, F=F, Lam=Lam, mu_t=mu_t, det_M=det_M)


def _junction_solve(Q, lam, v):
    """det M and Q M^-1 v for M = Id - diag(lam) Q, in Python floats: Q a
    3x3 row list, lam and v 3-lists.  det M is expanded along M's first
    row, and M^-1 v is its adjugate applied to v over det M; a 3x3 system
    costs a few dozen flops, less than one numpy call.  det M at or below
    the floor raises MatrixMNotInvertible before the division."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = (
        [(1.0 if i == j else 0.0) - lam[i] * Q[i][j] for j in range(3)] for i in range(3))
    c00, c01, c02 = m11 * m22 - m12 * m21, m12 * m20 - m10 * m22, m10 * m21 - m11 * m20
    det = m00 * c00 + m01 * c01 + m02 * c02
    if det <= _DET_M_FLOOR:
        raise MatrixMNotInvertible(f"det M = {det:.4f} at or below floor {_DET_M_FLOOR}")
    v0, v1, v2 = v
    x = ((c00 * v0 + (m02 * m21 - m01 * m22) * v1 + (m01 * m12 - m02 * m11) * v2) / det,
         (c01 * v0 + (m00 * m22 - m02 * m20) * v1 + (m02 * m10 - m00 * m12) * v2) / det,
         (c02 * v0 + (m01 * m20 - m00 * m21) * v1 + (m00 * m11 - m01 * m10) * v2) / det)
    return det, [row[0] * x[0] + row[1] * x[1] + row[2] * x[2] for row in Q]


_SWEEP_NODES = np.array([0, 1, 2, -2, -3, -1])  # the boundary values and what end_slope reads


class BoundaryOperator:
    """The junction and wall residuals for one network and grid, evaluated
    in Python floats (see __call__).

    The per-run constants (frames, lengths, 2 dsigma, cos theta) are
    converted to floats once.  An evaluation takes the six exit jets
    (mu_b, mu_b') from one call of exits.ends, the network's exit binding
    (domain.network_exits), which picks their starts, and reads the wall
    normals from them; the rest is a few hundred flops on 3- and 6-entry
    vectors, which as numpy calls would cost mostly their dispatch.
    """

    def __init__(self, network, exits, angles: JunctionAngles, n: int):
        self.exits = exits
        # per branch (T, N, l, 2 dsigma) as six floats
        self.frames = [(*t, *nn, l, 2.0 * (l / n)) for t, nn, l in
                       zip(network.tangents.tolist(), network.normals.tolist(),
                           network.lengths.tolist())]
        self.cos = angles.cos.tolist()

    @staticmethod
    def nodes(rho):
        """Per branch the nodes 0, 1, 2, n-1, n-2 and n of rho, one fetch:
        the junction and wall values and the nodes that the end slopes read
        besides them."""
        return rho.take(_SWEEP_NODES, axis=1).tolist()

    def __call__(self, nodes, r0, w, mu) -> list:
        """[g12, g13, outer_1, outer_2, outer_3] as floats for the boundary
        values (r0, w), 3-lists that replace the junction and wall nodes of
        rho, whose interior enters only through the one-sided end slopes
        (nodes = nodes(rho), whose boundary values are not read); mu, a
        3-list, holds the tangential junction offsets.

        g12 = (Phi^1_sigma, Phi^2_sigma) - J^1 J^2 cos(theta^3) and cyclically
        g13 with cos(theta^2): the curves meet at the Young angles iff both
        vanish; about the reference g12 linearizes to (rho1_s - rho2_s)
        sin(theta^3).  outer_i = -(R Phi_sigma, grad psi)/(J |grad psi|) at
        sigma = l^i vanishes iff branch i meets the wall at a right angle and
        linearizes to rho_sigma + h_* rho; grad psi is read from the exit jet
        as (grad psi, T) (T - mu_b' N)."""
        mu_b, dmu = self.exits.ends(r0 + w)
        c0, c1, _ = _SLOPE_WEIGHTS  # end_slope, written out; the last weight is -1
        junction, res = [], []
        for (tx, ty, nx, ny, l, two_d), (_, a1, a2, b1, b2, _), r, ww, m, m0, m1, d in zip(
                self.frames, nodes, r0, w, mu, mu_b, mu_b[3:], dmu[3:]):
            # junction end, sigma = 0: Phi_sigma = xi_sigma T + rho_sigma N
            xs = (m0 - m) / l
            rs = (c0 * r + c1 * a1 - a2) / two_d
            junction.append((xs * tx + rs * nx, xs * ty + rs * ny))
            # wall end, sigma = l: Phi_sigma = xi_sigma T + rho_sigma (mu_b' T + N)
            # = a T + rs N, and grad psi is parallel to T - mu_b' N, so
            # -(R Phi_sigma, grad psi) / (J |grad psi|) is a frame expression
            xs = (m1 - m) / l
            rs = -((c0 * ww + c1 * b1 - b2) / two_d)
            a = xs + rs * d
            res.append((a * d + rs) / (math.hypot(a, rs) * math.hypot(1.0, d)))

        (x1, y1), (x2, y2), (x3, y3) = junction
        J1, J2, J3 = math.hypot(x1, y1), math.hypot(x2, y2), math.hypot(x3, y3)
        c = self.cos
        return [x1 * x2 + y1 * y2 - J1 * J2 * c[2], x3 * x1 + y3 * y1 - J3 * J1 * c[1], *res]

    def jacobian(self, nodes, r0, w, mu, planes) -> list:
        """The exact Jacobian of __call__ at the same arguments, as 5 row
        lists, in the unknowns of a sweep that moves r0 and mu together:
        first one column per entry (dr0, dmu) of planes, the 3-lists by
        which r0 and mu move along that unknown, then one column per wall
        value w_i.  The junction rows depend on the plane columns only,
        and each wall row on those and on its own w_i.

        By the chain rule through the six exit jets (mu_b, mu_b', mu_b''),
        from one call of exits.ends that also asks for mu_b''.  At the
        junction end xi_sigma = (mu_b - mu) / l moves by
        (mu_b' dr0 - dmu) / l and rho_sigma by -3 dr0 / (2 dsigma).  At the
        wall end outer is a function of a = xi_sigma + rho_sigma mu_b',
        rho_sigma and mu_b'; w_i moves xi_sigma by mu_b' / l, rho_sigma by
        3 / (2 dsigma) and mu_b' by mu_b'', and mu moves xi_sigma by
        -dmu / l."""
        mu_b, dmu, ddmu = self.exits.ends(r0 + w, True)
        c0, c1, _ = _SLOPE_WEIGHTS
        junction, walls = [], []
        for i, ((tx, ty, nx, ny, l, two_d), (_, a1, a2, b1, b2, _), r, ww, m, m0, d0, m1, d,
                dd) in enumerate(zip(self.frames, nodes, r0, w, mu, mu_b, dmu, mu_b[3:],
                                     dmu[3:], ddmu[3:])):
            # junction end: Phi_sigma = xs T + rs N and its move along each plane column
            xs = (m0 - m) / l
            rs = (c0 * r + c1 * a1 - a2) / two_d
            moves = [((d0 * dr[i] - dm[i]) / l, c0 * dr[i] / two_d) for dr, dm in planes]
            junction.append(((xs * tx + rs * nx, xs * ty + rs * ny),
                             [(x * tx + y * nx, x * ty + y * ny) for x, y in moves]))
            # wall end: outer = (a d + rs) / (A B), A = |(a, rs)|, B = |(1, d)|,
            # with its partials in a, rs and d
            xs = (m1 - m) / l
            rs = -((c0 * ww + c1 * b1 - b2) / two_d)
            a = xs + rs * d
            A, B = math.hypot(a, rs), math.hypot(1.0, d)
            out = (a * d + rs) / (A * B)
            o_a = d / (A * B) - out * a / (A * A)
            o_rs = 1.0 / (A * B) - out * rs / (A * A)
            o_d = a / (A * B) - out * d / (B * B)
            dxs, drs = d / l, -c0 / two_d  # along w_i
            row = [-o_a * dm[i] / l for _, dm in planes] + [0.0, 0.0, 0.0]
            row[len(planes) + i] = o_a * (dxs + drs * d + rs * dd) + o_rs * drs + o_d * dd
            walls.append(row)

        def pair(i, j, cos):  # the row of (P_i, P_j) - |P_i| |P_j| cos
            ((xi, yi), dPi), ((xj, yj), dPj) = junction[i], junction[j]
            Ji, Jj = math.hypot(xi, yi), math.hypot(xj, yj)
            return [dxi * xj + xi * dxj + dyi * yj + yi * dyj
                    - ((xi * dxi + yi * dyi) / Ji * Jj + Ji * (xj * dxj + yj * dyj) / Jj) * cos
                    for (dxi, dyi), (dxj, dyj) in zip(dPi, dPj)] + [0.0, 0.0, 0.0]

        return [pair(0, 1, self.cos[2]), pair(2, 0, self.cos[1]), *walls]


def state_from_rho(network, tensions, rho, t: float = 0.0) -> GraphState:
    """Bundle nodal values into a GraphState with mu slaved to rho(0).

    The junction triple is first projected onto the plane
    sum_i gamma^i rho^i(0) = 0 of its basis b: rho(0) <- (b rho(0)) b.
    """
    rho = np.array(rho, dtype=float)
    b = tensions.basis
    rho[:, 0] = (b @ rho[:, 0]) @ b
    return GraphState(rho=rho, mu=tensions.q @ rho[:, 0], t=t)
