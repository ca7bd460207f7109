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
network_exits) where a Stepper holds one, and otherwise from the domain's
stateless offset_exit, cold-started from the reference lengths;
psi_first_jet takes rows of one branch or of several.  The exception is the
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
first differences.
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
    lateral sliding with the wall curvature as coefficient.
    """
    mu_b, _, _ = domain.offset_exit(network.p_star, network.tangents[[i]],
                                    network.normals[[i]], np.full((1, 1), q),
                                    network.lengths[i], second=False)
    return float(mu_b[0, 0])


def psi_first_jet(network, domain, branch, sigma, q, mu):
    """(psi, d_sigma, d_q) of the stretched map at (sigma, q, mu) on rows.

    branch is a branch index, with sigma, q and mu rows (R,) along it, or a
    1-D array of B indices, with sigma, q and mu (B, R), one row per index
    (mu may be (B, 1)); the three results carry a trailing axis of 2.  The
    exit abscissa and its q-derivative come from differentiating
    psi(p_* + mu_b T + q N) = 0 (domain.offset_exit):
        mu_b' = -(grad psi, N) / (grad psi, T);
    the curvature of the exit abscissa (a Hessian evaluation) is skipped,
    since positions and first-order boundary residuals never need it.  The
    root search starts from the reference lengths.
    """
    sigma = np.asarray(sigma, dtype=float)
    q = np.asarray(q, dtype=float)
    mu_arr = np.asarray(mu, dtype=float)
    b = np.asarray(branch, dtype=int)
    # one frame and length per row: (1, 2) and (1,) for an index, (B, 1, 2) and (B, 1) for B
    T, N, l = (a[b, None] for a in (network.tangents, network.normals, network.lengths))
    mu_b, dmu, _ = domain.offset_exit(network.p_star, T.reshape(-1, 2), N.reshape(-1, 2),
                                      q.reshape(b.size, -1), l, second=False)
    mu_b, dmu = mu_b.reshape(q.shape), dmu.reshape(q.shape)

    frac = sigma / l
    xi = mu_arr + frac * (mu_b - mu_arr)
    psi = network.p_star + xi[..., None] * T + q[..., None] * N
    d_sigma = ((mu_b - mu_arr) / l)[..., None] * T
    d_q = (frac * dmu)[..., None] * T + N
    return psi, d_sigma, d_q


# ---------------------------------------------------------------------------
# finite differences on the rho grid (second order, one-sided at the ends)

# second-order one-sided stencils on the first differences D = diff(rho):
# rows D_0, D_1, D_2, D_{n-1}, D_{n-2}, D_{n-3}; columns 2 dsigma rho_sigma
# = 3 D_0 - D_1 and dsigma^2 rho_ss = -2 D_0 + 3 D_1 - D_2 at the first
# node, then the same at the last node, mirrored, which flips the sign of
# every difference
_END_DIFFS = np.array([0, 1, 2, -1, -2, -3])
_END_STENCILS = np.array([[3.0, -2.0, 0.0, 0.0], [-1.0, 3.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
                          [0.0, 0.0, 3.0, 2.0], [0.0, 0.0, -1.0, -3.0], [0.0, 0.0, 0.0, 1.0]])


def rho_derivatives(rho: np.ndarray, lengths: np.ndarray, second: bool = True):
    """(rho_sigma, rho_sigmasigma) on the uniform per-branch grids, second
    order, one-sided at the ends; rho_sigmasigma is None when second is
    False.  Every stencil reads one array of first differences D: inside,
    (D_j + D_{j-1}) / (2 dsigma) and (D_j - D_{j-1}) / dsigma^2, and the
    four end stencils are one product of its end columns with
    _END_STENCILS."""
    rho = np.asarray(rho, dtype=float)
    n = rho.shape[-1] - 1
    d = (np.asarray(lengths, dtype=float) / n)[..., None]
    diff = rho[..., 1:] - rho[..., :-1]
    ends = diff.take(_END_DIFFS, axis=-1) @ _END_STENCILS
    rs = np.empty_like(rho)
    np.add(diff[..., 1:], diff[..., :-1], out=rs[..., 1:-1])
    rs[..., ::n] = ends[..., ::2]
    rs /= 2.0 * d
    if not second:
        return rs, None
    rss = np.empty_like(rho)
    np.subtract(diff[..., 1:], diff[..., :-1], out=rss[..., 1:-1])
    rss[..., ::n] = ends[..., 1::2]
    rss /= d * d
    return rs, rss


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
    psi, _, _ = psi_first_jet(network, domain, np.arange(3), network.sigma_grid(state.n),
                              state.rho, state.mu[:, None])
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
    """(l, sigma / l, dsigma^2) on the (3, n+1) grids of sigma_grid(n) for
    the tuple of branch lengths, read-only, cached per (n, lengths) since
    every step reads them.  l and dsigma^2 repeat the per-branch constants
    along the grid, where an operation on two (3, n+1) arrays costs about
    half of one between (3, n+1) and (3, 1); sigma / l is rounded exactly
    as sigma_grid(n) / l."""
    lengths = np.array(lengths)
    l = np.repeat(lengths[:, None], n + 1, axis=1)
    frac = (np.linspace(0.0, 1.0, n + 1)[None, :] * lengths[:, None]) / lengths[:, None]
    d2 = np.repeat(((lengths / n) ** 2)[:, None], n + 1, axis=1)
    for grid in (l, frac, d2):
        grid.flags.writeable = False
    return l, frac, d2


@dataclass
class ChartGeometry:
    """Metric and curvature of a state on its sigma grids, with the chart
    terms they come from; all arrays are (3, n+1)."""

    mu_b: np.ndarray  # exit abscissae mu_b(rho)
    dmu_b: np.ndarray  # mu_b'(rho), its q-derivative
    ddmu_b: np.ndarray  # mu_b''(rho)
    frac: np.ndarray  # sigma / l, read-only
    xi_sigma: np.ndarray
    phi_T: np.ndarray  # (Phi_sigma, T_*); (Phi_sigma, N_*) is rho_sigma
    rho_sigma: np.ndarray
    rho_ss: np.ndarray
    J2: np.ndarray
    J: np.ndarray
    kappa: np.ndarray


def chart_geometry(network, domain, state: GraphState, exits=None) -> ChartGeometry:
    """Exit jet -> xi partials -> J and kappa on the sigma grids of `state`.

    Because the reference fork is straight, every jet component lies in the
    branch frame (T, N); the curvature then collapses to a scalar expression
    in the xi partials.  The general vector route of the chart jet is the
    reference in tests/oracles.py and agrees with these values to rounding.
    exits, the network's exit binding (domain.network_exits), gives the
    exit jet (mu_b, mu_b', mu_b'') from the starts it predicts; without it
    offset_exit cold-starts from the reference lengths.  A state with a
    non-finite rho or mu raises NonFiniteState before any exit search.
    """
    if not (np.isfinite(state.rho).all() and np.isfinite(state.mu).all()):
        raise NonFiniteState(f"non-finite rho or mu at t = {state.t:.6g}")
    rho_s, rho_ss = rho_derivatives(state.rho, network.lengths)
    l, frac, _ = sigma_grids(state.n, tuple(network.lengths.tolist()))
    mu = state.mu[:, None]

    if exits is None:
        mu_b, dmu, ddmu = domain.offset_exit(network.p_star, network.tangents, network.normals,
                                             state.rho, network.lengths[:, None])
    else:
        mu_b, dmu, ddmu = exits.chart(state.rho)
    # in place, each quantity rounding as its formula: with xi_q = frac mu_b',
    # xi_sq = mu_b' / l and xi_qq = frac mu_b'', xi_sigma = (mu_b - mu) / l,
    # phi_T = xi_sigma + xi_q rho_sigma, J^2 = phi_T^2 + rho_sigma^2 and
    # kappa = (xi_sigma rho_ss - (2 xi_sq + xi_qq rho_sigma) rho_sigma^2) / (J^2 J)
    xi_sigma = mu_b - mu
    xi_sigma /= l
    phi_T = frac * dmu
    phi_T *= rho_s
    phi_T += xi_sigma
    rs2 = rho_s * rho_s
    J2 = phi_T * phi_T
    J2 += rs2
    if not J2.min() >= _J_FLOOR**2 and (J2 < _J_FLOOR**2).any():  # NaN entries pass
        raise DegenerateMetric(f"metric J collapsed to {np.sqrt(J2.min())}")
    J = np.sqrt(J2)
    bend = frac * ddmu
    bend *= rho_s
    xi_sq = dmu / l
    xi_sq *= 2.0
    bend += xi_sq
    bend *= rs2
    kappa = xi_sigma * rho_ss
    kappa -= bend
    kappa /= J2 * J
    return ChartGeometry(mu_b=mu_b, dmu_b=dmu, ddmu_b=ddmu, frac=frac, xi_sigma=xi_sigma,
                         phi_T=phi_T, rho_sigma=rho_s, rho_ss=rho_ss, J2=J2, J=J, kappa=kappa)


@dataclass
class Coefficients(ChartGeometry):
    """Per-node flow coefficients plus the junction coupling blocks, on top
    of the chart geometry they are built from."""

    L: np.ndarray  # (3, n+1)
    Lam: np.ndarray  # (3, n+1)
    a: np.ndarray  # (3, n+1)
    mu_t: np.ndarray  # (3,) tangential junction velocity
    det_M: float  # of the junction matrix M = Id - diag(Lam(0)) Q


def coefficients(network, domain, tensions: SurfaceTensions, state: GraphState,
                 exits=None) -> Coefficients:
    """Evaluate L, Lambda, a, kappa and the junction matrix M.

    The tangential velocities mu_t = Q (T0 M)^{-1} T0(L kappa) are returned
    as well, so one call provides the entire right-hand side
    rho_t = L kappa + Lambda mu_t of the flow.  J and kappa come from
    chart_geometry; the det M floor guards the step.  det M and mu_t are a
    3x3 solve, made in Python floats (_junction_solve).  The mobilities
    equal the tensions, so L and a carry no mobility factor.  exits is
    passed to chart_geometry.
    """
    geo = chart_geometry(network, domain, state, exits)
    L = 1.0 / geo.xi_sigma
    L *= geo.J
    Lam = 1.0 - geo.frac
    Lam *= geo.rho_sigma
    Lam /= geo.xi_sigma
    a = 1.0 / geo.J2
    det_M, mu_t = _junction_solve(tensions.q.tolist(), Lam[:, 0].tolist(),
                                  (L[:, 0] * geo.kappa[:, 0]).tolist())
    return Coefficients(**vars(geo), L=L, Lam=Lam, a=a, mu_t=np.array(mu_t), det_M=det_M)


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
        c0, c1, c2 = _SLOPE_WEIGHTS  # end_slope, written out
        junction, res = [], []
        for (tx, ty, nx, ny, l, two_d), (_, a1, a2, b1, b2, _), r, ww, m, m0, m1, d in zip(
                self.frames, nodes, r0, w, mu, mu_b, mu_b[3:], dmu[3:]):
            # junction end, sigma = 0: Phi_sigma = xi_sigma T + rho_sigma N
            xs = (m0 - m) / l
            rs = (c0 * r + c1 * a1 + c2 * a2) / two_d
            junction.append((xs * tx + rs * nx, xs * ty + rs * ny))
            # wall end, sigma = l: Phi_sigma = xi_sigma T + rho_sigma (mu_b' T + N)
            # = a T + rs N, and grad psi is parallel to T - mu_b' N, so
            # -(R Phi_sigma, grad psi) / (J |grad psi|) is a frame expression
            xs = (m1 - m) / l
            rs = -((c0 * ww + c1 * b1 + c2 * b2) / two_d)
            a = xs + rs * d
            res.append((a * d + rs) / (math.hypot(a, rs) * math.hypot(1.0, d)))

        (x1, y1), (x2, y2), (x3, y3) = junction
        J1, J2, J3 = math.hypot(x1, y1), math.hypot(x2, y2), math.hypot(x3, y3)
        c = self.cos
        return [x1 * x2 + y1 * y2 - J1 * J2 * c[2], x3 * x1 + y3 * y1 - J3 * J1 * c[1], *res]


def state_from_rho(network, tensions, rho, t: float = 0.0) -> GraphState:
    """Bundle nodal values into a GraphState with mu slaved to rho(0).

    The junction triple is first projected onto the plane
    sum_i gamma^i rho^i(0) = 0 of its basis b: rho(0) <- (b rho(0)) b.
    """
    rho = np.array(rho, dtype=float)
    b = tensions.basis
    rho[:, 0] = (b @ rho[:, 0]) @ b
    return GraphState(rho=rho, mu=tensions.q @ rho[:, 0], t=t)
