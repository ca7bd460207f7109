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
row, and hand the domain's offset_exit the three branch lines as rows;
psi_first_jet takes rows of one branch or of several.  The exception is the
boundary operator, which the step evaluates a few times on the six branch
ends only and which therefore runs in Python floats.  Its exits come from
the domain's end_exits, bound once per operator: the closed form in Python
floats on a conic, one call of the line-polynomial kernel on six one-entry
blocks on a polynomial domain.  It reads the wall normal from the exit jet:
differentiating psi(p_* + mu_b T + q N) = 0 in q gives grad psi =
(grad psi, T) (T - mu_b' N), and (grad psi, T) > 0 at an outward crossing,
so no gradient of psi is evaluated.  The chart keeps its lengths at grid
shape, so that its arithmetic runs on equal shapes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domains import ImplicitDomain
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
    """Invariant residuals of a reference network (all should be tiny)."""
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


def _cross(a, b):
    """Scalar cross product; (X, R Y) = _cross(Y, X) for the pi/2 rotation R."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


# ---------------------------------------------------------------------------
# finite differences on the rho grid (second order, one-sided at the ends)

# second-order one-sided stencils at the first node, applied to
# rho_0..rho_3: column 0 gives 2 dsigma rho_sigma, column 1 dsigma^2 rho_ss
_END_STENCILS = np.array([[-3.0, 2.0], [4.0, -5.0], [-1.0, 4.0], [0.0, -1.0]])


def rho_derivatives(rho: np.ndarray, lengths: np.ndarray, second: bool = True):
    """(rho_sigma, rho_sigmasigma) on the uniform per-branch grids;
    rho_sigmasigma is None when second is False."""
    rho = np.asarray(rho, dtype=float)
    n = rho.shape[-1] - 1
    d = (np.asarray(lengths, dtype=float) / n)[..., None]

    two_d = 2.0 * d
    rs = np.empty_like(rho)
    rs[..., 1:-1] = (rho[..., 2:] - rho[..., :-2]) / two_d

    # one-sided ends; the last node reads the first-node stencils mirrored,
    # which flips the sign of the odd derivative
    first = rho[..., :4] @ _END_STENCILS
    last = rho[..., :-5:-1] @ _END_STENCILS
    rs[..., 0] = first[..., 0] / two_d[..., 0]
    rs[..., -1] = -(last[..., 0] / two_d[..., 0])
    if not second:
        return rs, None

    d_sq = d**2
    rss = np.empty_like(rho)
    rss[..., 1:-1] = (rho[..., 2:] - 2.0 * rho[..., 1:-1] + rho[..., :-2]) / d_sq
    rss[..., 0] = first[..., 1] / d_sq[..., 0]
    rss[..., -1] = last[..., 1] / d_sq[..., 0]
    return rs, rss


_SLOPE_WEIGHTS = tuple(float(c) for c in _END_STENCILS[:3, 0])


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
    return pts.mean(axis=-2)


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


def chart_geometry(network, domain, state: GraphState,
                   mu_b_guess: np.ndarray | None = None) -> ChartGeometry:
    """Exit jet -> xi partials -> J and kappa on the sigma grids of `state`.

    Because the reference fork is straight, every jet component lies in the
    branch frame (T, N); the curvature then collapses to a scalar expression
    in the xi partials.  The general vector route of the chart jet is the
    reference in tests/oracles.py and agrees with these values to rounding.
    mu_b_guess starts the exit root search; the reference lengths are the
    cold start.  The exit jet (mu_b, mu_b', mu_b'') is kept, so that the
    next chart can predict its exits from it.  A state with a non-finite
    rho or mu raises NonFiniteState before any exit search.
    """
    if not (np.isfinite(state.rho).all() and np.isfinite(state.mu).all()):
        raise NonFiniteState(f"non-finite rho or mu at t = {state.t:.6g}")
    rho_s, rho_ss = rho_derivatives(state.rho, network.lengths)
    l, frac, _ = sigma_grids(state.n, tuple(network.lengths.tolist()))
    mu = state.mu[:, None]

    s_ref = network.lengths[:, None] if mu_b_guess is None else mu_b_guess
    mu_b, dmu, ddmu = domain.offset_exit(network.p_star, network.tangents, network.normals,
                                         state.rho, s_ref)
    xi_sigma = (mu_b - mu) / l
    xi_q = frac * dmu
    xi_sq = dmu / l
    xi_qq = frac * ddmu

    phi_T = xi_sigma + xi_q * rho_s
    J2 = phi_T**2 + rho_s**2
    if (J2 < _J_FLOOR**2).any():
        raise DegenerateMetric(f"metric J collapsed to {np.sqrt(J2.min())}")
    J = np.sqrt(J2)
    kappa = (xi_sigma * rho_ss - (2.0 * xi_sq + xi_qq * rho_s) * rho_s**2) / (J2 * J)
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
                 mu_b_guess: np.ndarray | None = None) -> Coefficients:
    """Evaluate L, Lambda, a, kappa and the junction matrix M.

    The tangential velocities mu_t = Q (T0 M)^{-1} T0(L kappa) are returned
    as well, so one call provides the entire right-hand side
    rho_t = L kappa + Lambda mu_t of the flow.  J and kappa come from
    chart_geometry; the det M floor guards the step.  The mobilities equal
    the tensions, so L and a carry no mobility factor.
    """
    Q = tensions.q
    geo = chart_geometry(network, domain, state, mu_b_guess)
    xi_sigma, J, kappa = geo.xi_sigma, geo.J, geo.kappa
    L = 1.0 / xi_sigma * J
    Lam = (1.0 - geo.frac) * geo.rho_sigma / xi_sigma
    a = 1.0 / geo.J2

    M = np.eye(3) - Lam[:, 0, None] * Q
    det_M = float(np.linalg.det(M))
    if det_M <= _DET_M_FLOOR:
        raise MatrixMNotInvertible(f"det M = {det_M:.4f} at or below floor {_DET_M_FLOOR}")
    mu_t = Q @ (np.linalg.inv(M) @ (L[:, 0] * kappa[:, 0]))

    return Coefficients(**vars(geo), L=L, Lam=Lam, a=a, mu_t=mu_t, det_M=det_M)


_BRANCH6 = np.array([0, 1, 2, 0, 1, 2])  # junction ends, then wall ends
_INNER_NODES = np.array([1, 2, -2, -3])  # the nodes besides the ends that end_slope reads


class BoundaryOperator:
    """The junction and wall residuals for one network, domain and grid,
    evaluated in Python floats (see __call__).

    The per-run constants (frames, lengths, 2 dsigma, cos theta) are
    converted to floats once.  An evaluation takes the six exit jets
    (mu_b, mu_b') from one call of exits, the domain's end_exits callable
    for the six end lines, and reads the wall normals from them; the rest
    is a few hundred flops on 3- and 6-entry vectors, which as numpy calls
    would cost mostly their dispatch.  Where the domain's exit reads its
    start, the exits start from a second-order prediction off the anchor
    chart (see anchor), so that a polynomial exit is mostly accepted at its
    first evaluation.
    """

    def __init__(self, network, domain, angles: JunctionAngles, n: int):
        self.domain = domain
        self.exits = domain.end_exits(network.p_star, network.tangents[_BRANCH6],
                                      network.normals[_BRANCH6])
        self.lengths6 = network.lengths[_BRANCH6].tolist()
        self.frames = list(zip(network.tangents.tolist(), network.normals.tolist(),
                               network.lengths.tolist()))
        self.two_d = [2.0 * (l / n) for l in network.lengths.tolist()]
        self.cos = angles.cos.tolist()
        self.anchor()

    def anchor(self, rho=None, geo=None):
        """Predict the exits from the chart geo of rho: at ends where rho
        moved by dq, from mu_b + dq (mu_b' + mu_b'' dq / 2).  Without a
        chart the prediction is the reference lengths, the cold start.  The
        end values are copied as floats, so later writes to rho or geo do
        not move the anchor.  A domain whose exit does not read its start
        takes no prediction."""
        if not self.domain.exit_reads_start:
            self._jet = None
        elif geo is None:
            self._jet = [(0.0, l, 0.0, 0.0) for l in self.lengths6]
        else:
            ends = (a[:, 0].tolist() + a[:, -1].tolist()
                    for a in (rho, geo.mu_b, geo.dmu_b, geo.ddmu_b))
            self._jet = list(zip(*ends))

    @staticmethod
    def inner(rho):
        """Per branch the nodes 1, 2, n-1, n-2 of rho, which the end slopes
        read besides the boundary values."""
        return rho.take(_INNER_NODES, axis=1).tolist()

    def __call__(self, inner, r0, w, mu) -> list:
        """[g12, g13, outer_1, outer_2, outer_3] as floats for the boundary
        values (r0, w), 3-lists that replace the junction and wall nodes of
        rho, whose interior enters only through the one-sided end slopes
        (inner = inner(rho)); mu, a 3-list, holds the tangential junction
        offsets.

        g12 = (Phi^1_sigma, Phi^2_sigma) - J^1 J^2 cos(theta^3) and cyclically
        g13 with cos(theta^2): the curves meet at the Young angles iff both
        vanish; about the reference g12 linearizes to (rho1_s - rho2_s)
        sin(theta^3).  outer_i = -(R Phi_sigma, grad psi)/(J |grad psi|) at
        sigma = l^i vanishes iff branch i meets the wall at a right angle and
        linearizes to rho_sigma + h_* rho; grad psi is read from the exit jet
        as (grad psi, T) (T - mu_b' N)."""
        q = r0 + w
        s_ref = None
        if self._jet is not None:
            s_ref = []
            for qk, (q0, s, ds, dds) in zip(q, self._jet):
                dq = qk - q0
                s_ref.append(s + dq * (ds + 0.5 * dds * dq))
        mu_b, dmu = self.exits(q, s_ref)
        junction, res = [], []
        for i, ((tx, ty), (nx, ny), l) in enumerate(self.frames):
            a1, a2, b1, b2 = inner[i]
            two_d = self.two_d[i]
            # junction end, sigma = 0: Phi_sigma = xi_sigma T + rho_sigma N
            xs = (mu_b[i] - mu[i]) / l
            rs = end_slope(r0[i], a1, a2, two_d)
            junction.append((xs * tx + rs * nx, xs * ty + rs * ny))
            # wall end, sigma = l: Phi_sigma = xi_sigma T + rho_sigma (mu_b' T + N)
            # = a T + rs N, and grad psi is parallel to T - mu_b' N, so
            # -(R Phi_sigma, grad psi) / (J |grad psi|) is a frame expression
            xs = (mu_b[3 + i] - mu[i]) / l
            rs = -end_slope(w[i], b1, b2, two_d)
            d = dmu[3 + i]
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
