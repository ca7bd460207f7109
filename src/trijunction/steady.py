"""Stationary networks: straight segments at Young angles, perpendicular walls.

A steady configuration has zero curvature on every branch, so each branch is
a straight ray from the junction, the rays leave at the Young angles, and
each must cross the wall at a right angle.  That reduces the steady-state
problem to three scalar perpendicularity residuals in the unknowns
(p_x, p_y, phi), with phi a global rotation of the Young direction triple.

Rotationally symmetric domains make the phi direction neutral; callers must
then pin phi with a gauge, and the solve drops to a Gauss-Newton iteration
in p alone.  Both run on domains.newton with a fresh exact Jacobian every
step, read by the chain rule off the hits of the last residual evaluation
and the Hessian there, so a refresh shoots no ray.
Each residual evaluation shoots the three rays with domains.boundary_hit,
whose crossing each domain family gives: the closed-form quadratic root on
a conic, and on other walls Newton from the bracket of a scan along the
ray, with Brent's method on that bracket as the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import _weighted_integral, kappa_l2_sq_sigma_grid
from .domains import ImplicitDomain, boundary_curvature, boundary_hit, newton
from .errors import SingularJacobian
from .parameterization import GraphState, StationaryNetwork, chart_geometry
from .tensions import SurfaceTensions, tangent_frames

_KAPPA_FLOOR = 1e-12  # h2_ratio_series skips states with ||kappa||_L2 <= this


@dataclass
class SteadyGuess:
    """Newton starting point: junction position and direction-triple rotation."""

    p: tuple[float, float] = (0.0, 0.0)
    phi: float = 0.0
    gauge: float | None = None  # if set, phi is pinned to this value


def _shoot(domain, tensions, p, phi):
    """The three rays from p at rotation phi: (residuals, hits, distances,
    tangents, normals, wall gradients at the hits)."""
    tangents, normals = tangent_frames(tensions.angles, phi)
    res = np.empty(3)
    hits = np.empty((3, 2))
    dists = np.empty(3)
    grads = np.empty((3, 2))
    for i in range(3):
        point, dist = boundary_hit(domain, p, tangents[i])
        g = domain.grad(point)
        res[i] = float(normals[i] @ g) / np.linalg.norm(g)
        hits[i] = point
        dists[i] = dist
        grads[i] = g
    return res, hits, dists, tangents, normals, grads


def _jacobian(domain, shot, free):
    """The exact Jacobian of the residuals of a shot in (p_x, p_y), and phi
    if free, from its hits and the Hessian there.

    A hit x = p + t T moves along its ray so as to stay on the wall:
    dx/dp = I - T g^T / (g, T) with g = grad psi(x).  The residual
    (N, g) / |g| moves with x by (N - (N, g^) g^)^T H / |g|, g^ = g / |g|
    and H the Hessian at x.  A rotation turns T by N and N by -T, so it
    moves the residual by -(T, g^) and x as a move of p by t N."""
    _, hits, dists, tangents, normals, g = shot
    gnorm = np.linalg.norm(g, axis=1)
    ghat = g / gnorm[:, None]
    proj = normals - np.einsum("ik,ik->i", normals, ghat)[:, None] * ghat
    by_x = np.einsum("ik,ikl->il", proj, domain.hess(hits)) / gnorm[:, None]
    by_p = by_x - (np.einsum("ik,ik->i", by_x, tangents)
                   / np.einsum("ik,ik->i", g, tangents))[:, None] * g
    if not free:
        return by_p
    by_phi = (dists * np.einsum("ik,ik->i", by_p, normals)
              - np.einsum("ik,ik->i", tangents, ghat))
    return np.column_stack((by_p, by_phi))


def steady_residual(domain: ImplicitDomain, tensions: SurfaceTensions,
                    guess: SteadyGuess) -> np.ndarray:
    """Perpendicularity defect (N^i, grad psi / |grad psi|) per branch."""
    return _shoot(domain, tensions, np.asarray(guess.p, dtype=float), guess.phi)[0]


def find_stationary(domain: ImplicitDomain, tensions: SurfaceTensions,
                    guess: SteadyGuess) -> StationaryNetwork:
    """Damped Newton / Gauss-Newton solve of the steady-state conditions.

    Free problem: 3 residuals, 3 unknowns (p, phi).  Gauged problem
    (guess.gauge set): phi is frozen and the 3x2 system is solved in the
    least-squares sense, which is exact whenever the gauge slice actually
    contains a root.  The Jacobian is exact (_jacobian) and reads the hits
    of the last residual evaluation, which also give the network, so
    neither shoots the rays again.  domains.newton's condition guard (1e6)
    reports a missing gauge on symmetric domains as SingularJacobian:
    healthy Jacobians read at most a few hundred, rank-deficient ones 1e6
    and more.
    """
    gauged = guess.gauge is not None
    last = [None, None]  # the last evaluated unknowns and their shot

    def shot(u):  # u = [p_x, p_y] with phi pinned, else [p_x, p_y, phi]
        if u != last[0]:
            phi = float(guess.gauge) if gauged else u[2]
            last[:] = list(u), _shoot(domain, tensions, np.array(u[:2]), phi)
        return last[1]

    start = [float(v) for v in guess.p] + ([] if gauged else [float(guess.phi)])
    try:
        u = newton(lambda u: shot(u)[0].tolist(),
                   lambda u: _jacobian(domain, shot(u), not gauged), start)
    except SingularJacobian as e:
        raise SingularJacobian(f"steady Jacobian is rank deficient ({e}); "
                               "fix the rotation gauge") from e
    _, hits, dists, tangents, normals, _ = shot(u)
    h = np.array([boundary_curvature(domain, hits[i]) for i in range(3)])
    return StationaryNetwork(
        p_star=np.array(u[:2]),
        tangents=tangents,
        normals=normals,
        lengths=dists,
        h_star=h,
        endpoints=hits,
    )


def h2_ratio_series(network: StationaryNetwork, domain: ImplicitDomain,
                    tensions: SurfaceTensions, states: list[GraphState]) -> np.ndarray:
    """||rho||_{H^2} / ||kappa||_{L^2} for each state with ||kappa|| above 1e-12.

    ||rho||_{H^2} = ||rho||_{L^2} + ||rho_ss||_{L^2} on the sigma grids;
    ||kappa||_{L^2} uses the arc-length element J dsigma.  Both are
    gamma-weighted.
    """
    g = tensions.array
    out = []
    for state in states:
        geo = chart_geometry(network, domain, state)
        kap = float(np.sqrt(kappa_l2_sq_sigma_grid(network, tensions, geo)))
        if kap <= _KAPPA_FLOOR:
            continue
        dx = network.lengths / state.n
        h2 = (np.sqrt(_weighted_integral(g, state.rho**2, 1.0, dx))
              + np.sqrt(_weighted_integral(g, geo.rho_ss**2, 1.0, dx)))
        out.append(h2 / kap)
    return np.asarray(out)

