"""Stationary networks: straight segments at Young angles, perpendicular walls.

A steady configuration has zero curvature on every branch, so each branch is
a straight ray from the junction, the rays leave at the Young angles, and
each must cross the wall at a right angle.  That reduces the steady-state
problem to three scalar perpendicularity residuals in the unknowns
(p_x, p_y, phi), with phi a global rotation of the Young direction triple.

Rotationally symmetric domains make the phi direction neutral; callers must
then pin phi with a gauge, and the solve drops to a Gauss-Newton iteration
in p alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import _weighted_integral, kappa_l2_sq_sigma_grid
from .domains import ImplicitDomain, boundary_curvature, boundary_hit
from .errors import NoConvergence, SingularJacobian
from .parameterization import GraphState, StationaryNetwork, chart_geometry
from .tensions import SurfaceTensions, tangent_frames

_COND_LIMIT = 1e10
_FD_STEP = 1e-7
_NEWTON_TOL = 1e-10  # max-norm residual tolerance of the steady solve
_NEWTON_MAX = 60  # iteration cap of the steady solve
_KAPPA_FLOOR = 1e-12  # h2_ratio_series skips states with ||kappa||_L2 <= this


@dataclass
class SteadyGuess:
    """Newton starting point: junction position and direction-triple rotation."""

    p: tuple[float, float] = (0.0, 0.0)
    phi: float = 0.0
    gauge: float | None = None  # if set, phi is pinned to this value


def _residual_and_hits(domain, tensions, p, phi):
    tangents, normals = tangent_frames(tensions.angles, phi)
    res = np.empty(3)
    hits = np.empty((3, 2))
    dists = np.empty(3)
    for i in range(3):
        point, dist = boundary_hit(domain, p, tangents[i])
        g = domain.grad(point)
        res[i] = float(normals[i] @ g) / np.linalg.norm(g)
        hits[i] = point
        dists[i] = dist
    return res, hits, dists, tangents, normals


def steady_residual(domain: ImplicitDomain, tensions: SurfaceTensions,
                    guess: SteadyGuess) -> np.ndarray:
    """Perpendicularity defect (N^i, grad psi / |grad psi|) per branch."""
    res, *_ = _residual_and_hits(domain, tensions, np.asarray(guess.p, dtype=float),
                                 guess.phi)
    return res


def find_stationary(domain: ImplicitDomain, tensions: SurfaceTensions,
                    guess: SteadyGuess) -> StationaryNetwork:
    """Damped Newton / Gauss-Newton solve of the steady-state conditions.

    Free problem: 3 residuals, 3 unknowns (p, phi), plain Newton with a
    forward-difference Jacobian.  Gauged problem (guess.gauge set): phi is
    frozen and the 3x2 system is solved in the least-squares sense, which is
    exact whenever the gauge slice actually contains a root.  A Jacobian
    condition number beyond 1e10 reports the missing gauge on symmetric
    domains instead of wandering.
    """
    gauged = guess.gauge is not None
    phi0 = guess.gauge if gauged else guess.phi
    x = np.array([*guess.p, phi0], dtype=float)
    m = 2 if gauged else 3

    def residual(xv):
        r, *_ = _residual_and_hits(domain, tensions, xv[:2], xv[2])
        return r

    r = residual(x)
    for _ in range(_NEWTON_MAX):
        if np.max(np.abs(r)) < _NEWTON_TOL:
            break
        jac = np.empty((3, m))
        for k in range(m):
            xp = x.copy()
            xp[k] += _FD_STEP
            jac[:, k] = (residual(xp) - r) / _FD_STEP
        if np.linalg.cond(jac) > _COND_LIMIT:
            raise SingularJacobian(
                "steady Jacobian is rank deficient; fix the rotation gauge"
            )
        if gauged:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        else:
            step = np.linalg.solve(jac, -r)
        # damped line search on the residual norm
        lam = 1.0
        base = np.linalg.norm(r)
        for _ in range(11):
            x_try = x.copy()
            x_try[:m] += lam * step
            r_try = residual(x_try)
            if np.linalg.norm(r_try) < base:
                x, r = x_try, r_try
                break
            lam *= 0.5
        else:
            raise NoConvergence(_NEWTON_MAX, residual=float(base))
    else:
        raise NoConvergence(_NEWTON_MAX, residual=float(np.max(np.abs(r))))

    res, hits, dists, tangents, normals = _residual_and_hits(
        domain, tensions, x[:2], x[2]
    )
    h = np.array([boundary_curvature(domain, hits[i]) for i in range(3)])
    return StationaryNetwork(
        p_star=x[:2].copy(),
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


def h2_bound_check(network, domain, tensions, states) -> float:
    """Empirical supremum of ||rho||_{H^2} / ||kappa||_{L^2} along a trajectory."""
    ratios = h2_ratio_series(network, domain, tensions, states)
    if ratios.size == 0:
        raise ValueError("no states with ||kappa|| above the floor")
    return float(ratios.max())
