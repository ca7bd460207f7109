"""Linearized stability of a stationary network.

About a steady fork the flow linearizes branch-wise to rho_t = rho_ss with
the junction constraint sum_i gamma^i rho^i(0) = 0, equal slopes at the
junction (a natural condition), and the Robin relation rho_s + h_* rho = 0
at the wall.  The associated quadratic form

    I[phi, phi] = sum_i gamma^i ( int_0^{l_i} (phi_s)^2 ds + h_i phi(l_i)^2 )

controls everything: the maximal eigenvalue of the time-independent problem
is -inf I[phi,phi]/||phi||^2 over the constrained space, and it is negative
exactly under the algebraic criterion implemented in stability_criterion.

Discretization: piecewise-linear elements per branch, consistent mass, and
the single junction constraint eliminated by working in its plane: the
reduced pencil is assembled directly in junction-plane plus free-node
coordinates, so it stays symmetric and the Rayleigh characterization is exact
at the discrete level.  The eigenfunction's normalization, its Rayleigh check
and rayleigh_quotient all read that one pencil.  The full-space forms and
their null-space product are the reference in tests/oracles.py.  The junction
slope condition is natural and only verified a posteriori.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import EigenSolveFailed, ZeroFunction
from .parameterization import StationaryNetwork, end_slope
from .tensions import SurfaceTensions, constraint_basis

_MARGINAL_BAND = 1e-10


@dataclass
class SpectrumResult:
    lambda_max: float
    eigenfunction: np.ndarray  # (3, n+1) nodal values
    rayleigh: float
    n: int


@dataclass
class StabilityVerdict:
    verdict: str  # "Stable" | "Unstable" | "Marginal"
    case: str  # clause that decided: "all_h_positive" | "expression" | "two_nonpositive"
    criterion_value: float | None


def assemble_forms(network: StationaryNetwork, tensions: SurfaceTensions,
                   n_per_branch: int):
    """Reduced pencil (A, B) = (-Z^T K Z, Z^T B Z) in CSC, built directly.

    K and B are the gamma-scaled stiffness and consistent mass of linear
    elements on each branch, the Robin term gamma_i h_i on the wall node, and
    Z is the orthonormal basis of the junction constraint sum_i gamma^i
    phi^i(0) = 0.  The reduced coordinates are the two junction-plane
    coordinates (rows b_0, b_1 of constraint_basis) followed by nodes 1..n of
    branches 0, 1 and 2.  Every entry is the float the null-space product
    forms: the tridiagonal values, b_ai times the junction off-diagonal for
    the coupling to a branch's first node, and sum_i (b_ai end_i) b_bi in
    branch order for the junction block; exact zeros are dropped.
    """
    g = tensions.array
    n = int(n_per_branch)
    b = constraint_basis(tensions)
    d = network.lengths / n
    # per branch: (diagonal, last diagonal, off-diagonal, junction diagonal)
    stiff = (g * (2.0 / d), g * (1.0 / d + network.h_star), g * (-1.0 / d), g * (1.0 / d))
    mass = (g * (4.0 * d / 6.0), g * (2.0 * d / 6.0), g * (d / 6.0), g * (2.0 * d / 6.0))
    dim = 3 * n + 2
    # Each column holds at most five slots in ascending row order: the two
    # junction coordinates, then (sub, diagonal, super) for a node column or
    # the three branches' first nodes for a junction column.
    rows = np.arange(dim, dtype=np.int32)[:, None] + np.array([0, 0, -1, 0, 1], dtype=np.int32)
    rows[:, :2] = (0, 1)
    rows[:2, 2:] = (2, 2 + n, 2 + 2 * n)
    k = np.tile(np.arange(1, n + 1), 3)
    present = np.ones((dim, 5), dtype=bool)
    present[2:, :2] = (k == 1)[:, None]
    present[2:, 2] = k > 1
    present[2:, 4] = k < n
    forms = []
    for diag, last, off, end in (stiff, mass):
        vals = np.empty((dim, 5))
        terms = (b[:, None, :] * end) * b[None, :, :]  # [r, c, i] = (b_ri end_i) b_ci
        vals[:2, :2] = (terms[..., 0] + terms[..., 1] + terms[..., 2]).T
        coupling = b * off  # [r, i]: junction coordinate r, first node of branch i
        vals[:2, 2:] = coupling
        vals[2 + n * np.arange(3), :2] = coupling.T
        diagonal = np.repeat(diag, n).reshape(3, n)
        diagonal[:, -1] = last
        vals[2:, 3] = diagonal.ravel()
        vals[2:, 2] = vals[2:, 4] = np.repeat(off, n)
        keep = present & (vals != 0.0)
        indptr = np.zeros(dim + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        forms.append(sp.csc_matrix((vals[keep], rows[keep], indptr), shape=(dim, dim)))
    A, B = forms
    A.data = -A.data
    return A, B


@lru_cache(maxsize=16)
def _start_vector(dim):
    """Fixed ARPACK start vector per dimension.  Read-only, so that sharing
    it between solves is safe: eigsh copies it, and a write would raise."""
    v0 = np.random.default_rng(1234).standard_normal(dim)
    v0.flags.writeable = False
    return v0


def _lambda_upper_bound(network):
    """Rigorous if crude bound: lambda <= max_i(|h_i|/l_i + h_i^2)."""
    h = np.abs(network.h_star)
    return float(np.max(h / network.lengths + h**2)) + 1.0


def max_eigenvalue(network: StationaryNetwork, tensions: SurfaceTensions,
                   n_per_branch: int = 400) -> SpectrumResult:
    """Largest eigenvalue of the constrained pencil -K phi = lambda B phi.

    Tries a shift-inverted sparse solve around a certified upper bound and
    falls back to one dense symmetric solve when ARPACK fails or its Rayleigh
    quotient disagrees; a failing dense solve raises EigenSolveFailed.  The
    eigenfunction has unit gamma-weighted consistent-mass norm and a
    deterministic sign; its norm and Rayleigh quotient are read from the
    reduced pencil that was solved.
    """
    n = int(n_per_branch)
    A_red, B_red = assemble_forms(network, tensions, n)
    b = constraint_basis(tensions)

    lam, vec = None, None
    try:
        from scipy.sparse.linalg import eigsh

        # sigma bounds the spectrum from above, so the eigenvalue nearest the
        # shift in magnitude of 1/(lambda - sigma) is the maximal one; k=2
        # keeps ARPACK stable when the top eigenvalue is double, and a fixed
        # start vector keeps repeated solves bitwise reproducible even then.
        sigma = _lambda_upper_bound(network)
        v0 = _start_vector(A_red.shape[0])
        vals, vecs = eigsh(A_red, k=2, M=B_red, sigma=sigma, which="LM", v0=v0)
        top = int(np.argmax(vals))
        lam, vec = float(vals[top]), vecs[:, top]
    except (RuntimeError, np.linalg.LinAlgError):
        # ArpackError/ArpackNoConvergence and a singular shift-invert factor
        pass

    def result_for(lam, vec):
        # unit mass norm in the solved pencil; sign fixed by the largest |phi|
        vec = vec / np.sqrt(vec @ (B_red @ vec))
        phi = np.empty((3, n + 1))
        phi[:, 0] = b[0] * vec[0] + b[1] * vec[1]
        phi[:, 1:] = vec[2:].reshape(3, n)
        k = np.unravel_index(np.argmax(np.abs(phi)), phi.shape)
        if phi[k] < 0:
            phi = -phi
        return SpectrumResult(lambda_max=lam, eigenfunction=phi,
                              rayleigh=_quotient(A_red, B_red, vec), n=n)

    if lam is not None:
        result = result_for(lam, vec)
        if abs(result.rayleigh - lam) <= 1e-6 * max(1.0, abs(lam)):
            return result
        # otherwise shift-invert returned junk; redo densely
    try:
        vals, vecs = scipy.linalg.eigh(A_red.toarray(), B_red.toarray())
    except np.linalg.LinAlgError as exc:
        raise EigenSolveFailed(str(exc)) from exc
    return result_for(float(vals[-1]), vecs[:, -1])


def _quotient(A, B, v):
    """(v A v) / (v B v), the Rayleigh quotient of the reduced pencil."""
    den = v @ (B @ v)
    if den < 1e-300:
        raise ZeroFunction("Rayleigh quotient of the zero function")
    return float((v @ (A @ v)) / den)


def rayleigh_quotient(network: StationaryNetwork, tensions: SurfaceTensions,
                      phi: np.ndarray) -> float:
    """I[phi,phi] / ||phi||^2 for nodal values phi in the constraint plane,
    read from the reduced pencil at phi's coordinates (b phi(0), phi(1..n))."""
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[1] - 1
    A, B = assemble_forms(network, tensions, n)
    v = np.concatenate([constraint_basis(tensions) @ phi[:, 0], phi[:, 1:].ravel()])
    return -_quotient(A, B, v)


def stability_criterion(lengths, h_star, tensions: SurfaceTensions) -> StabilityVerdict:
    """Algebraic stability test on (l^i, h^i, gamma^i).

    Stable when all wall curvatures are positive, or when at most one is
    non-positive and

        gamma1 (1 + l1 h1) h2 h3 + gamma2 (1 + l2 h2) h1 h3
                                 + gamma3 (1 + l3 h3) h1 h2 > 0.

    Two or more non-positive curvatures are unstable outright; expression
    values within _MARGINAL_BAND of 0 are reported as Marginal.
    """
    l = np.asarray(lengths, dtype=float)
    h = np.asarray(h_star, dtype=float)
    g = tensions.array
    if np.all(h > 0.0):
        return StabilityVerdict("Stable", "all_h_positive", None)
    if np.sum(h <= 0.0) >= 2:
        return StabilityVerdict("Unstable", "two_nonpositive", None)
    expr = float(
        g[0] * (1.0 + l[0] * h[0]) * h[1] * h[2]
        + g[1] * (1.0 + l[1] * h[1]) * h[0] * h[2]
        + g[2] * (1.0 + l[2] * h[2]) * h[0] * h[1]
    )
    if expr > _MARGINAL_BAND:
        return StabilityVerdict("Stable", "expression", expr)
    if expr < -_MARGINAL_BAND:
        return StabilityVerdict("Unstable", "expression", expr)
    return StabilityVerdict("Marginal", "expression", expr)


def junction_slopes(network: StationaryNetwork, phi: np.ndarray) -> np.ndarray:
    """One-sided slopes of nodal data at sigma = 0, one per branch."""
    phi = np.asarray(phi, dtype=float)
    two_d = 2.0 * network.lengths / (phi.shape[1] - 1)
    return end_slope(phi[:, 0], phi[:, 1], phi[:, 2], two_d)
