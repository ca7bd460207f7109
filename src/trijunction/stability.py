"""Linearized stability of a stationary network.

About a steady fork the flow linearizes branch-wise to rho_t = rho_ss with
the junction constraint sum_i gamma^i rho^i(0) = 0, equal slopes at the
junction (a natural condition), and the Robin relation rho_s + h_* rho = 0
at the wall.  The quadratic form

    I[phi, phi] = sum_i gamma^i ( int_0^{l_i} (phi_s)^2 ds + h_i phi(l_i)^2 )

gives the maximal eigenvalue as -inf I[phi,phi]/||phi||^2 over the
constrained space; it is negative exactly under stability_criterion.

Linear elements with consistent mass in the constraint plane give a
symmetric reduced pencil: three tridiagonal branch blocks bordered by the two
plane coordinates.  lambda_max comes from that structure alone, by a Sturm
count of the blocks plus the 2x2 Schur complement onto the plane (Barth,
Martin & Wilkinson 1967; Golub 1973).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv, dstebz
from scipy.optimize import brentq

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


def _branch_forms(network, n):
    """(2, 4, 3): per branch the (diagonal, last diagonal, off-diagonal,
    junction diagonal) of the stiffness with the Robin term, then of the
    consistent mass, of linear elements; gamma divided out."""
    d = network.lengths / n
    return np.array([(2.0 / d, 1.0 / d + network.h_star, -1.0 / d, 1.0 / d),
                     (4.0 * d / 6.0, 2.0 * d / 6.0, d / 6.0, 2.0 * d / 6.0)])


def assemble_forms(network: StationaryNetwork, tensions: SurfaceTensions,
                   n_per_branch: int):
    """Reduced pencil (A, B) = (-Z^T K Z, Z^T B Z) in CSC, built directly, in
    the coordinates b phi(0) (rows b_0, b_1 of constraint_basis), then nodes
    1..n of branches 0, 1 and 2; K and B are the gamma-scaled _branch_forms.
    Every entry is the float of the null-space product: the tridiagonal
    values, b_ai off_i coupling a branch's first node, and the junction block
    sum_i (b_ai end_i) b_bi in branch order; exact zeros are dropped."""
    n = int(n_per_branch)
    b = constraint_basis(tensions)
    diag, last, off, end = np.swapaxes(tensions.array * _branch_forms(network, n), 0, 1)
    dim = 3 * n + 2
    first = 2 + n * np.arange(3)
    # Each column holds five slots in ascending row order: the two junction
    # coordinates, then (sub, diagonal, super) for a node column or the three
    # branches' first nodes for a junction column.  Absent slots hold zeros,
    # and eliminate_zeros drops them with the exact zeros.
    rows = np.arange(dim, dtype=np.int32)[:, None] + np.array([0, 0, -1, 0, 1], dtype=np.int32)
    rows[:, :2] = (0, 1)
    rows[:2, 2:] = first
    rows[-1, 4] = 0
    vals = np.zeros((2, dim, 5))  # [form, column, slot]
    terms = (b[:, None, :] * end[:, None, None, :]) * b[None, :, :]  # (b_ri end_i) b_ci
    vals[:, :2, :2] = np.swapaxes(terms[..., 0] + terms[..., 1] + terms[..., 2], 1, 2)
    coupling = b * off[:, None, :]  # [form, r, i]: coordinate r, first node of branch i
    vals[:, :2, 2:] = coupling
    vals[:, first, :2] = np.swapaxes(coupling, 1, 2)
    diagonal = np.repeat(diag, n, axis=1).reshape(2, 3, n)
    diagonal[..., -1] = last
    vals[:, 2:, 3] = diagonal.reshape(2, 3 * n)
    vals[:, 2:, 2] = vals[:, 2:, 4] = np.repeat(off, n, axis=1)
    vals[:, first, 2] = vals[:, first + n - 1, 4] = 0.0
    indptr = np.arange(0, 5 * dim + 1, 5, dtype=np.int32)
    A, B = (sp.csc_matrix((v.ravel(), rows.ravel(), indptr), shape=(dim, dim), copy=True)
            for v in (-vals[0], vals[1]))
    A.eliminate_zeros()  # in place, hence the copies of the shared rows and indptr
    B.eliminate_zeros()
    return A, B


def _lambda_upper_bound(network):
    """Rigorous if crude bound: lambda <= max_i(|h_i|/l_i + h_i^2)."""
    h = np.abs(network.h_star)
    return float(np.max(h / network.lengths + h**2)) + 1.0


def _inertia(lam, forms, n, g, outer):
    """(count, poles, low, c, x) at lam.  The branch blocks M_i of K + lam B
    (gamma divided out) form one 3n tridiagonal with zero seams: dstebz counts
    its negative eigenvalues, the branch poles above lam, and dgtsv solves for
    x = M_i^-1 e_1.  S = sum_i g_i (e_i - o_i^2 (M_i^-1)_11) b_i b_i^T has lower
    eigenvalue low with unit vector c, and by Sylvester's law of inertia
    count = poles + #{negative eigenvalues of S} = #{eigenvalues above lam}."""
    diag, last, off, end = forms[0] + lam * forms[1]
    d = np.repeat(diag, n)
    d[n - 1::n] = last
    e = np.repeat(off, n)
    e[n - 1::n] = 0.0
    poles = dstebz(d, e[:-1], 1, -np.inf, 0.0, 0, 0, np.inf, b"B")[0]
    rhs = np.zeros((3 * n, 1))
    rhs[::n] = 1.0
    *_, x, info = dgtsv(e[:-1], d, e[:-1], rhs)
    if info:
        raise EigenSolveFailed(f"branch solve failed at lambda = {lam} (dgtsv info {info})")
    (p, q), (_, r) = outer @ (g * (end - off**2 * x[::n, 0]))
    rad = np.hypot(0.5 * (p - r), q)
    low = 0.5 * (p + r) - rad
    theta = 0.5 * np.arctan2(q, 0.5 * (p - r))  # (cos, sin) spans the upper eigenvector
    c = np.array([-np.sin(theta), np.cos(theta)])
    return poles + (low < 0) + (low + 2.0 * rad < 0), poles, low, c, x[:, 0]


def max_eigenvalue(network: StationaryNetwork, tensions: SurfaceTensions,
                   n_per_branch: int = 400) -> SpectrumResult:
    """Largest eigenvalue of the constrained pencil -K phi = lambda B phi.

    _inertia's count certifies the bracket from the Rayleigh quotient of the
    branchwise constant b_0, minus 1, to _lambda_upper_bound; bisection on it
    clears the bracket of branch poles, and brentq finds the root of S's lower
    eigenvalue.  The eigenfunction has unit consistent-mass norm and the sign
    of its largest |phi|.  A failed bracket or Rayleigh check raises
    EigenSolveFailed.
    """
    n = int(n_per_branch)
    A_red, B_red = assemble_forms(network, tensions, n)
    b = constraint_basis(tensions)
    forms = _branch_forms(network, n)
    outer = b[:, None, :] * b[None, :, :]  # [r, c, i] = b_ri b_ci, symmetric in r, c

    def inertia(lam):
        return _inertia(lam, forms, n, tensions.array, outer)

    v0 = np.concatenate([(1.0, 0.0), np.repeat(b[0], n)])
    lo, hi = _quotient(A_red, B_red, v0) - 1.0, _lambda_upper_bound(network)
    (count, poles, *_), (count_hi, *_) = inertia(lo), inertia(hi)
    if count == 0 or count_hi > 0:
        raise EigenSolveFailed(f"[{lo}, {hi}] does not bracket the top eigenvalue")
    while poles:  # bisect on the count until no branch pole is left in (lo, hi)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise EigenSolveFailed(f"the top eigenvalue meets a branch pole at {mid}")
        count, mid_poles, *_ = inertia(mid)
        lo, hi, poles = (mid, hi, mid_poles) if count else (lo, mid, poles)
    lam = brentq(lambda t: inertia(t)[2], lo, hi, xtol=1e-13)
    *_, c, x = inertia(lam)
    # S's null vector gives the junction values; branch i continues as -o_i phi_i(0) M_i^-1 e_1
    phi0 = (b[0] * c[0] + b[1] * c[1])[:, None]
    phi = np.hstack([phi0, -(forms[0, 2] + lam * forms[1, 2])[:, None] * phi0 * x.reshape(3, n)])
    vec = np.concatenate([c, phi[:, 1:]], axis=None)
    rayleigh = _quotient(A_red, B_red, vec)
    if not abs(rayleigh - lam) <= 1e-6 * max(1.0, abs(lam)):
        raise EigenSolveFailed(f"Rayleigh quotient {rayleigh} disagrees with lambda = {lam}")
    phi *= np.sign(phi.flat[np.argmax(np.abs(phi))]) / np.sqrt(vec @ (B_red @ vec))
    return SpectrumResult(lambda_max=float(lam), eigenfunction=phi, rayleigh=rayleigh, n=n)


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
