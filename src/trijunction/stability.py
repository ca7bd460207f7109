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
Martin & Wilkinson 1967; Golub 1973).  Each block has constant coefficients
but for its wall row, so its Sturm sequence, the Schur complement and the
eigenfunction have closed forms in Chebyshev polynomials (Yueh 2005): the
count reads each block's sign changes from one angle or one sign, and the
root search runs on the closed-form Schur complement, by Brent's method
(domains.brentq, scipy's iteration in Python floats, so the package does not
import scipy.optimize).
The pencil is never assembled: the solve reads the per-branch element forms
of assemble_forms, and norms and Rayleigh quotients are sums over the nodal
values of each branch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg  # noqa: F401 -- bench/spans.py looks this module up to trace eigsh

from .domains import brentq
from .errors import EigenSolveFailed, RootSearchFailed, ZeroFunction
from .parameterization import StationaryNetwork
from .tensions import SurfaceTensions

_MARGINAL_BAND = 1e-10
# A second eigenvalue this close (relative) to lambda_max makes it double:
# the steady solve leaves the 3-fold symmetric forks split by about 1e-11.
_DOUBLE_BAND = 1e-9


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


def _checked_fork(lengths, h_star):
    """(lengths, h_star) as float arrays; ValueError unless they are three
    positive finite lengths and three finite wall curvatures."""
    l, h = np.asarray(lengths, dtype=float), np.asarray(h_star, dtype=float)
    if l.shape != (3,) or not all(0.0 < x < math.inf for x in l.tolist()):
        raise ValueError(f"lengths must be three positive finite numbers, got {lengths}")
    if h.shape != (3,) or not all(map(math.isfinite, h.tolist())):
        raise ValueError(f"wall curvatures must be three finite numbers, got {h_star}")
    return l, h


def assemble_forms(network: StationaryNetwork, tensions: SurfaceTensions,
                   n_per_branch: int):
    """(forms, b): forms (2, 4, 3) holds per branch the (diagonal, last
    diagonal, off-diagonal, junction diagonal) of the stiffness with the Robin
    term, then of the consistent mass, of linear elements, gamma divided out;
    b is tensions.basis, the plane coordinates of phi(0)."""
    d = network.lengths / int(n_per_branch)
    forms = np.array([(2.0 / d, 1.0 / d + network.h_star, -1.0 / d, 1.0 / d),
                      (4.0 * d / 6.0, 2.0 * d / 6.0, d / 6.0, 2.0 * d / 6.0)])
    return forms, tensions.basis


def _pencil_values(network, g, phi):
    """(I[phi,phi], ||phi||^2) of nodal values phi (3, n+1) under the linear
    elements: per branch sum (phi_{k+1} - phi_k)^2 / d + h phi_n^2 and the
    consistent mass (d/3) sum (phi_k^2 + phi_k phi_{k+1} + phi_{k+1}^2),
    weighted by g.  The differences keep the stiffness free of the
    cancellation of 2/d sum phi^2 against 2/d sum phi_k phi_{k+1}."""
    d = network.lengths / (phi.shape[1] - 1)
    left, right = phi[:, :-1], phi[:, 1:]
    stiffness = np.sum((right - left) ** 2, axis=1) / d + network.h_star * phi[:, -1] ** 2
    mass = d / 3.0 * np.sum(left * left + left * right + right * right, axis=1)
    return float(g @ stiffness), float(g @ mass)


def _quotient(form, mass):
    """I[phi,phi] / ||phi||^2 from the pair that _pencil_values returns."""
    if mass < 1e-300:
        raise ZeroFunction("Rayleigh quotient of the zero function")
    return form / mass


def _lambda_upper_bound(network):
    """Rigorous if crude bound: lambda <= max_i(|h_i|/l_i + h_i^2)."""
    h = np.abs(network.h_star)
    return float(np.max(h / network.lengths + h**2)) + 1.0


def _regime(lam, kd, ko, md, mo, d, h):
    """(|o|, |x| - 1, eta, sign), or None if o = 0, for the branch block
    M = K + lam B (gamma divided out) with diagonal a = kd + lam md,
    off-diagonal o = ko + lam mo and wall entry a/2 + h.  Its trailing m x m
    determinants are |o|^m E_m with E_m = T_m(x) + eta U_{m-1}(x), x = a/(2|o|)
    and eta = h/|o|.  The stiffness rows sum to zero, so a + 2o = lam d
    exactly, and x - 1 keeps its digits near lam = 0.  For x < 0 the block is
    read at -x with -eta and sign -1, as T_m(-x) = (-1)^m T_m(x) and
    U_m(-x) = (-1)^m U_m(x)."""
    a, o = kd + lam * md, ko + lam * mo
    if o == 0.0:
        return None
    r = abs(o)
    below, above = (lam * d, a - 2.0 * o) if o < 0 else (a - 2.0 * o, lam * d)  # a -/+ 2|o|
    if a < 0:
        return r, -above / (2.0 * r), -h / r, -1.0
    return r, below / (2.0 * r), h / r, 1.0


def _weight(lam, n, kd, ko, md, mo, d, h):
    """w = e - o^2 (M^-1)_11 of one branch block in closed form.  As
    (M^-1)_11 = E_{n-1}/(|o| E_n) and the junction entry e is a/2,
    w = |o| ((x^2 - 1) U_{n-1}(x) + eta T_n(x)) / (T_n(x) + eta U_{n-1}(x))
    without the cancellation of e against o^2 (M^-1)_11; at x = cosh t both
    are divided by cosh(n t), so nothing overflows.  At a branch pole
    (E_n = 0) w is -inf, its limit from above."""
    reg = _regime(lam, kd, ko, md, mo, d, h)
    if reg is None:
        return 0.5 * (kd + lam * md)
    r, eps, eta, sign = reg
    if eps >= 0.0:  # x = cosh t, divided by T_n = cosh(n t)
        s = math.sqrt(eps) * math.sqrt(2.0 + eps)  # sinh t
        th = math.tanh(2.0 * n * math.asinh(math.sqrt(0.5 * eps)))
        num, den = s * th + eta, 1.0 + eta * (th / s if s else n)
    else:  # x = cos theta
        sn = math.sqrt(-eps) * math.sqrt(2.0 + eps)
        nth = 2.0 * n * math.asin(math.sqrt(-0.5 * eps))
        cn, sin_n = math.cos(nth), math.sin(nth)
        num, den = eta * cn - sn * sin_n, cn + eta * sin_n / sn
    return sign * r * num / den if den else -math.inf


def _profile(lam, n, kd, ko, md, mo, d, h):
    """phi_k / phi(0) = (-o/|o|)^k E_{n-k}/E_n, k = 0..n: the continuation of
    the junction value into the branch that solves its block, with E_m scaled
    by e^{-m t} for x = cosh t so that nothing overflows.  An E_n that is 0
    or not finite, where lambda sits on a branch pole to rounding, raises
    EigenSolveFailed before the division (a NaN elsewhere in E fails the
    solve's Rayleigh check)."""
    reg = _regime(lam, kd, ko, md, mo, d, h)
    if reg is None:
        return np.r_[1.0, np.zeros(n)]
    _, eps, eta, sign = reg
    m = np.arange(n, -1.0, -1.0)
    if eps >= 0.0:
        s, t = math.sqrt(eps) * math.sqrt(2.0 + eps), 2.0 * math.asinh(math.sqrt(0.5 * eps))
        u = -np.expm1(-2.0 * t * m) / (2.0 * s) if s else m  # e^{-m t} U_{m-1}
        E = (0.5 + 0.5 * np.exp(-2.0 * t * m) + eta * u) * np.exp(t * (m - n))
    else:
        theta = 2.0 * math.asin(math.sqrt(-0.5 * eps))
        E = np.cos(theta * m) + eta * np.sin(theta * m) / (math.sqrt(-eps) * math.sqrt(2.0 + eps))
    if (ko + lam * mo > 0) != (sign < 0):
        E[1::2] *= -1.0
    E_n = E[0]
    if not (E_n != 0.0 and math.isfinite(E_n)):  # lam on a branch pole, to rounding
        raise EigenSolveFailed(f"the branch profile is lost at lambda = {lam}: E_n = {E_n}")
    return E / E_n


def _branch_scalars(network, tensions, n, forms, b):
    """Per branch (kd, ko, md, mo, d, h) for _weight and _profile, and the
    rows g b_0 b_0, g b_0 b_1, g b_1 b_1 that weight S's entries, as floats."""
    branches = np.column_stack([forms[0, 0], forms[0, 2], forms[1, 0], forms[1, 2],
                                network.lengths / n, network.h_star]).tolist()
    return branches, (tensions.array * b[[0, 0, 1]] * b[[0, 1, 1]]).tolist()


def _lower(lam, n, branches, weights):
    """(low, p, q, r): S = sum_i g_i w_i b_i b_i^T = [[p, q], [q, r]] and its
    lower eigenvalue; at a branch pole low is -inf and p, q, r are nan."""
    w = [_weight(lam, n, *branch) for branch in branches]
    if -math.inf in w:
        return -math.inf, math.nan, math.nan, math.nan
    p, q, r = (w[0] * c[0] + w[1] * c[1] + w[2] * c[2] for c in weights)
    return 0.5 * (p + r) - math.hypot(0.5 * (p - r), q), p, q, r


def _poles(lam, n, kd, ko, md, mo, d, h):
    """Branch poles above lam: the negative eigenvalues of the branch block,
    the sign changes of E_0 ... E_n.  With o = 0 the block is diagonal.  For
    x = cosh t, E_m / cosh(m t) = 1 + eta tanh(m t) / sinh t is monotone in m,
    so only E_n can be negative; for x = cos theta, E_m is a positive multiple
    of cos(m theta - phi) with phi = atan(eta / sin theta), whose argument
    steps by theta <= pi/2 and crosses pi/2 + k pi once per sign change.  A
    block read at -x counts the eigenvalues of the reflected block that are
    not negative, as E_m(-x, eta) = (-1)^m E_m(x, -eta).  An E_n of exactly 0
    is a zero eigenvalue and does not count, where _weight is -inf."""
    reg = _regime(lam, kd, ko, md, mo, d, h)
    if reg is None:
        a = kd + lam * md
        return (n - 1) * (a < 0.0) + (0.5 * a + h < 0.0)
    _, eps, eta, sign = reg
    if eps >= 0.0:
        s = math.sqrt(eps) * math.sqrt(2.0 + eps)
        th = math.tanh(2.0 * n * math.asinh(math.sqrt(0.5 * eps)))
        den = 1.0 + eta * (th / s if s else n)
        count = int(den < 0.0 if sign > 0 else den <= 0.0)
    else:
        sn = math.sqrt(-eps) * math.sqrt(2.0 + eps)
        y = (2.0 * n * math.asin(math.sqrt(-0.5 * eps)) - math.atan(eta / sn)) / math.pi
        count = math.ceil(y - 0.5) if sign > 0 else math.floor(y + 0.5)
    return count if sign > 0 else n - count


def _inertia(lam, n, branches, weights):
    """(above, poles) at lam, with the branch poles above lam counted in
    closed form by _poles.  By Sylvester's law of inertia #{eigenvalues above
    lam} = poles + #{negative eigenvalues of S}, so one lies above lam when
    there is a pole or S's lower eigenvalue is negative."""
    poles = sum(_poles(lam, n, *branch) for branch in branches)
    return poles > 0 or _lower(lam, n, branches, weights)[0] < 0, poles


def max_eigenvalue(network: StationaryNetwork, tensions: SurfaceTensions,
                   n_per_branch: int = 400) -> SpectrumResult:
    """Largest eigenvalue of the constrained pencil -K phi = lambda B phi.

    _inertia's count certifies the bracket from the Rayleigh quotient of the
    branchwise constant b_0, -sum g h b_0^2 / sum g l b_0^2, minus 1, to
    _lambda_upper_bound; bisection on it clears the bracket of branch poles,
    and brentq (Brent's method, domains.brentq) finds lambda_max as the root
    of the lower eigenvalue of the closed-form S, which does not cancel in e - o^2 (M^-1)_11.  S's null
    vector continues into the branches by _profile.  When lambda_max is
    double (within _DOUBLE_BAND), S vanishes on the plane and its null vector
    would be rounding, so b_0 is taken.  The eigenfunction has unit
    consistent-mass norm and the sign of its largest |phi|; its norm and
    Rayleigh quotient are read from its nodal values by _pencil_values.  A
    failed bracket, a failed root search (a NaN value, no sign change, or no
    convergence in 100 iterations), or a Rayleigh quotient of the
    eigenfunction more than 1e-6 off lambda_max, raises EigenSolveFailed.
    A fork without positive finite lengths and finite wall curvatures, or
    an n_per_branch that is not an integer >= 1, raises ValueError.
    """
    _checked_fork(network.lengths, network.h_star)
    if not (isinstance(n_per_branch, numbers.Integral) and n_per_branch >= 1):
        raise ValueError(f"n_per_branch must be an integer >= 1, got {n_per_branch!r}")
    n = int(n_per_branch)
    forms, b = assemble_forms(network, tensions, n)
    branches, weights = _branch_scalars(network, tensions, n, forms, b)
    w0 = tensions.array * b[0] ** 2
    lo = -float(w0 @ network.h_star) / float(w0 @ network.lengths) - 1.0
    hi = _lambda_upper_bound(network)
    above, poles = _inertia(lo, n, branches, weights)
    if not above or _inertia(hi, n, branches, weights)[0]:
        raise EigenSolveFailed(f"[{lo}, {hi}] does not bracket the top eigenvalue")
    while poles:  # bisect on the count until no branch pole is left in (lo, hi]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise EigenSolveFailed(f"the top eigenvalue meets a branch pole at {mid}")
        above, mid_poles = _inertia(mid, n, branches, weights)
        lo, hi, poles = (mid, hi, mid_poles) if above else (lo, mid, poles)
    try:
        lam = brentq(lambda t: _lower(t, n, branches, weights)[0], lo, hi, xtol=1e-13)
    except RootSearchFailed as e:
        raise EigenSolveFailed(f"root search on [{lo}, {hi}]: {e}") from e
    _, p, q, r = _lower(lam, n, branches, weights)
    theta = 0.5 * math.atan2(q, 0.5 * (p - r))  # (cos, sin) spans the upper eigenvector
    c = (-math.sin(theta), math.cos(theta))
    below = lam - _DOUBLE_BAND * max(1.0, abs(lam))
    if below > lo:  # no pole in [below, lam], so two eigenvalues there make S negative definite
        low, p, q, r = _lower(below, n, branches, weights)
        if p + r - low < 0:
            c = (1.0, 0.0)
    profiles = np.array([_profile(lam, n, *branch) for branch in branches])
    phi = (b[0] * c[0] + b[1] * c[1])[:, None] * profiles
    form, mass = _pencil_values(network, tensions.array, phi)
    rayleigh = -_quotient(form, mass)
    if not abs(rayleigh - lam) <= 1e-6 * max(1.0, abs(lam)):
        raise EigenSolveFailed(f"Rayleigh quotient {rayleigh} disagrees with lambda = {lam}")
    phi *= np.sign(phi.flat[np.argmax(np.abs(phi))]) / np.sqrt(mass)
    return SpectrumResult(lambda_max=lam, eigenfunction=phi, rayleigh=rayleigh, n=n)


def rayleigh_quotient(network: StationaryNetwork, tensions: SurfaceTensions,
                      phi: np.ndarray) -> float:
    """I[phi,phi] / ||phi||^2 for nodal values phi, with phi(0) first
    projected onto the constraint plane as (b phi(0)) b."""
    phi = np.array(phi, dtype=float)
    b = tensions.basis
    phi[:, 0] = (b @ phi[:, 0]) @ b
    return _quotient(*_pencil_values(network, tensions.array, phi))


def stability_criterion(lengths, h_star, tensions: SurfaceTensions) -> StabilityVerdict:
    """Algebraic stability test on (l^i, h^i, gamma^i).

    Stable when all wall curvatures are positive, or when at most one is
    non-positive and

        gamma1 (1 + l1 h1) h2 h3 + gamma2 (1 + l2 h2) h1 h3
                                 + gamma3 (1 + l3 h3) h1 h2 > 0.

    Two or more non-positive curvatures are unstable outright; expression
    values within _MARGINAL_BAND of 0 are reported as Marginal.  Lengths
    that are not positive and finite, or wall curvatures that are not
    finite, raise ValueError.
    """
    l, h = _checked_fork(lengths, h_star)
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
