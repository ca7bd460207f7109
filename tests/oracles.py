"""Independent reference computations used by the test suite.

Everything here is deliberately built on different machinery than the
package: eigenvalues by ODE shooting instead of finite elements, curvature
from parametric calculus instead of level sets, lengths from closed-form
chord geometry, curvature norms and identity residuals from chord-length
resampling instead of the sigma grid of the chart.  Tests freeze values
produced by these oracles and compare the library against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from trijunction.steady import h2_ratio_series
from trijunction.tensions import constraint_basis


# ---------------------------------------------------------------------------
# Sturm-Liouville shooting for the junction eigenproblem
#
# Per branch, solutions of phi'' = lambda*phi satisfying the Robin condition
# phi_s + h phi = 0 at s = l form a one-dimensional family spanned by
# u(tau) = C(tau) + h S(tau) in the backward variable tau = l - s, where C, S
# are the entire cosine/sine-like kernels of the equation.  Junction matching
# (weighted value constraint + equal slopes) makes lambda an eigenvalue iff a
# 3x3 matrix D(lambda) is singular; the smallest singular value of D is a
# continuous nonnegative function whose zeros are exactly the eigenvalues,
# independent of multiplicity.


def _kernels(tau, lam):
    if lam > 0.0:
        w = np.sqrt(lam)
        return np.cosh(w * tau), np.sinh(w * tau) / w
    if lam < 0.0:
        w = np.sqrt(-lam)
        return np.cos(w * tau), np.sin(w * tau) / w
    return 1.0, tau


def _branch_values(lam, l, h):
    C, S = _kernels(l, lam)
    u = C + h * S
    u_tau = lam * S + h * C
    return u, u_tau


def _matching_matrix(lam, lengths, h, gammas):
    u = np.empty(3)
    ut = np.empty(3)
    for i in range(3):
        u[i], ut[i] = _branch_values(lam, lengths[i], h[i])
    return np.array(
        [
            [gammas[0] * u[0], gammas[1] * u[1], gammas[2] * u[2]],
            [ut[0], -ut[1], 0.0],
            [ut[0], 0.0, -ut[2]],
        ]
    )


def _sigma_min(lam, lengths, h, gammas):
    return np.linalg.svd(_matching_matrix(lam, lengths, h, gammas), compute_uv=False)[-1]


def _golden_min(f, a, b, iters=120):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (a + b) / 2.0


def shooting_lambda_max(lengths, h, gammas, lam_lo=None, lam_hi=None,
                        n_scan=20000, tol=1e-11):
    """Largest eigenvalue of the three-branch junction problem by shooting."""
    lengths = np.asarray(lengths, dtype=float)
    h = np.asarray(h, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if lam_hi is None:
        lam_hi = float(np.max(np.abs(h) / lengths + h**2)) + 2.0
    if lam_lo is None:
        lam_lo = -float(4.0 * np.pi**2 / np.min(lengths) ** 2) - 5.0

    grid = np.linspace(lam_hi, lam_lo, n_scan)
    svals = np.array([_sigma_min(x, lengths, h, gammas) for x in grid])
    floor = 1e-7 * max(1.0, float(np.median(svals)))
    for k in range(1, n_scan - 1):
        if svals[k] <= svals[k - 1] and svals[k] <= svals[k + 1]:
            a, b = grid[k + 1], grid[k - 1]  # grid is descending
            lam = _golden_min(lambda x: _sigma_min(x, lengths, h, gammas), a, b)
            if _sigma_min(lam, lengths, h, gammas) < max(floor, tol):
                return float(lam)
    raise RuntimeError("shooting scan found no eigenvalue")


def shooting_eigenfunction(lam, lengths, h, gammas, n=200):
    """Nodal eigenfunction for a given eigenvalue, shape (3, n+1)."""
    D = _matching_matrix(lam, lengths, h, gammas)
    _, _, vt = np.linalg.svd(D)
    c = vt[-1]
    phi = np.empty((3, n + 1))
    for i in range(3):
        s = np.linspace(0.0, lengths[i], n + 1)
        tau = lengths[i] - s
        C, S = np.array([_kernels(t, lam) for t in tau]).T
        phi[i] = c[i] * (C + h[i] * S)
    return phi


# ---------------------------------------------------------------------------
# classical single-branch roots used as frozen anchors


# ---------------------------------------------------------------------------
# Full-space finite-element pencil and the null-space product
#
# The package assembles the reduced pencil directly in junction-plane plus
# free-node coordinates.  The reference builds the full per-branch forms and
# eliminates the junction constraint by an explicit sparse basis, in SciPy's
# own sparse products.


def full_space_forms(network, tensions, n):
    """(K, B, constraint): block-diagonal stiffness with the Robin term,
    consistent mass, and the junction row gamma_i on each branch's node 0."""
    g = tensions.array
    blocks_k, blocks_b = [], []
    for i in range(3):
        d = network.lengths[i] / n
        main_k = np.full(n + 1, 2.0 / d)
        main_k[0] = main_k[-1] = 1.0 / d
        off_k = np.full(n, -1.0 / d)
        K = sp.diags([off_k, main_k, off_k], (-1, 0, 1), format="lil")
        K[-1, -1] += network.h_star[i]
        main_b = np.full(n + 1, 4.0 * d / 6.0)
        main_b[0] = main_b[-1] = 2.0 * d / 6.0
        off_b = np.full(n, d / 6.0)
        B = sp.diags([off_b, main_b, off_b], (-1, 0, 1))
        blocks_k.append(g[i] * K.tocsr())
        blocks_b.append(g[i] * B.tocsr())
    K = sp.block_diag(blocks_k, format="csr")
    B = sp.block_diag(blocks_b, format="csr")
    constraint = np.zeros(3 * (n + 1))
    constraint[np.arange(3) * (n + 1)] = g
    return K, B, constraint


def null_basis(tensions, n):
    """Sparse orthonormal basis Z of {x : constraint . x = 0}: the
    constraint-plane basis on the three junction nodes, the identity on the
    free nodes."""
    dim = 3 * (n + 1)
    junction = np.arange(3) * (n + 1)
    free = np.delete(np.arange(dim), junction)
    rows = np.concatenate([np.repeat(junction, 2), free])
    cols = np.concatenate([np.tile([0, 1], 3), 2 + np.arange(dim - 3)])
    vals = np.concatenate([constraint_basis(tensions).T.ravel(), np.ones(dim - 3)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim - 1))


def null_space_pencil(network, tensions, n):
    """(-Z^T K Z, Z^T B Z) in CSC by sparse products."""
    K, B, _ = full_space_forms(network, tensions, n)
    Z = null_basis(tensions, n)
    return (-(Z.T @ K @ Z)).tocsc(), (Z.T @ B @ Z).tocsc()


def arpack_max_eigenvalue(network, tensions, n):
    """lambda_max of null_space_pencil by ARPACK shift-invert around the
    package's upper bound (k = 2 for double top eigenvalues, a
    seeded start vector), with a dense generalized eigh when ARPACK fails
    or disagrees with its Rayleigh quotient."""
    from scipy.linalg import eigh
    from scipy.sparse.linalg import eigsh

    from trijunction.stability import _lambda_upper_bound

    A, B = null_space_pencil(network, tensions, n)
    v0 = np.random.default_rng(1234).standard_normal(A.shape[0])
    try:
        vals, vecs = eigsh(A, k=2, M=B, sigma=_lambda_upper_bound(network), which="LM", v0=v0)
        top = int(np.argmax(vals))
        lam, vec = float(vals[top]), vecs[:, top]
        if abs((vec @ (A @ vec)) / (vec @ (B @ vec)) - lam) <= 1e-6 * max(1.0, abs(lam)):
            return lam
    except (RuntimeError, np.linalg.LinAlgError):
        pass
    return float(eigh(A.toarray(), B.toarray(), eigvals_only=True)[-1])


def lapack_pole_count(lam, forms, n):
    """Branch poles above lam: the negative eigenvalues of the branch blocks
    of K + lam B (gamma divided out), forms as from assemble_forms, by one
    LAPACK dstebz Sturm bisection count of the 3n tridiagonal with zero
    seams."""
    from scipy.linalg.lapack import dstebz

    diag, last, off, _ = forms[0] + lam * forms[1]
    d = np.repeat(diag, n)
    d[n - 1::n] = last
    e = np.repeat(off, n)
    e[n - 1::n] = 0.0
    return int(dstebz(d, e[:-1], 1, -np.inf, 0.0, 0, 0, np.inf, b"B")[0])


def pivot_schur_lower(network, tensions, n, lam):
    """Lower eigenvalue of the junction Schur complement
    S = sum_i g_i (e_i - o_i^2 (M_i^-1)_11) b_i b_i^T at lam, with the columns
    M_i^-1 e_1 of the branch blocks of K + lam B (gamma divided out) from one
    LAPACK dgtsv solve of the 3n tridiagonal with zero seams."""
    from scipy.linalg.lapack import dgtsv

    from trijunction.stability import assemble_forms

    forms = assemble_forms(network, tensions, n)[0]
    diag, last, off, end = forms[0] + lam * forms[1]
    d = np.repeat(diag, n)
    d[n - 1::n] = last
    e = np.repeat(off, n)
    e[n - 1::n] = 0.0
    rhs = np.zeros((3 * n, 1))
    rhs[::n] = 1.0
    *_, x, info = dgtsv(e[:-1], d, e[:-1], rhs)
    assert info == 0, info
    b = constraint_basis(tensions)
    S = (b * (tensions.array * (end - off**2 * x[::n, 0]))) @ b.T
    return float(np.linalg.eigvalsh(S)[0])


def pivot_schur_lower_mp(network, tensions, n, lam, dps=40):
    """Lower eigenvalue of the junction Schur complement at lam in
    dps-digit arithmetic: S = sum_i g_i (e_i - o_i^2 / p_1i) b_i b_i^T, with
    the backward pivots p_n = c, p_k = a - o^2 / p_(k+1) of each branch block
    of K + lam B (gamma divided out)."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    lam = mp.mpf(lam)
    b = [[mp.mpf(x) for x in row] for row in constraint_basis(tensions)]
    w = []
    for g, l, h in zip(tensions.array, network.lengths, network.h_star):
        d = mp.mpf(l) / n
        a, o = 2 / d + lam * 4 * d / 6, -1 / d + lam * d / 6
        p = 1 / d + mp.mpf(h) + lam * 2 * d / 6
        for _ in range(n - 1):
            p = a - o**2 / p
        w.append(mp.mpf(g) * (1 / d + lam * 2 * d / 6 - o**2 / p))
    s = [[sum(w[i] * b[r][i] * b[c][i] for i in range(3)) for c in (0, 1)] for r in (0, 1)]
    return (s[0][0] + s[1][1]) / 2 - mp.sqrt(((s[0][0] - s[1][1]) / 2) ** 2 + s[0][1] ** 2)


def pivot_lambda_max_mp(network, tensions, n, guess, dps=40, width=1e-6):
    """lambda_max of the reduced pencil in dps-digit arithmetic, as the root
    near guess of pivot_schur_lower_mp.  The root must lie within width of
    guess."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    guess = mp.mpf(guess)
    return mp.findroot(lambda lam: mp.mpf(pivot_schur_lower_mp(network, tensions, n, lam, dps)),
                       (guess - width, guess + width), solver="anderson")


def robin_neumann_root(h, l=1.0, positive=False):
    """Root of the single-branch problem phi'' = lam phi, phi'(0)=0, Robin at l.

    positive=False: largest negative eigenvalue, w*tan(w*l) = h, lam = -w^2.
    positive=True: positive eigenvalue, w*tanh(w*l) = -h (needs h < 0),
    lam = +w^2.
    """
    from scipy.optimize import brentq

    if positive:
        if h >= 0:
            raise ValueError("positive root needs h < 0")
        f = lambda w: w * np.tanh(w * l) + h
        w = brentq(f, 1e-12, max(10.0, 10.0 * abs(h)), xtol=1e-15, rtol=8.9e-16)
        return w * w
    f = lambda w: w * np.tan(w * l) - h
    w = brentq(f, 1e-12, np.pi / (2 * l) - 1e-12, xtol=1e-15, rtol=8.9e-16)
    return -w * w


# ---------------------------------------------------------------------------
# parametric geometry oracles


def ellipse_curvature_magnitude(a, b, t):
    """|curvature| of the ellipse (a cos t, b sin t)."""
    return a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5


def conic_line_root(weights, center, level, origin, direction):
    """Far root s of psi(origin + s direction) = 0 for the axis-aligned conic
    psi = (x - center)^T diag(weights) (x - center) - level.

    psi along the line is the quadratic a s^2 + 2 b s + c; the root on the
    far side of the chord is the one continuous in a reference exit.
    """
    w = np.asarray(weights, dtype=float)
    o = np.asarray(origin, dtype=float) - np.asarray(center, dtype=float)
    d = np.asarray(direction, dtype=float)
    a = np.einsum("...k,k,...k->...", d, w, d)
    b = np.einsum("...k,k,...k->...", o, w, d)
    c = np.einsum("...k,k,...k->...", o, w, o) - level
    disc = b * b - a * c
    assert np.all(disc > 0.0), "line misses the conic"
    return (-b + np.sqrt(disc)) / a


def conic_exit_jet_mp(weights, center, level, base, T, N, q, dps=40):
    """(s, s', s'') of the conic exit at offset q as mpmath numbers, every
    float input taken as exact: psi(base + s T + q N) = A s^2 + 2 B s + C
    with A = sum w T^2, B = sum w T o, C = sum w o^2 - level, o = base + q N
    - center; s = (sqrt(B^2 - A C) - B) / A, the far root, and s', s'' by
    implicit differentiation of psi = 0 in q."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    w, c, b, t, nn = ([mp.mpf(float(v)) for v in a] for a in (weights, center, base, T, N))
    q, level = mp.mpf(float(q)), mp.mpf(float(level))
    o = [b[k] + q * nn[k] - c[k] for k in range(2)]
    A = sum(w[k] * t[k] ** 2 for k in range(2))
    B = sum(w[k] * t[k] * o[k] for k in range(2))
    C = sum(w[k] * o[k] ** 2 for k in range(2)) - level
    s = (mp.sqrt(B * B - A * C) - B) / A
    p_s = 2 * (A * s + B)
    p_q = 2 * sum(w[k] * nn[k] * (o[k] + s * t[k]) for k in range(2))
    p_sq = 2 * sum(w[k] * t[k] * nn[k] for k in range(2))
    p_qq = 2 * sum(w[k] * nn[k] ** 2 for k in range(2))
    ds = -p_q / p_s
    return s, ds, -(2 * A * ds * ds + 2 * p_sq * ds + p_qq) / p_s


def conic_ray_root_expanded(weights, center, level, origin, direction):
    """The far root t of psi(origin + t direction) = 0 on an axis-aligned
    conic in Python floats, expanded per ray in y = S (x - c), S^2 =
    diag(weights): o = S (origin - c), d = S direction, a = |d|^2,
    b = (o, d), disc = b^2 - a (|o|^2 - level), t = (sqrt(disc) - b) / a;
    None when disc is not positive."""
    s0, s1 = np.sqrt(np.asarray(weights, dtype=float)).tolist()
    c0, c1 = np.asarray(center, dtype=float).tolist()
    (x0, x1), (d0, d1) = np.asarray(origin).tolist(), np.asarray(direction).tolist()
    o0, o1, T0, T1 = (x0 - c0) * s0, (x1 - c1) * s1, d0 * s0, d1 * s1
    a = T0 * T0 + T1 * T1
    b = o0 * T0 + o1 * T1
    disc = b * b - a * (o0 * o0 + o1 * o1 - float(level))
    return (math.sqrt(disc) - b) / a if disc > 0.0 else None


def rho_derivatives_stencils(rho, lengths):
    """(rho_sigma, rho_sigmasigma) by the three-point stencils on the nodes
    themselves: (rho_{j+1} - rho_{j-1}) / (2 d) and (rho_{j+1} - 2 rho_j +
    rho_{j-1}) / d^2 inside, (-3 rho_0 + 4 rho_1 - rho_2) / (2 d) and
    (2 rho_0 - 5 rho_1 + 4 rho_2 - rho_3) / d^2 at the first node, mirrored
    at the last."""
    rho = np.asarray(rho, dtype=float)
    n = rho.shape[-1] - 1
    d = (np.asarray(lengths, dtype=float) / n)[..., None]
    rs, rss = np.empty_like(rho), np.empty_like(rho)
    rs[..., 1:-1] = (rho[..., 2:] - rho[..., :-2]) / (2 * d)
    rss[..., 1:-1] = (rho[..., 2:] - 2 * rho[..., 1:-1] + rho[..., :-2]) / d**2
    for k, sign in ((0, 1.0), (-1, -1.0)):
        r0, r1, r2, r3 = (rho[..., j] if k == 0 else rho[..., -1 - j] for j in range(4))
        rs[..., k] = sign * (-3 * r0 + 4 * r1 - r2) / (2 * d[..., 0])
        rss[..., k] = (2 * r0 - 5 * r1 + 4 * r2 - r3) / d[..., 0] ** 2
    return rs, rss


def reference_weights(coef):
    """(L, a) = (J / xi_sigma, 1 / J^2) on a chart's geometry, rounded as
    coefficients built them before it formed F directly."""
    L = 1.0 / coef.xi_sigma
    L *= coef.J
    return L, 1.0 / coef.J2


def flow_reference(coef, tensions):
    """The step's inputs from a chart's geometry by the reference formulas:
    L and a (reference_weights) with the chart's kappa, mu_t = Q M^-1
    (L kappa)(0) with M = Id - diag(Lambda(0)) Q by numpy, and F = L kappa +
    Lambda mu_t.  Returns (L, a, mu_t, F)."""
    L, a = reference_weights(coef)
    Lk = L * coef.kappa
    Q = tensions.q
    M = np.eye(3) - coef.Lam[:, 0, None] * Q
    mu_t = Q @ np.linalg.solve(M, Lk[:, 0])
    return L, a, mu_t, Lk + coef.Lam * mu_t[:, None]


def dirichlet_interior_step(network, state, coef, dt):
    """rho after one linearly implicit step, before the boundary sweep, by
    the predictor and Dirichlet interior route: the end nodes move by the
    explicit predictor rho + dt F, F = L kappa + Lambda mu_t with L and a
    by the reference formulas (reference_weights) and the chart's Lambda and
    mu_t; then, per branch, the interior solves (1 + 2 r) x_j -
    r (x_{j-1} + x_{j+1}) = rho_j + dt (F_j - a_j rho_ss_j) with r = a dt /
    dsigma^2 and the predicted ends as Dirichlet data, by solve_banded.
    coef is the Coefficients of state."""
    n = state.n
    d2 = (network.lengths / n) ** 2
    rho = state.rho
    L, a = reference_weights(coef)
    F = L * coef.kappa + coef.Lam * coef.mu_t[:, None]
    out = np.empty_like(rho)
    out[:, ::n] = rho[:, ::n] + dt * F[:, ::n]
    for i in range(3):
        r = a[i] * dt / d2[i]
        rhs = rho[i, 1:-1] + dt * (F[i, 1:-1] - a[i, 1:-1] * coef.rho_ss[i, 1:-1])
        rhs[0] += r[1] * out[i, 0]
        rhs[-1] += r[-2] * out[i, n]
        ab = np.zeros((3, n - 1))
        ab[0, 1:] = -r[1:-2]
        ab[1] = 1.0 + 2.0 * r[1:-1]
        ab[2, :-1] = -r[2:-1]
        out[i, 1:-1] = solve_banded((1, 1), ab, rhs)
    return out


def circle_points(radius, t0, t1, n):
    t = np.linspace(t0, t1, n + 1)
    return radius * np.stack([np.cos(t), np.sin(t)], axis=1)


def junction_point_from_pair(tangents, normals, rho0_i, rho0_j, i, j):
    """Solve (p, N_i) = rho0_i, (p, N_j) = rho0_j for the junction point p.

    Independent route to the stick condition: two branches pin the junction,
    the third must then agree.
    """
    A = np.stack([normals[i], normals[j]])
    rhs = np.array([rho0_i, rho0_j])
    return np.linalg.solve(A, rhs)


# ---------------------------------------------------------------------------
# the chart jet as vectors
#
# The package evaluates the chart through the frame-scalar kernel
# parameterization.chart_geometry (xi partials in the branch frame) and the
# first-order psi_first_jet.  This route keeps every partial of Psi up to
# second order as a vector and takes the curvature by the general chain rule.


@dataclass
class PsiJet:
    """Psi and its partials up to second order, each of shape (..., 2)."""

    psi: np.ndarray
    d_sigma: np.ndarray
    d_q: np.ndarray
    d_mu: np.ndarray
    d_sigma_sigma: np.ndarray
    d_sigma_q: np.ndarray
    d_sigma_mu: np.ndarray
    d_qq: np.ndarray


def psi_jet(network, domain, branch, sigma, q, mu) -> PsiJet:
    """Closed-form jet of the stretched map at (sigma, q, mu), on rows: one
    branch index with sigma, q and mu a row (or scalars), or B indices with
    sigma, q and mu (B, R).

    The exit abscissa and its two q-derivatives come from differentiating
    psi(p_* + mu_b T + q N) = 0:
        mu_b'  = -(grad psi, N) / (grad psi, T)
        mu_b'' = -(x' . D2psi . x') / (grad psi, T),  x' = mu_b' T + N,
    each row from the chart of a fresh exit binding (domain.network_exits)
    with that row on its branch's line and the other two lines at q = 0.
    """
    sigma = np.asarray(sigma, dtype=float)
    q = np.asarray(q, dtype=float)
    mu = np.asarray(mu, dtype=float)
    b = np.asarray(branch, dtype=int)
    rows = b.shape + (1,) * b.ndim  # one length and frame per row
    l = network.lengths[b].reshape(rows)
    T = network.tangents[b].reshape(rows + (2,))
    N = network.normals[b].reshape(rows + (2,))
    q_rows = q.reshape(b.size, -1)
    n = q_rows.shape[1] - 1
    jets = []
    for i, row in zip(b.ravel().tolist(), q_rows):
        offsets = np.zeros((3, n + 1))
        offsets[i] = row
        jets.append([v[i] for v in domain.network_exits(network, n).chart(offsets)])
    mu_b, dmu, ddmu = (np.array(v).reshape(q.shape) for v in zip(*jets))

    frac = sigma / l
    xi = mu + frac * (mu_b - mu)

    def along(scal):
        return np.asarray(scal)[..., None] * T

    psi = network.p_star + xi[..., None] * T + q[..., None] * N
    return PsiJet(
        psi=psi,
        d_sigma=along((mu_b - mu) / l),
        d_q=along(frac * dmu) + N,
        d_mu=along(1.0 - frac),
        d_sigma_sigma=np.zeros(psi.shape),
        d_sigma_q=along(dmu / l),
        d_sigma_mu=along(np.broadcast_to(-1.0 / l, xi.shape)),
        d_qq=along(frac * ddmu),
    )


def psi_map(network, domain, i, sigma, q, mu):
    """Point Psi^i(sigma, q, mu)."""
    return psi_jet(network, domain, i, sigma, q, mu).psi


def metric_J(network, domain, i, rho, rho_sigma, mu, sigma):
    """|Phi_sigma|; equals 1 on the reference and sqrt(1 + rho_sigma^2) over
    a flat wall, where the chart degenerates to Cartesian graph coordinates."""
    from trijunction.errors import DegenerateMetric
    from trijunction.parameterization import _J_FLOOR

    jet = psi_jet(network, domain, i, sigma, rho, mu)
    phi_sigma = jet.d_sigma + np.asarray(rho_sigma)[..., None] * jet.d_q
    J = np.linalg.norm(phi_sigma, axis=-1)
    if np.any(J < _J_FLOOR):
        raise DegenerateMetric(f"metric J collapsed to {J.min()}")
    return float(J) if J.ndim == 0 else J


def _cross(a, b):
    """Scalar cross product; (X, R Y) = _cross(Y, X) for the pi/2 rotation R."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _kappa_from_jet(jet: PsiJet, rho_sigma, rho_ss):
    """Curvature of sigma -> Psi(sigma, rho(sigma), mu) from chain-rule terms."""
    from trijunction.errors import DegenerateMetric
    from trijunction.parameterization import _J_FLOOR

    rs = np.asarray(rho_sigma)
    q_Rs = _cross(jet.d_sigma, jet.d_q)  # (Psi_q, R Psi_sigma)
    sq_Rs = _cross(jet.d_sigma, jet.d_sigma_q)
    ss_Rq = _cross(jet.d_q, jet.d_sigma_sigma)
    qq_Rs = _cross(jet.d_sigma, jet.d_qq)
    sq_Rq = _cross(jet.d_q, jet.d_sigma_q)
    qq_Rq = _cross(jet.d_q, jet.d_qq)
    ss_Rs = _cross(jet.d_sigma, jet.d_sigma_sigma)

    phi_sigma = jet.d_sigma + rs[..., None] * jet.d_q
    J = np.linalg.norm(phi_sigma, axis=-1)
    if np.any(J < _J_FLOOR):
        raise DegenerateMetric(f"metric J collapsed to {J.min()}")
    numer = (
        q_Rs * np.asarray(rho_ss)
        + (2.0 * sq_Rs + ss_Rq) * rs
        + (qq_Rs + 2.0 * sq_Rq + qq_Rq * rs) * rs**2
        + ss_Rs
    )
    return numer / J**3


def curvature_kappa(network, domain, i, rho, rho_sigma, rho_sigmasigma, mu, sigma):
    """Signed curvature of the graph curve, normal N = R Phi_sigma / J."""
    jet = psi_jet(network, domain, i, sigma, rho, mu)
    kappa = _kappa_from_jet(jet, rho_sigma, rho_sigmasigma)
    return float(kappa) if kappa.ndim == 0 else kappa


# ---------------------------------------------------------------------------
# boundary conditions branch by branch


def boundary_residuals_reference(network, domain, angles, rho, r0, w, mu):
    """[g12, g13, outer_1, outer_2, outer_3] from the full chart jet.

    General route, one psi_jet per branch end: slopes from rho_derivatives
    on rho with its end nodes replaced by (r0, w), J and |grad psi| by
    np.linalg.norm.  Reference for the stepper's float route,
    parameterization.BoundaryOperator, several times its cost per call.
    """
    from trijunction.parameterization import rho_derivatives

    rho = np.array(rho, dtype=float)
    rho[:, 0], rho[:, -1] = r0, w
    rs = rho_derivatives(rho, network.lengths)

    def point_and_tangent(i, end):
        # end 0: junction (sigma = 0, node 0); end 1: wall (sigma = l, node -1)
        jet = psi_jet(network, domain, i, network.lengths[i] * end, rho[i, -end], mu[i])
        return jet.psi, jet.d_sigma + rs[i, -end] * jet.d_q

    t = [point_and_tangent(i, 0)[1] for i in range(3)]
    J = [np.linalg.norm(v) for v in t]
    c = angles.cos
    res = [t[0] @ t[1] - J[0] * J[1] * c[2], t[2] @ t[0] - J[2] * J[0] * c[1]]
    for i in range(3):
        p, v = point_and_tangent(i, 1)
        g = domain.grad(p)
        res.append(-(v[0] * g[1] - v[1] * g[0]) / (np.linalg.norm(v) * np.linalg.norm(g)))
    return np.array(res)


def boundary_residuals_mp(network, domain, angles, rho, r0, w, mu, dps=40):
    """[g12, g13, outer_1, outer_2, outer_3] in dps-digit arithmetic, taking
    every float input as exact: the six exits by Newton on psi in mpmath
    from domain.line_exit's root, the wall normal from grad psi there, the
    end slopes from the one-sided stencil at the exact spacing l / n.  The
    level set is a conic (w, center, r) or a polynomial (terms)."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    rho = np.array(rho, dtype=float)
    n = rho.shape[1] - 1
    psi_grad = _psi_grad_mp(domain, mp)

    def exit_and_grad(i, q):
        # the exit abscissa s of the line p_* + s T + q N and grad psi there
        P, T, N = ([mp.mpf(v) for v in a] for a in (network.p_star, network.tangents[i],
                                                   network.normals[i]))
        s = mp.mpf(domain.line_exit([network.p_star + q * network.normals[i]],
                                    [network.tangents[i]], [network.lengths[i]])[0])
        q = mp.mpf(q)
        for _ in range(60):
            f, g = psi_grad(*(P[k] + s * T[k] + q * N[k] for k in (0, 1)))
            ds = f / (g[0] * T[0] + g[1] * T[1])
            s -= ds
            if abs(ds) < mp.mpf(10) ** -dps:
                break
        return s, psi_grad(*(P[k] + s * T[k] + q * N[k] for k in (0, 1)))[1], T, N

    junction, res = [], []
    for i in range(3):
        l = mp.mpf(network.lengths[i])
        two_d = 2 * l / n
        v = [mp.mpf(x) for x in (r0[i], *rho[i, 1:3], w[i], *rho[i, -2:-4:-1], mu[i])]
        # junction end, sigma = 0: Phi_sigma = xi_sigma T + rho_sigma N
        s, _, T, N = exit_and_grad(i, r0[i])
        xs, rs = (s - v[6]) / l, (-3 * v[0] + 4 * v[1] - v[2]) / two_d
        junction.append([xs * T[k] + rs * N[k] for k in (0, 1)])
        # wall end, sigma = l: Phi_sigma = xi_sigma T + rho_sigma (mu_b' T + N)
        s, g, T, N = exit_and_grad(i, w[i])
        xs, rs = (s - v[6]) / l, -(-3 * v[3] + 4 * v[4] - v[5]) / two_d
        dmu = -(g[0] * N[0] + g[1] * N[1]) / (g[0] * T[0] + g[1] * T[1])
        t = [xs * T[k] + rs * (dmu * T[k] + N[k]) for k in (0, 1)]
        res.append(-(t[0] * g[1] - t[1] * g[0]) / (mp.hypot(*t) * mp.hypot(*g)))
    (x1, y1), (x2, y2), (x3, y3) = junction
    J1, J2, J3 = mp.hypot(x1, y1), mp.hypot(x2, y2), mp.hypot(x3, y3)
    c = [mp.mpf(v) for v in angles.cos]
    return [x1 * x2 + y1 * y2 - J1 * J2 * c[2], x3 * x1 + y3 * y1 - J3 * J1 * c[1], *res]


def _psi_grad_mp(domain, mp):
    """(psi, grad psi) at (x, y) in the context mp, for a conic (w, center,
    r) or a polynomial (terms), every coefficient taken as exact."""
    if hasattr(domain, "terms"):
        terms = [(i, j, mp.mpf(c)) for i, j, c in domain.terms]

        def psi_grad(x, y):
            return (sum(c * x**i * y**j for i, j, c in terms),
                    [sum(i * c * x ** (i - 1) * y**j for i, j, c in terms if i),
                     sum(j * c * x**i * y ** (j - 1) for i, j, c in terms if j)])
    else:
        (wx, wy), (cx, cy), r = ([mp.mpf(v) for v in a]
                                 for a in (domain.w, domain.center, [domain.r]))

        def psi_grad(x, y):
            return (wx * (x - cx) ** 2 + wy * (y - cy) ** 2 - r[0],
                    [2 * wx * (x - cx), 2 * wy * (y - cy)])

    return psi_grad


def steady_residual_mp(domain, angles, p, phi, dps=40):
    """The steady residuals (N^i, grad psi / |grad psi|) of the three rays
    from p at the Young angles rotated by phi, in dps-digit arithmetic,
    taking every float input as exact: T^1 at polar angle phi, T^2 a turn
    of theta^3 further and T^3 one of theta^1 further (as tangent_frames),
    N = R T, each hit by ray_hit_mp.  p and phi may be mpmath numbers."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    th = [mp.mpf(v) for v in angles.theta]
    phi = mp.mpf(phi)
    p = [mp.mpf(v) for v in p]
    psi_grad = _psi_grad_mp(domain, mp)
    out = []
    for alpha in (phi, phi + th[2], phi + th[2] + th[0]):
        T = [mp.cos(alpha), mp.sin(alpha)]
        x, _ = ray_hit_mp(domain, p, T, dps)
        g = psi_grad(*x)[1]
        out.append((-T[1] * g[0] + T[0] * g[1]) / mp.hypot(*g))
    return out


def jacobian_mp(f, u, dps=40):
    """The Jacobian of f at the float point u to about dps digits, as
    floats: central differences of step 10^(-dps/2) in arithmetic of
    3 dps / 2 digits, so that truncation and rounding each stay near
    10^-dps.  f maps a list of mpmath numbers to a list of them and must
    itself work at 3 dps / 2 digits."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 3 * dps // 2
    h = mp.mpf(10) ** (-(dps // 2))
    u = [mp.mpf(v) for v in u]
    cols = []
    for k in range(len(u)):
        up, um = list(u), list(u)
        up[k] += h
        um[k] -= h
        cols.append([float((a - b) / (2 * h)) for a, b in zip(f(up), f(um))])
    return np.array(cols).T


def forward_difference_jacobian(residual, u, step=1e-7):
    """The Jacobian of residual, a map from a float list to a float list, at
    u by forward differences of the given step: one evaluation per unknown
    besides the one at u.  Its truncation is about step times the second
    derivative, and it magnifies the residual's rounding by 1 / step."""
    F = residual(u)
    cols = []
    for k in range(len(u)):
        up = list(u)
        up[k] += step
        cols.append([(a - b) / step for a, b in zip(residual(up), F)])
    return np.array(cols).T


def ray_hit_mp(domain, origin, direction, dps=40):
    """First crossing (point, t) of the ray origin + t d, t > 0, with d the
    unit direction, in dps-digit arithmetic, taking every float input as
    exact.  psi along the ray is a polynomial in t, composed exactly from
    the level set (a conic (w, center, r) or a polynomial (terms)); the hit
    is its smallest positive real root among all of its roots
    (mpmath.polyroots), polished by Newton, so neither a scan nor a start
    from the package enters."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    d = [mp.mpf(v) for v in direction]
    d = [v / mp.hypot(*d) for v in d]
    if hasattr(domain, "terms"):
        shift, terms = (0, 0), [(i, j, mp.mpf(c)) for i, j, c in domain.terms]
    else:
        shift = [mp.mpf(v) for v in domain.center]
        terms = [(2, 0, mp.mpf(domain.w[0])), (0, 2, mp.mpf(domain.w[1])),
                 (0, 0, -mp.mpf(domain.r))]
    lines = [[mp.mpf(origin[k]) - shift[k], d[k]] for k in (0, 1)]

    def times(a, b):  # product of coefficient lists in t, lowest power first
        out = [mp.zero] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    def power(line, k):
        out = [mp.one]
        for _ in range(k):
            out = times(out, line)
        return out

    coef = [mp.zero] * (1 + max(i + j for i, j, _ in terms))
    for i, j, c in terms:
        for k, v in enumerate(times(power(lines[0], i), power(lines[1], j))):
            coef[k] += c * v
    while coef[-1] == 0:
        coef.pop()
    high = coef[::-1]  # highest power first, as polyval and polyroots read it
    roots = mp.polyroots(high, maxsteps=200, extraprec=4 * dps)
    tiny = mp.mpf(10) ** (-dps // 2)
    t = min(mp.re(z) for z in roots if abs(mp.im(z)) < tiny and mp.re(z) > 0)
    for _ in range(3):
        f, df = mp.polyval(high, t, derivative=True)
        t -= f / df
    return [mp.mpf(origin[k]) + t * d[k] for k in (0, 1)], t


# ---------------------------------------------------------------------------
# arc-length records: the chord-length PCHIP route
#
# Curves are reconstructed from the chart, resampled by cumulative chord
# length and differentiated as positions, independently of the sigma-grid
# J and kappa of trijunction.diagnostics.record_from_state.


@dataclass
class CurveSample:
    """The three branch samples of a network snapshot."""

    branches: list

    def __iter__(self):
        return iter(self.branches)

    def __getitem__(self, i):
        return self.branches[i]

    @property
    def lengths(self):
        return np.array([b.length for b in self.branches])


def sample_network(network, domain, state) -> CurveSample:
    from trijunction.diagnostics import resample
    from trijunction.parameterization import curve_from_graph

    curves = curve_from_graph(network, domain, state)
    return CurveSample([resample(curves[i]) for i in range(3)])


def energy(sample, tensions) -> float:
    """Total interfacial energy sum_i gamma_i * length_i."""
    return float(np.dot(tensions.array, sample.lengths))


def _lp_norm_p(sample, tensions, values, p):
    total = 0.0
    for g, b, v in zip(tensions.array, sample.branches, values):
        total += g * np.trapezoid(np.abs(v) ** p, b.s)
    return total


def kappa_norms(sample, tensions) -> dict:
    """Gamma-weighted curvature norms and arc-length derivative norms."""
    from trijunction.diagnostics import _nonuniform_derivatives

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


def junction_and_robin_residuals(sample, tensions, domain, norms=None) -> dict:
    """Residuals of the junction and wall identities on one snapshot.

    The tangential junction speeds follow from the flow law V = kappa via
    v = Q V at the junction.  A precomputed kappa_norms dict may be passed
    to avoid re-differentiating.
    """
    from trijunction.domains import boundary_curvature
    from trijunction.tensions import junction_matrix, young_angles

    g = tensions.array
    Q = junction_matrix(young_angles(tensions))
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


# ---------------------------------------------------------------------------
# a record's wall terms from the level set
#
# The records read h and the wall normal off the chart's exit jet.  This
# route evaluates psi, its gradient and its Hessian at the contact points
# instead (boundary_curvature), on the same chart and end stencils.


def wall_terms_from_gradient(network, domain, state, geo):
    """(h, res_outer, res_perp) of one state on its chart geo: h the
    boundary curvature at the three contact points p_* + mu_b T + rho N,
    and the record's two wall residuals, the maxima over the branches of
    |kappa_s + h kappa| and of |(R tangent, grad psi)| / |grad psi| with
    the unit tangent Phi_sigma / J at the wall."""
    from trijunction.domains import boundary_curvature
    from trijunction.parameterization import rho_derivatives

    T, N = network.tangents, network.normals
    pts = network.p_star + geo.mu_b[:, -1, None] * T + state.rho[:, -1, None] * N
    tangent = (geo.phi_T[:, -1, None] * T + geo.rho_sigma[:, -1, None] * N) / geo.J[:, -1, None]
    h = boundary_curvature(domain, pts)
    grad = domain.grad(pts)
    perp = _cross(tangent, grad) / np.sqrt((grad * grad).sum(axis=-1))
    kap_s = rho_derivatives(geo.kappa, network.lengths) / geo.J
    res_outer = float(np.abs(kap_s[:, -1] + h * geo.kappa[:, -1]).max())
    return h, res_outer, float(np.abs(perp).max())


# ---------------------------------------------------------------------------
# the exit abscissa by root search and implicit differentiation
#
# The package has one exit route per domain family: the closed-form
# quadratic root on conics and a Newton iteration on the line polynomial of
# PolynomialDomain.  This route serves any level set: the root of
# psi(base + s T + q N) = 0 from domain.line_exit, then
#     s'  = -(grad psi, N) / (grad psi, T)
#     s'' = -(x' . D2psi . x') / (grad psi, T),  x' = s' T + N,
# with the gradient and Hessian evaluated at the exit point.


def implicit_offset_exit(domain, base, T, N, q, s_ref, second=True):
    """(s, s', s'') of the offset lines base + q N + s T, one line per row:
    T and N (B, 2), base (2,) or (B, 2), q (B, R), s_ref broadcastable to
    q; s'' is None when second=False, and the Hessian is then never
    evaluated."""
    from trijunction.errors import OffsetMissesBoundary

    base, T, N = (np.asarray(v, dtype=float)[..., None, :] for v in (base, T, N))
    origin = base + q[..., None] * N
    # line_exit takes one line per entry: origin and direction (K, 2), s_ref (K,)
    s = domain.line_exit(origin.reshape(-1, 2), np.broadcast_to(T, origin.shape).reshape(-1, 2),
                         np.broadcast_to(s_ref, q.shape).ravel()).reshape(q.shape)
    pts = origin + s[..., None] * T
    if second:
        _, grad, hess = domain.psi_grad_hess(pts)
    else:
        grad = domain.grad(pts)
    gT = grad[..., 0] * T[..., 0] + grad[..., 1] * T[..., 1]
    if (np.abs(gT) < 1e-10).any():
        raise OffsetMissesBoundary("offset line tangent to the boundary")
    gN = grad[..., 0] * N[..., 0] + grad[..., 1] * N[..., 1]
    ds = -gN / gT
    if not second:
        return s, ds, None
    x0 = ds * T[..., 0] + N[..., 0]
    x1 = ds * T[..., 1] + N[..., 1]
    quad = (
        hess[..., 0, 0] * x0 * x0
        + 2.0 * hess[..., 0, 1] * x0 * x1
        + hess[..., 1, 1] * x1 * x1
    )
    return s, ds, -quad / gT


def ladder_loop(v, deg):
    """Powers v^0 .. v^deg on a new first axis by the product loop, one
    power at a time; the package's ladder must give the same bits."""
    v = np.asarray(v, dtype=float)
    out = [np.ones_like(v)]
    for _ in range(deg):
        out.append(out[-1] * v)
    return np.array(out)


def h2_bound_check(network, domain, tensions, states) -> float:
    """Empirical supremum of ||rho||_{H^2} / ||kappa||_{L^2} along a
    trajectory, from steady.h2_ratio_series."""
    ratios = h2_ratio_series(network, domain, tensions, states)
    if ratios.size == 0:
        raise ValueError("no states with ||kappa|| above the floor")
    return float(ratios.max())
