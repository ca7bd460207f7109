"""Implicit planar domains Omega = {psi < 0} and boundary geometry.

The domain is described by a C^3 level-set function psi with nonvanishing
gradient on {psi = 0}, so the gradient points out of Omega.  Three analytic
families are built in: circles, axis-aligned ellipses, and polynomial level
sets sum c * x^i y^j (which covers half-planes, dented circles, Cassini-type
shapes, ...).  Derivatives are exact in all cases; no finite differencing
happens inside curvature or Newton kernels.  Offset-line exits come in two
routes: offset_exit, stateless, on lines as rows of offsets, and
network_exits, which binds a network's three branch lines once and gives
their exits on the chart's (3, n+1) grids and at the boundary sweep's six
branch ends.  The binding alone decides where an exit search starts: on a
polynomial wall it predicts every start from the last chart's exit jet; a
conic's closed form reads no start.  On a conic every route runs one
kernel, a quadratic in the offset q on per-line constants (_conic_disc,
_conic_jet): grid-shaped in the binding's chart, floats in its ends, (B, 1)
in offset_exit, and at q = 0 with N = 0 for the rays to the wall
(boundary_hit, which the steady solve shoots, takes ray_exit).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import (NoConvergence, NoIntersection, NotOnBoundary, OffsetMissesBoundary,
                     RootSearchFailed, SingularGradient, SingularJacobian)
from .tensions import ROT90

_GRAD_FLOOR = 1e-8
_BOX = (-4.0, 4.0, -4.0, 4.0)
MAX_POWER = 32  # largest power of x or y in a polynomial level set
_NEWTON_TOL = 1e-10  # newton: max-norm residual tolerance
_NEWTON_MAX = 20  # newton: iteration cap
_COND_LIMIT = 1e6  # newton: a Jacobian past this condition number is singular
_BRANCH6 = np.array([0, 1, 2, 0, 1, 2])  # the sweep's ends: junction ends, then wall ends


class ImplicitDomain:
    """Base class; subclasses provide psi, grad, hess over (..., 2) points."""

    family = "abstract"
    bounding_box = _BOX

    def psi(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess(self, x):
        raise NotImplementedError

    def contains(self, x) -> bool:
        return bool(self.psi(np.asarray(x, dtype=float)) < 0.0)

    def psi_and_grad(self, x):
        return self.psi(x), self.grad(x)

    def psi_grad_hess(self, x):
        return self.psi(x), self.grad(x), self.hess(x)

    # Roots of psi along K lines (origin and direction (K, 2), s_ref (K,)):
    # a damped Newton iteration on the (x, y) fields with a bracketed
    # fallback.  The polynomial exit sends the entries its own Newton leaves
    # unconverged here; the test oracles build the generic exit on it.
    def line_exit(self, origin, direction, s_ref):
        origin, direction, s_ref = (np.asarray(a, dtype=float)
                                    for a in (origin, direction, s_ref))
        s = s_ref.copy()
        converged = np.zeros(s.shape, dtype=bool)
        for _ in range(60):
            pts = origin + s[..., None] * direction
            f, g = self.psi_and_grad(pts)
            converged = np.abs(f) < 1e-13
            if converged.all():
                break
            df = g[..., 0] * direction[..., 0] + g[..., 1] * direction[..., 1]
            bad = np.abs(df) < _GRAD_FLOOR
            df = np.where(bad, 1.0, df)
            step = np.where(converged | bad, 0.0, f / df)
            # keep the iteration local to the reference root
            np.clip(step, -0.25, 0.25, out=step)
            s = s - step
        for k in np.flatnonzero(~converged):
            s[k] = self._bracketed_root(origin[k], direction[k], s_ref[k])
        return s

    def offset_exit(self, base, T, N, q, s_ref, second=True):
        """Exit abscissae s(q) of the offset lines base + q N + s T, one line
        per row, from starts near s_ref, with s' and s'' (None when
        second=False): the roots of psi(base + s T + q N) = 0 and their
        implicit q-derivatives.  T and N are (B, 2), base is (2,) or (B, 2),
        q is (B, R) and s_ref broadcasts to it; s, s' and s'' are (B, R).
        Subclasses give the route of their family."""
        raise NotImplementedError

    def network_exits(self, network, n):
        """The exits of the branch lines p_* + q N + s T of a network (its
        p_star, tangents, normals and lengths), bound once, for a Stepper on
        the (3, n+1) grids: an object whose chart(q) gives (s, s', s'') at
        the (3, n+1) offsets q, and whose ends(q) gives (s, s') as float
        sequences at the six offsets q, a 6-list, of the branch ends
        (junction ends, then wall ends).  Both give offset_exit's values on
        the same lines from the starts the binding picks.  Subclasses give
        the route of their family."""
        raise NotImplementedError

    def ray_exit(self, origin, direction):
        """Abscissa t > 0 of the first crossing of psi = 0 along the ray
        origin + t direction, from an interior origin along a unit direction
        (boundary_hit checks both).  The generic route: a 513-point scan
        through the bounding box brackets the first sign change, Newton on
        psi_and_grad from the bracket's secant point finds the root, and
        brentq on the bracket takes over where Newton leaves |psi| >= 1e-13
        or leaves the bracket.  No crossing in the box, or a failed root,
        raises NoIntersection."""
        ts = np.linspace(0.0, _box_diameter(self.bounding_box), 513)
        vals = self.psi(origin + ts[:, None] * direction)
        pos = np.nonzero(vals > 0.0)[0]
        if pos.size == 0:
            raise NoIntersection("ray does not exit the domain inside the bounding box")
        k = pos[0]
        lo, hi, f_lo, f_hi = (float(v) for v in (ts[k - 1], ts[k], vals[k - 1], vals[k]))
        secant = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        t, converged = _newton_on_line(self, origin, direction, secant)
        if converged and lo <= t <= hi:  # NaN fails the test too
            return t
        return _root_on_line(self, origin, direction, lo, hi)

    def _bracketed_root(self, origin, direction, s_ref):
        # widen a bracket around the reference abscissa until psi changes sign
        sign_ref = np.sign(float(self.psi(origin + s_ref * direction)))
        width = max(1e-3, 1e-3 * abs(s_ref))
        for _ in range(60):
            for end in (s_ref - width, s_ref + width):
                if np.sign(float(self.psi(origin + end * direction))) != sign_ref:
                    lo, hi = sorted((end, s_ref))
                    return _root_on_line(self, origin, direction, lo, hi)
            width *= 2.0
            if width > 4.0 * _box_diameter(self.bounding_box):
                break
        raise OffsetMissesBoundary(
            f"no boundary crossing near s = {s_ref} along offset line"
        )


class ConicDomain(ImplicitDomain):
    """psi = (x - c)^T W (x - c) - r with W = diag(w), an axis-aligned conic."""

    def __init__(self, w, center, r):
        self.w = np.asarray(w, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.r = r
        self._hess_diag = 2.0 * self.w
        # W = S^2: a circle in y = S (x - c); S, c and r as floats for _line
        self._frame = (*np.sqrt(self.w).tolist(), *self.center.tolist(), float(r))

    def psi(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return np.einsum("...k,k,...k->...", d, self.w, d) - self.r

    def grad(self, x):
        return self._hess_diag * (np.asarray(x, dtype=float) - self.center)

    def hess(self, x):
        h = np.zeros(np.shape(x)[:-1] + (2, 2))
        h[..., 0, 0], h[..., 1, 1] = self._hess_diag
        return h

    def offset_exit(self, base, T, N, q, s_ref, second=True):
        """The conic kernel (_conic_disc, _conic_jet) on the (B, R) offsets q
        of B lines, T and N (B, 2) and base (2,) or (B, 2), from per-line
        constants (B, 1); s_ref is not read."""
        lines = np.broadcast_to(base, np.shape(T))
        consts = [self._line(*b, *t, *nn) for b, t, nn in
                  zip(lines.tolist(), np.asarray(T).tolist(), np.asarray(N).tolist())]
        return _conic_exits(np.array(consts).T[..., None], np.asarray(q, dtype=float), second)

    def network_exits(self, network, n):
        return _ConicExits(self, network, n)

    def ray_exit(self, origin, direction):
        # The far root at q = 0 on the constants of the line with N = 0,
        # those of _line with every term in N dropped; from an interior
        # origin it is the one crossing.
        s0, s1, c0, c1, r = self._frame
        (x0, x1), (d0, d1) = origin.tolist(), direction.tolist()
        sh0, sh1, T0, T1 = (x0 - c0) * s0, (x1 - c1) * s1, d0 * s0, d1 * s1
        a, b = T0 * T0 + T1 * T1, sh0 * T0 + sh1 * T1
        line = (b, 0.0, 0.0, 0.0, a, b * b - a * (sh0 * sh0 + sh1 * sh1 - r), 0.0, 0.0)
        disc = _conic_disc(line, 0.0)
        if not disc > 0.0:  # NaN fails the test too
            raise NoIntersection("ray does not cross the boundary")
        return _conic_jet(line, 0.0, math.sqrt(disc), False)[0]

    def _line(self, b0, b1, T0, T1, N0, N1):
        """The constants of the conic kernel for the line base + q N + s T in
        y = S (x - c), as a tuple of floats."""
        s0, s1, c0, c1, r = self._frame
        sh0, sh1 = (b0 - c0) * s0, (b1 - c1) * s1
        T0, T1, N0, N1 = T0 * s0, T1 * s1, N0 * s0, N1 * s1
        a = T0 * T0 + T1 * T1
        TN = T0 * N0 + T1 * N1
        NN = N0 * N0 + N1 * N1
        b = sh0 * T0 + sh1 * T1
        sN = sh0 * N0 + sh1 * N1
        return (b, TN, sN, NN, a, b * b - a * (sh0 * sh0 + sh1 * sh1 - r),
                2.0 * (b * TN - a * sN), TN * TN - a * NN)


class _ConicExits:
    """network_exits on a conic: the conic kernel, which reads no start, on the
    constants of the three branch lines, bound once: grid-shaped, (3, n+1),
    for chart, and per line in Python floats for ends.  ends runs the
    kernel per line in floats and makes offset_exit's checks over all six
    lines, so chart, ends and offset_exit agree bitwise and raise alike."""

    def __init__(self, domain, network, n):
        lines = [domain._line(*network.p_star.tolist(), *t, *nn) for t, nn in
                 zip(network.tangents.tolist(), network.normals.tolist())]
        self._grid = np.repeat(np.array(lines).T[..., None], n + 1, axis=2)
        self._ends = [lines[i] for i in _BRANCH6]

    def chart(self, q):
        return _conic_exits(self._grid, q, True)

    def ends(self, q):
        discs = list(map(_conic_disc, self._ends, q))
        if not min(discs) > _DISC_CLEAR:
            _check_discs(discs)
        s, ds, _ = zip(*map(_conic_jet, self._ends, q, map(math.sqrt, discs), _FIRST6))
        return s, ds


# The conic kernel, _conic_disc and _conic_jet: the exit in y = S (x - c),
# where psi = |y|^2 - r, as a quadratic in the offset q on per-line
# constants (ConicDomain._line), for arrays and for Python floats alike.
# With o = S (base + q N - c) and T, N scaled by S, the exit solves
# a s^2 + 2 b s + (|o|^2 - r) = 0 with a = |T|^2 and b = (o, T) =
# b0 + q (T, N), so its discriminant b^2 - a (|o|^2 - r) is
# A0 + q (A1 + q A2): A0 = b0^2 - a (|o0|^2 - r), A1 = 2 (b0 (T, N) -
# a (o0, N)), A2 = (T, N)^2 - a |N|^2.  The exit is the root on the far side
# of the chord, s = (sqrt(disc) - b) / a, the one continuous in the
# reference root.  At the exit (grad psi, T) = 2 sqrt(disc), (grad psi, N) =
# 2 (o + s T, N) and D2psi = 2 W, so the factors 2 cancel.  At q = 0 every
# term in q vanishes exactly, which leaves the rays' expression.

_DISC_CLEAR = 1e-20  # a discriminant above it passes both checks of _check_discs
_FIRST6 = (False,) * 6  # second=False for the six ends


def _conic_disc(line, q):
    _, _, _, _, _, A0, A1, A2 = line
    return A0 + q * (A1 + q * A2)


def _conic_jet(line, q, root, second):
    """(s, s', s'') at the exit from root = sqrt(disc); s'' is None when
    second=False."""
    b, TN, sN, NN, a, _, _, _ = line
    s = (root - (b + q * TN)) / a
    ds = -(sN + q * NN + s * TN) / root
    if not second:
        return s, ds, None
    return s, ds, -(ds * ds * a + 2.0 * ds * TN + NN) / root


def _check_discs(discs):
    """The miss and tangent checks of the discriminants; NaN passes both."""
    discs = np.asarray(discs)
    if (discs <= 0.0).any():
        raise OffsetMissesBoundary("offset line misses the boundary")
    if (np.sqrt(discs) < 0.5e-10).any():  # the generic floor |(grad psi, T)| < 1e-10
        raise OffsetMissesBoundary("offset line tangent to the boundary")


def _conic_exits(lines, q, second):
    """(s, s', s'') on arrays of offsets q from the constants `lines`, eight
    arrays that broadcast to q, after the miss and tangent checks."""
    disc = _conic_disc(lines, q)
    if not disc.min() > _DISC_CLEAR:  # NaN takes the exact checks too
        _check_discs(disc)
    return _conic_jet(lines, q, np.sqrt(disc), second)


class CircleDomain(ConicDomain):
    """psi = |x - center|^2 - R^2."""

    family = "circle"

    def __init__(self, radius: float, center=(0.0, 0.0)):
        if not 0.0 < radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {radius}")
        self.radius = float(radius)
        super().__init__((1.0, 1.0), center, self.radius**2)
        if self.center.shape != (2,) or not np.isfinite(self.center).all():
            raise ValueError(f"center must be two finite numbers, got {center}")
        cx, cy = self.center
        m = 1.5 * self.radius
        self.bounding_box = (cx - m, cx + m, cy - m, cy + m)


class EllipseDomain(ConicDomain):
    """psi = x^2/a^2 + y^2/b^2 - 1, axes aligned with the coordinates."""

    family = "ellipse"

    def __init__(self, a: float, b: float):
        if not (0.0 < a < np.inf and 0.0 < b < np.inf):
            raise ValueError(f"semi-axes must be positive and finite, got {a}, {b}")
        self.a = float(a)
        self.b = float(b)
        super().__init__((1.0 / self.a**2, 1.0 / self.b**2), (0.0, 0.0), 1.0)
        self.bounding_box = (-1.5 * a, 1.5 * a, -1.5 * b, 1.5 * b)


class PolynomialDomain(ImplicitDomain):
    """psi = sum_m c_m x^{i_m} y^{j_m} with exact coefficient differentiation."""

    family = "polynomial"

    def __init__(self, terms, bounding_box=_BOX):
        terms = [(polynomial_power(i), polynomial_power(j), float(c)) for i, j, c in terms]
        if not terms:
            raise ValueError("polynomial domain needs at least one term")
        if min(min(i, j) for i, j, _ in terms) < 0:
            raise ValueError("polynomial powers must be non-negative")
        self.terms = terms
        self.bounding_box = tuple(float(v) for v in bounding_box)
        self._deg_x = max(i for i, _, _ in terms)
        self._deg_y = max(j for _, j, _ in terms)
        # one dense coefficient matrix over the monomials x^i y^j and its
        # exact derivatives, stacked as psi, px, py, pxx, pxy, pyy
        mat = np.zeros((self._deg_x + 1, self._deg_y + 1))
        for i, j, c in terms:
            mat[i, j] += c
        with np.errstate(over="ignore", invalid="ignore"):
            mx, my = _derivative(mat, 0), _derivative(mat, 1)
            self._stack = np.stack(
                [mat, mx, my, _derivative(mx, 0), _derivative(mx, 1), _derivative(my, 1)]
            )
        if not np.all(np.isfinite(self._stack)):
            raise ValueError("polynomial coefficients overflow in their derivatives")
        self._deg = max(i + j for i, j, _ in terms)
        self._line_memo = {}

    def _fields(self, x, lo, hi):
        """Fields lo..hi-1 of (psi, px, py, pxx, pxy, pyy) at x: (..., hi - lo).

        One pair of power ladders serves every field.
        """
        x = np.asarray(x, dtype=float)
        xs = _ladder(x[..., 0], self._deg_x)
        ys = _ladder(x[..., 1], self._deg_y)
        return np.einsum("i...,kij,j...->...k", xs, self._stack[lo:hi], ys)

    def psi(self, x):
        return self._fields(x, 0, 1)[..., 0][()]  # a scalar for a single point

    def grad(self, x):
        return self._fields(x, 1, 3)

    def hess(self, x):
        return _sym2(self._fields(x, 3, 6))

    def psi_and_grad(self, x):
        vals = self._fields(x, 0, 3)
        return vals[..., 0], vals[..., 1:3]

    def offset_exit(self, base, T, N, q, s_ref, second=True):
        """Newton in s on the line polynomials P(s, q) = psi(base + s T +
        q N) of B lines, the kernel of _exit_jet: T and N are (B, 2), base
        (2,) or (B, 2), q (B, R) and s_ref broadcasts to it.  The offsets of
        a row share its line, so q is contracted with each line's stack in
        one matmul."""
        base, T, N, q = (np.asarray(a, dtype=float) for a in (base, T, N, q))
        qs = np.empty((2,) + q.shape)
        qs[0], qs[1] = q, s_ref
        return self._exit_jet(self._line_stacks(base, T, N), qs, (base, T, N), second)

    def network_exits(self, network, n):
        return _PolynomialExits(self, network)

    def _exit_jet(self, stacks, qs, lines, second):
        """(s, s', s'') of B offset lines at R offsets each, (B, R): stacks
        (B, K, 6 K) holds the six fields of each line polynomial (see
        _line_stacks), qs (2, B, R) the offsets q and the starts, and
        lines = (base, T, N) the lines, T and N (B, 2).

        Newton in s, with steps clipped to 0.25, until |P| < 1e-13.  One
        evaluation gives every field, so the one that confirms the root also
        gives (grad psi, T) = P_s, (grad psi, N) = P_q and x' . D2psi . x' =
        s'^2 P_ss + 2 s' P_sq + P_qq with x' = s' T + N, for any frame
        (T, N).  Entries under the slope floor take no step; entries left
        unconverged go to line_exit from their start.

        One ladder serves q and the start.  q is contracted once per call:
        one matmul of its powers against each line's stack gives every
        entry's fields as polynomials in s, which each evaluation then
        contracts with the powers of s (_line_fields)."""
        deg = self._deg
        ladders = _ladder(qs, deg)  # one ladder for q and the start
        coef = ladders[:, 0].transpose(1, 2, 0) @ stacks  # (B, R, F K)
        coef = coef.reshape(coef.shape[:2] + (-1, deg + 1))
        s = qs[1]
        powers = ladders[:, 1]
        for _ in range(60):
            vals = _line_fields(coef, powers)
            f, df = vals[:, 0], vals[:, 1]
            if np.abs(f).max() < 1e-13:  # NaN fails the test too
                break
            converged = np.abs(f) < 1e-13
            # converged entries and slopes under the floor take no step
            df = np.where(converged | (np.abs(df) < _GRAD_FLOOR), np.inf, df)
            # keep the iteration local to the reference root
            s = s - np.clip(f / df, -0.25, 0.25)
            powers = _ladder(s, deg)
        else:  # 60 steps without convergence
            rows, cols = np.nonzero(~converged)
            base, T, N = (np.broadcast_to(a, lines[1].shape)[rows] for a in lines)
            q, start = qs[:, rows, cols]
            s[rows, cols] = self.line_exit(base + q[:, None] * N, T, start)
            vals = _line_fields(coef, _ladder(s, deg))
        gT = vals[:, 1]
        slope = np.abs(gT)
        if not slope.min() >= 1e-10 and (slope < 1e-10).any():  # NaN entries pass
            raise OffsetMissesBoundary("offset line tangent to the boundary")
        ds = vals[:, 2] / gT  # the third field is -P_q
        if not second:
            return s, ds, None
        quad = ds * ds * vals[:, 3] + 2.0 * ds * vals[:, 4] + vals[:, 5]
        return s, ds, -quad / gT

    def _line_stacks(self, base, T, N):
        """The six-field stack of the line polynomial of each row of T and
        N, (B, K, 6 K): row c, column f K + a holds the coefficient of
        q^c s^a in field f of P, P_s, -P_q, P_ss, P_sq, P_qq (-P_q, so that
        s' = -P_q / P_s is one division, with the same bits).  A stack costs
        about 0.3 ms per line, so the stacks are kept per (base, T, N), at
        most 16 of them."""
        key = (base.tobytes(), T.tobytes(), N.tobytes())
        stacks = self._line_memo.get(key)
        if stacks is not None:
            return stacks
        lines = np.concatenate((np.broadcast_to(base, T.shape), T, N), axis=1).tolist()
        stacks = np.stack([self._line_stack(*line) for line in lines])
        stacks.flags.writeable = False
        if len(self._line_memo) >= 16:
            del self._line_memo[next(iter(self._line_memo))]
        self._line_memo[key] = stacks
        return stacks

    def _line_stack(self, b0, b1, T0, T1, N0, N1):
        # x and y as polynomials in (s, q), composed exactly with each term
        lines = ([(0, 0, b0), (1, 0, T0), (0, 1, N0)], [(0, 0, b1), (1, 0, T1), (0, 1, N1)])
        powers = []
        for line, deg in zip(lines, (self._deg_x, self._deg_y)):
            ladder = [[(0, 0, 1.0)]]
            for _ in range(deg):
                ladder.append(poly_product(ladder[-1], line))
            powers.append(ladder)
        mat = np.zeros((self._deg + 1, self._deg + 1))
        for i, j, c in self.terms:
            for a, k, v in poly_scale(poly_product(powers[0][i], powers[1][j]), c):
                mat[a, k] += v
        ms, mq = _derivative(mat, 0), _derivative(mat, 1)
        stack = np.stack([mat, ms, -mq, _derivative(ms, 0), _derivative(ms, 1),
                          _derivative(mq, 1)])  # (6, K, K) over (field, s, q)
        return stack.transpose(2, 0, 1).reshape(self._deg + 1, -1)


class _PolynomialExits:
    """network_exits on a polynomial wall: the kernel of _exit_jet on the
    three lines' stacks, bound once, for chart and on the same stacks taken
    twice for the six ends.  Every start is predicted from the exit jet
    (mu_b, mu_b', mu_b'') of the last chart, at q0 = the offsets it was
    taken at: mu_b + dq (mu_b' + mu_b'' dq / 2) with dq = q - q0, at the
    end columns for ends.  Before the first chart the jet is (l, 0, 0) at
    q0 = 0, which predicts the reference lengths.  A start within reach of
    the root is accepted at the first evaluation of the line polynomial.
    chart moves the jet as soon as its exits are found."""

    def __init__(self, domain, network):
        p_star, tangents, normals = network.p_star, network.tangents, network.normals
        self._kernel = domain._exit_jet
        self._lines = (p_star, tangents, normals)
        self._stacks = domain._line_stacks(*self._lines)
        self._end_lines = (p_star, tangents[_BRANCH6], normals[_BRANCH6])
        self._end_stacks = self._stacks[_BRANCH6]
        zero = np.zeros((3, 1))
        self._keep_jet(zero, network.lengths[:, None], zero, zero)

    def _keep_jet(self, *jet):
        # the jet, and its end columns as float 4-tuples for ends
        self._jet = jet
        self._end_jet = list(zip(*(a[:, 0].tolist() + a[:, -1].tolist() for a in jet)))

    def chart(self, q):
        q0, s, ds, dds = self._jet
        dq = q - q0
        qs = np.empty((2,) + q.shape)
        qs[0], qs[1] = q, s + dq * (ds + 0.5 * dds * dq)
        jet = self._kernel(self._stacks, qs, self._lines, True)
        self._keep_jet(q.copy(), *jet)
        return jet

    def ends(self, q):
        s_ref = []
        for qk, (q0, s, ds, dds) in zip(q, self._end_jet):
            dq = qk - q0
            s_ref.append(s + dq * (ds + 0.5 * dds * dq))
        # The sweep reads P, P_s and P_q only, but all six fields are kept:
        # the matrix-vector product over three of them rounds differently.
        s, ds, _ = self._kernel(self._end_stacks, np.array((q, s_ref))[..., None],
                                self._end_lines, False)
        return s.ravel().tolist(), ds.ravel().tolist()


def polynomial_power(value) -> int:
    """A monomial power as an int; ValueError unless it is a whole number at
    most MAX_POWER.  The cap bounds the dense coefficient stack, which has
    (MAX_POWER + 1)^2 entries per field."""
    power = float(value)
    if not (power.is_integer() and power <= MAX_POWER):
        raise ValueError(f"polynomial powers must be whole numbers at most {MAX_POWER}, "
                         f"got {value}")
    return int(power)


def _derivative(mat, axis):
    """Coefficients of d/dx (axis 0) or d/dy (axis 1), zero-padded to shape."""
    powers = np.arange(mat.shape[axis]).reshape((-1, 1) if axis == 0 else (1, -1))
    return np.roll(mat * powers, -1, axis=axis)


def _ladder(v, deg):
    """Powers v^0 .. v^deg on a new first axis, by repeated multiplication;
    v**k rounds differently and would move every fingerprint.  Up to 64
    entries (the sweep's six ends) one multiply.accumulate makes every
    product, about half the cost of a loop of in-place products; on longer
    rows (a chart's) numpy's accumulate along the first axis is several
    times slower than that loop.  Both give the same bits."""
    out = np.empty((deg + 1,) + np.shape(v))
    out[0] = 1.0
    out[1:] = v
    if out[0].size <= 64:
        return np.multiply.accumulate(out, axis=0, out=out)
    for k in range(1, deg):
        out[k + 1] *= out[k]
    return out


def _line_fields(coef, powers):
    """Fields of the line polynomials, (B, F, R), from their coefficients
    in s, coef (B, R, F, K), and the powers of s, (K, B, R): a matrix-vector
    product per line for rows of one entry, whose bits do not depend on the
    number of lines (the sweep's six lines, a single line), and one einsum
    for longer rows (the chart's), about a tenth of the cost of 3 (n+1)
    products."""
    if coef.shape[1] == 1:
        return coef[:, 0] @ powers.transpose(1, 0, 2)
    return np.einsum("brfk,kbr->bfr", coef, powers)


def _sym2(vals):
    """(..., 3) entries xx, xy, yy -> (..., 2, 2) symmetric matrices."""
    return vals[..., [0, 1, 1, 2]].reshape(vals.shape[:-1] + (2, 2))


def _box_diameter(box):
    return float(np.hypot(box[1] - box[0], box[3] - box[2]))


def poly_product(*term_lists):
    """Multiply polynomial term lists [(i, j, c), ...], merging like monomials.

    Convenient for composite level sets such as a disk with excluded disks:
    psi = -(R^2 - |x|^2) * prod_k (|x - c_k|^2 - r_k^2).
    """
    acc = {(0, 0): 1.0}
    for terms in term_lists:
        out = {}
        for (i1, j1), c1 in acc.items():
            for i2, j2, c2 in terms:
                key = (i1 + int(i2), j1 + int(j2))
                out[key] = out.get(key, 0.0) + c1 * float(c2)
        acc = out
    return [(i, j, c) for (i, j), c in sorted(acc.items()) if c != 0.0]


def poly_scale(terms, factor):
    return [(i, j, factor * c) for i, j, c in terms]


def disk_terms(radius, center=(0.0, 0.0)):
    """Terms of |x - center|^2 - radius^2."""
    cx, cy = center
    return [
        (2, 0, 1.0),
        (0, 2, 1.0),
        (1, 0, -2.0 * cx),
        (0, 1, -2.0 * cy),
        (0, 0, cx**2 + cy**2 - radius**2),
    ]


def make_domain(kind: str, **params) -> ImplicitDomain:
    """Factory used by the config layer."""
    if kind == "circle":
        return CircleDomain(params["radius"], params.get("center", (0.0, 0.0)))
    if kind == "ellipse":
        a, b = params["semi_axes"]
        return EllipseDomain(a, b)
    if kind == "polynomial":
        return PolynomialDomain(params["coefficients"], params.get("bounding_box", _BOX))
    raise ValueError(f"unknown domain type {kind!r}")


def boundary_curvature(domain: ImplicitDomain, x, tol: float = 1e-8):
    """Boundary curvature h = -(D^2 psi t, t)/|grad psi| at a boundary point.

    t is the unit boundary tangent.  With Omega = {psi < 0} the sign is
    negative wherever the wall bulges away from the interior (any convex
    domain, e.g. h = -1/R on a circle of radius R) and positive inside dents.
    This orientation matches the second derivative of the branch-length
    function mu(q): sliding an endpoint sideways along a positively curved
    (dented) wall lengthens the branch, which is the stabilizing case.
    A gradient under the floor or not finite raises SingularGradient.
    """
    h = wall_curvature_and_gradient(domain, x, tol)[0]
    return float(h) if h.ndim == 0 else h


def wall_curvature_and_gradient(domain: ImplicitDomain, x, tol: float = 1e-8):
    """(h, grad psi, |grad psi|) at boundary points x: boundary_curvature's
    h, with its checks, and the gradient it reads, for callers that need
    both (a record's wall terms)."""
    x = np.asarray(x, dtype=float)
    val = np.asarray(domain.psi(x))
    scale = max(1.0, _box_diameter(domain.bounding_box))
    if np.any(np.abs(val) > tol * scale):
        raise NotOnBoundary(f"psi(x) = {val} exceeds boundary tolerance")
    g = domain.grad(x)
    gnorm = np.sqrt((g * g).sum(axis=-1))  # the bits of np.linalg.norm(g, axis=-1)
    if not gnorm.min() >= _GRAD_FLOOR:  # NaN fails the test too
        raise SingularGradient(f"gradient vanishes or is not finite on the boundary "
                               f"(|grad psi| = {gnorm})")
    t = (g / gnorm[..., None]) @ ROT90.T  # outward normal rotated by pi/2
    quad = np.einsum("...i,...ij,...j->...", t, domain.hess(x), t)
    return -quad / gnorm, g, gnorm


def boundary_hit(domain: ImplicitDomain, origin, direction):
    """First boundary crossing of the ray origin + t*direction, t > 0.

    Returns (point, distance) with |psi(point)| <= 1e-12.  The domain's
    family gives the crossing (ray_exit): conics in closed form, other
    families by a scan through the bounding box, then Newton, then Brent's
    method (brentq) where Newton fails.  A zero or non-finite direction, an
    origin that is not a finite interior point, no crossing (inside the box,
    on the scan), or a failed root raise NoIntersection.
    """
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if not 0.0 < norm < math.inf:  # NaN fails the test too
        raise NoIntersection("ray direction must be finite and nonzero")
    if not (np.isfinite(origin).all() and domain.psi(origin) < 0.0):
        raise NoIntersection("ray origin must lie inside the domain")
    direction = direction / norm
    t = domain.ray_exit(origin, direction)
    point = origin + t * direction
    if not abs(float(domain.psi(point))) <= 1e-12:  # NaN fails the test too
        raise NoIntersection("|psi| at the crossing exceeds 1e-12 or is not finite")
    return point, float(t)


def _root_on_line(domain, origin, direction, lo, hi):
    """Root of psi(origin + t direction) bracketed by [lo, hi]: brentq, then a
    Newton polish so that |psi| < 1e-13 rather than only the step is small.
    A failed root search raises NoIntersection."""

    def f(t):
        return float(domain.psi(origin + t * direction))

    try:
        t = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    except RootSearchFailed as e:
        raise NoIntersection(f"no root of psi on [{lo}, {hi}] along the line: {e}") from e
    return _newton_on_line(domain, origin, direction, t)[0]


def _newton_on_line(domain, origin, direction, t):
    """Newton on psi(origin + t direction) from t, on psi_and_grad: at most
    four steps, the last taken from the first point with |psi| < 1e-13 (a
    step of at most 1e-13 / slope, which takes the root to rounding).  A
    slope under the floor stops it.  Returns t and whether such a point was
    met."""
    for _ in range(4):
        val, g = domain.psi_and_grad(origin + t * direction)
        slope = float(g @ direction)
        if abs(slope) < _GRAD_FLOOR:
            break
        t -= float(val) / slope
        if abs(val) < 1e-13:
            return t, True
    return t, False


def brentq(f, a, b, xtol=2e-12, rtol=4 * sys.float_info.epsilon, maxiter=100):
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4), step for
    step the C iteration of scipy.optimize.brentq (Zeros/brentq.c) in Python
    floats, so it returns the same root bitwise.  It stops when the bracket's
    half width is below (xtol + rtol |x|) / 2.  A NaN value, f(a) and f(b) of
    one sign, or maxiter iterations without convergence raise
    RootSearchFailed with scipy's message."""

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise RootSearchFailed(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise RootSearchFailed("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # in C the step is then infinite or NaN and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RootSearchFailed(f"Failed to converge after {maxiter} iterations.")


class LaggedJacobian:
    """A Newton Jacobian's (pseudo-)inverse as row lists, held across solves,
    and the number of solves it has served since it was evaluated."""

    def __init__(self):
        self.inv = None
        self.age = 0


def newton(residual, u, held=None):
    """Root of residual, a map from a float list to a float list, by damped
    Newton from the start u (Gauss-Newton when there are more residuals than
    unknowns); returns the root as a list once every residual is below 1e-10.
    The Jacobian is a forward difference (step 1e-7), kept as its inverse or
    pseudo-inverse.  Without held it is evaluated every iteration; with held,
    a LaggedJacobian, it is reused across solves and evaluated when none is
    held, from the third iteration, or after 100 solves, and a step that a
    stale one cannot make forces one refresh (Deuflhard 2004).  Each
    step is halved up to 11 times until the residual norm drops; a trial
    whose residual raises NoIntersection or OffsetMissesBoundary counts as
    one that does not (the first residual and the Jacobian's raise).  A
    condition number past 1e6 raises SingularJacobian; no descent from a
    fresh Jacobian, a non-finite one, or 20 iterations raise NoConvergence."""
    lagged = held is not None
    held = held if lagged else LaggedJacobian()
    F = residual(u)
    for it in range(_NEWTON_MAX):
        if all(map(_NEWTON_TOL.__gt__, map(abs, F))):  # every |f| < tol; NaN never passes
            held.age += 1
            return u
        base = math.hypot(*F)
        if not lagged or held.inv is None or it >= 2 or held.age > 100:
            cols = []
            for k in range(len(u)):
                up = list(u)
                up[k] += 1e-7
                cols.append([(a - b) / 1e-7 for a, b in zip(residual(up), F)])
            jac = np.array(cols).T
            if not np.isfinite(jac).all():  # no step: it stalls
                raise NoConvergence(it + 1, base, stalled=True)
            cond = np.linalg.cond(jac)
            if cond > _COND_LIMIT:
                raise SingularJacobian(f"Jacobian condition number {cond:.3e} exceeds "
                                       f"{_COND_LIMIT:.0e}")
            held.inv = (np.linalg.inv(jac) if len(F) == len(u) else np.linalg.pinv(jac)).tolist()
            held.age = 0
        step = [-sum(a * f for a, f in zip(row, F)) for row in held.inv]
        lam = 1.0
        for _ in range(11):
            u_try = [x + lam * dx for x, dx in zip(u, step)]
            try:
                F_try = residual(u_try)
            except (NoIntersection, OffsetMissesBoundary):  # left the domain: a failed trial
                F_try = [math.inf]
            if math.hypot(*F_try) < base:
                u, F = u_try, F_try
                break
            lam *= 0.5
        else:
            if held.age == 0:  # no descent from a fresh Jacobian
                raise NoConvergence(it + 1, base, stalled=True)
            held.inv = None  # a stale one: refresh it once
    raise NoConvergence(_NEWTON_MAX, max(map(abs, F)))
