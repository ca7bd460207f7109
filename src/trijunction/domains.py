"""Implicit planar domains Omega = {psi < 0} and boundary geometry.

The domain is described by a C^3 level-set function psi with nonvanishing
gradient on {psi = 0}, so the gradient points out of Omega.  Three analytic
families are built in: circles, axis-aligned ellipses, and polynomial level
sets sum c * x^i y^j (which covers half-planes, dented circles, Cassini-type
shapes, ...).  Derivatives are exact in all cases; no finite differencing
happens inside curvature or Newton kernels.  Offset-line exits have one
route, network_exits, which binds a network's three branch lines once and
gives their exits on the chart's (3, n+1) grids and at the boundary sweep's
six branch ends.  The binding alone decides where an exit search starts: a
fresh one starts every search from the reference lengths; on a polynomial
wall it then predicts every start from the last chart's exit jet; a
conic's closed form reads no start.  On a conic one kernel, a quadratic in
the offset q on per-line constants (_conic_disc, _conic_jet), serves the
binding's chart (grid-shaped), its ends (in floats) and the rays to the
wall (at q = 0 with N = 0; boundary_hit, which the steady solve shoots,
takes ray_exit).
"""

from __future__ import annotations

import functools
import math
import operator
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
_NEWTON_CONTRACTION = 1e-4  # newton: a lagged step that contracts less marks its inverse stale
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

    def network_exits(self, network, n):
        """The exits of the branch lines p_* + q N + s T of a network (its
        p_star, tangents, normals and lengths), bound once, on the (3, n+1)
        grids: an object whose chart(q) gives (s, s', s''), the roots of
        psi(p_* + s T + q N) = 0 and their implicit q-derivatives, at the
        (3, n+1) offsets q, and whose ends(q) gives (s, s') as float
        sequences at the six offsets q, a 6-list, of the branch ends
        (junction ends, then wall ends), and ends(q, True) (s, s', s'').  A
        Stepper holds one for its run; a chart given none binds the network
        afresh.  A fresh binding starts every search from the reference
        lengths.  Subclasses give the route of their family."""
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

    def network_exits(self, network, n):
        return _ConicExits(self, network, n)

    def ray_exit(self, origin, direction):
        # The far root at q = 0 on the constants of the line with N = 0,
        # whose terms in N are exact zeros; from an interior origin it is
        # the one crossing.
        line = self._line(*origin.tolist(), *direction.tolist(), 0.0, 0.0)
        disc = _conic_disc(line, 0.0, 0.0)
        if not disc > 0.0:  # NaN fails the test too
            raise NoIntersection("ray does not cross the boundary")
        return _conic_jet(line, 0.0, 0.0, math.sqrt(disc), False)[0]

    def _line(self, b0, b1, T0, T1, N0, N1):
        """The constants of the conic kernel for the line base + q N + s T in
        y = S (x - c), as a tuple of floats: first the three that multiply
        q, (T, N), |N|^2 and A2, then b0, -(o0, N), a, A0, A1, 2 (T, N) and
        -|N|^2."""
        s0, s1, c0, c1, r = self._frame
        sh0, sh1 = (b0 - c0) * s0, (b1 - c1) * s1
        T0, T1, N0, N1 = T0 * s0, T1 * s1, N0 * s0, N1 * s1
        a = T0 * T0 + T1 * T1
        TN = T0 * N0 + T1 * N1
        NN = N0 * N0 + N1 * N1
        b = sh0 * T0 + sh1 * T1
        sN = sh0 * N0 + sh1 * N1
        return (TN, NN, TN * TN - a * NN, b, -sN, a, b * b - a * (sh0 * sh0 + sh1 * sh1 - r),
                2.0 * (b * TN - a * sN), 2.0 * TN, -NN)


class _ConicExits:
    """network_exits on a conic: the conic kernel, which reads no start, on the
    constants of the three branch lines, bound once: grid-shaped, (3, n+1),
    for chart, and per line in Python floats for ends.  chart checks its
    discriminants for a miss or a tangent (_check_discs) where one is not
    clear of both checks.  ends runs the kernel per line in one float loop
    and, at the first discriminant that is not clear of both checks, makes
    the same checks over all six lines, so chart and ends agree bitwise and
    raise alike."""

    def __init__(self, domain, network, n):
        lines = [domain._line(*network.p_star.tolist(), *t, *nn) for t, nn in
                 zip(network.tangents.tolist(), network.normals.tolist())]
        grid = np.repeat(np.array(lines).T[..., None], n + 1, axis=2)
        self._qterms, self._grid = grid[:3], tuple(grid)
        self._lines6 = [lines[i] for i in _BRANCH6]
        self._ends = [line[:8] for line in self._lines6]  # s'' constants read apart

    def chart(self, q):
        qTN, qNN, qA2 = self._qterms * q  # the three q-terms in one product
        disc = _conic_disc(self._grid, q, qA2)
        if not disc.min() > _DISC_CLEAR:  # NaN takes the exact checks too
            _check_discs(disc)
        return _conic_jet(self._grid, qTN, qNN, np.sqrt(disc), True)

    def ends(self, q, second=False):
        # _conic_disc and _conic_jet (second=False), written out in floats;
        # s'' from the kernel on the same discriminants, only when asked
        s, ds = [], []
        for (TN, NN, A2, b, msN, a, A0, A1), qk in zip(self._ends, q):
            disc = A0 + qk * (A1 + qk * A2)
            if not disc > _DISC_CLEAR:  # NaN takes the exact checks too
                _check_discs([_conic_disc(line, x, x * line[2])
                              for line, x in zip(self._ends, q)])
            root = math.sqrt(disc)
            sk = (root - (b + qk * TN)) / a
            s.append(sk)
            ds.append((msN - qk * NN - sk * TN) / root)
        if not second:
            return s, ds
        return s, ds, [_conic_jet(line, qk * line[0], qk * line[1],
                                  math.sqrt(_conic_disc(line, qk, qk * line[2])), True)[2]
                       for line, qk in zip(self._lines6, q)]


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
# 2 (o + s T, N) and D2psi = 2 W, so the factors 2 cancel.  q enters through
# the three products q (T, N), q |N|^2 and q A2, which the array route
# takes in one multiplication of the stacked constants.  At q = 0 every
# term in q vanishes exactly, which leaves the rays' expression.

_DISC_CLEAR = 1e-20  # a discriminant above it passes both checks of _check_discs


def _conic_disc(line, q, qA2):
    """The discriminant A0 + q (A1 + q A2), given qA2 = q A2."""
    return line[6] + q * (line[7] + qA2)


def _conic_jet(line, qTN, qNN, root, second):
    """(s, s', s'') at the exit from root = sqrt(disc) and the q-terms
    qTN = q (T, N) and qNN = q |N|^2; s'' is None when second=False.  With
    the negated constants, s' = -((o, N) + s (T, N)) / root and s'' =
    -(s'^2 a + 2 s' (T, N) + |N|^2) / root round as written out."""
    TN, _, _, b, msN, a, _, _, TN2, mNN = line
    s = (root - (b + qTN)) / a
    ds = (msN - qNN - s * TN) / root
    if not second:
        return s, ds, None
    return s, ds, (mNN - (ds * ds * a + ds * TN2)) / root


def _check_discs(discs):
    """The miss and tangent checks of the discriminants; NaN passes both."""
    discs = np.asarray(discs)
    if (discs <= 0.0).any():
        raise OffsetMissesBoundary("offset line misses the boundary")
    if (np.sqrt(discs) < 0.5e-10).any():  # the generic floor |(grad psi, T)| < 1e-10
        raise OffsetMissesBoundary("offset line tangent to the boundary")


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
            f = vals[:, 0]
            if _every_under(f, 1e-13):
                break
            df = vals[:, 1]
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
        if _some_under(gT, 1e-10):
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
        about 0.3 ms per line, and a chart given no binding binds its
        network afresh, so the stacks are kept per (base, T, N), at most 16
        of them."""
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
    twice for the six ends.  A fresh binding starts every search from the
    reference lengths: its ends read the jet (l, 0, 0) at q0 = 0, which
    predicts them.  After a chart every start is predicted from that
    chart's exit jet (mu_b, mu_b', mu_b''), at q0 = the offsets it was taken
    at: mu_b + dq (mu_b' + mu_b'' dq / 2) with dq = q - q0, at the end
    columns for ends.  A start within reach of the root is accepted at the
    first evaluation of the line polynomial.  chart moves the jet as soon as
    its exits are found.  The six ends' stacks, and the jet's end columns
    as floats, are formed by the first ends call that reads them, so that a
    binding that only charts (a chart given none binds one) costs little
    more than its chart."""

    def __init__(self, domain, network):
        self._kernel = domain._exit_jet
        self._lines = (network.p_star, network.tangents, network.normals)
        self._stacks = domain._line_stacks(*self._lines)
        self._lengths = network.lengths
        self._jet = None  # (q0, s, s', s'') of the last chart
        self._end_jet = None  # its end columns as float 4-tuples, for ends

    @functools.cached_property
    def _end_frames(self):
        """The stacks and lines of the six ends, the three lines' taken twice."""
        p_star, tangents, normals = self._lines
        return self._stacks[_BRANCH6], (p_star, tangents[_BRANCH6], normals[_BRANCH6])

    def chart(self, q):
        qs = np.empty((2,) + q.shape)
        qs[0] = q
        if self._jet is None:
            qs[1] = self._lengths[:, None]
        else:
            q0, s, ds, dds = self._jet
            dq = q - q0
            qs[1] = s + dq * (ds + 0.5 * dds * dq)
        jet = self._kernel(self._stacks, qs, self._lines, True)
        self._jet = (q.copy(), *jet)
        self._end_jet = None
        return jet

    def ends(self, q, second=False):
        if self._end_jet is None:
            self._end_jet = ([(0.0, l, 0.0, 0.0) for l in self._lengths[_BRANCH6].tolist()]
                             if self._jet is None else
                             list(zip(*(a[:, 0].tolist() + a[:, -1].tolist()
                                        for a in self._jet))))
        s_ref = [s + (dq := qk - q0) * (ds + 0.5 * dds * dq)
                 for qk, (q0, s, ds, dds) in zip(q, self._end_jet)]
        stacks, lines = self._end_frames
        # The sweep reads P, P_s and P_q only, but all six fields are kept:
        # the matrix-vector product over three of them rounds differently.
        s, ds, dds = self._kernel(stacks, np.array((q, s_ref))[..., None], lines, second)
        if not second:
            return s.ravel().tolist(), ds.ravel().tolist()
        return s.ravel().tolist(), ds.ravel().tolist(), dds.ravel().tolist()


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


def _every_under(v, tol):
    """Whether |v| < tol for every entry, a NaN failing; in floats up to 64
    entries (the sweep's six ends), where that costs less than numpy's abs
    and its reduction."""
    if v.size <= 64:
        return all([abs(x) < tol for x in v.ravel().tolist()])
    return np.abs(v).max() < tol


def _some_under(v, tol):
    """Whether |v| < tol for some entry, a NaN not; in floats up to 64
    entries, as _every_under."""
    if v.size <= 64:
        return any([abs(x) < tol for x in v.ravel().tolist()])
    slope = np.abs(v)
    return not slope.min() >= tol and (slope < tol).any()


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
    h = -np.einsum("...i,...ij,...j->...", t, domain.hess(x), t) / gnorm
    return float(h) if h.ndim == 0 else h


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
    and the number of solves it has served since newton last called the
    exact Jacobian for it.  A solve that converges at its first evaluation
    counts as one: it makes no step, and its caller may still take one
    from the held inverse (the boundary sweep's polish)."""

    def __init__(self):
        self.inv = None
        self.age = 0


def _refresh(held, jacobian, u, F, it):
    """Set held to the (pseudo-)inverse of jacobian(u), F the residual at u
    and it newton's iteration, or raise as newton does."""
    jac = np.array(jacobian(u), dtype=float)
    if not np.isfinite(jac).all():  # no step: it stalls
        raise NoConvergence(it + 1, math.hypot(*F), stalled=True)
    cond = np.linalg.cond(jac)
    if cond > _COND_LIMIT:
        raise SingularJacobian(f"Jacobian condition number {cond:.3e} exceeds "
                               f"{_COND_LIMIT:.0e}")
    held.inv = (np.linalg.inv(jac) if len(F) == len(u) else np.linalg.pinv(jac)).tolist()
    held.age = 0


def newton(residual, jacobian, u, held=None):
    """Root of residual, a map from a float list to a float list, by damped
    Newton from the start u (Gauss-Newton when there are more residuals than
    unknowns); returns the root as a list once every residual is below 1e-10.
    The last residual evaluation is always at the returned root, so a
    caller that holds it can take Newton's next step from the held inverse
    without evaluating again.  jacobian(u), the exact Jacobian at u as an
    array or row lists, is called only when a refresh is due, with u the
    point whose residual was evaluated last unless a line search found no
    descent; its inverse or pseudo-inverse is kept.  Without held a refresh
    is due every iteration; with held, a LaggedJacobian, the inverse is
    reused across solves and refreshed when none is held, from the third
    iteration, or when a solve iterates after 100 solves (most solves of a
    warm-started sweep converge at their first evaluation and never reach
    this rule), and a step that a stale one cannot make forces one refresh
    (Deuflhard 2004).  A step from a held inverse that lowers the residual
    norm by less than a factor 1e4 marks it stale: it is refreshed at the
    next point, the returned root included, so that a next step from it
    lands within about 1e-4 of the root's residual.  Each step is halved up
    to 11 times until the residual norm drops; a trial whose residual raises
    NoIntersection or OffsetMissesBoundary counts as one that does not (the
    first residual and the Jacobian's raise).  A condition number past 1e6
    raises SingularJacobian; no descent from a fresh Jacobian, a non-finite
    one, or 20 iterations raise NoConvergence."""
    lagged = held is not None
    held = held if lagged else LaggedJacobian()
    F = residual(u)
    stale = False  # the last lagged step contracted the residual too little
    for it in range(_NEWTON_MAX):
        if all([abs(f) < _NEWTON_TOL for f in F]):  # NaN never passes
            if stale:  # for the caller's next step from the held inverse
                _refresh(held, jacobian, u, F, it)
            held.age += 1
            return u
        base = math.hypot(*F)
        if not lagged or held.inv is None or it >= 2 or held.age > 100 or stale:
            _refresh(held, jacobian, u, F, it)
        step = [-sum(map(operator.mul, row, F)) for row in held.inv]
        lam = 1.0
        for _ in range(11):
            u_try = [x + lam * dx for x, dx in zip(u, step)]
            try:
                F_try = residual(u_try)
            except (NoIntersection, OffsetMissesBoundary):  # left the domain: a failed trial
                F_try = [math.inf]
            norm = math.hypot(*F_try)
            if norm < base:
                u, F = u_try, F_try
                stale = lagged and held.age > 0 and norm > _NEWTON_CONTRACTION * base
                break
            lam *= 0.5
        else:
            if held.age == 0:  # no descent from a fresh Jacobian
                raise NoConvergence(it + 1, base, stalled=True)
            held.inv = None  # a stale one: refresh it once
    raise NoConvergence(_NEWTON_MAX, max(map(abs, F)))
