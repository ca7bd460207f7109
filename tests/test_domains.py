import warnings

import numpy as np
import pytest

from trijunction.domains import (
    MAX_POWER,
    CircleDomain,
    EllipseDomain,
    PolynomialDomain,
    _ladder,
    _root_on_line,
    boundary_curvature,
    boundary_hit,
    disk_terms,
    make_domain,
    poly_product,
)
from trijunction.errors import (
    NoIntersection,
    NotOnBoundary,
    OffsetMissesBoundary,
    RootSearchFailed,
    SingularGradient,
)
from trijunction.tensions import ROT90

from conftest import trefoil_domain, two_dents_domain
from oracles import (
    conic_line_root,
    ellipse_curvature_magnitude,
    implicit_offset_exit,
    ladder_loop,
    ray_hit_mp,
)


def fd_check(domain, pts, eps=1e-4):
    """Max relative error of grad/hess against centered differences of psi."""
    ex, ey = np.array([eps, 0.0]), np.array([0.0, eps])
    gx = (domain.psi(pts + ex) - domain.psi(pts - ex)) / (2 * eps)
    gy = (domain.psi(pts + ey) - domain.psi(pts - ey)) / (2 * eps)
    grad = domain.grad(pts)
    scale = np.abs(grad).max() + 1.0
    err_g = max(np.abs(gx - grad[..., 0]).max(), np.abs(gy - grad[..., 1]).max())
    hxx = (domain.psi(pts + ex) - 2 * domain.psi(pts) + domain.psi(pts - ex)) / eps**2
    hyy = (domain.psi(pts + ey) - 2 * domain.psi(pts) + domain.psi(pts - ey)) / eps**2
    hxy = (
        domain.psi(pts + ex + ey)
        - domain.psi(pts + ex - ey)
        - domain.psi(pts - ex + ey)
        + domain.psi(pts - ex - ey)
    ) / (4 * eps**2)
    hess = domain.hess(pts)
    err_h = max(
        np.abs(hxx - hess[..., 0, 0]).max(),
        np.abs(hyy - hess[..., 1, 1]).max(),
        np.abs(hxy - hess[..., 0, 1]).max(),
    )
    return max(err_g, err_h) / scale


@pytest.mark.parametrize(
    "domain",
    [
        CircleDomain(1.0),
        CircleDomain(2.0, center=(0.3, -0.2)),
        EllipseDomain(1.2, 1.0),
        PolynomialDomain(
            [(2, 0, 1.0), (0, 2, 1.0), (0, 0, -1.0), (3, 0, 0.5), (1, 2, -1.5),
             (4, 0, 0.2), (2, 2, 0.4), (0, 4, 0.2)]
        ),
    ],
)
def test_derivatives_match_finite_differences(domain):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.7, 0.7, size=(40, 2))
    assert fd_check(domain, pts) < 1e-6


def test_unit_disk_curvature_is_minus_one():
    d = CircleDomain(1.0)
    for ang in np.linspace(0, 2 * np.pi, 17):
        x = np.array([np.cos(ang), np.sin(ang)])
        assert abs(boundary_curvature(d, x) + 1.0) < 1e-12


def test_disk_radius_two_curvature():
    d = CircleDomain(2.0)
    vals = [
        boundary_curvature(d, 2.0 * np.array([np.cos(a), np.sin(a)]))
        for a in np.linspace(0, 2 * np.pi, 23)
    ]
    vals = np.array(vals)
    assert np.all(np.abs(vals + 0.5) < 1e-10)
    assert vals.max() - vals.min() < 1e-10


def test_half_plane_curvature_is_zero():
    hp = PolynomialDomain([(0, 1, 1.0)])  # psi = y, domain is the lower half-plane
    assert abs(boundary_curvature(hp, (0.0, 0.0))) < 1e-14
    assert abs(boundary_curvature(hp, (2.0, 0.0))) < 1e-14


def test_ellipse_curvature_matches_parametric_oracle():
    a, b = 1.7, 0.9
    d = EllipseDomain(a, b)
    for t in np.linspace(0.0, 2 * np.pi, 50, endpoint=False):
        x = np.array([a * np.cos(t), b * np.sin(t)])
        h = boundary_curvature(d, x)
        assert h < 0.0  # convex wall
        assert abs(abs(h) - ellipse_curvature_magnitude(a, b, t)) < 1e-8


def test_boundary_curvature_rejects_off_boundary_points():
    d = CircleDomain(1.0)
    with pytest.raises(NotOnBoundary):
        boundary_curvature(d, (0.5, 0.0))


def test_singular_gradient_detected():
    # (|x|^2 - 1)^2 vanishes to second order on the circle
    squared = PolynomialDomain(poly_product(disk_terms(1.0), disk_terms(1.0)))
    with pytest.raises(SingularGradient):
        boundary_curvature(squared, (1.0, 0.0))


@pytest.mark.parametrize(
    "origin,direction,point,dist",
    [
        ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), 1.0),
        ((0.5, 0.0), (1.0, 0.0), (1.0, 0.0), 0.5),
    ],
)
def test_boundary_hit_unit_circle(origin, direction, point, dist):
    d = CircleDomain(1.0)
    pt, t = boundary_hit(d, origin, direction)
    assert np.allclose(pt, point, atol=1e-12)
    assert abs(t - dist) < 1e-12


def test_boundary_hit_ellipse_axis():
    d = EllipseDomain(2.0, 1.0)
    pt, t = boundary_hit(d, (0.0, 0.0), (0.0, 1.0))
    assert np.allclose(pt, (0.0, 1.0), atol=1e-12)
    assert abs(t - 1.0) < 1e-12


def test_boundary_hit_requires_interior_origin():
    with pytest.raises(NoIntersection):
        boundary_hit(CircleDomain(1.0), (2.0, 0.0), (1.0, 0.0))


class _NanPastHalf:
    """A domain whose psi and gradient are NaN at single points past x = 0.5
    and finite on arrays of several.  On the unit disk as a polynomial,
    boundary_hit's scan finds a crossing, Newton from the bracket's secant
    point meets a NaN, and so does the root search on the bracket after it.
    On the unit circle line_exit's Newton falls back to its bracketed root,
    which meets a NaN, and boundary_hit's closed-form crossing reads no psi,
    so only the check at the hit meets one."""

    def psi(self, x):
        return self._nan_past_half(x, super().psi(x))

    def psi_and_grad(self, x):
        return tuple(self._nan_past_half(x, v) for v in super().psi_and_grad(x))

    @staticmethod
    def _nan_past_half(x, v):
        if np.size(x) == 2 and np.ravel(x)[0] > 0.5:
            return np.full(np.shape(v), np.nan)
        return v


class _NanCircle(_NanPastHalf, CircleDomain):
    def __init__(self):
        super().__init__(1.0)


class _NanPolynomialDisk(_NanPastHalf, PolynomialDomain):
    def __init__(self):
        super().__init__(disk_terms(1.0))


def test_failed_line_root_raises_no_intersection():
    for search in (lambda: boundary_hit(_NanPolynomialDisk(), (0.1, 0.0), (1.0, 0.0)),
                   lambda: _NanCircle().line_exit([(0.0, 0.0)], [(1.0, 0.0)], [0.9])):
        with pytest.raises(NoIntersection, match="NaN") as info:
            search()
        assert isinstance(info.value.__cause__, RootSearchFailed)


def test_nan_at_a_conic_hit_raises_no_intersection():
    with pytest.raises(NoIntersection, match="not finite"):
        boundary_hit(_NanCircle(), (0.1, 0.0), (1.0, 0.0))


@pytest.mark.parametrize("domain", [CircleDomain(1.0), EllipseDomain(1.2, 1.0), trefoil_domain()],
                         ids=["circle", "ellipse", "trefoil"])
def test_boundary_hit_rejects_bad_rays_without_warning(domain):
    # A non-finite origin is not inside; a zero or non-finite direction has
    # its own message and is rejected before any division.
    bad_origins = [(np.nan, 0.0), (0.0, np.inf), (-np.inf, np.nan)]
    bad_directions = [(0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0), (1.0, -np.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for origin in bad_origins:
            with pytest.raises(NoIntersection, match="origin must lie inside"):
                boundary_hit(domain, origin, (1.0, 0.0))
        for direction in bad_directions:
            with pytest.raises(NoIntersection, match="direction must be finite and nonzero"):
                boundary_hit(domain, (0.1, 0.0), direction)


# Random rays against the 40-digit reference, by route: the conic closed
# form (circle, shifted circle, ellipse), and on polynomial walls Newton from
# the scan's bracket and brentq on that bracket (trefoil, two dents).  The
# errors of t and of the point (max norm) are read in units of the rounding
# floor of the hit, eps sum_m |c_m x^i y^j| / |(grad psi, d)|, the sum over
# the terms of psi (for a conic those of (x - c)^T W (x - c) and r).  Over
# 1000 draws per domain (this stream; these 100 are its first) the largest
# errors of the scan-and-brentq route that every family took before the
# closed form and the Newton start read, on the five domains in order,
# 3.46, 2.78, 3.12, 2.77 and 4.83 floors for t and 2.62, 2.44, 2.61, 2.86
# and 3.54 for the point; each bound sits under the least of its five.  The
# routes here read at most 2.44 (t) and 1.91 (point) over those draws.
RAY_T_FLOORS = 2.7
RAY_POINT_FLOORS = 2.4
RAY_DOMAINS = {
    "circle": lambda: CircleDomain(1.0),
    "shifted circle": lambda: CircleDomain(1.1, center=(0.1, -0.05)),
    "ellipse": lambda: EllipseDomain(1.2, 1.0),
    "trefoil": trefoil_domain,
    "two dents": two_dents_domain,
}


def _rounding_floor(domain, point, direction):
    if isinstance(domain, PolynomialDomain):
        x, y = point
        size = sum(abs(c * x**i * y**j) for i, j, c in domain.terms)
    else:
        v = point - domain.center
        size = float(domain.w @ (v * v)) + domain.r
    return np.finfo(float).eps * size / abs(float(domain.grad(point) @ direction))


def _random_rays(n):
    rng = np.random.default_rng(5)
    for _ in range(n):
        origin = rng.uniform(-0.3, 0.3, 2)
        angle = rng.uniform(0, 2 * np.pi)
        yield origin, np.array([np.cos(angle), np.sin(angle)])


@pytest.mark.parametrize("name", list(RAY_DOMAINS))
def test_boundary_hit_matches_40_digit_reference(name):
    domain = RAY_DOMAINS[name]()
    for origin, direction in _random_rays(100):
        point, t = boundary_hit(domain, origin, direction)
        point_ref, t_ref = ray_hit_mp(domain, origin, direction)
        floor = _rounding_floor(domain, point, direction)
        assert float(abs(t - t_ref)) <= RAY_T_FLOORS * floor, (origin, direction)
        point_err = max(float(abs(point[k] - point_ref[k])) for k in (0, 1))
        assert point_err <= RAY_POINT_FLOORS * floor, (origin, direction)
        if isinstance(domain, PolynomialDomain):  # the fallback on the same bracket
            lo, hi = _scan_bracket(domain, origin, direction)
            t_fallback = _root_on_line(domain, origin, direction, lo, hi)
            assert float(abs(t_fallback - t_ref)) <= RAY_T_FLOORS * floor, (origin, direction)


def _scan_bracket(domain, origin, direction):
    """The bracket of the first sign change that the generic route's scan
    gives (ImplicitDomain.ray_exit)."""
    x0, x1, y0, y1 = domain.bounding_box
    ts = np.linspace(0.0, np.hypot(x1 - x0, y1 - y0), 513)
    k = np.flatnonzero(domain.psi(origin + ts[:, None] * direction) > 0.0)[0]
    return ts[k - 1], ts[k]


@pytest.mark.parametrize(
    "domain",
    [CircleDomain(1.3), EllipseDomain(1.4, 0.8),
     PolynomialDomain([(2, 0, 1.0), (0, 2, 1.0), (0, 0, -1.0), (3, 0, 0.4), (1, 2, -1.2),
                       (4, 0, 0.2), (2, 2, 0.4), (0, 4, 0.2)],
                      bounding_box=(-2.2, 2.2, -2.2, 2.2))],
)
def test_boundary_hit_random_rays(domain):
    rng = np.random.default_rng(11)
    hits = 0
    while hits < 100:
        origin = rng.uniform(-0.5, 0.5, 2)
        if not domain.contains(origin):
            continue
        ang = rng.uniform(0, 2 * np.pi)
        pt, t = boundary_hit(domain, origin, (np.cos(ang), np.sin(ang)))
        assert abs(float(domain.psi(pt))) < 1e-12
        x0, x1, y0, y1 = domain.bounding_box
        assert x0 <= pt[0] <= x1 and y0 <= pt[1] <= y1
        assert t > 0
        hits += 1


# conics as (factory, w, c, r) of psi = (x - c)^T diag(w) (x - c) - r
CONICS = {
    "centred circle": (lambda: CircleDomain(1.0), (1.0, 1.0), (0.0, 0.0), 1.0),
    "shifted circle": (lambda: CircleDomain(1.1, center=(0.1, -0.05)), (1.0, 1.0),
                       (0.1, -0.05), 1.1**2),
    "ellipse 1.2x1.0": (lambda: EllipseDomain(1.2, 1.0), (1 / 1.2**2, 1.0),
                        (0.0, 0.0), 1.0),
    "ellipse 1.7x0.9": (lambda: EllipseDomain(1.7, 0.9), (1 / 1.7**2, 1 / 0.9**2),
                        (0.0, 0.0), 1.0),
}


def test_conic_line_exit_matches_generic_newton():
    # the closed-form quadratic root against the generic Newton line_exit,
    # which every domain family shares (the polynomial evaluator included),
    # and against boundary_hit
    rng = np.random.default_rng(4)
    cases = [
        (CONICS["shifted circle"][0](), "shifted circle"),
        (PolynomialDomain(disk_terms(1.1, (0.1, -0.05))), "shifted circle"),
        (CONICS["ellipse 1.2x1.0"][0](), "ellipse 1.2x1.0"),
    ]
    for domain, name in cases:
        _, w, c, r = CONICS[name]
        for _ in range(25):
            origin = rng.uniform(-0.3, 0.3, 2)
            ang = rng.uniform(0, 2 * np.pi)
            direction = np.array([np.cos(ang), np.sin(ang)])
            _, t_ref = boundary_hit(domain, origin, direction)
            s_oracle = conic_line_root(w, c, r, origin, direction)
            s_newton = domain.line_exit([origin], [direction], [t_ref * 1.05])[0]
            assert abs(s_oracle - t_ref) < 1e-10
            assert abs(s_newton - t_ref) < 1e-10
            assert abs(s_newton - s_oracle) < 1e-10


def _assert_exits_agree(got, want, tol):
    """(s, s', s'') of two exit routes agree to tol relative; s'' may be None."""
    for x, y in zip(got, want):
        if y is None:
            assert x is None
            continue
        assert np.max(np.abs(x - y) / np.maximum(1.0, np.abs(y))) < tol


@pytest.mark.parametrize("name", list(CONICS))
def test_circle_offset_exit_closed_form_matches_implicit_route(name):
    # the conic closed form for the exit abscissa and its two q-derivatives
    # against the generic route (root, then implicit differentiation) fed
    # with the oracle root; only rounding separates them
    make, w, c, r = CONICS[name]
    domain = make()
    domain.line_exit = lambda origin, direction, s_ref: conic_line_root(
        w, c, r, origin, direction)
    rng = np.random.default_rng(5)
    ang = rng.uniform(0, 2 * np.pi, 3)
    T = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    N = T @ ROT90.T
    frames = [(T, N), (1.3 * T, N + 0.2 * T)]  # unit/orthogonal, and neither
    base = np.array([0.05, 0.02])
    q = rng.uniform(-0.2, 0.2, (3, 7))
    tol = 64 * np.finfo(float).eps
    for T_, N_ in frames:
        for second in (True, False):
            closed = domain.offset_exit(base, T_, N_, q, None, second=second)
            generic = implicit_offset_exit(domain, base, T_, N_, q, None, second=second)
            _assert_exits_agree(closed, generic, tol)


def _raised(call):
    """(type, message) of what call raises, or None."""
    try:
        call()
    except Exception as e:  # noqa: BLE001 -- compared between the two routes
        return type(e), str(e)
    return None


@pytest.mark.parametrize("name", ["centred circle", "shifted circle", "ellipse 1.2x1.0"])
def test_conic_end_exits_equal_offset_exit_bitwise(name):
    # The sweep's float exits and the chart's array exits share one closed
    # form: on random frames, offsets and starts they give the same bits, in
    # either order of building their frame constants.  offset_exit takes
    # the six lines as rows of one offset each.
    rng = np.random.default_rng(19)
    for trial in range(40):
        domain = CONICS[name][0]()
        ang = rng.uniform(0.0, 2.0 * np.pi, 6)
        T = np.stack([np.cos(ang), np.sin(ang)], axis=1) * rng.uniform(0.5, 1.5, (6, 1))
        N = T @ ROT90.T + rng.uniform(-0.3, 0.3, (6, 1)) * T  # unit/orthogonal or not
        base = rng.uniform(-0.2, 0.2, 2)
        q, s_ref = rng.uniform(-0.2, 0.2, 6), rng.uniform(-1.0, 2.0, 6)
        if trial % 2:
            exits = domain.end_exits(base, T, N)
        s, ds = (v.ravel() for v in domain.offset_exit(base, T, N, q[:, None], s_ref[:, None],
                                                        second=False)[:2])
        if not trial % 2:
            exits = domain.end_exits(base, T, N)
        fs, fds = exits(q.tolist(), s_ref.tolist())
        assert np.array(fs).tobytes() == s.tobytes()
        assert np.array(fds).tobytes() == ds.tobytes()

    # a NaN offset gives NaN on both routes, and no error
    q[2] = np.nan
    s, ds = (v.ravel() for v in domain.offset_exit(base, T, N, q[:, None], s_ref[:, None],
                                                    second=False)[:2])
    fs, fds = exits(q.tolist(), s_ref.tolist())
    for array, floats in ((s, fs), (ds, fds)):
        assert np.isnan(array[2]) and np.isnan(floats[2])
        assert np.delete(floats, 2).tobytes() == np.delete(array, 2).tobytes()

    # line 3 moved far off the wall misses it; line 1 with its tangent
    # scaled down to 1e-12 falls under the floor on (grad psi, T); with
    # both, the miss is raised first, as offset_exit checks every line for
    # a miss before any for the floor
    far = np.tile(base, (6, 1))
    far[3] += 5.0 * N[3]
    tiny = T.copy()
    tiny[1] *= 1e-12
    cases = {"misses": (far, T), "tangent": (base, tiny), "both": (far, tiny)}
    for nan in (False, True):  # a NaN line beside them hides neither error
        q = np.zeros(6)
        q[5] = np.nan if nan else 0.0
        for case, (base_, T_) in cases.items():
            got = _raised(lambda: domain.end_exits(base_, T_, N)(q.tolist(), s_ref.tolist()))
            want = _raised(lambda: domain.offset_exit(base_, T_, N, q[:, None], s_ref[:, None]))
            assert got == want and got[0] is OffsetMissesBoundary, (case, got)
            assert ("tangent" if case == "tangent" else "misses") in got[1], (case, got)


POLYNOMIALS = {
    "trefoil": trefoil_domain,
    "two dents": two_dents_domain,
    "polynomial circle": lambda: PolynomialDomain(disk_terms(1.1, (0.1, -0.05))),
}


def _count_line_exits(domain):
    calls = []
    line_exit = domain.line_exit

    def counted(origin, direction, s_ref):
        calls.append(np.shape(s_ref))
        return line_exit(origin, direction, s_ref)

    domain.line_exit = counted
    return calls


def _polynomial_frames(domain, rng, skew, count=3):
    """count unit, orthogonal frames at random angles about a base inside
    the domain, and the abscissae where their lines leave it; skewed, T is
    scaled by 1.3 and N sheared by 0.2 T, so that the frames are neither."""
    ang = rng.uniform(0, 2 * np.pi, count)
    T = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    N = T @ ROT90.T
    base = np.array([0.05, 0.02])
    s_ref = np.array([boundary_hit(domain, base, t)[1] for t in T])
    if skew:  # the root moves to about s / 1.3
        T, N, s_ref = 1.3 * T, N + 0.2 * T, s_ref / 1.3
    return base, T, N, s_ref


@pytest.mark.parametrize("layout", ["rows", "chart", "bases"])
@pytest.mark.parametrize("second", [True, False])
@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("name", list(POLYNOMIALS))
def test_polynomial_offset_exit_matches_implicit_route(name, skew, second, layout):
    # the line-polynomial Newton against root search plus implicit
    # differentiation at the (x, y) fields; only rounding separates them.
    # The layouts: three lines as rows of 7 offsets, the chart's three
    # lines as rows of n+1 offsets at n = 48, and three lines with a base
    # each, (3, 2), moved back along T by 0.05.
    domain = POLYNOMIALS[name]()
    rng = np.random.default_rng(5)
    base, T, N, s_ref = _polynomial_frames(domain, rng, skew)
    q = rng.uniform(-0.1, 0.1, (3, 49 if layout == "chart" else 7))
    frame = (base, T, N, q, s_ref[:, None])
    if layout == "bases":
        frame = (base - 0.05 * T, T, N, q, s_ref[:, None] + 0.05)
    calls = _count_line_exits(domain)
    fast = domain.offset_exit(*frame, second=second)
    assert calls == []  # every entry converged on the line polynomial
    assert fast[0].shape == q.shape
    _assert_exits_agree(fast, implicit_offset_exit(domain, *frame, second=second), 1e-13)


def _ulps(a, b):
    """Largest distance of a from b in units of the last place of b, or of
    1.0 where |b| < 1 (s' vanishes at a perpendicular exit)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.spacing(np.maximum(np.abs(b), 1.0))))


@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("name", list(POLYNOMIALS))
def test_polynomial_end_exits_agree_with_offset_exit(name, skew):
    # The sweep's exits (end_exits, six lines bound once) against
    # offset_exit on the same six lines, as rows of one offset each, and
    # one line at a time.  Both run the kernel of _exit_jet with the same
    # arithmetic per entry, so they agree bitwise on the six lines; against
    # single lines the bound is 4 ulps, and s is the start itself wherever
    # the start is accepted.
    domain = POLYNOMIALS[name]()
    rng = np.random.default_rng(20)
    base, T, N, hit = _polynomial_frames(domain, rng, skew, count=6)

    def both(q, s_ref):
        calls = _count_line_exits(domain)
        got = domain.end_exits(base, T, N)(q.tolist(), s_ref.tolist())
        swept = len(calls)
        want = domain.offset_exit(base, T, N, q[:, None], s_ref[:, None], second=False)[:2]
        assert len(calls) == 2 * swept  # the same entries go to line_exit
        for x, y in zip(got, want):
            assert np.array(x).tobytes() == y.ravel().tobytes()
        singles = [[v[0, 0] for v in domain.offset_exit(base, T[[k]], N[[k]], q[[k], None],
                                                        s_ref[k], second=False)[:2]]
                   for k in range(6)]
        for x, y in zip(got, zip(*singles)):
            assert _ulps(x, np.array(y, dtype=float)) <= 4
        return np.array(got[0]), swept

    for trial in range(10):
        q = rng.uniform(-0.1, 0.1, 6)
        cold = hit.copy()  # the lines' exits at q = 0
        s, swept = both(q, cold)
        assert swept == 0
        # a start predicted to within 1e-15 of the root is accepted as it is
        predicted = s + rng.uniform(-1e-15, 1e-15, 6)
        assert both(q, predicted)[0].tobytes() == predicted.tobytes()

    # a start where the line is tangent to a level set of psi (P_s = 0, the
    # line's critical point inside the domain) takes no Newton step and goes
    # to line_exit on both routes
    def slope(t):
        return float(domain.grad(base + t * T[2]) @ T[2])

    crit = 0.0
    for _ in range(50):
        crit -= slope(crit) / float(T[2] @ domain.hess(base + crit * T[2]) @ T[2])
    assert abs(slope(crit)) < 1e-8
    start = hit.copy()
    start[2] = crit
    _, swept = both(np.zeros(6), start)
    assert swept == 1

    # a NaN offset ends the same way on both routes
    q = np.zeros(6)
    q[4] = np.nan
    got = _raised(lambda: domain.end_exits(base, T, N)(q.tolist(), hit.tolist()))
    want = _raised(lambda: domain.offset_exit(base, T, N, q[:, None], hit[:, None],
                                              second=False))
    assert got == want

    # line 1 moved onto the tangent of the wall at its exit: both routes
    # raise the same error
    exit_point = base + hit[1] * T[1]
    wall = domain.grad(exit_point)
    tangent = wall @ ROT90.T
    T_, N_ = T.copy(), N.copy()
    T_[1], N_[1] = tangent, wall / np.linalg.norm(wall)
    base_ = np.tile(base, (6, 1))
    base_[1] = exit_point - hit[1] * tangent
    got = _raised(lambda: domain.end_exits(base_, T_, N_)(np.zeros(6).tolist(), hit.tolist()))
    want = _raised(lambda: domain.offset_exit(base_, T_, N_, np.zeros((6, 1)), hit[:, None],
                                              second=False))
    assert got == want == (OffsetMissesBoundary, "offset line tangent to the boundary")


def test_polynomial_lines_build_one_stack_each():
    # The sweep's six lines are three lines twice: a stack is built once per
    # distinct line, and offset_exit on the same lines reuses the six.
    domain = POLYNOMIALS["two dents"]()
    built = []
    line_stack = domain._line_stack
    domain._line_stack = lambda *line: built.append(line) or line_stack(*line)
    base, T, N, hit = _polynomial_frames(domain, np.random.default_rng(3), False)
    T6, N6 = np.tile(T, (2, 1)), np.tile(N, (2, 1))
    exits = domain.end_exits(base, T6, N6)
    assert len(built) == 3
    s, _, _ = domain.offset_exit(base, T6, N6, np.zeros((6, 1)), np.tile(hit, 2)[:, None])
    assert len(built) == 3
    assert exits([0.0] * 6, np.tile(hit, 2).tolist())[0] == s.ravel().tolist()


def test_polynomial_offset_exit_falls_back_under_the_slope_floor():
    # started at the chord midpoint, where P_s = (grad psi, T) vanishes, the
    # first entry cannot take a Newton step and goes to line_exit; the second
    # converges on the line polynomial
    domain = POLYNOMIALS["polynomial circle"]()
    base, T, N = np.array([0.05, 0.02]), np.array([0.6, 0.8]), np.array([-0.8, 0.6])
    mid = -float((base - (0.1, -0.05)) @ T)
    assert abs(domain.grad(base + mid * T) @ T) < 1e-8
    frame = (base, T[None], N[None], np.array([[0.0, 0.05]]), np.array([[mid, 1.0]]))
    calls = _count_line_exits(domain)
    fast = domain.offset_exit(*frame)
    assert calls == [(1,)]
    _assert_exits_agree(fast, implicit_offset_exit(domain, *frame), 1e-13)


def test_polynomial_offset_exit_rejects_a_tangent_frame():
    # the offset line touches the wall at its exit: (grad psi, T) = 0 there
    domain = POLYNOMIALS["polynomial circle"]()
    n = np.array([np.cos(0.4), np.sin(0.4)])
    base = np.array([0.1, -0.05]) + 1.1 * n
    T, N = n @ ROT90.T, n
    for route in (domain.offset_exit, lambda *a: implicit_offset_exit(domain, *a)):
        with pytest.raises(OffsetMissesBoundary, match="tangent"):
            route(base, T[None], N[None], np.zeros((1, 1)), np.zeros((1, 1)))


@pytest.mark.parametrize("deg", [0, 1, 6])
@pytest.mark.parametrize("shape", [(), (6,), (3, 49), (2, 6, 1), (2, 3, 49)])
def test_ladder_is_bitwise_the_product_loop(shape, deg):
    # (2, 6, 1) and (2, 3, 49): the exit kernel's ladders of q and the start
    # for the sweep's six lines and the chart at n = 48
    v = np.random.default_rng(2).uniform(-1.3, 1.3, shape)
    assert np.array_equal(_ladder(v, deg), ladder_loop(v, deg))


@pytest.mark.parametrize("name", POLYNOMIALS)
def test_polynomial_fields_are_bitwise_the_last_axis_contraction(name):
    # psi_grad_hess contracts its first-axis ladders with the coefficient
    # stack; the sum must keep the bits of the same contraction over
    # contiguous last-axis ladders, whatever the layout of the points
    domain = POLYNOMIALS[name]()
    deg_x, deg_y = (k - 1 for k in domain._stack.shape[1:])
    rng = np.random.default_rng(5)
    for shape in [(), (6,), (3, 49), (1000,), (4, 5, 6)]:
        x = rng.uniform(-1.5, 1.5, shape + (2,))
        xs = np.moveaxis(ladder_loop(x[..., 0], deg_x), 0, -1).copy()
        ys = np.moveaxis(ladder_loop(x[..., 1], deg_y), 0, -1).copy()
        want = np.einsum("...i,kij,...j->...k", xs, domain._stack, ys)
        for points in (x, np.asfortranarray(x)):
            psi, grad, hess = domain.psi_grad_hess(points)
            assert np.array_equal(psi, want[..., 0])
            assert np.array_equal(grad, want[..., 1:3])
            assert np.array_equal(hess[..., [0, 0, 1], [0, 1, 1]], want[..., 3:])
            assert np.array_equal(hess[..., 1, 0], want[..., 4])


def test_make_domain_factory():
    assert make_domain("circle", radius=2.0).family == "circle"
    assert make_domain("ellipse", semi_axes=(1.2, 1.0)).family == "ellipse"
    assert make_domain("polynomial", coefficients=[(0, 1, 1.0)]).family == "polynomial"
    with pytest.raises(ValueError):
        make_domain("mesh")


@pytest.mark.parametrize("term", [(2.7, 0, 1.0), (0, MAX_POWER + 1, 1.0)])
def test_polynomial_powers_are_whole_and_capped(term):
    with pytest.raises(ValueError, match="whole numbers at most"):
        PolynomialDomain([term, (0, 0, -1.0)])
    PolynomialDomain([(MAX_POWER, 0, 1.0), (0, 0, -1.0)])
