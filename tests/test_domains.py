import warnings
from types import SimpleNamespace

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
    conic_exit_jet_mp,
    conic_line_root,
    conic_ray_root_expanded,
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


def _random_frames(domain, rng, skew, count=3):
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
    base, T, N, s_ref = _random_frames(domain, rng, skew)
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


_BRANCH6 = [0, 1, 2, 0, 1, 2]  # the sweep's six ends: junction ends, then wall ends
EXIT_DOMAINS = {**{name: CONICS[name][0]
                   for name in ("centred circle", "shifted circle", "ellipse 1.2x1.0")},
                **POLYNOMIALS}


def _predicted(jet, q):
    """The start that a network's exit binding predicts at the offsets q
    from the exit jet (q0, s, s', s'') of its last chart."""
    q0, s, ds, dds = jet
    dq = q - q0
    return s + dq * (ds + 0.5 * dds * dq)


def _end_columns(jet):
    """The jet at the six ends, from its first and last columns."""
    return [np.concatenate((a[:, 0], a[:, -1])) for a in jet]


def _bind(domain, base, T, N, lengths, n):
    """The domain's exit binding of the lines base + q N + s T, the rows of
    T and N, with reference lengths `lengths`, on (3, n+1) grids."""
    return domain.network_exits(
        SimpleNamespace(p_star=base, tangents=T, normals=N, lengths=lengths), n)


def _assert_bitwise(got, want):
    for x, y in zip(got, want, strict=True):
        assert np.asarray(x, dtype=float).tobytes() == np.ravel(y).tobytes()


@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("name", list(EXIT_DOMAINS))
def test_network_exits_equal_offset_exit_bitwise(name, skew):
    # A network's exit binding against offset_exit on the same lines: the
    # chart's (3, n+1) exits, and the six ends as rows of one offset each.
    # offset_exit is given the starts that the binding is to pick: the
    # reference lengths before the first chart (a cold jet (l, 0, 0) at
    # q0 = 0), then the prediction off the last chart's jet.  A conic reads
    # no start.  A chart taken again at the same offsets starts from its own
    # exits, which are accepted as they are.
    domain = EXIT_DOMAINS[name]()
    rng = np.random.default_rng(20)
    base, T, N, lengths = _random_frames(domain, rng, skew)
    n = 48
    exits = _bind(domain, base, T, N, lengths, n)
    zero = np.zeros((3, 1))
    jet = (zero, lengths[:, None], zero, zero)
    q = np.zeros((3, n + 1))
    assert _predicted(jet, q).tobytes() == np.repeat(lengths[:, None], n + 1, 1).tobytes()
    for trial in range(8):
        q6 = np.concatenate((q[:, 0], q[:, -1])) + rng.uniform(-0.02, 0.02, 6)
        want = domain.offset_exit(base, T[_BRANCH6], N[_BRANCH6], q6[:, None],
                                  _predicted(_end_columns(jet), q6)[:, None], second=False)
        _assert_bitwise(exits.ends(q6.tolist()), want[:2])
        q = q + rng.uniform(-0.02, 0.02, q.shape)
        want = domain.offset_exit(base, T, N, q, _predicted(jet, q))
        _assert_bitwise(exits.chart(q), want)
        jet = (q, *want)
    _assert_bitwise(exits.chart(q), jet[1:])


@pytest.mark.parametrize("name", ["centred circle", "shifted circle", "ellipse 1.2x1.0"])
def test_conic_network_exits_raise_as_offset_exit(name):
    # At a NaN offset both routes give NaN, and no error.  An offset far off
    # the wall misses it, and a tangent scaled down to 1e-12 falls under the
    # floor on (grad psi, T); with both, the miss is raised first, as
    # offset_exit checks every line for a miss before any for the floor.  A
    # NaN offset beside them hides neither error.
    domain = CONICS[name][0]()
    base, T, N, lengths = _random_frames(domain, np.random.default_rng(19), True)
    n = 8
    q6 = np.zeros(6)
    q6[5] = np.nan
    s, ds = (v.ravel() for v in domain.offset_exit(base, T[_BRANCH6], N[_BRANCH6],
                                                    q6[:, None], None, second=False)[:2])
    fs, fds = _bind(domain, base, T, N, lengths, n).ends(q6.tolist())
    for array, floats in ((s, fs), (ds, fds)):
        assert np.isnan(array[5]) and np.isnan(floats[5])
        assert np.delete(floats, 5).tobytes() == np.delete(array, 5).tobytes()

    tiny = T.copy()
    tiny[1] *= 1e-12
    cases = {"misses": (5.0, T), "tangent": (0.0, T * [[1.0], [1e-12], [1.0]]),
             "both": (5.0, tiny)}
    for nan in (False, True):
        for case, (far, T_) in cases.items():
            exits = _bind(domain, base, T_, N, lengths, n)
            q6, q = np.zeros(6), np.zeros((3, n + 1))
            q6[3] = q[0, 4] = far  # a wall end, and a node of the chart
            if nan:
                q6[5] = q[2, 6] = np.nan
            for got, want in (
                    (lambda: exits.ends(q6.tolist()),
                     lambda: domain.offset_exit(base, T_[_BRANCH6], N[_BRANCH6], q6[:, None],
                                                None, second=False)),
                    (lambda: exits.chart(q), lambda: domain.offset_exit(base, T_, N, q, None))):
                got, want = _raised(got), _raised(want)
                assert got == want and got[0] is OffsetMissesBoundary, (case, got)
                assert ("tangent" if case == "tangent" else "misses") in got[1], (case, got)


@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("name", list(CONICS))
def test_conic_exit_jet_is_within_five_ulps_of_40_digit_reference(name, skew):
    # The conic kernel, a quadratic in q on per-line constants, against the
    # exit solved at 40 digits from the same float inputs: (s, s', s'') from
    # offset_exit, from the binding's chart and (s, s') from its ends, which
    # agree bitwise.  In units of the last place of max(|ref|, 1), over these
    # draws (4 frames per case, 75 offsets each, q uniform in [-0.2, 0.2];
    # 2400 entries per component over the four conics and both frame kinds)
    # the errors read at most 2.0, 2.5 and 3.0 ulps (the expansion in
    # o = base + q N it replaced: 2.0, 1.75 and 4.0); the bound is 5.
    make, w, c, r = CONICS[name]
    domain = make()
    rng = np.random.default_rng(27)
    for _ in range(4):
        base, T, N, lengths = _random_frames(domain, rng, skew)
        q = rng.uniform(-0.2, 0.2, (3, 25))
        want = np.array([[[float(v) for v in conic_exit_jet_mp(w, c, r, base, T[i], N[i], qk)]
                          for qk in q[i]] for i in range(3)]).transpose(2, 0, 1)
        got = domain.offset_exit(base, T, N, q, None)
        exits = _bind(domain, base, T, N, lengths, q.shape[1] - 1)
        _assert_bitwise(exits.chart(q), got)
        q6 = np.concatenate((q[:, 0], q[:, -1]))
        _assert_bitwise(exits.ends(q6.tolist()), [_end_columns(got)[k] for k in (0, 1)])
        for k in range(3):
            assert _ulps(got[k], want[k]) <= 5.0, (k, _ulps(got[k], want[k]))


@pytest.mark.parametrize("name", list(CONICS))
def test_conic_ray_exit_is_the_expanded_closed_form_bitwise(name):
    # ray_exit is the conic kernel at q = 0 on a line with N = 0, where every
    # term in q vanishes exactly: its roots are bitwise those of the closed
    # form expanded per ray, on 1000 rays from interior origins.
    make, w, c, r = CONICS[name]
    domain = make()
    rng = np.random.default_rng(27)
    for _ in range(1000):
        origin = np.asarray(c) + rng.uniform(-0.3, 0.3, 2)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        want = conic_ray_root_expanded(w, c, r, origin, direction)
        assert domain.ray_exit(origin, direction) == want


@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("name", list(POLYNOMIALS))
def test_polynomial_network_exits_fall_back_as_offset_exit(name, skew):
    # The sweep's six exits against offset_exit on single lines, within 4
    # ulps, with the same entries sent to line_exit as offset_exit on the
    # six lines; a start where the line is tangent to a level set of psi
    # (P_s = 0, the line's critical point inside the domain) takes no Newton
    # step and goes to line_exit on both routes; a NaN offset and a line
    # tangent to the wall end the same way on both.
    domain = POLYNOMIALS[name]()
    rng = np.random.default_rng(20)
    base, T, N, hit = _random_frames(domain, rng, skew)
    T6, N6 = T[_BRANCH6], N[_BRANCH6]

    def cold(lengths, q6):
        # the start of a binding's ends before its first chart
        zero = np.zeros(6)
        return _predicted((zero, lengths[_BRANCH6], zero, zero), q6)

    def both(exits, q6, start):
        calls = _count_line_exits(domain)
        got = exits.ends(q6.tolist())
        swept = list(calls)
        want = domain.offset_exit(base, T6, N6, q6[:, None], start[:, None], second=False)
        assert calls == swept + swept
        _assert_bitwise(got, want[:2])
        singles = [[v[0, 0] for v in domain.offset_exit(base, T6[[k]], N6[[k]], q6[[k], None],
                                                        start[k], second=False)[:2]]
                   for k in range(6)]
        for x, y in zip(got, zip(*singles)):
            assert _ulps(x, np.array(y, dtype=float)) <= 4
        return swept

    for trial in range(10):
        q6 = rng.uniform(-0.1, 0.1, 6)
        assert both(_bind(domain, base, T, N, hit, 8), q6, cold(hit, q6)) == []

    def slope(t):
        return float(domain.grad(base + t * T[2]) @ T[2])

    crit = 0.0
    for _ in range(50):
        crit -= slope(crit) / float(T[2] @ domain.hess(base + crit * T[2]) @ T[2])
    assert abs(slope(crit)) < 1e-8
    start = hit.copy()
    start[2] = crit
    exits = _bind(domain, base, T, N, start, 8)
    assert both(exits, np.zeros(6), cold(start, np.zeros(6))) == [(2,)]  # both ends of branch 2

    q6 = np.zeros(6)
    q6[4] = np.nan
    got = _raised(lambda: exits.ends(q6.tolist()))
    want = _raised(lambda: domain.offset_exit(base, T6, N6, q6[:, None],
                                              cold(start, q6)[:, None], second=False))
    assert got == want  # the NaN offset predicts a NaN start

    # line 1 turned onto the tangent of the wall at its exit e, at the
    # offset that puts it through e, started at e
    exit_point = base + hit[1] * T[1]
    wall = domain.grad(exit_point)
    T_, N_ = T.copy(), N.copy()
    T_[1], N_[1] = wall @ ROT90.T, wall / np.linalg.norm(wall)
    offset = float((exit_point - base) @ N_[1])
    start = hit.copy()
    start[1] = float((exit_point - base) @ T_[1]) / float(T_[1] @ T_[1])
    q6 = np.zeros(6)
    q6[1] = offset
    got = _raised(lambda: _bind(domain, base, T_, N_, start, 8).ends(q6.tolist()))
    want = _raised(lambda: domain.offset_exit(base, T_[_BRANCH6], N_[_BRANCH6], q6[:, None],
                                              cold(start, q6)[:, None], second=False))
    assert got == want == (OffsetMissesBoundary, "offset line tangent to the boundary")


def _within_reach(domain, base, T, N, q, s):
    """Where |psi| at base + s T + q N is under 0.9e-13: short of the
    kernel's acceptance bound 1e-13 by more than the rounding of the point
    and of psi, so that the kernel takes such an s as it is."""
    points = base + s[..., None] * T[:, None] + q[..., None] * N[:, None]
    return np.abs(domain.psi(points)) < 0.9e-13


@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("name", list(POLYNOMIALS))
def test_polynomial_start_near_the_root_comes_back_as_it_is(name, skew):
    # The prediction rests on this: a start within 1e-15 of the root is
    # nearly always within reach (|P| < 1e-13 at the first evaluation) and
    # is then returned unchanged, on the chart's (3, n+1) lines and on the
    # six end lines alike.  The binding's ends at the end columns of its
    # last chart start from that chart's exits, and return them.  A root
    # that Newton left just under 1e-13 can be pushed out of reach by the
    # 1e-15, or by the ends' own rounding; such entries are not checked.
    domain = POLYNOMIALS[name]()
    rng = np.random.default_rng(21)
    base, T, N, lengths = _random_frames(domain, rng, skew)
    T6, N6 = T[_BRANCH6], N[_BRANCH6]
    n = 48
    for trial in range(5):
        q = rng.uniform(-0.1, 0.1, (3, n + 1))
        s = domain.offset_exit(base, T, N, q, lengths[:, None])[0]
        start = s + rng.uniform(-1e-15, 1e-15, s.shape)
        reach = _within_reach(domain, base, T, N, q, start)
        assert reach.mean() > 0.95
        got = domain.offset_exit(base, T, N, q, start)[0]
        assert got[reach].tobytes() == start[reach].tobytes()
        q6, start6, reach6 = _end_columns((q, start, reach))
        got = domain.offset_exit(base, T6, N6, q6[:, None], start6[:, None], second=False)[0]
        assert got.ravel()[reach6].tobytes() == start6[reach6].tobytes()

        exits = _bind(domain, base, T, N, lengths, n)
        (chart6,) = _end_columns(exits.chart(q)[:1])
        reach6 = _within_reach(domain, base, T6, N6, q6[:, None], chart6[:, None]).ravel()
        got = np.array(exits.ends(q6.tolist())[0])
        assert got[reach6].tobytes() == chart6[reach6].tobytes()


def test_polynomial_network_exits_build_one_stack_per_line():
    # The binding builds one stack per branch line and takes each twice for
    # the sweep's six ends; offset_exit on the same three lines reuses them.
    domain = POLYNOMIALS["two dents"]()
    built = []
    line_stack = domain._line_stack
    domain._line_stack = lambda *line: built.append(line) or line_stack(*line)
    base, T, N, hit = _random_frames(domain, np.random.default_rng(3), False)
    exits = _bind(domain, base, T, N, hit, 48)
    assert len(built) == 3
    s, _, _ = domain.offset_exit(base, T, N, np.zeros((3, 1)), hit[:, None])
    assert len(built) == 3
    assert exits.ends([0.0] * 6)[0] == np.tile(s.ravel(), 2).tolist()


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
