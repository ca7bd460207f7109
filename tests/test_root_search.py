"""The package's Brent root search against scipy.optimize.brentq.

`domains.brentq` ports scipy's C iteration so that the package need not
import scipy.optimize; scipy's routine stays here as the oracle.  Equal
means bitwise: the same root, or a failure where scipy raises, with scipy's
message.
"""

import dis
import hashlib
import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from trijunction import domains, stability
from trijunction.domains import brentq
from trijunction.errors import RootSearchFailed
from trijunction.stability import max_eigenvalue
from trijunction.tensions import SurfaceTensions

from conftest import synthetic_network, trefoil_domain, two_dents_domain

# The two tolerance pairs the package uses: max_eigenvalue's and _root_on_line's.
TOLERANCES = [dict(xtol=1e-13), dict(xtol=1e-15, rtol=8.9e-16)]


def _outcome(search, f, a, b, **tol):
    """The root as its hex string, or the failure's message."""
    try:
        return float(search(f, a, b, **tol)).hex()
    except (ValueError, RuntimeError, RootSearchFailed) as e:
        return f"failed: {e}"


def _assert_same(f, a, b, **tol):
    port = _outcome(brentq, f, a, b, **tol)
    assert port == _outcome(scipy_brentq, f, a, b, **tol), (a, b, tol)
    return port


def _bisect_line():
    """Line number of the port's fallback for a zero denominator, the one
    line that loads math.inf, read from the loaded code object rather than
    from the file on disk, which may have changed since the import."""
    code = brentq.__code__
    offset = next(ins.offset for ins in dis.get_instructions(code) if ins.argval == "inf")
    return next(line for start, end, line in code.co_lines() if start <= offset < end)


def _lines_run(call):
    """Line numbers of the port that call executes."""
    code, hit, previous = brentq.__code__, set(), sys.gettrace()

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return hit


def _smooth_case(c, k, scale=1.0):
    return lambda x: scale * (c[0] + c[1] * x + c[2] * x**3 + c[3] * math.sin(k * x))


def _smooth(rng, scale=1.0):
    return _smooth_case(rng.normal(size=4), rng.uniform(0.5, 5.0), scale)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_equals_scipy_on_random_smooth_brackets(tol):
    # Random ends: about half the brackets hold no sign change, and those
    # must fail alike.
    rng = np.random.default_rng(15)
    bracketed = 0
    while bracketed < 3000:
        a, b = rng.uniform(-3.0, 3.0, 2)
        bracketed += not _assert_same(_smooth(rng), a, b, **tol).startswith("failed")


def test_equals_scipy_where_the_short_step_bound_subtracts_delta():
    # An interpolation step s is taken when 2|s| < min(|s_pre|, 3|s_bis| -
    # delta), delta = (xtol + rtol |x|) / 2.  Without "- delta" the route
    # changes only where 2|s| falls in a gap of width delta, which no
    # bracket hit at the package's xtol; at xtol 1e-2 to 1e-1 the gap is
    # wide.  In the pinned case the port without it returns 0.6386, scipy
    # 0.6188, and 4 of the 2000 random brackets below differ as well.
    f = _smooth_case((0.6281502257384853, -1.2608088963916493, -1.3049474785502064,
                      0.7845703727929217), 1.0923637719379946)
    root = _assert_same(f, 1.8223546564387956, -0.07199900729771702, xtol=0.1)
    assert root == "0x1.3cce6fbbea762p-1"
    rng = np.random.default_rng(18)
    bracketed = 0
    while bracketed < 2000:
        a, b = rng.uniform(-3.0, 3.0, 2)
        xtol = float(rng.choice([1e-2, 3e-2, 1e-1]))
        bracketed += not _assert_same(_smooth(rng), a, b, xtol=xtol).startswith("failed")


def test_equals_scipy_where_the_step_divides_by_zero_or_infinity():
    # At values near 1e-150 and below the extrapolation's denominator
    # underflows to zero: C's step is then infinite or NaN and bisects, and
    # the port must bisect without ZeroDivisionError.  An infinite end, as
    # on the symmetric disk fork where the bracket's lower end sits at a
    # branch pole, makes the step inf/inf; a step function (equal |f| at
    # both ends) and plateaus bisect throughout.  The sign and NaN failures
    # and the iteration limit fail alike.
    rng = np.random.default_rng(16)
    cases = [_smooth(rng, scale) for scale in (1e-150, 1e-200, 1e-300) for _ in range(50)]
    for _ in range(100):
        c, s = rng.uniform(-1.0, 1.0), rng.uniform(0.01, 3.0)
        cases += [
            (lambda x, c=c: -1.0 if x < c else 1.0),
            (lambda x, c=c, s=s: -1.0 if x < c else s * (x - c) - 1e-3),
            (lambda x, c=c, s=s: -math.inf if x < c else s * (x - c) + 1e-3),
            (lambda x, c=c, s=s: max(-1.0, min(1.0, s * (x - c)))),
        ]
    cases += [(lambda x: x * x + 1.0), (lambda x: math.nan), (lambda x: x if x < 0.5 else math.nan)]
    hit = set()
    for tol in TOLERANCES:
        for f in cases:
            hit |= _lines_run(lambda: _assert_same(f, -3.0, 3.0, **tol))
    assert _bisect_line() in hit
    for maxiter in (1, 3):
        _assert_same(lambda x: math.sin(x) - 0.3, 0.0, 2.0, maxiter=maxiter)


def test_failures_are_typed():
    with pytest.raises(RootSearchFailed, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(RootSearchFailed, match="NaN"):
        brentq(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(RootSearchFailed, match="after 2 iterations"):
        brentq(lambda x: math.sin(x) - 0.3, 0.0, 2.0, maxiter=2)


def _compare_with_scipy(monkeypatch, module):
    """Make module.brentq check every search it runs against scipy's."""
    searches = []

    def both(f, a, b, **tol):
        searches.append((a, b))
        return float.fromhex(_assert_same(f, a, b, **tol))

    monkeypatch.setattr(module, "brentq", both)
    return searches


def test_spectrum_batch_and_symmetric_fork_equal_scipy(monkeypatch):
    # The seed-1 batch of the benchmark's spectrum workload, whose lambda
    # list hashes to its fingerprint, and the symmetric disk fork; at
    # n = 400 the fork's bracket starts at a branch pole, where f is -inf.
    from test_stability import _spectrum_batch

    searches = _compare_with_scipy(monkeypatch, stability)
    lams = [max_eigenvalue(net, t, 400).lambda_max for net, t in _spectrum_batch(1, 50)]
    digest = hashlib.sha256(np.asarray(lams, dtype=float).tobytes()).hexdigest()[:16]
    assert digest == "f79da55d0b10db2e"
    unit = SurfaceTensions((1.0, 1.0, 1.0))
    fork = synthetic_network((1.0, 1.0, 1.0), (-1.0, -1.0, -1.0), unit)
    for n in (400, 800):
        assert max_eigenvalue(fork, unit, n).lambda_max > 0
    assert len(searches) == 52


def test_line_roots_equal_scipy(monkeypatch):
    # The line root search on the brackets of boundary_hit's scan, the
    # bracket that its Newton start falls back on.
    from test_domains import _scan_bracket

    searches = _compare_with_scipy(monkeypatch, domains)
    rng = np.random.default_rng(17)
    origin = np.array((0.05, -0.02))
    for domain in (trefoil_domain(), two_dents_domain()):
        for angle in rng.uniform(0.0, 2.0 * np.pi, 20):
            direction = np.array((np.cos(angle), np.sin(angle)))
            domains._root_on_line(domain, origin, direction,
                                  *_scan_bracket(domain, origin, direction))
    assert len(searches) == 40
