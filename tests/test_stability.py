import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from trijunction.errors import (EigenSolveFailed, RootSearchFailed, TensionsDegenerate,
                               ZeroFunction)
from trijunction import stability
from trijunction.stability import (
    _lambda_upper_bound,
    max_eigenvalue,
    rayleigh_quotient,
    stability_criterion,
)
from trijunction.parameterization import end_slope
from trijunction.tensions import SurfaceTensions, constraint_basis, young_angles

from conftest import random_tensions, synthetic_network
from oracles import (
    arpack_max_eigenvalue,
    full_space_forms,
    lapack_pole_count,
    null_space_pencil,
    pivot_lambda_max_mp,
    pivot_schur_lower,
    pivot_schur_lower_mp,
    robin_neumann_root,
    shooting_lambda_max,
)


UNIT = SurfaceTensions((1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# quadratic form assembly


def test_constants_are_form_null_when_h_zero():
    net = synthetic_network((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), UNIT)
    phi = np.array([[1.0, 1.0], [1.0, 1.0], [-2.0, -2.0]])  # n = 1 per branch
    assert abs(rayleigh_quotient(net, UNIT, phi)) < 1e-14


def test_linear_ramp_form_value_exact():
    net = synthetic_network((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), UNIT)
    n = 20
    phi = np.tile(np.linspace(0.0, 1.0, n + 1), (3, 1))
    K, B, constraint = full_space_forms(net, UNIT, n)
    v = phi.ravel()
    assert abs(v @ (K @ v) - 3.0) < 1e-12  # sum of int (phi_s)^2 = 3
    assert abs(constraint @ v) < 1e-14


def test_robin_term_contribution():
    net = synthetic_network((1.0, 1.0, 1.0), (2.0, 0.0, 0.0), UNIT)
    n = 10
    K0, _, _ = full_space_forms(synthetic_network((1.0,) * 3, (0.0,) * 3, UNIT), UNIT, n)
    K, _, _ = full_space_forms(net, UNIT, n)
    v = np.zeros(3 * (n + 1))
    v[n] = 3.0  # phi^1(l) = 3, everything else zero
    assert abs((v @ (K @ v)) - (v @ (K0 @ v)) - 18.0) < 1e-12


def test_rayleigh_quotient_matches_full_space_forms():
    # rayleigh_quotient reads I and the consistent mass from the nodal values
    # of each branch; the reference is (v K v) / (v B v) with the sparse
    # full-space forms.  b_1[0] vanishes in exact arithmetic and rounds to
    # exactly 0 for some tensions, where the junction value of branch 0 lies
    # along b_0 alone.  The smooth phi has three half-waves: with one, I is
    # small enough that the reference's own rounding of its wall entry
    # 1/d + h (about n eps phi_n^2) reaches 1e-14 at n = 400.
    rng = np.random.default_rng(1)
    exact_zero = 0
    for _ in range(20):
        t = random_tensions(rng)
        net = synthetic_network(rng.uniform(0.5, 2.0, 3), rng.uniform(-1.0, 2.0, 3), t)
        b = constraint_basis(t)
        exact_zero += b[1, 0] == 0.0
        for n in (1, 2, 6, 48, 400):
            K, B, _ = full_space_forms(net, t, n)
            wave = 3.0 * np.pi * np.linspace(0.0, 1.0, n + 1)
            rough = rng.normal(size=(3, n + 1))
            smooth = (rng.normal(size=(3, 1)) * np.cos(wave)
                      + rng.normal(size=(3, 1)) * np.sin(wave))
            for phi in (rough, smooth):
                phi[:, 0] = (b @ phi[:, 0]) @ b
                v = phi.ravel()
                ref = (v @ (K @ v)) / (v @ (B @ v))
                assert abs(rayleigh_quotient(net, t, phi) - ref) <= 1e-14 * abs(ref), (n, ref)
    assert 0 < exact_zero < 20


# ---------------------------------------------------------------------------
# the eigenvalue solve


def test_zero_wall_curvature_gives_zero_eigenvalue():
    net = synthetic_network((1.3, 0.8, 1.1), (0.0, 0.0, 0.0), UNIT)
    res = max_eigenvalue(net, UNIT, 200)
    assert abs(res.lambda_max) < 1e-8
    # eigenfunction is branchwise constant in the constraint plane
    spread = np.abs(res.eigenfunction - res.eigenfunction[:, :1]).max()
    assert spread < 1e-5
    g = UNIT.array
    assert abs(g @ res.eigenfunction[:, 0]) < 1e-8


def test_symmetric_all_positive_matches_single_branch_root():
    # l = h = 1 on all branches: the top eigenvalue is the Neumann-Robin
    # branch value -w^2 with w tan w = 1
    net = synthetic_network((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), UNIT)
    res = max_eigenvalue(net, UNIT, 400)
    oracle = shooting_lambda_max(net.lengths, net.h_star, UNIT.array)
    single = robin_neumann_root(1.0)
    assert abs(oracle - single) < 1e-10
    assert abs(res.lambda_max - oracle) < 1e-6


def test_unit_disk_network_value(disk_network, unit_tensions):
    # wall curvature -1 on every branch: positive eigenvalue w^2 with
    # w tanh w = 1 (the junction-translation instability)
    res = max_eigenvalue(disk_network, unit_tensions, 800)
    oracle = shooting_lambda_max(disk_network.lengths, disk_network.h_star,
                                 unit_tensions.array)
    single = robin_neumann_root(-1.0, positive=True)
    assert abs(oracle - single) < 1e-10
    assert abs(res.lambda_max - oracle) < 1e-6
    assert res.lambda_max > 0


def _spectrum_batch(seed, count):
    """Seeded admissible forks as in the benchmark's spectrum batch."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        t = random_tensions(rng)
        l = rng.uniform(0.5, 2.0, 3)
        h = rng.uniform(-0.8, 2.0, 3)
        if np.sum(h <= 0) > 1:  # at most one non-positive wall curvature
            k = rng.integers(0, 3)
            h = np.abs(h)
            h[k] = rng.uniform(-0.8, 0.0)
        yield synthetic_network(l, h, t), t


@pytest.mark.parametrize("n", [48, 400])
def test_agrees_with_arpack_shift_invert(n):
    # Both routes miss the exact lambda of the discrete pencil by up to about
    # 7e-11 (see the 40-digit test below), sometimes in opposite directions.
    for seed in (1, 2):
        for net, t in _spectrum_batch(seed, 20):
            lam = max_eigenvalue(net, t, n).lambda_max
            ref = arpack_max_eigenvalue(net, t, n)
            assert abs(lam - ref) <= 2e-10 * max(1.0, abs(ref)), (seed, lam, ref)


def test_matches_forty_digit_pivot_recurrence():
    for net, t in _spectrum_batch(1, 4):
        lam = max_eigenvalue(net, t, 400).lambda_max
        assert abs(lam - float(pivot_lambda_max_mp(net, t, 400, lam))) < 1e-10


def test_root_within_1e14_of_forty_digit_pivot_recurrence():
    # The closed form of S does not cancel in e - o^2 (M^-1)_11, so its root
    # is the more accurate lambda: 1.4e-15 off at worst here, where the
    # Rayleigh quotient of the eigenfunction carries the rounding of its
    # sums (up to 5.5e-14) and the pivot route's root was up to 9.4e-12 off.
    for net, t in _spectrum_batch(1, 4):
        lam = max_eigenvalue(net, t, 400).lambda_max
        err = abs(lam - float(pivot_lambda_max_mp(net, t, 400, lam)))
        assert err < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_matches_dense_eigh_on_small_grids(n):
    import scipy.linalg

    for net, t in _spectrum_batch(3, 10):
        A, B = null_space_pencil(net, t, n)
        ref = scipy.linalg.eigh(A.toarray(), B.toarray(), eigvals_only=True)[-1]
        assert abs(max_eigenvalue(net, t, n).lambda_max - ref) < 1e-12


def _closed_lower(net, t, n, lam):
    """S's lower eigenvalue at lam by the closed form of the solve."""
    forms, b = stability.assemble_forms(net, t, n)
    branches, weights = stability._branch_scalars(net, t, n, forms, b)
    return stability._lower(lam, n, branches, weights)[0]


def _closed_poles(net, t, n, lam):
    """Branch poles above lam by the closed-form count of the solve."""
    forms, b = stability.assemble_forms(net, t, n)
    branches, _ = stability._branch_scalars(net, t, n, forms, b)
    return sum(stability._branch(lam, n, *branch)[1] for branch in branches)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 48, 400])
def test_closed_form_schur_matches_pivot_solves(n):
    # lam spans both sides of 0, |lam| <= 1e-12, and lam < -12/d^2 (x < -1 on
    # every branch, reached for n <= 3 inside the solve's bracket) and
    # lam > 6/d^2 (o > 0).  The dgtsv route cancels in e - o^2 (M^-1)_11, so
    # the bound scales with the junction entries.  Near a branch pole both
    # routes' rounding grows, and there the closed form is held to 1e-11
    # relative to the 40-digit pivots (the pivot route is 1e-10 off at
    # lam = -0.7, n = 400; the closed form at worst 1.3e-12, at lam < -12/d^2).
    zero_h = synthetic_network((1.3, 0.8, 1.1), (0.0, 0.0, 0.0), UNIT)
    regimes = set()
    for net, t in list(_spectrum_batch(3, 6)) + [(zero_h, UNIT)]:
        forms = stability.assemble_forms(net, t, n)[0]
        scale = float(t.array @ forms[0, 3])
        d = net.lengths / n
        for lam in (-1e-12, -1e-13, 0.0, 1e-13, 1e-12, -0.7, 0.4, 2.0,
                    -24.0 / d.min() ** 2, -13.0 / d.max() ** 2, 7.0 / d.min() ** 2):
            ref = pivot_schur_lower(net, t, n, lam)
            got = _closed_lower(net, t, n, lam)
            if abs(got - ref) > 1e-13 * scale:
                exact = float(pivot_schur_lower_mp(net, t, n, lam))
                assert abs(got - exact) <= 1e-11 * abs(exact), (lam, got, ref, exact)
            a, o = forms[0, 0] + lam * forms[1, 0], forms[0, 2] + lam * forms[1, 2]
            regimes |= {"x < -1" if x < -1 else "x > 1" if x > 1 else "|x| <= 1"
                        for x in a / (2.0 * np.abs(o))}
            regimes |= {"o > 0"} if np.any(o > 0) else set()
    assert regimes == {"x < -1", "|x| <= 1", "x > 1", "o > 0"}


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_closed_form_schur_reads_a_decoupled_block(n):
    # At lam = 6/d^2 the off-diagonal -1/d + lam d/6 is exactly 0 here: the
    # block decouples from the junction and w = e.  The block is diagonal,
    # a = 6/d > 0 on its n - 1 inner rows and 3/d + h on its wall row, which
    # h = -4n makes a branch pole above lam (l = 1, d = 1/n).
    lam = 6.0 * n**2
    for h, poles in (((0.5, 1.0, -0.3), 0), ((0.5, -4.0 * n, -0.3), 1)):
        net = synthetic_network((1.0, 1.0, 1.0), h, UNIT)
        forms = stability.assemble_forms(net, UNIT, n)[0]
        assert np.all(forms[0, 2] + lam * forms[1, 2] == 0.0)
        assert _closed_lower(net, UNIT, n, lam) == pytest.approx(
            pivot_schur_lower(net, UNIT, n, lam), rel=1e-15)
        assert _closed_poles(net, UNIT, n, lam) == lapack_pole_count(lam, forms, n) == poles


@pytest.mark.parametrize("n", [48, 400])
def test_closed_form_schur_keeps_its_digits_near_zero(n):
    # On the h = 0 fork S vanishes at lam = 0 and is about lam l there; x - 1
    # taken from a + 2o = lam d keeps its relative digits, where the pivot
    # route (and x - 1 by subtraction) leaves only rounding noise.
    net = synthetic_network((1.3, 0.8, 1.1), (0.0, 0.0, 0.0), UNIT)
    for lam in (-1e-12, -1e-13, 1e-13, 1e-12):
        ref = float(pivot_schur_lower_mp(net, UNIT, n, lam))
        assert abs(_closed_lower(net, UNIT, n, lam) - ref) <= 1e-12 * abs(ref), lam


@pytest.mark.parametrize("n", [400, 800])
def test_symmetric_disk_fork_solves_from_its_zero_pole(n, monkeypatch):
    # l = 1 and h = -1 on every branch: 1 + h l = 0, so every branch block is
    # singular at lam = 0 and E_n = 0 there in floating point.  The closed-form
    # quotient -sum g h b_0^2 / sum g l b_0^2 of the branchwise constant is 1
    # exactly, which puts the bracket's lower end on that pole; S's lower
    # eigenvalue must read its limit from above.
    net = synthetic_network((1.0, 1.0, 1.0), (-1.0, -1.0, -1.0), UNIT)
    assert _closed_lower(net, UNIT, n, 0.0) == -np.inf
    inertia, ends = stability._inertia, []

    def recorded(lam, *args):
        ends.append(lam)
        return inertia(lam, *args)

    monkeypatch.setattr(stability, "_inertia", recorded)
    lam = max_eigenvalue(net, UNIT, n).lambda_max
    assert ends[0] == 0.0
    assert abs(lam - robin_neumann_root(-1.0, positive=True)) < 3e-6


# At n = 1 these forks put a branch block's x = a/(2|o|) below 0 or -1, or
# its off-diagonal o above 0, at lambda_max.
_REGIME_FORKS = [
    ((1.7, 1.7, 1.3), (1.0, 0.35, 1.27), (9.3, -3.4, -3.3), "o > 0"),
    ((2.0, 1.5, 0.85), (1.4, 2.9, 2.7), (24.5, 8.7, 12.3), "x < 0"),
    ((1.34, 0.85, 0.74), (1.8, 0.23, 0.28), (7.0, 15.5, 27.5), "x < -1"),
]


def test_closed_form_pole_count_matches_lapack_sturm_count(monkeypatch):
    # The population: every count that the solve makes at n = 400 on the 50
    # spectrum batch forks of seed 1; the three regime forks at every n; and
    # 400 forks with l in [0.2, 3] and |h| <= 100, or <= 1 for a
    # quarter of them, at n in {1, 2, 7, 48, 200, 800} with lambda uniform
    # from -300 up to _lambda_upper_bound, three per (fork, n).  Counts
    # differ only at ties, lambda within a few ulps of a branch pole, and
    # none of these draws comes that close.
    inertia, draws = stability._inertia, []

    def recorded(lam, *args):
        draws.append(lam)
        return inertia(lam, *args)

    for net, t in _spectrum_batch(1, 50):
        draws.clear()
        with monkeypatch.context() as m:
            m.setattr(stability, "_inertia", recorded)
            max_eigenvalue(net, t, 400)
        forms = stability.assemble_forms(net, t, 400)[0]
        for lam in draws:
            assert _closed_poles(net, t, 400, lam) == lapack_pole_count(lam, forms, 400), lam
    rng = np.random.default_rng(25)
    forks = [(SurfaceTensions(g), l, h) for g, l, h, _ in _REGIME_FORKS]
    for k in range(400):
        t = random_tensions(rng)
        forks.append((t, rng.uniform(0.2, 3.0, 3), rng.uniform(-100.0, 100.0, 3) / (1 + 99 * (k % 4 == 0))))
    checked = 0
    for t, l, h in forks:
        net = synthetic_network(l, h, t)
        for n in (1, 2, 7, 48, 200, 800):
            forms = stability.assemble_forms(net, t, n)[0]
            for lam in rng.uniform(-300.0, _lambda_upper_bound(net), 3):
                assert _closed_poles(net, t, n, lam) == lapack_pole_count(lam, forms, n), (l, h, n, lam)
                checked += 1
    assert checked == 403 * 6 * 3


@pytest.mark.parametrize("n", [1, 2, 3, 5, 48, 400, 800])
def test_closed_form_pole_count_leaves_out_the_zero_pole(n):
    # The tie: on the symmetric fork l = 1, h = -1 every branch block is
    # singular at lam = 0, and E_n = 1 + eta n is exactly 0 in the closed form
    # at these n.  A zero eigenvalue is not negative, so the count reads 0,
    # where _branch's w reads -inf; dstebz's rounding reads 3 at some of these n
    # and 0 at others.  Off the tie both counts agree: 3 below 0, 0 above.
    net = synthetic_network((1.0, 1.0, 1.0), (-1.0, -1.0, -1.0), UNIT)
    forms = stability.assemble_forms(net, UNIT, n)[0]
    assert _closed_poles(net, UNIT, n, 0.0) == 0
    assert _closed_lower(net, UNIT, n, 0.0) == -np.inf
    for lam, poles in ((-1e-9, 3), (1e-9, 0)):
        assert _closed_poles(net, UNIT, n, lam) == lapack_pole_count(lam, forms, n) == poles


def test_each_count_evaluates_each_branch_block_once(
        disk_network, trefoil_network, two_dents_network, monkeypatch):
    # The Schur weight and the pole count of a block come from one closed
    # form, so a count evaluates each of the three blocks once, whether or
    # not it finds a pole.
    regime, inertia = stability._regime, stability._inertia
    regime_calls, per_count = [0], []

    def counted(*args):
        regime_calls[0] += 1
        return regime(*args)

    def recorded(*args):
        before = regime_calls[0]
        result = inertia(*args)
        per_count.append(regime_calls[0] - before)
        return result

    monkeypatch.setattr(stability, "_regime", counted)
    monkeypatch.setattr(stability, "_inertia", recorded)
    forks = [(net, UNIT) for net in (disk_network, trefoil_network, two_dents_network)]
    for net, t in forks + list(_spectrum_batch(1, 50)):
        per_count.clear()
        max_eigenvalue(net, t, 400)
        assert len(per_count) >= 2 and set(per_count) == {3}, per_count


@pytest.mark.parametrize("g, l, h, regime", _REGIME_FORKS)
def test_eigenfunction_is_the_dense_eigenvector_in_every_regime(g, l, h, regime):
    # The continuation alternates in sign in each of these regimes.
    import scipy.linalg

    t = SurfaceTensions(g)
    net = synthetic_network(l, h, t)
    res = max_eigenvalue(net, t, 1)
    forms = stability.assemble_forms(net, t, 1)[0]
    a, o = forms[0, 0] + res.lambda_max * forms[1, 0], forms[0, 2] + res.lambda_max * forms[1, 2]
    reached = {"o > 0": o > 0, "x < 0": a < 0, "x < -1": a < -2.0 * np.abs(o)}[regime]
    assert np.any(reached)
    A, B = null_space_pencil(net, t, 1)
    vals, vecs = scipy.linalg.eigh(A.toarray(), B.toarray())
    assert abs(res.lambda_max - vals[-1]) < 1e-12 * max(1.0, abs(vals[-1]))
    v = np.concatenate([constraint_basis(t) @ res.eigenfunction[:, 0], res.eigenfunction[:, 1]])
    ref = vecs[:, -1]
    assert abs(abs(v @ (B @ ref)) - 1.0) < 1e-12  # both have unit B-norm


@pytest.mark.parametrize("fork", ["disk", "trefoil"])
def test_double_lambda_returns_the_b0_member_of_its_eigenspace(fork, request):
    # On the 3-fold symmetric forks lambda_max is double: the steady solve
    # splits it by about 2e-11 on the disk and under 1e-12 on the trefoil.
    # S then vanishes on the plane at the root, and its lower eigenvector
    # would be set by that residual; the solve returns the member whose
    # junction values lie along b_0.
    net = request.getfixturevalue(f"{fork}_network")
    res = max_eigenvalue(net, UNIT, 200)
    c = constraint_basis(UNIT) @ res.eigenfunction[:, 0]
    assert abs(c[1]) < 1e-12 * abs(c[0])
    assert abs(res.rayleigh - res.lambda_max) < 1e-9


def test_upper_bound_below_lambda_raises_typed_error(monkeypatch):
    import trijunction.stability as stability

    net = synthetic_network((1.0, 0.8, 1.2), (-0.5, 1.0, 0.7), UNIT)
    lam = max_eigenvalue(net, UNIT, 64).lambda_max
    monkeypatch.setattr(stability, "_lambda_upper_bound", lambda network: lam - 0.1)
    with pytest.raises(EigenSolveFailed):
        max_eigenvalue(net, UNIT, 64)


def test_rayleigh_mismatch_raises_typed_error(monkeypatch):
    # One evaluation of the nodal forms feeds both the Rayleigh check of the
    # eigenfunction and its unit-mass norm (the bracket's lower end is in
    # closed form); a quotient 0.5 off must fail the check.
    import trijunction.stability as stability

    pencil_values = stability._pencil_values

    def shifted(*args):
        form, mass = pencil_values(*args)
        return form + 0.5 * mass, mass

    monkeypatch.setattr(stability, "_pencil_values", shifted)
    net = synthetic_network((1.0, 0.8, 1.2), (-0.5, 1.0, 0.7), UNIT)
    with pytest.raises(EigenSolveFailed):
        max_eigenvalue(net, UNIT, 64)


@pytest.mark.parametrize("failure", ["NaN", "different signs"])
def test_failed_root_search_raises_typed_error(failure, monkeypatch):
    # The root search fails on a NaN value of S's lower eigenvalue strictly
    # inside the certified bracket, where the counts never read it, or on a
    # bracket that the count certifies but S's lower eigenvalue does not
    # change sign on; max_eigenvalue raises EigenSolveFailed either way.
    net = synthetic_network((1.0, 0.8, 1.2), (-0.5, 1.0, 0.7), UNIT)
    brentq, lower, brackets = stability.brentq, stability._lower, []

    def recorded(f, a, b, **tol):
        brackets.append((a, b))
        return brentq(f, a, b, **tol)

    monkeypatch.setattr(stability, "brentq", recorded)
    max_eigenvalue(net, UNIT, 64)
    [(lo, hi)] = brackets
    if failure == "NaN":
        def patched(lam, *args):
            return (math.nan,) * 4 if lo < lam < hi else lower(lam, *args)
    else:
        monkeypatch.setattr(stability, "_inertia", lambda lam, *args: (lam < hi, 0))

        def patched(lam, *args):
            return (1.0,) * 4
    monkeypatch.setattr(stability, "_lower", patched)
    with pytest.raises(EigenSolveFailed, match=failure) as info:
        max_eigenvalue(net, UNIT, 64)
    assert isinstance(info.value.__cause__, RootSearchFailed)


def test_mixed_signs_unstable_case():
    net = synthetic_network((1.0, 1.0, 1.0), (-0.5, 1.0, 1.0), UNIT)
    res = max_eigenvalue(net, UNIT, 400)
    oracle = shooting_lambda_max(net.lengths, net.h_star, UNIT.array)
    assert res.lambda_max > 0
    assert abs(res.lambda_max - oracle) < 1e-5
    verdict = stability_criterion(net.lengths, net.h_star, UNIT)
    assert verdict.verdict == "Unstable"
    assert abs(verdict.criterion_value + 1.5) < 1e-12


def test_rayleigh_consistency_and_bound(trefoil_network, unit_tensions):
    res = max_eigenvalue(trefoil_network, unit_tensions, 200)
    assert abs(res.rayleigh - res.lambda_max) < 1e-8
    rng = np.random.default_rng(17)
    g = unit_tensions.array
    for _ in range(100):
        phi = rng.normal(size=(3, 201))
        phi[:, 0] -= g * (g @ phi[:, 0]) / (g @ g)
        quotient = rayleigh_quotient(trefoil_network, unit_tensions, phi)
        assert quotient >= -res.lambda_max - 1e-6


def test_rayleigh_zero_function_raises(trefoil_network, unit_tensions):
    with pytest.raises(ZeroFunction):
        rayleigh_quotient(trefoil_network, unit_tensions, np.zeros((3, 11)))


@pytest.mark.parametrize("fork", ["disk", "trefoil", "unequal"])
def test_eigenfunction_norm_and_rayleigh_read_the_solved_pencil(fork, request):
    # max_eigenvalue normalizes with, and takes its Rayleigh quotient from,
    # the nodal forms of its eigenfunction; the full-space consistent mass
    # and rayleigh_quotient of the returned nodal values must agree with both
    if fork == "unequal":
        t = SurfaceTensions((1.0, 1.3, 0.8))
        net = synthetic_network((1.0, 0.7, 1.4), (0.4, -0.3, 1.1), t)
    else:
        t = UNIT
        net = request.getfixturevalue(f"{fork}_network")
    res = max_eigenvalue(net, t, 200)
    _, B, _ = full_space_forms(net, t, 200)
    v = res.eigenfunction.ravel()
    assert abs(v @ (B @ v) - 1.0) < 1e-12
    assert abs(res.rayleigh + rayleigh_quotient(net, t, res.eigenfunction)) < 1e-12


def junction_slopes(network, phi):
    """One-sided slopes of nodal data at sigma = 0, one per branch."""
    two_d = 2.0 * network.lengths / (phi.shape[1] - 1)
    return end_slope(phi[:, 0], phi[:, 1], phi[:, 2], two_d)


def test_eigenfunction_junction_slopes_natural_condition():
    net = synthetic_network((1.0, 1.3, 0.7), (0.6, 1.0, -0.2), UNIT)
    spreads = []
    for n in (100, 200):
        res = max_eigenvalue(net, UNIT, n)
        slopes = junction_slopes(net, res.eigenfunction)
        spreads.append(np.abs(slopes - slopes.mean()).max())
    assert spreads[0] > 2.5 * spreads[1] or spreads[1] < 1e-10


def test_mesh_convergence_second_order():
    net = synthetic_network((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), UNIT)
    lam = {n: max_eigenvalue(net, UNIT, n).lambda_max for n in (100, 200, 400)}
    d1 = abs(lam[100] - lam[200])
    d2 = abs(lam[200] - lam[400])
    assert 2.5 < d1 / d2 < 5.5


def test_scale_covariance():
    rng = np.random.default_rng(23)
    for _ in range(5):
        t = random_tensions(rng)
        l = rng.uniform(0.5, 2.0, 3)
        h = rng.uniform(-0.4, 2.0, 3)
        if np.sum(h <= 0) > 1:
            h = np.abs(h)
        c = rng.uniform(0.5, 2.0)
        lam1 = max_eigenvalue(synthetic_network(l, h, t), t, 300).lambda_max
        lam2 = max_eigenvalue(synthetic_network(c * l, h / c, t), t, 300).lambda_max
        assert abs(lam2 - lam1 / c**2) < 1e-6 * max(1.0, abs(lam1))
        v1 = stability_criterion(l, h, t).verdict
        v2 = stability_criterion(c * l, h / c, t).verdict
        assert v1 == v2


@st.composite
def admissible_forks(draw):
    """Tensions, lengths and wall curvatures as in the benchmark's spectrum
    batch: at most one non-positive wall curvature."""
    g = draw(st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3))
    assume(all(g[k] < g[(k + 1) % 3] + g[(k + 2) % 3] for k in range(3)))
    try:  # e.g. (1.5, 2 - 2^-52, 0.5) is strict but rounds to cos theta = -1
        young_angles(SurfaceTensions(tuple(g)))
    except TensionsDegenerate:
        assume(False)
    lengths = draw(st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3))
    h = np.array(draw(st.lists(st.floats(-0.8, 2.0), min_size=3, max_size=3)))
    if np.sum(h <= 0) > 1:
        k = draw(st.integers(0, 2))
        h = np.abs(h)
        h[k] = draw(st.floats(-0.8, 0.0))
    t = SurfaceTensions(tuple(g))
    return synthetic_network(lengths, h, t), t


@settings(max_examples=12, deadline=None)
@given(admissible_forks())
def test_spectrum_sign_shift_and_shooting_agree(fork):
    # Outside the near-zero and Marginal bands the sign of lambda_max is the
    # criterion's verdict, lambda_max lies below the upper end of the bracket
    # the solve certifies, and the n = 200 elements agree with shooting.
    net, t = fork
    lam = max_eigenvalue(net, t, 200).lambda_max
    verdict = stability_criterion(net.lengths, net.h_star, t).verdict
    assume(abs(lam) >= 1e-4 and verdict != "Marginal")
    assert (lam < 0) == (verdict == "Stable")
    assert lam < _lambda_upper_bound(net)
    oracle = shooting_lambda_max(net.lengths, net.h_star, t.array)
    assert abs(lam - oracle) <= 1e-5 * max(1.0, abs(lam))


# ---------------------------------------------------------------------------
# the algebraic criterion


def test_criterion_clause_all_positive():
    v = stability_criterion((2.0, 0.5, 1.0), (0.1, 3.0, 1.0), UNIT)
    assert v.verdict == "Stable" and v.case == "all_h_positive"


def test_criterion_expression_values():
    v = stability_criterion((1.0, 1.0, 1.0), (-0.5, 1.0, 1.0), UNIT)
    assert v.verdict == "Unstable"
    assert abs(v.criterion_value + 1.5) < 1e-12
    v = stability_criterion((1.0, 1.0, 1.0), (0.0, 1.0, 1.0), UNIT)
    assert v.verdict == "Stable" and abs(v.criterion_value - 1.0) < 1e-12


def test_criterion_two_nonpositive_unstable():
    v = stability_criterion((1.0, 1.0, 1.0), (-0.1, -0.2, 5.0), UNIT)
    assert v.verdict == "Unstable" and v.case == "two_nonpositive"


def test_criterion_marginal_band():
    v = stability_criterion((1.0, 1.0, 1.0), (-0.5, 1.0, 2.0), UNIT)
    # expression = (1-0.5)*2 + 2*(-1) + 3*(-0.5) = 1 - 2 - 1.5 = -2.5
    assert v.verdict == "Unstable"
    # (1 - 4/8) - 2/8 - 2/8 is exactly 0.0 in floating point
    v = stability_criterion((4.0, 1.0, 1.0), (-0.125, 1.0, 1.0), UNIT)
    assert v.criterion_value == 0.0
    assert v.verdict == "Marginal"


@pytest.mark.parametrize("l, h, read", [
    ((1.0, 1.0, 1.0), (-0.5, math.nan, 1.0), "Marginal with a NaN criterion"),
    ((1.0, math.nan, 1.0), (-0.5, 1.0, 1.0), "Marginal with a NaN criterion"),
    ((1.0, 1.0, 1.0), (math.inf, 1.0, 1.0), "Stable, all_h_positive"),
    ((1.0, 1.0, 1.0), (-math.inf, 1.0, 1.0), "Unstable with a -inf criterion"),
    ((1.0, 0.0, 1.0), (-0.5, 1.0, 1.0), "Unstable"),
    ((1.0, -0.8, 1.0), (-0.5, 1.0, 1.0), "Unstable"),
    ((1.0, math.inf, 1.0), (0.5, 1.0, 1.0), "Stable, all_h_positive"),
    ((1.0, 1.0), (0.5, 1.0), "Stable, all_h_positive"),
])
def test_criterion_and_solve_reject_a_fork_off_the_admissible_numbers(l, h, read):
    # Three lengths, positive and finite, and three finite wall curvatures:
    # the criterion read these forks as `read`, and the solve failed on them
    # with EigenSolveFailed or numpy's ValueError.
    with pytest.raises(ValueError, match="lengths|wall curvatures"):
        stability_criterion(l, h, UNIT)
    with pytest.raises(ValueError, match="lengths|wall curvatures"):
        max_eigenvalue(synthetic_network(l, h, UNIT), UNIT, 48)


@pytest.mark.parametrize("n", [0, -3, 48.0, math.nan, "48", None])
def test_solve_rejects_a_branch_count_that_is_not_an_integer_of_at_least_one(n):
    # n = 0 raised numpy's "slice step cannot be zero" and n = -3 its
    # "negative dimensions are not allowed", and int() took 48.0 and "48";
    # a closed-form count would read n = 0 as a count of no poles.
    net = synthetic_network((1.0, 0.8, 1.2), (-0.5, 1.0, 0.7), UNIT)
    with pytest.raises(ValueError, match="n_per_branch"):
        max_eigenvalue(net, UNIT, n)


def test_solve_takes_a_numpy_integer_branch_count():
    net = synthetic_network((1.0, 0.8, 1.2), (-0.5, 1.0, 0.7), UNIT)
    assert max_eigenvalue(net, UNIT, np.int64(48)).lambda_max == max_eigenvalue(net, UNIT, 48).lambda_max


# Two forks of the wide census (default_rng(2026), per fork random_tensions,
# l = uniform(0.2, 3, 3), h = uniform(-100, 100, 3), n = integers(1, 49);
# draws 110 and 172 of 4000) whose top eigenvalue sits on a branch pole to
# rounding: E_n of one branch profile is exactly 0 there.
_PROFILE_LOST = [
    ((2.1158031483708726, 0.3552062320943598, 2.781565407435637),
     (-58.975685549145204, -53.265486804470406, -82.1801083263197),
     (1.1431191290251526, 1.2550916380826702, 1.5398253529232335), 22),
    ((1.3182755550962741, 1.399322508897182, 0.5457671869378985),
     (-14.280178082264428, 99.68976187913213, 50.38042619625861),
     (1.609539830942612, 1.078942501930687, 1.4624555253242777), 29),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("l, h, gamma, n", _PROFILE_LOST)
def test_solve_raises_without_warning_when_a_profile_is_lost_at_a_pole(l, h, gamma, n):
    tensions = SurfaceTensions(gamma)
    with pytest.raises(EigenSolveFailed, match="profile is lost"):
        max_eigenvalue(synthetic_network(l, h, tensions), tensions, n)
