"""Guards for files outside the package that depend on its names, and for
the cost of the per-step diagnostics with and without the step's chart and
in batches, the route of the per-step exit, the single route of the
spectrum solve, its LAPACK calls, the cost of the stability pencil's
assembly, the modules `import trijunction` loads and the readings of the
ratio gates against a second source tree (tests/gate_readings.py).

bench/spans.py rebinds the functions and methods it traces with getattr and
setattr; a rename in the package would otherwise surface only when the
benchmark runs.  The demos are never imported by the suite, so a removed
export would otherwise surface only when someone runs them; the quick ones
run as subprocesses, so a changed return type surfaces too.  The README's
config example documents the config schema; a key added to or removed from
the schema would otherwise leave it stale.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from trijunction.config import SCALAR_KEYS, parse_config
from trijunction.domains import PolynomialDomain
from trijunction.diagnostics import record_from_state, records_from_states
from trijunction.evolution import EvolveConfig, Stepper, initial_state
from trijunction.parameterization import BoundaryOperator, coefficients
from trijunction import domains, stability, steady, tensions
from trijunction.stability import max_eigenvalue
from trijunction.tensions import SurfaceTensions

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    spans = _load_spans()
    for owner, attr, _ in spans.MODULE_FUNCTIONS:
        assert callable(getattr(importlib.import_module(owner), attr)), (owner, attr)
    for owner, cls, meth, _ in spans.METHODS:
        getattr(getattr(importlib.import_module(owner), cls), meth)
    assert {"step", "enforce_bcs"} <= set(vars(Stepper))


def test_demo_imports_resolve():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "trijunction"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)


# the demos that run in a few seconds; 04 and 05 integrate long trajectories
_QUICK_DEMOS = ["01_junction_algebra", "02_domains_and_steady_forks",
                "03_stability_of_forks", "06_identities_and_refinement"]


@pytest.mark.parametrize("demo", _QUICK_DEMOS)
def test_quick_demo_runs(demo):
    # Resolving a demo's imports does not show that it still runs against
    # the package's return types; running it does.
    out = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                         capture_output=True, text=True, cwd=ROOT, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr[-2000:]


def test_readme_config_block_matches_schema():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    parse_config(block)
    keys = {line.split("#", 1)[0].split("=", 1)[0].strip()
            for line in block.splitlines() if "=" in line.split("#", 1)[0]}
    assert set(SCALAR_KEYS) <= keys, sorted(set(SCALAR_KEYS) - keys)


def _best_of(calls, repeats):
    """Per name the shortest of `repeats` timings of calls[name], the calls
    interleaved, so that a busy spell of the host slows them alike."""
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(repeats):
        for name, call in calls.items():
            start = perf_counter()
            call()
            best[name] = min(best[name], perf_counter() - start)
    return best


def _gate_ratio(name, *fixtures):
    """The reading of the ratio gate `name` (RATIO_GATES): its timing body
    run once on the fixtures, and the ratio it bounds."""
    body, _, num, den, bound = RATIO_GATES[name]
    best = body(*fixtures)
    return best[num] / best[den], bound, best


def _check_gate(name, *fixtures):
    ratio, bound, best = _gate_ratio(name, *fixtures)
    assert ratio <= bound, (ratio, best)


def _disk_record_state(disk, disk_network, unit_tensions):
    n = 200
    config = EvolveConfig(dt=0.45 / n**2, t_end=0.0, n=n)
    phi = max_eigenvalue(disk_network, unit_tensions, n).eigenfunction
    state = initial_state(disk_network, disk, unit_tensions, config, kind="eigenmode",
                          amplitude=1e-2, eigenfunction=phi)
    return config, state


def _plain_record_timings(disk, disk_network, unit_tensions):
    _, state = _disk_record_state(disk, disk_network, unit_tensions)
    calls = {
        "coefficients": lambda: coefficients(disk_network, disk, unit_tensions, state),
        "record": lambda: record_from_state(disk_network, disk, unit_tensions, state),
    }
    return _best_of(calls, 5)


def test_record_costs_at_most_five_coefficient_calls(disk, disk_network, unit_tensions):
    # A ratio of two timings in one process does not depend on the host's
    # speed.  The record shares the chart kernel of coefficients and adds
    # quadratures and end stencils (1.96-2.17 over 10 fresh processes,
    # tests/gate_readings.py, since coefficients forms F without J and
    # kappa; 1.66-1.81 before, 1.99-2.21 when the record also evaluated the
    # wall's gradient and Hessian); a second curvature route such as the
    # chord-length resampling of tests/oracles.py costs over 10.
    _check_gate("record_plain", disk, disk_network, unit_tensions)


def _chart_record_timings(disk, disk_network, unit_tensions):
    config, state = _disk_record_state(disk, disk_network, unit_tensions)
    stepper = Stepper(disk_network, disk, unit_tensions, config)
    chart = stepper.chart(state)
    calls = {
        "coefficients": lambda: coefficients(disk_network, disk, unit_tensions, state,
                                             exits=stepper._exits),
        "record": lambda: record_from_state(disk_network, disk, unit_tensions, state,
                                            chart=chart),
    }
    return _best_of(calls, 20)


def test_record_given_the_step_chart_costs_at_most_two_coefficient_calls(
        disk, disk_network, unit_tensions):
    # A run hands each record the coefficients its next step reads, so the
    # record adds only its quadratures, end stencils and wall terms to the
    # chart, and J and kappa, which the chart leaves to the first reader;
    # one that evaluates the chart again costs about 2.0-2.2.  The
    # coefficients call is timed on the Stepper's exit binding, as a run
    # makes it.  The best of 20 interleaved timings read 1.45-1.59 over 10
    # fresh processes on a shared 2-core host (tests/gate_readings.py), with
    # coefficients forming F without J and kappa; 1.13-1.16 when it formed
    # both; 1.53-1.76 when the record evaluated the wall's gradient and
    # Hessian; the best of 5 once read 2.21 on a busier host.
    _check_gate("record_given_chart", disk, disk_network, unit_tensions)


def _batch_record_timings(ellipse, ellipse_network, unit_tensions):
    n = 64
    dt = 0.45 * float(np.min(ellipse_network.lengths / n) ** 2)
    config = EvolveConfig(dt=dt, t_end=0.0, n=n)
    stepper = Stepper(ellipse_network, ellipse, unit_tensions, config)
    state = initial_state(ellipse_network, ellipse, unit_tensions, config)
    states, charts = [], []
    for _ in range(32):
        states.append(state)
        charts.append(stepper.chart(state))
        state = stepper.step(state)
    args = (ellipse_network, ellipse, unit_tensions)
    calls = {
        "singles": lambda: [record_from_state(*args, s, chart=c)
                            for s, c in zip(states, charts)],
        "batch": lambda: records_from_states(*args, states, charts),
    }
    return _best_of(calls, 5)


def test_batched_records_cost_at_most_half_their_singles(ellipse, ellipse_network,
                                                        unit_tensions):
    # A record of a (3, 65) state is about 60 numpy calls whose cost is
    # nearly all dispatch.  One call for 32 records (the CLI pipeline's run,
    # on the step's charts) makes those calls once, 0.22-0.26 of 32 single
    # records over 10 fresh processes, and 0.19-0.29 since a single record's
    # rho_sigma stencils take no stack of divisors (the singles about 9 %
    # cheaper, the batch 4 %); the bound leaves room for a host that
    # drifts.  (0.14-0.22 when each record also evaluated the wall's
    # gradient and Hessian, which the batch made once: the ratio rose as
    # its unit, a single record, got cheaper.)
    _check_gate("record_batch", ellipse, ellipse_network, unit_tensions)


def _disk_eigenmode_state(disk, disk_network, unit_tensions, n):
    config = EvolveConfig(dt=0.45 / n**2, t_end=0.0, n=n)
    phi = max_eigenvalue(disk_network, unit_tensions, n).eigenfunction
    state = initial_state(disk_network, disk, unit_tensions, config, kind="eigenmode",
                          amplitude=1e-2, eigenfunction=phi)
    return Stepper(disk_network, disk, unit_tensions, config), state


def _disk_sweep_timings(disk, disk_network, unit_tensions):
    stepper, state = _disk_eigenmode_state(disk, disk_network, unit_tensions, 200)
    return _converged_sweep_and_chart(stepper, state, stepper._exits)


def test_converged_boundary_sweep_costs_under_half_a_coefficient_call(
        disk, disk_network, unit_tensions):
    # A ratio of two timings in one process does not depend on the host's
    # speed.  A converged sweep is one residual evaluation: the six exits of
    # the branch ends, whose jet also gives the wall normals, and a few
    # hundred flops, all in Python floats, with one fetch of the nodes it
    # reads, 0.19-0.22 of a coefficients call at n = 200 timed on the
    # Stepper's exit binding, whose line constants are bound once (0.31-0.34
    # with the exits as numpy calls on 6 entries, 0.55-0.58 with every flop
    # as numpy calls).  Over 10 fresh processes it read 0.175-0.207
    # (tests/gate_readings.py), median 0.182, with the chart forming the
    # step's inputs directly (about 0.8 of its cost before) and the sweep's
    # maps bound once per Stepper (0.181-0.207, median 0.192, before).
    # With each timed sweep dropping its start history, three series of 10
    # read medians 0.200, 0.188 and 0.194, maxima up to 0.222 (the timed
    # sweeps' history left in place: 0.184, 0.199 and 0.186, up to 0.225).
    _check_gate("disk_sweep", disk, disk_network, unit_tensions)


def _dents_eigenmode_state(two_dents, two_dents_network, unit_tensions):
    n = 48
    config = EvolveConfig(dt=0.45 * (0.75 / n) ** 2, t_end=0.0, n=n)
    phi = max_eigenvalue(two_dents_network, unit_tensions, n).eigenfunction
    state = initial_state(two_dents_network, two_dents, unit_tensions, config,
                          kind="eigenmode", amplitude=2e-2, eigenfunction=phi)
    return Stepper(two_dents_network, two_dents, unit_tensions, config), state


def _dents_sweep_timings(two_dents, two_dents_network, unit_tensions):
    stepper, state = _dents_eigenmode_state(two_dents, two_dents_network, unit_tensions)
    return _converged_sweep_and_chart(stepper, state, None)


def test_converged_polynomial_sweep_costs_under_a_quarter_coefficient_call(
        two_dents, two_dents_network, unit_tensions):
    # The same ratio on the two dents at n = 48, where the six exits are
    # one call of the line-polynomial kernel on six one-entry blocks:
    # 0.180-0.208 of a coefficients call, median 0.193, over 10 fresh
    # processes (tests/gate_readings.py; 0.187-0.206, median 0.197, before
    # the chart formed the step's inputs directly and the six exits' checks
    # ran in floats), with one multiply.accumulate for the six exits' power
    # ladder; 0.181-0.212, medians 0.193-0.205, over three series of 10
    # with each timed sweep dropping its start history.  The coefficients call
    # takes no binding, so it binds the network afresh and its exits start
    # from the reference lengths; from the Stepper's binding's prediction
    # they take one evaluation and the ratio reads about 0.34.  It bounds
    # the sweep's cost, not its route: with the exits through root search
    # on the (x, y) fields and implicit differentiation, and the chart's q
    # contracted per node, both sides were slower and the ratio read
    # 0.209-0.246.
    _check_gate("dents_sweep", two_dents, two_dents_network, unit_tensions)


def _converged_sweep_and_chart(stepper, state, exits):
    """Best of 20 timings of a converged boundary sweep and of a
    coefficients call with the exit binding `exits`, interleaved, after
    three steps from state.  Each timed sweep first drops the sweep's start
    history (forget), so that it starts from the converged values of rho
    and converges at its first evaluation, one exit call that asks for no
    s'', which is checked; from the extrapolated start of the calls before
    it, a sweep that drifted would iterate once."""
    for _ in range(3):
        state = stepper.step(state)
    rho = state.rho.copy()
    stepper.enforce_bcs(rho)  # converge once
    forget = stepper._sweep[3]
    exits_calls = []  # per call, the arguments besides q: () asks for no s''
    ends = stepper._exits.ends

    def counted(q, *second):
        exits_calls.append(second)
        return ends(q, *second)

    def sweep():
        forget()
        stepper.enforce_bcs(rho)

    stepper._exits.ends = counted
    calls = {
        "coefficients": lambda: coefficients(stepper.network, stepper.domain, stepper.tensions,
                                             state, exits=exits),
        "sweep": sweep,
    }
    best = _best_of(calls, 20)
    del stepper._exits.ends
    assert exits_calls == [()] * 20, exits_calls
    return best


# boundary_hit calls of the fixture solves from the benchmark's starts, with
# the exact Jacobian read off the last evaluation's hits: two, five, three
# and two residual evaluations (15, 42, 24 and 15 rays with the forward
# difference of step 1e-7)
_FIXTURE_RAYS = {"disk": 6, "ellipse": 15, "trefoil": 9, "two_dents": 6}


def test_fixture_solves_shoot_their_counted_rays(monkeypatch, unit_tensions, request):
    hits = []
    hit = steady.boundary_hit
    monkeypatch.setattr(steady, "boundary_hit", lambda *a: hits.append(a) or hit(*a))
    counts = {}
    for family, p in (("disk", (0.05, 0.03)), ("ellipse", (0.1, 0.0)),
                      ("trefoil", (0.02, 0.01)), ("two_dents", (0.03, 0.02))):
        hits.clear()
        steady.find_stationary(request.getfixturevalue(family), unit_tensions,
                               steady.SteadyGuess(p=p, gauge=0.0))
        counts[family] = len(hits)
    assert counts == _FIXTURE_RAYS


def test_boundary_sweep_evaluates_at_most_two_exits_per_step(disk, disk_network,
                                                              unit_tensions, monkeypatch):
    # One exit evaluation per residual evaluation: on the disk at n = 200 the
    # lagged-Jacobian sweep converges in at most one iteration (two
    # evaluations), and from its warm start, with its roots polished to
    # rounding, it converges at its first evaluation in all of these 200
    # steps and refreshes no Jacobian (204 evaluations from the quadratic
    # start, 307 with the roots accepted under the 1e-10 tolerance and the
    # linear start, 410 from the predictor).  The sweep evaluates its six
    # exits through the ends of the Stepper's exit binding, the chart
    # through its chart; no step binds the network again.
    stepper, state = _disk_eigenmode_state(disk, disk_network, unit_tensions, 200)
    for _ in range(20):
        state = stepper.step(state)
    counts = {"sweep": 0, "chart": 0, "network_exits": 0}
    exits = stepper._exits

    def counted(where, call):
        def run(*args, **kwargs):
            counts[where] += 1
            return call(*args, **kwargs)

        return run

    monkeypatch.setattr(exits, "ends", counted("sweep", exits.ends))
    monkeypatch.setattr(exits, "chart", counted("chart", exits.chart))
    monkeypatch.setattr(type(disk), "network_exits",
                        counted("network_exits", type(disk).network_exits))
    steps = 200
    for _ in range(steps):
        state = stepper.step(state)
    # each sweep evaluates its residual at least once
    assert steps <= counts["sweep"] <= 202, counts
    assert counts["chart"] == steps, counts  # the chart's one per step
    assert counts["network_exits"] == 0, counts


# Residual evaluations per step from the warm start, over 200 steps after
# 20, at amplitudes 0.5, 1, 2 and 4 x 1e-2, with the roots polished and the
# cubic start: 1.0, 1.0, 1.015 and 1.045 on the disk at n = 200 and 1.0,
# 1.0, 1.0 and 1.03 on the two dents at n = 48 from their eigenmodes, and
# 1.30, 1.375, 1.50 and 1.725 on the CLI's ellipse at n = 64 from the
# default cosine data with the default dt, Jacobian refreshes included
# (1.0, 1.02, 1.06 and 1.12 on the disk, 1.0, 1.0, 1.035 and 1.085 on the
# dents and 1.545, 1.675, 1.875 and 2.225 on the ellipse from the quadratic
# start; 1.485 to 1.735 on the disk and 1.47 to 1.67 on the dents with the
# roots accepted under the 1e-10 tolerance and the linear start; 2.05 on
# the disk and the dents from the predictor).  The tests run the disk and
# the ellipse at 1e-2 and the dents at 2e-2.
_WARM_EVALUATIONS = {"disk": 1.01, "ellipse": 1.40, "two_dents": 1.01}


def _ellipse_cosine_state(ellipse, ellipse_network, unit_tensions):
    # the CLI pipeline's run: n = 64, the default dt and cosine data
    config = EvolveConfig(t_end=0.0, n=64)
    state = initial_state(ellipse_network, ellipse, unit_tensions, config, amplitude=1e-2)
    return Stepper(ellipse_network, ellipse, unit_tensions, config), state


@pytest.mark.parametrize("family", sorted(_WARM_EVALUATIONS))
def test_warm_sweep_takes_under_two_evaluations_per_step(family, unit_tensions, request,
                                                         monkeypatch):
    # From the predictor a sweep took one Newton step on the lagged Jacobian,
    # two evaluations; from the predictor plus the extrapolated correction of
    # the last four sweeps it almost always converges at its first on the
    # disk and the two dents, and in most steps on the ellipse, where the
    # quadratic start took a second in two steps of three.  Every state it
    # returns meets the junction and wall conditions below 1e-10, read by a
    # BoundaryOperator on an exit binding of its own.
    domain, network = (request.getfixturevalue(f) for f in (family, f"{family}_network"))
    stepper, state = {"disk": lambda *a: _disk_eigenmode_state(*a, 200),
                      "ellipse": _ellipse_cosine_state,
                      "two_dents": _dents_eigenmode_state}[family](domain, network,
                                                                   unit_tensions)
    for _ in range(20):
        state = stepper.step(state)
    evaluations = [0]
    exits = stepper._exits
    ends = exits.ends

    def counted(*args):
        evaluations[0] += 1
        return ends(*args)

    monkeypatch.setattr(exits, "ends", counted)
    n = state.n
    check = BoundaryOperator(network, domain.network_exits(network, n), unit_tensions.angles, n)
    residuals, steps = [], 200
    for _ in range(steps):
        state = stepper.step(state)
        rho = state.rho
        residuals.append(check(check.nodes(rho), rho[:, 0].tolist(), rho[:, -1].tolist(),
                               state.mu.tolist()))
    assert np.abs(residuals).max() < 1e-10
    assert evaluations[0] <= _WARM_EVALUATIONS[family] * steps, evaluations


def test_polynomial_step_skips_field_newton(two_dents, two_dents_network, unit_tensions,
                                             monkeypatch):
    # A step on a polynomial domain finds its exits by Newton on the line
    # polynomial; a call of psi_and_grad means an exit fell back to the
    # Newton on the (x, y) fields, at about three calls per exit.
    stepper, state = _dents_eigenmode_state(two_dents, two_dents_network, unit_tensions)
    for _ in range(3):
        state = stepper.step(state)
    calls = []
    psi_and_grad = PolynomialDomain.psi_and_grad

    def counted(self, x):
        calls.append(np.shape(x))
        return psi_and_grad(self, x)

    monkeypatch.setattr(PolynomialDomain, "psi_and_grad", counted)
    stepper.step(state)
    assert calls == []


def test_predicted_polynomial_exits_take_one_evaluation(two_dents, two_dents_network,
                                                       unit_tensions, monkeypatch):
    # Every exit search starts from a second-order prediction off the last
    # chart's exit jet, so the first evaluation of the line polynomial
    # already meets |P| < 1e-13 on almost every call, for the chart's
    # (3, n+1) exits and the sweep's six (the chart and the ends of the
    # Stepper's exit binding).  Started from the
    # last exits instead, each call takes two Newton steps and a confirming
    # evaluation, three in all.  A call builds one power ladder for q and
    # its start together, which serves the first evaluation, and one ladder
    # of s for each later evaluation.
    stepper, state = _dents_eigenmode_state(two_dents, two_dents_network, unit_tensions)
    for _ in range(5):
        state = stepper.step(state)
    counts = {"chart": [0, 0], "sweep": [0, 0]}  # exit calls, ladders inside them
    inside = [None]
    ladder, exits = domains._ladder, stepper._exits

    def counted_ladder(*args):
        if inside[0]:
            counts[inside[0]][1] += 1
        return ladder(*args)

    def counted(where, call):
        def run(*args, **kwargs):
            counts[where][0] += 1
            inside[0] = where
            try:
                return call(*args, **kwargs)
            finally:
                inside[0] = None

        return run

    monkeypatch.setattr(domains, "_ladder", counted_ladder)
    monkeypatch.setattr(exits, "chart", counted("chart", exits.chart))
    monkeypatch.setattr(exits, "ends", counted("sweep", exits.ends))
    for _ in range(100):
        state = stepper.step(state)
    per_call = {k: ladders / calls for k, (calls, ladders) in counts.items()}
    # every sweep evaluates its residual at least once (122 calls in 100
    # steps from the warm start, which almost always converges at its first)
    assert counts["chart"][0] == 100 and counts["sweep"][0] >= 100, counts
    assert max(per_call.values()) <= 1.2, per_call


def test_max_eigenvalue_assembles_once_through_module_global(disk_network, monkeypatch):
    # The stability.assemble_forms span then measures the element forms the
    # solve uses, and the constraint plane is built once per tension triple,
    # not once per solve.
    calls = []
    assemble_forms, constraint_basis = stability.assemble_forms, tensions.constraint_basis

    def counted(*args, **kwargs):
        calls.append(args[2])
        return assemble_forms(*args, **kwargs)

    def counted_basis(t):
        calls.append("constraint_basis")
        return constraint_basis(t)

    monkeypatch.setattr(stability, "assemble_forms", counted)
    monkeypatch.setattr(tensions, "constraint_basis", counted_basis)
    fresh = SurfaceTensions((1.0, 1.0, 1.0))
    max_eigenvalue(disk_network, fresh, 48)
    max_eigenvalue(disk_network, fresh, 48)
    assert calls == [48, "constraint_basis", 48]


def test_max_eigenvalue_needs_no_arpack_or_dense_solver(disk_network, trefoil_network,
                                                       unit_tensions, monkeypatch):
    # The count-and-Schur route is the only one: with ARPACK and the dense
    # generalized eigh unavailable, the solve returns the same lambda.
    import scipy.linalg
    import scipy.sparse.linalg

    networks = (disk_network, trefoil_network)
    expected = [max_eigenvalue(net, unit_tensions, 100).lambda_max for net in networks]

    def unavailable(*args, **kwargs):
        raise AssertionError("the spectrum solve called an ARPACK or dense eigensolver")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", unavailable)
    monkeypatch.setattr(scipy.linalg, "eigh", unavailable)
    got = [max_eigenvalue(net, unit_tensions, 100).lambda_max for net in networks]
    assert got == expected and got[0] > 0 > got[1]


def test_one_solve_counts_in_closed_form_only_to_certify_its_bracket(
        disk_network, trefoil_network, two_dents_network, unit_tensions, monkeypatch):
    # Host-independent: the branch poles are counted in closed form and
    # brentq reads S in closed form, so a solve makes one count per bracket
    # end and per bisection step, all before the root search, and no LAPACK
    # call at all.  The pivot route made about 26 dgtsv solves and as many
    # dstebz counts at n = 400; the count route one dstebz per count.
    import scipy.linalg.lapack as lapack

    calls = []
    brentq, inertia = stability.brentq, stability._inertia

    def searched(*args, **kwargs):
        calls.append("brentq")
        return brentq(*args, **kwargs)

    def recorded(*args):
        calls.append("count")
        return inertia(*args)

    def unavailable(*args, **kwargs):
        raise AssertionError("the spectrum solve called LAPACK")

    assert not hasattr(stability, "dgtsv") and not hasattr(stability, "dstebz")
    monkeypatch.setattr(lapack, "dgtsv", unavailable)
    monkeypatch.setattr(lapack, "dstebz", unavailable)
    monkeypatch.setattr(stability, "brentq", searched)
    monkeypatch.setattr(stability, "_inertia", recorded)
    for net in (disk_network, trefoil_network, two_dents_network):
        calls.clear()
        max_eigenvalue(net, unit_tensions, 400)
        bisection_steps = len(calls) - 3
        assert calls == ["count"] * (2 + bisection_steps) + ["brentq"], calls
        assert bisection_steps <= 4  # 2, 0 and 3 here


_SCIPY_UNLOADED = """
import sys

LAZY = ("scipy.optimize", "scipy.interpolate", "scipy.special", "scipy.spatial", "scipy.fft")
import trijunction
print("scipy.interpolate" in sys.modules)
print([m for m in LAZY if m in sys.modules])

sys.path.insert(0, {tests!r})
from conftest import two_dents_domain
from trijunction import (CircleDomain, EvolveConfig, Stepper, SteadyGuess, SurfaceTensions,
                         find_stationary, initial_state, max_eigenvalue, record_from_state)

unit, disk, n = SurfaceTensions((1.0, 1.0, 1.0)), CircleDomain(1.0), 48
net = find_stationary(disk, unit, SteadyGuess(p=(0.05, 0.03), gauge=0.0))
phi = max_eigenvalue(net, unit, n).eigenfunction
config = EvolveConfig(dt=0.45 / n**2, t_end=0.0, n=n)
state = initial_state(net, disk, unit, config, kind="eigenmode", amplitude=1e-2, eigenfunction=phi)
stepper = Stepper(net, disk, unit, config)
for _ in range(5):
    state = stepper.step(state)
record_from_state(net, disk, unit, state)
find_stationary(two_dents_domain(), unit, SteadyGuess(p=(0.03, 0.02), gauge=0.0))
print([m for m in LAZY if m in sys.modules])
"""


def test_import_leaves_scipy_interpolate_unloaded():
    # Only diagnostics.resample needs PCHIP, and nothing in the package
    # calls it; it imports scipy.interpolate on first use.  The root
    # searches run the package's own brentq, so neither the import nor a
    # steady solve, a spectrum, steps and a record load scipy.optimize and
    # the special, spatial and FFT modules it brings, about half of the
    # time `import trijunction` took with them.  (scipy.sparse.linalg stays
    # loaded only because bench/spans.py looks it up to trace eigsh.)
    code = _SCIPY_UNLOADED.format(tests=str(ROOT / "tests"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.split() == ["False", "[]", "[]"], out.stdout


def _assembly_timings(disk_network, unit_tensions):
    from oracles import null_space_pencil

    n = 400
    calls = {
        "assemble": lambda: stability.assemble_forms(disk_network, unit_tensions, n),
        "null_space": lambda: null_space_pencil(disk_network, unit_tensions, n),
    }
    return _best_of(calls, 5)


def test_assembly_is_a_small_share_of_the_null_space_product(disk_network, unit_tensions):
    # A ratio of two timings in one process does not depend on the host's
    # speed.  The solve reads its pencil from the per-branch element forms
    # and the constraint plane, a few scalars per branch, so the assembly
    # stays far below the full-space forms with the null-space product of
    # tests/oracles.py, the route the reduced coordinates replaced.
    _check_gate("assembly", disk_network, unit_tensions)


# Every wall-clock ratio gate of this file: name -> (timing body, the
# fixtures it takes, numerator, denominator, bound).  The tests above
# assert numerator <= bound * denominator; tests/gate_readings.py runs the
# same bodies in fresh processes and prints their spread.
RATIO_GATES = {
    "record_plain": (_plain_record_timings, ("disk", "disk_network", "unit_tensions"),
                     "record", "coefficients", 5.0),
    "record_given_chart": (_chart_record_timings, ("disk", "disk_network", "unit_tensions"),
                           "record", "coefficients", 2.0),
    "record_batch": (_batch_record_timings, ("ellipse", "ellipse_network", "unit_tensions"),
                     "batch", "singles", 0.5),
    "disk_sweep": (_disk_sweep_timings, ("disk", "disk_network", "unit_tensions"),
                   "sweep", "coefficients", 0.23),
    "dents_sweep": (_dents_sweep_timings, ("two_dents", "two_dents_network", "unit_tensions"),
                    "sweep", "coefficients", 0.25),
    "assembly": (_assembly_timings, ("disk_network", "unit_tensions"),
                 "assemble", "null_space", 0.1),
}


def test_gate_readings_alternate_two_trees():
    # tests/gate_readings.py --against DIR reads the gates of a second
    # source tree in fresh processes that alternate with this tree's, each
    # on its own tree's package, and prints both trees' min, median and max
    # per gate; here the second tree is this one.  A DIR without src and
    # tests/gate_readings.py is refused before any process starts.
    script = str(ROOT / "tests" / "gate_readings.py")
    out = subprocess.run([sys.executable, script, "-k", "1", "--against", str(ROOT), "assembly"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    name, *readings, bound = out.stdout.splitlines()[-1].split()
    assert name == "assembly" and len(readings) == 6 and float(bound) == 0.1, out.stdout
    assert all(0.0 < float(v) <= 0.1 for v in readings), out.stdout
    out = subprocess.run([sys.executable, script, "--against", str(ROOT / "demos"), "assembly"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 2 and "no src under" in out.stderr, out.stderr[-2000:]
