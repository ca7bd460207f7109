"""Outcome censuses of the spectrum solve on seeded random forks and of the
steady solve on the fixture domains, the boundary sweep's counts on three
runs, and the peak memory of the CLI pipeline at fixed operation counts.

    PYTHONPATH=src python tests/census.py [CENSUS ...]

The spectrum censuses draw their forks from default_rng(2026): per fork the
tensions (random_tensions), the lengths l ~ U(0.2, 3)^3, then the wall
curvatures and the grid as below, and run max_eigenvalue on the straight
fork.

    wide        4000 forks, h ~ U(-100, 100)^3, n from 1 to 48
    admissible  3000 forks, h ~ U(-3, 5)^3, n in {48, 100, 200, 400, 800}

The steady census draws 60 tension triples (random_tensions) from
default_rng(0) and runs find_stationary seven times on each: on the unit
disk gauged, and on the 1.2 x 1.0 ellipse, the trefoil and the two dents
each gauged (phi = 0 pinned) and free (from phi = 0), from the starts of
the benchmark's spectrum batch.

    steady      420 solves

The sweep census runs three trajectories step by step on a Stepper, as
run steps them: the unit disk at n = 200 from its eigenmode at amplitude
1e-2 with dt = 0.45 / n^2 to t = 0.01 (889 steps), the two dents at n = 48
from theirs at 0.072 with dt = 0.45 (0.75 / n)^2 until max |rho| passes
0.08, and the 1.2 x 1.0 ellipse at n = 64 from the default cosine data at
1e-2 with the default dt to t = 0.03 (the runs of the benchmark's
disk_n200 and dents_escape_n48 and of its CLI pipeline, unjittered).  Per
run it prints the residual evaluations per step (calls of the exit
binding's ends without s''), the Jacobian refreshes (calls with s''),
and the largest residual of an accepted state, evaluated again by a
BoundaryOperator on an exit binding of its own.

    sweep       3 runs

The memory census runs the benchmark's CLI pipeline operation (steady,
spectrum, evolve and verify through trijunction.cli.main, seed 1) in this
process and prints its peak resident set size, ru_maxrss, after 3, 30 and
100 operations.  The benchmark reads peak RSS over as many operations as
fit in its seconds, so a faster operation runs more of them; two trees are
compared at equal counts here.  ru_maxrss is the peak of the whole
process, so run the memory census on its own.

    memory      100 operations

It prints per census the count of each outcome ("ok" or the error's class)
and one SHA-256 over every outcome: the bytes of lambda_max and of the
eigenfunction, or of the root's p_*, tangents, lengths and wall
curvatures, or the error's class and message.  Two trees that print the
same hash solved every case bitwise alike.  pytest does not collect this
file.
"""

import argparse
import collections
import contextlib
import hashlib
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent


def _wide(rng):
    return rng.uniform(-100.0, 100.0, 3), int(rng.integers(1, 49))


def _admissible(rng):
    return rng.uniform(-3.0, 5.0, 3), int(rng.choice([48, 100, 200, 400, 800]))


SPECTRUM_CENSUSES = {"wide": (4000, _wide), "admissible": (3000, _admissible)}
CENSUSES = [*SPECTRUM_CENSUSES, "steady", "sweep", "memory"]


def census(name):
    """(outcome counts, hex SHA-256) of one census."""
    if name == "steady":
        return steady_census()
    from conftest import random_tensions, synthetic_network
    from trijunction.errors import TriJunctionError
    from trijunction.stability import max_eigenvalue

    forks, draw = SPECTRUM_CENSUSES[name]
    rng = np.random.default_rng(2026)
    counts, digest = collections.Counter(), hashlib.sha256()
    for _ in range(forks):
        t = random_tensions(rng)
        l = rng.uniform(0.2, 3.0, 3)
        h, n = draw(rng)
        try:
            res = max_eigenvalue(synthetic_network(l, h, t), t, n)
        except TriJunctionError as e:
            counts[type(e).__name__] += 1
            digest.update(f"{type(e).__name__}: {e}".encode())
        else:
            counts["ok"] += 1
            digest.update(np.float64(res.lambda_max).tobytes())
            digest.update(res.eigenfunction.tobytes())
    return counts, digest.hexdigest()


def steady_cases():
    """The (domain, tensions, guess) of the steady census, in its order."""
    from conftest import random_tensions, trefoil_domain, two_dents_domain
    from trijunction.domains import CircleDomain, EllipseDomain
    from trijunction.steady import SteadyGuess

    disk, ellipse = CircleDomain(1.0), EllipseDomain(1.2, 1.0)
    trefoil, two_dents = trefoil_domain(), two_dents_domain()
    rng = np.random.default_rng(0)
    for _ in range(60):
        t = random_tensions(rng)
        yield disk, t, SteadyGuess(p=(0.05, 0.03), gauge=0.0)
        for domain, p in ((ellipse, (0.1, 0.0)), (trefoil, (0.02, 0.01)),
                          (two_dents, (0.03, 0.02))):
            yield domain, t, SteadyGuess(p=p, gauge=0.0)
            yield domain, t, SteadyGuess(p=p)


def steady_census():
    """(outcome counts, hex SHA-256) of the steady census."""
    from trijunction.errors import TriJunctionError
    from trijunction.steady import find_stationary

    counts, digest = collections.Counter(), hashlib.sha256()
    for domain, t, guess in steady_cases():
        try:
            net = find_stationary(domain, t, guess)
        except TriJunctionError as e:
            counts[type(e).__name__] += 1
            digest.update(f"{type(e).__name__}: {e}".encode())
        else:
            counts["ok"] += 1
            for a in (net.p_star, net.tangents, net.lengths, net.h_star):
                digest.update(a.tobytes())
    return counts, digest.hexdigest()


def sweep_runs():
    """Per run of the sweep census, (name, network, domain, tensions, state,
    config, cap): the Stepper runs from state to config.t_end or until
    max |rho| passes cap."""
    from conftest import two_dents_domain
    from trijunction.domains import CircleDomain, EllipseDomain
    from trijunction.evolution import EvolveConfig, initial_state
    from trijunction.stability import max_eigenvalue
    from trijunction.steady import SteadyGuess, find_stationary
    from trijunction.tensions import SurfaceTensions

    unit = SurfaceTensions((1.0, 1.0, 1.0))
    for name, domain, p, n, dt, t_end, amplitude, cap in (
            ("disk n=200", CircleDomain(1.0), (0.05, 0.03), 200, 0.45 / 200**2, 0.01,
             1e-2, 0.25),
            ("two dents n=48", two_dents_domain(), (0.03, 0.02), 48, 0.45 * (0.75 / 48) ** 2,
             10.0, 0.072, 0.08),
            ("ellipse n=64", EllipseDomain(1.2, 1.0), (0.1, 0.0), 64, None, 0.03, 1e-2, 0.25)):
        network = find_stationary(domain, unit, SteadyGuess(p=p, gauge=0.0))
        config = EvolveConfig(dt=dt, t_end=t_end, n=n)
        if name.startswith("ellipse"):
            state = initial_state(network, domain, unit, config, amplitude=amplitude)
        else:
            phi = max_eigenvalue(network, unit, n).eigenfunction
            state = initial_state(network, domain, unit, config, kind="eigenmode",
                                  amplitude=amplitude, eigenfunction=phi)
        yield name, network, domain, unit, state, config, cap


def sweep_census():
    """Per run of the sweep census, (name, steps, residual evaluations,
    Jacobian refreshes, largest residual of an accepted state)."""
    from trijunction.evolution import Stepper
    from trijunction.parameterization import BoundaryOperator

    rows = []
    for name, network, domain, tensions, state, config, cap in sweep_runs():
        stepper = Stepper(network, domain, tensions, config)
        counts = [0, 0]  # evaluations, refreshes
        ends = stepper._exits.ends

        def counted(q, *second):
            counts[bool(second)] += 1
            return ends(q, *second)

        stepper._exits.ends = counted
        n = config.n
        check = BoundaryOperator(network, domain.network_exits(network, n), tensions.angles, n)
        worst, steps = 0.0, int(round(config.t_end / stepper.dt))
        for k in range(1, steps + 1):
            state = stepper.step(state)
            rho = state.rho
            res = check(check.nodes(rho), rho[:, 0].tolist(), rho[:, -1].tolist(),
                        state.mu.tolist())
            worst = max(worst, max(map(abs, res)))
            if np.abs(rho).max() > cap:
                break
        rows.append((name, k, counts[0], counts[1], worst))
    return rows


def memory_census(counts=(3, 30, 100)):
    """Per count, (operations, ru_maxrss in MB) of this process after that
    many CLI pipeline operations of the benchmark, seed 1."""
    sys.path.insert(0, str(TESTS.parent / "bench"))
    from workloads import WORKLOADS

    work, rows, done = WORKLOADS["cli_pipeline"], [], 0
    with tempfile.TemporaryDirectory() as workdir:
        state = work.setup(1, False, workdir)
        try:
            for count in counts:
                for _ in range(count - done):
                    work.op(state, lambda name: contextlib.nullcontext())
                done = count
                rows.append((count, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
        finally:
            work.teardown(state)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("censuses", nargs="*",
                        help=f"census names (default: {' '.join(CENSUSES)})")
    args = parser.parse_args(argv)
    names = args.censuses or list(CENSUSES)
    unknown = sorted(set(names) - set(CENSUSES))
    if unknown:
        parser.error(f"unknown censuses {unknown}; known: {sorted(CENSUSES)}")
    sys.path.insert(0, str(TESTS))
    for name in names:
        if name == "sweep":
            for run, steps, evaluations, refreshes, worst in sweep_census():
                print(f"sweep       {run:<15} {steps:4d} steps: {evaluations / steps:.3f} "
                      f"evaluations per step, {refreshes} Jacobian refreshes, "
                      f"largest accepted residual {worst:.2e}")
            continue
        if name == "memory":
            for operations, peak in memory_census():
                print(f"memory      cli_pipeline after {operations:3d} operations: "
                      f"ru_maxrss {peak:.2f} MB")
            continue
        counts, sha = census(name)
        outcomes = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
        cases = "solves" if name == "steady" else "forks"
        print(f"{name:<11} {sum(counts.values())} {cases}: {outcomes}")
        print(f"{'':<11} sha256 {sha}")


if __name__ == "__main__":
    main()
