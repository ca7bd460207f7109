"""Outcome censuses of the spectrum solve on seeded random forks and of the
steady solve on the fixture domains.

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

It prints per census the count of each outcome ("ok" or the error's class)
and one SHA-256 over every outcome: the bytes of lambda_max and of the
eigenfunction, or of the root's p_*, tangents, lengths and wall
curvatures, or the error's class and message.  Two trees that print the
same hash solved every case bitwise alike.  pytest does not collect this
file.
"""

import argparse
import collections
import hashlib
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent


def _wide(rng):
    return rng.uniform(-100.0, 100.0, 3), int(rng.integers(1, 49))


def _admissible(rng):
    return rng.uniform(-3.0, 5.0, 3), int(rng.choice([48, 100, 200, 400, 800]))


SPECTRUM_CENSUSES = {"wide": (4000, _wide), "admissible": (3000, _admissible)}
CENSUSES = [*SPECTRUM_CENSUSES, "steady"]


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
        counts, sha = census(name)
        outcomes = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
        cases = "solves" if name == "steady" else "forks"
        print(f"{name:<11} {sum(counts.values())} {cases}: {outcomes}")
        print(f"{'':<11} sha256 {sha}")


if __name__ == "__main__":
    main()
