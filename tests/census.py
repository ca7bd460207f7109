"""Outcome census of the spectrum solve on seeded random forks.

    PYTHONPATH=src python tests/census.py [CENSUS ...]

Each census draws its forks from default_rng(2026): per fork the tensions
(random_tensions), the lengths l ~ U(0.2, 3)^3, then the wall curvatures
and the grid as below, and runs max_eigenvalue on the straight fork.

    wide        4000 forks, h ~ U(-100, 100)^3, n from 1 to 48
    admissible  3000 forks, h ~ U(-3, 5)^3, n in {48, 100, 200, 400, 800}

It prints per census the count of each outcome ("ok" or the error's class)
and one SHA-256 over every fork's outcome: the bytes of lambda_max and of
the eigenfunction, or the error's class and message.  Two trees that print
the same hash solved every fork bitwise alike.  pytest does not collect
this file.
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


CENSUSES = {"wide": (4000, _wide), "admissible": (3000, _admissible)}


def census(name):
    """(outcome counts, hex SHA-256) of one census."""
    from conftest import random_tensions, synthetic_network
    from trijunction.errors import TriJunctionError
    from trijunction.stability import max_eigenvalue

    forks, draw = CENSUSES[name]
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
        print(f"{name:<11} {sum(counts.values())} forks: {outcomes}")
        print(f"{'':<11} sha256 {sha}")


if __name__ == "__main__":
    main()
