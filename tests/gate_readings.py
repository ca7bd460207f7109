"""Readings of the wall-clock ratio gates of test_tooling.py.

    python tests/gate_readings.py [-k K] [--against DIR] [GATE ...]

Runs the timing body of each ratio gate (test_tooling.RATIO_GATES, all of
them unless named) once in each of K fresh processes (default 10), one
after another, and prints per gate the min, median and max of the ratio it
bounds, with the bound.  A ratio of two timings in one process does not
depend on the host's speed, but its best-of-N spread between processes
does, so a gate's margin is read from several processes.  With --against
DIR the gates of a second source tree are read too, from DIR/tests on the
package in DIR/src (another checkout, say of the parent commit), in fresh
processes that alternate with this tree's, so that a drift of the host
reaches both alike; its readings are printed beside this tree's.  Each
process imports the package from its own tree's src.  pytest does not
collect this file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _fixtures():
    """The session fixtures the gates take, built as tests/conftest.py
    builds them."""
    from conftest import two_dents_domain
    from trijunction.domains import CircleDomain, EllipseDomain
    from trijunction.steady import SteadyGuess, find_stationary
    from trijunction.tensions import SurfaceTensions

    unit = SurfaceTensions((1.0, 1.0, 1.0))
    domains = {"disk": (CircleDomain(1.0), (0.05, 0.03)),
               "ellipse": (EllipseDomain(1.2, 1.0), (0.1, 0.0)),
               "two_dents": (two_dents_domain(), (0.03, 0.02))}
    fixtures = {"unit_tensions": unit}
    for name, (domain, p) in domains.items():
        fixtures[name] = domain
        fixtures[f"{name}_network"] = find_stationary(domain, unit, SteadyGuess(p=p, gauge=0.0))
    return fixtures


def child(names):
    """One reading of each named gate in this process, as one JSON line."""
    from test_tooling import RATIO_GATES, _gate_ratio

    fixtures = _fixtures()
    readings = {}
    for name in names:
        args = [fixtures[f] for f in RATIO_GATES[name][1]]
        readings[name] = _gate_ratio(name, *args)[0]
    print(json.dumps(readings))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", type=int, default=10,
                        help="fresh processes per tree (default 10)")
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="also read the gates of the source tree at DIR")
    parser.add_argument("gates", nargs="*", help="gate names (default: every gate)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]
    from test_tooling import RATIO_GATES

    names = args.gates or list(RATIO_GATES)
    unknown = sorted(set(names) - set(RATIO_GATES))
    if unknown:
        parser.error(f"unknown gates {unknown}; known: {sorted(RATIO_GATES)}")
    if args.child:
        child(names)
        return
    trees = {"this": TESTS.parent}
    if args.against is not None:
        trees = {"against": args.against.resolve(), **trees}
        for part in ("src", "tests/gate_readings.py"):
            if not (trees["against"] / part).exists():
                parser.error(f"--against: no {part} under {trees['against']}")
    runs = {(tree, name): [] for tree in trees for name in names}
    for _ in range(args.k):
        for tree, root in trees.items():
            out = subprocess.run(
                [sys.executable, str(root / "tests" / "gate_readings.py"), "--child", *names],
                check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(root / "src")})
            for name, ratio in json.loads(out.stdout.splitlines()[-1]).items():
                runs[tree, name].append(ratio)
    for tree, root in trees.items():
        print(f"{tree}: {root}")
    print(f"{'gate':<20}" + "".join(f" {tree + ' min':>12} {'median':>8} {'max':>8}"
                                    for tree in trees)
          + f" {'bound':>8}   ({args.k} processes per tree)")
    for name in names:
        cells = "".join(f" {min(v):12.4f} {statistics.median(v):8.4f} {max(v):8.4f}"
                        for v in (runs[tree, name] for tree in trees))
        print(f"{name:<20}{cells} {RATIO_GATES[name][4]:8.4f}")


if __name__ == "__main__":
    main()
