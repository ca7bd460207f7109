"""Readings of the wall-clock ratio gates of test_tooling.py.

    PYTHONPATH=src python tests/gate_readings.py [-k K] [GATE ...]

Runs the timing body of each ratio gate (test_tooling.RATIO_GATES, all of
them unless named) once in each of K fresh processes (default 10), one
after another, and prints per gate the min, median and max of the ratio it
bounds, with the bound.  A ratio of two timings in one process does not
depend on the host's speed, but its best-of-N spread between processes
does, so a gate's margin is read from several processes.  pytest does not
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
    parser.add_argument("-k", type=int, default=10, help="fresh processes (default 10)")
    parser.add_argument("gates", nargs="*", help="gate names (default: every gate)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(TESTS))
    from test_tooling import RATIO_GATES

    names = args.gates or list(RATIO_GATES)
    unknown = sorted(set(names) - set(RATIO_GATES))
    if unknown:
        parser.error(f"unknown gates {unknown}; known: {sorted(RATIO_GATES)}")
    if args.child:
        child(names)
        return
    runs = {name: [] for name in names}
    for _ in range(args.k):
        out = subprocess.run([sys.executable, __file__, "--child", *names], check=True,
                             capture_output=True, text=True, env=os.environ.copy())
        for name, ratio in json.loads(out.stdout.splitlines()[-1]).items():
            runs[name].append(ratio)
    print(f"{'gate':<20} {'min':>8} {'median':>8} {'max':>8} {'bound':>8}   ({args.k} processes)")
    for name in names:
        values = runs[name]
        print(f"{name:<20} {min(values):8.4f} {statistics.median(values):8.4f} "
              f"{max(values):8.4f} {RATIO_GATES[name][4]:8.4f}")


if __name__ == "__main__":
    main()
