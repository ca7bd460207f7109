"""Shared fixtures: reference domains and their stationary networks."""

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def record_acceptance(tag: str, ok: bool, detail: str) -> bool:
    line = f"[{tag:<12}] {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from trijunction.domains import (
    CircleDomain,
    EllipseDomain,
    PolynomialDomain,
    disk_terms,
    poly_product,
    poly_scale,
)
from trijunction.parameterization import StationaryNetwork
from trijunction.steady import SteadyGuess, find_stationary
from trijunction.tensions import SurfaceTensions, tangent_frames, young_angles


@pytest.fixture(scope="session")
def unit_tensions():
    return SurfaceTensions((1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def disk():
    return CircleDomain(1.0)


@pytest.fixture(scope="session")
def disk_network(disk, unit_tensions):
    return find_stationary(disk, unit_tensions, SteadyGuess(p=(0.05, 0.03), gauge=0.0))


@pytest.fixture(scope="session")
def ellipse():
    return EllipseDomain(1.2, 1.0)


@pytest.fixture(scope="session")
def ellipse_network(ellipse, unit_tensions):
    return find_stationary(ellipse, unit_tensions, SteadyGuess(p=(0.1, 0.0), gauge=0.0))


def trefoil_domain(depth=0.8, confine=0.2):
    """Disk with three symmetric dents at polar angles 0, 120, 240 degrees.

    psi = |x|^2 - 1 + depth * (x^3 - 3 x y^2) + confine * |x|^4.  The cubic
    carves the dents (r^3 cos 3theta); the quartic keeps the level set
    bounded.  For this depth the wall curvature at the three dents is
    positive, which is the stabilizing sign, so the symmetric fork in this
    domain is linearly stable.
    """
    return PolynomialDomain(
        [
            (2, 0, 1.0), (0, 2, 1.0), (0, 0, -1.0),
            (3, 0, depth), (1, 2, -3.0 * depth),
            (4, 0, confine), (2, 2, 2.0 * confine), (0, 4, confine),
        ],
        bounding_box=(-2.2, 2.2, -2.2, 2.2),
    )


def two_dents_domain(r_outer=1.0, center_dist=1.15, r_dent=0.4):
    """Disk with two excluded disks cut in at polar angles +-120 degrees.

    Perpendicular contact on a circular wall means the ray passes through
    that circle's center, so the stationary fork here is closed form:
    junction at the origin, lengths (r_outer, d - r_dent, d - r_dent), wall
    curvatures (-1/r_outer, +1/r_dent, +1/r_dent).  One convex exit with two
    dents; the stability criterion evaluates negative (unstable).
    """
    c2 = center_dist * np.array([-0.5, np.sqrt(3.0) / 2.0])
    c3 = center_dist * np.array([-0.5, -np.sqrt(3.0) / 2.0])
    outer = poly_scale(disk_terms(r_outer), -1.0)
    terms = poly_scale(
        poly_product(outer, disk_terms(r_dent, c2), disk_terms(r_dent, c3)), -1.0
    )
    return PolynomialDomain(terms, bounding_box=(-1.3, 1.3, -1.3, 1.3))


@pytest.fixture(scope="session")
def trefoil():
    return trefoil_domain()


@pytest.fixture(scope="session")
def trefoil_network(trefoil, unit_tensions):
    return find_stationary(trefoil, unit_tensions, SteadyGuess(p=(0.02, 0.01), gauge=0.0))


@pytest.fixture(scope="session")
def two_dents():
    return two_dents_domain()


@pytest.fixture(scope="session")
def two_dents_network(two_dents, unit_tensions):
    return find_stationary(two_dents, unit_tensions, SteadyGuess(p=(0.03, 0.02), gauge=0.0))


class NanGradientDisk(CircleDomain):
    """Unit disk whose gradient is NaN everywhere; its exits are the disk's
    closed form, which needs no gradient."""

    def grad(self, x):
        return np.full(np.shape(x), np.nan)


def random_tensions(rng):
    """Admissible tension triple by rejection sampling."""
    while True:
        g = rng.uniform(0.5, 2.0, 3)
        if all(g[k] < g[(k + 1) % 3] + g[(k + 2) % 3] for k in range(3)):
            return SurfaceTensions(tuple(g))


def synthetic_network(lengths, h, tensions):
    """Straight fork at the origin with the given lengths and wall
    curvatures; the eigenproblem reads nothing else."""
    tangents, normals = tangent_frames(young_angles(tensions), 0.0)
    return StationaryNetwork(
        p_star=np.zeros(2),
        tangents=tangents,
        normals=normals,
        lengths=np.asarray(lengths, dtype=float),
        h_star=np.asarray(h, dtype=float),
        endpoints=None,
    )
