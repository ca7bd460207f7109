"""Surface-tension algebra at the triple junction.

Three curves with surface energy densities gamma^1, gamma^2, gamma^3 meet at
one point.  Force balance sum_i gamma^i T^i = 0 fixes the angles theta^i
between the tangents of the other two curves (Young's law), and the stick
condition (all three parameterized curve origins coincide) couples the
tangential junction offsets mu^i to the normal offsets rho^i(0) through a
3x3 matrix Q.  The mobilities equal the tensions throughout, so their ratio
is 1 and the package carries no mobility.  The angles, Q and the basis of
the constraint plane sum_i gamma^i rho^i(0) = 0 depend on the tensions
alone; SurfaceTensions computes each once, on first use, read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TensionsDegenerate

# counterclockwise rotation by pi/2; N = ROT90 @ T
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class SurfaceTensions:
    """Positive tension triple satisfying the strict triangle inequality."""

    gamma: tuple[float, float, float]

    def __post_init__(self):
        g = self.gamma
        if len(g) != 3 or not all(0.0 < x < math.inf for x in g):
            raise TensionsDegenerate(
                f"tensions must be three positive finite reals, got {g}")
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            if g[k] >= g[i] + g[j]:
                raise TensionsDegenerate(
                    f"triangle inequality fails: gamma[{k}]={g[k]} >= {g[i]} + {g[j]}"
                )

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.gamma, dtype=float)

    # the derived constants, each computed on first use; the arrays are read-only
    @functools.cached_property
    def angles(self) -> JunctionAngles:
        return young_angles(self)

    @functools.cached_property
    def q(self) -> np.ndarray:
        return _read_only(junction_matrix(self.angles))

    @functools.cached_property
    def basis(self) -> np.ndarray:
        return _read_only(constraint_basis(self))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class JunctionAngles:
    """Angles theta^k between tangents T^i and T^j, (i, j, k) cyclic."""

    theta: tuple[float, float, float]

    def __post_init__(self):
        th = np.asarray(self.theta)
        if np.any(th <= 0.0) or np.any(th >= math.pi):
            raise TensionsDegenerate(f"angles must lie in (0, pi), got {self.theta}")
        if abs(float(th.sum()) - 2.0 * math.pi) > 1e-10:
            raise TensionsDegenerate(f"angles must sum to 2*pi, got sum {th.sum()}")

    @property
    def cos(self) -> np.ndarray:
        return np.cos(np.asarray(self.theta))

    @property
    def sin(self) -> np.ndarray:
        return np.sin(np.asarray(self.theta))


def young_angles(tensions: SurfaceTensions) -> JunctionAngles:
    """Angles of the force-balanced junction, by the law of cosines.

    The closed triangle formed by the vectors gamma^i T^i has side lengths
    gamma^i, so cos(theta^k) = (gamma_k^2 - gamma_i^2 - gamma_j^2) /
    (2 gamma_i gamma_j).  The sine law sin(theta^i)/gamma^i = const and the
    angle sum 2*pi then hold identically; both are revalidated on return.
    """
    g = tensions.array
    theta = []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        c = (g[k] ** 2 - g[i] ** 2 - g[j] ** 2) / (2.0 * g[i] * g[j])
        if not -1.0 < c < 1.0:
            raise TensionsDegenerate(f"degenerate force triangle, cos theta^{k} = {c}")
        theta.append(math.acos(c))
    return JunctionAngles(theta=tuple(theta))


def junction_matrix(angles: JunctionAngles) -> np.ndarray:
    """Coupling matrix Q (3, 3) of tangential to normal junction offsets.

    Solving the stick condition mu^i T^i + rho^i(0) N^i all equal pairwise
    gives mu^i - c^k mu^j = -s^k rho^j(0) for cyclic (i, j, k); eliminating
    yields the closed form below with prefactor d = -1/(1 - c1 c2 c3).
    """
    c, s = angles.cos, angles.sin
    d = -1.0 / (1.0 - c[0] * c[1] * c[2])
    return d * np.array(
        [
            [c[2] * c[0] * s[1], s[2], c[2] * s[0]],
            [c[0] * s[1], c[0] * c[1] * s[2], s[0]],
            [s[1], c[1] * s[2], c[1] * c[2] * s[0]],
        ]
    )


def tangent_frames(angles: JunctionAngles, rotation: float = 0.0):
    """Unit tangents/normals realizing the junction angles in the plane.

    T^1 sits at polar angle `rotation`; T^2 is reached from T^1 by a
    counterclockwise turn of theta^3 and T^3 from T^2 by theta^1, which is
    the orientation under which (T^i, N^j) = -sin theta^k for cyclic
    (i, j, k).  Returns (tangents, normals), each of shape (3, 2).
    """
    th = angles.theta
    alphas = np.array([rotation, rotation + th[2], rotation + th[2] + th[0]])
    tangents = np.stack([np.cos(alphas), np.sin(alphas)], axis=1)
    normals = tangents @ ROT90.T
    return tangents, normals


def force_balance_residual(tangents: np.ndarray, tensions: SurfaceTensions) -> float:
    """|sum_i gamma^i T^i| for three unit tangents (normal balance follows by rotation)."""
    g = tensions.array
    resultant = (g[:, None] * np.asarray(tangents, dtype=float)).sum(axis=0)
    return float(np.linalg.norm(resultant))


def constraint_basis(tensions: SurfaceTensions) -> np.ndarray:
    """Orthonormal basis (2, 3) of the plane sum_i gamma^i x_i = 0."""
    g = tensions.array / np.linalg.norm(tensions.array)
    basis = []
    for e in np.eye(3):
        v = e - np.dot(e, g) * g
        for b in basis:
            v -= np.dot(v, b) * b
        n = np.linalg.norm(v)
        if n > 1e-12:
            basis.append(v / n)
        if len(basis) == 2:
            break
    return np.array(basis)


def stick_residual(
    angles: JunctionAngles, rho0: np.ndarray, mu: np.ndarray, rotation: float = 0.0
) -> float:
    """Worst-case mismatch of the three reconstructed junction points.

    Each branch places the junction at mu^i T^i + rho^i(0) N^i; a valid
    (rho(0), mu) pair makes the three points coincide.
    """
    tangents, normals = tangent_frames(angles, rotation)
    pts = mu[:, None] * tangents + np.asarray(rho0, dtype=float)[:, None] * normals
    return float(
        max(np.linalg.norm(pts[0] - pts[1]), np.linalg.norm(pts[0] - pts[2]))
    )
