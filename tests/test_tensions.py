import dataclasses
import math

import numpy as np
import pytest

from trijunction.errors import TensionsDegenerate
from trijunction.tensions import (
    SurfaceTensions,
    constraint_basis,
    force_balance_residual,
    junction_matrix,
    stick_residual,
    tangent_frames,
    young_angles,
)

from conftest import random_tensions
from oracles import junction_point_from_pair


def test_symmetric_tensions_give_equal_angles():
    angles = young_angles(SurfaceTensions((1.0, 1.0, 1.0)))
    assert np.allclose(angles.theta, 2.0 * math.pi / 3.0, rtol=0, atol=1e-12)


def test_angle_sum_and_sine_law_random():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        t = random_tensions(rng)
        angles = young_angles(t)
        assert abs(sum(angles.theta) - 2.0 * math.pi) < 1e-12
        ratios = angles.sin / t.array
        assert ratios.max() - ratios.min() < 1e-12 * ratios.max()


def test_law_of_cosines_identity():
    t = SurfaceTensions((1.0, 1.0, 1.2))
    angles = young_angles(t)
    g = t.array
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        expected = (g[k] ** 2 - g[i] ** 2 - g[j] ** 2) / (2.0 * g[i] * g[j])
        assert abs(angles.cos[k] - expected) < 1e-14


@pytest.mark.parametrize("gamma", [(1.0, 1.0, 2.0), (1.0, 1.0, 2.5), (0.3, 0.3, 0.61)])
def test_degenerate_tensions_raise(gamma):
    with pytest.raises(TensionsDegenerate):
        young_angles(SurfaceTensions(gamma))


def test_nonpositive_tension_raises():
    with pytest.raises(TensionsDegenerate):
        SurfaceTensions((1.0, -1.0, 1.0))


@pytest.mark.parametrize("gamma", [(float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0)])
def test_nonfinite_tension_raises(gamma):
    # nan passes every comparison-based check
    with pytest.raises(TensionsDegenerate):
        SurfaceTensions(gamma)


def test_scale_invariance_of_angles():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = random_tensions(rng)
        scale = rng.uniform(0.1, 10.0)
        scaled = SurfaceTensions(tuple(scale * np.asarray(t.gamma)))
        a1, a2 = young_angles(t), young_angles(scaled)
        assert np.allclose(a1.theta, a2.theta, rtol=0, atol=1e-13)


def test_force_balance_from_young_angles():
    rng = np.random.default_rng(99)
    for _ in range(100):
        t = random_tensions(rng)
        tangents, _ = tangent_frames(young_angles(t), rotation=rng.uniform(0, 2 * np.pi))
        assert force_balance_residual(tangents, t) < 1e-12


def test_force_balance_direct_values():
    t = SurfaceTensions((1.0, 1.0, 1.0))
    tangents, _ = tangent_frames(young_angles(t), 0.0)
    assert force_balance_residual(tangents, t) < 1e-14
    aligned = np.array([[1.0, 0.0]] * 3)
    assert abs(force_balance_residual(aligned, t) - 3.0) < 1e-14


def test_junction_matrix_symmetric_entry():
    q = junction_matrix(young_angles(SurfaceTensions((1.0, 1.0, 1.0))))
    assert abs(q[0, 0] + math.sqrt(3.0) / 9.0) < 1e-14


def test_junction_matrix_zero_maps_to_zero():
    q = junction_matrix(young_angles(SurfaceTensions((1.0, 1.0, 1.0))))
    assert np.all(q @ np.zeros(3) == 0.0)


def test_stick_condition_random():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        t = random_tensions(rng)
        angles = young_angles(t)
        q = junction_matrix(angles)
        g = t.array
        rho0 = rng.normal(size=3)
        rho0 -= g * (g @ rho0) / (g @ g)
        mu = q @ rho0
        assert stick_residual(angles, rho0, mu, rotation=rng.uniform(0, 2 * np.pi)) < 1e-10


def test_stick_condition_against_pairwise_solve():
    # two branches determine the junction point; the third must agree, and
    # the tangential components must reproduce Q rho(0)
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = random_tensions(rng)
        angles = young_angles(t)
        q = junction_matrix(angles)
        tangents, normals = tangent_frames(angles, rotation=rng.uniform(0, 2 * np.pi))
        g = t.array
        rho0 = rng.normal(size=3)
        rho0 -= g * (g @ rho0) / (g @ g)
        p = junction_point_from_pair(tangents, normals, rho0[0], rho0[1], 0, 1)
        assert abs(p @ normals[2] - rho0[2]) < 1e-10
        mu_geom = tangents @ p
        assert np.allclose(mu_geom, q @ rho0, rtol=0, atol=1e-10)


def test_junction_matrix_determinant_identity():
    # det(I - diag(lam) Q) has a closed form in the angle cosines/sines;
    # agreement over random (gamma, lam) pins every entry of Q
    rng = np.random.default_rng(31)
    for _ in range(100):
        t = random_tensions(rng)
        angles = young_angles(t)
        q = junction_matrix(angles)
        c, s = angles.cos, angles.sin
        d = -1.0 / (1.0 - c[0] * c[1] * c[2])
        lam = rng.uniform(-1.5, 1.5, 3)
        direct = np.linalg.det(np.eye(3) - np.diag(lam) @ q)
        closed = d * (
            -1.0
            + (c[1] - lam[0] * s[1]) * (c[2] - lam[1] * s[2]) * (c[0] - lam[2] * s[0])
        )
        assert abs(direct - closed) < 1e-12


def test_derived_constants_are_bitwise_the_module_functions_and_read_only():
    rng = np.random.default_rng(11)
    for _ in range(50):
        gamma = tuple(random_tensions(rng).gamma)
        t = SurfaceTensions(gamma)
        assert t.angles == young_angles(SurfaceTensions(gamma))
        assert t.q.tobytes() == junction_matrix(young_angles(SurfaceTensions(gamma))).tobytes()
        assert t.basis.tobytes() == constraint_basis(SurfaceTensions(gamma)).tobytes()
        assert t.q.shape == (3, 3) and t.basis.shape == (2, 3)
        assert t.q is t.q and t.basis is t.basis and t.angles is t.angles
        for array in (t.q, t.basis):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        for name in ("angles", "q", "basis"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, None)
