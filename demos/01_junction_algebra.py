#!/usr/bin/env python3
"""Young angles and the junction coupling matrix.

Three curves with surface tensions gamma_i pull on their common junction;
force balance fixes the angles between them (Young's law).  The tangential
junction offsets mu are then slaved to the normal offsets rho(0) through the
3x3 matrix Q, which is what keeps the three parameterized curves glued to
one moving point.
"""

import numpy as np

from trijunction import (
    SurfaceTensions,
    force_balance_residual,
    junction_matrix,
    tangent_frames,
    young_angles,
)
from trijunction.tensions import stick_residual

print(__doc__)

for gamma in [(1.0, 1.0, 1.0), (1.0, 1.0, 1.2), (0.8, 1.0, 1.5)]:
    tensions = SurfaceTensions(gamma)
    angles = young_angles(tensions)
    deg = np.degrees(angles.theta)
    print(f"gamma = {gamma}")
    print(f"  angles      = ({deg[0]:.4f}, {deg[1]:.4f}, {deg[2]:.4f}) degrees,"
          f" sum = {deg.sum():.10f}")
    ratios = angles.sin / tensions.array
    print(f"  sine law    : sin(theta_i)/gamma_i = {ratios}")
    tangents, _ = tangent_frames(angles, rotation=0.3)
    print(f"  force bal.  : |sum gamma_i T_i| = {force_balance_residual(tangents, tensions):.2e}")

    q = junction_matrix(angles)
    rho0 = np.array([0.02, -0.015, 0.0])
    g = tensions.array
    rho0 -= g * (g @ rho0) / (g @ g)  # admissible: weighted sum vanishes
    mu = q @ rho0
    print(f"  Q =\n{np.array_str(q, precision=5)}")
    print(f"  stick residual for mu = Q rho(0): "
          f"{stick_residual(angles, rho0, mu, rotation=0.3):.2e}")
    print()

print("Equal tensions give the familiar 120-degree junction; Q(0,0) entry is")
print(f"-sqrt(3)/9 = {-np.sqrt(3)/9:.6f} in that case.")
