#!/usr/bin/env python3
"""Junction and wall identities measured along a run, with refinement.

Along any smooth solution: the weighted curvatures sum to zero at the
junction, the flux combination kappa_s + kappa*v takes a common value across
the three branches there, the weighted tangential velocities sum to zero,
and kappa_s + h*kappa vanishes at the wall.  All of these are measured
discretely, so the residuals should shrink roughly linearly in (dt + ds);
this script halves the grid (and quarters dt) and reports the orders.
"""

import numpy as np

from trijunction import (
    CircleDomain,
    EvolveConfig,
    SteadyGuess,
    SurfaceTensions,
    find_stationary,
    initial_state,
    junction_kinematics,
    max_eigenvalue,
    run,
)

print(__doc__)
tensions = SurfaceTensions((1.0, 1.0, 1.0))
disk = CircleDomain(1.0)
network = find_stationary(disk, tensions, SteadyGuess(p=(0.05, 0.03), gauge=0.0))
q = tensions.q

worst = {}
for n in (50, 100):
    spec = max_eigenvalue(network, tensions, n)
    config = EvolveConfig(dt=0.45 / n**2, t_end=0.3, n=n, output_every=50)
    init = initial_state(network, disk, tensions, config, kind="eigenmode",
                         amplitude=1e-2, eigenfunction=spec.eigenfunction)
    traj = run(network, disk, tensions, init, config)
    t_final = traj.records[-1].t
    vals = {}
    for name in ("res_junction", "res_flux", "res_sum_gamma_v", "res_outer", "res_perp"):
        arr = np.array([getattr(r, name) for r in traj.records])
        vals[name] = arr[traj.times > 0.2 * t_final].max()
    vqv = 0.0
    for s0, s1 in zip(traj.states[:-1], traj.states[1:]):
        if s0.t < 0.2 * t_final:
            continue
        V, v = junction_kinematics(network, disk, s0, s1)
        vqv = max(vqv, float(np.abs(v - q @ V).max()))
    vals["|v - Q V|"] = vqv
    worst[n] = vals
    print(f"n = {n:4d}: " + ", ".join(f"{k} {v:.2e}" for k, v in vals.items()))

print("\nrefinement orders (n = 50 -> 100, dt quartered):")
for key in worst[50]:
    order = np.log2(worst[50][key] / worst[100][key])
    print(f"  {key:16s} {order:+.2f}")
