"""Host-speed calibration kernel.

On a shared 2-core host the speed of identical work drifts by up to 1.7x
over a few minutes (15-second medians of one fixed trajectory ranged
0.32-0.56 s), and CPU time tracks wall time, so the drift is contention
for the cores, not descheduling.  A fixed kernel, independent of the
package and shaped like its hot paths, is timed next to every measured
set-up and operation; its time over NOMINAL_S is the host factor, and
reported times are wall times divided by that factor.  An optimisation of
the package moves the reported time in full; a slower or faster host
cancels.

The kernel has three parts, each about 40 ms: interpreter loops around
NumPy calls on 201-element arrays, (3, 201) array expressions with a 5x5
dense and a 600-row tridiagonal solve, and power-ladder polynomial
evaluation by einsum on six points.  Over 200-second series of operations,
20-second medians divided by the kernel spread (IQR / median) 8 %
(dents_escape_n48, raw 26 %) and 7 % (cli_pipeline, raw 13 %) with the
first two parts; either part alone left 12-19 %, and the third part alone
8 % and 5 %.

The kernel and NOMINAL_S are part of the benchmark definition: changing
either rescales every reported time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import solve_banded

NOMINAL_S = 0.12  # kernel time on the reference host (2-core Xeon, quiet)


def _interpreter():
    x = np.linspace(0.0, 1.0, 201)
    acc = 0.0
    for k in range(3000):
        y = np.sqrt(x * x + 1.0)
        z = np.diff(y) / 0.005
        acc += float(z[k % 200]) + sum(i * 0.5 for i in range(20))
    return acc


def _arrays():
    x = np.linspace(0.0, 1.0, 603).reshape(3, 201)
    m = np.eye(5) * 4.0 + 1.0
    b = np.ones(5)
    ab = np.zeros((3, 600))
    ab[0, 1:] = -1.0
    ab[1] = 3.0
    ab[2, :-1] = -1.0
    r = np.ones(600)
    acc = 0.0
    for _ in range(450):
        y = np.sqrt(x * x + 1.0) * x[:, ::-1]
        z = np.einsum("ij,ij->i", y, x)
        acc += float(np.linalg.solve(m, b + z[0])[0])
        acc += float(solve_banded((1, 1), ab, r)[0])
    return acc


def _polynomial():
    coef = np.linspace(-1.0, 1.0, 75).reshape(3, 5, 5)
    pts = np.linspace(-0.9, 0.9, 12).reshape(6, 2)
    acc = 0.0
    for _ in range(1500):
        xs = np.empty((6, 5))
        ys = np.empty((6, 5))
        xs[:, 0] = 1.0
        ys[:, 0] = 1.0
        for j in range(4):
            xs[:, j + 1] = xs[:, j] * pts[:, 0]
            ys[:, j + 1] = ys[:, j] * pts[:, 1]
        acc += float(np.einsum("...i,kij,...j->...k", xs, coef, ys)[0, 0])
    return acc


def kernel() -> float:
    return _interpreter() + _arrays() + _polynomial()


def seconds() -> float:
    """Wall time of one kernel run."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
