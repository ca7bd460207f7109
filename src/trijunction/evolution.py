"""Time integration of the junction flow on the fixed sigma grids.

One step is linearly implicit: the stiff local diffusion a^i rho_ss is
advanced implicitly, while the nonlocal junction coupling Lambda^i mu_t,
whose mu_t carries the junction traces of rho_ss, and all lower-order
content is explicit.  With F = L kappa + Lambda mu_t at the current state,
as the chart (parameterization.coefficients) gives it, and the weights
r = a dt / dsigma^2 = c / J^2, c = dt / dsigma^2 per branch, the step solves

    (I - r D2) delta = dt F,    rho_new = rho + delta,

on all 3(n + 1) nodes in one tridiagonal solve (LAPACK dgtsv), where D2 is
the second difference along a branch.  Inside a branch r D2 rho = dt a rho_ss
exactly, so this is the implicit step of a rho_ss with the explicit
remainder F - a rho_ss, which is never formed.  The six end rows are the
identity: they carry the explicit predictor rho + dt F, which dgtsv returns
bitwise, and no row couples two branches.

A Newton sweep on the six boundary nodal values then re-enforces the
junction conditions (weighted sum exactly, the two angle residuals to
tolerance) and the three perpendicularity conditions, with interior nodes
frozen.  It works in the constraint plane's basis: its unknowns are the
junction triple's two coordinates in the weighted constraint plane and the
three wall values.  mu is slaved to rho(0) through the junction matrix after
every sweep, as the Python floats Q r0 that the sweep's residual summed, so
the stick condition cannot drift.  The sweep runs domains.newton, the
package's one damped Newton, in Python floats with a lagged Jacobian that
the Stepper holds and inverts once per refresh, because numpy's per-call
dispatch would cost more than the few hundred flops on 5-entry vectors.
A refresh reads the exact Jacobian (BoundaryOperator.jacobian): the chain
rule through the six exit jets, from one exit call that also gives mu_b''
at the wall ends, which no other evaluation asks for.
It starts from the predicted unknowns u_pred plus 2 d_k - d_{k-1}, the
corrections d = u - u_pred of the last two sweeps extrapolated, which the
Stepper holds as floats: the start of a continuation method (Deuflhard
2004), from which a sweep often converges at its first evaluation.  A
start whose exits leave the domain is dropped with its history, and the
sweep runs again from u_pred.  Each residual evaluation reads the six branch
ends' exits, whose jet also gives the wall normals, from the Stepper's exit
binding (the domain's network_exits), which the chart reads too: it binds
the three branch lines once and picks every exit search's start, from the
last chart's exit jet on a polynomial wall and none on a conic.

The explicit remainder carries second-derivative traces, so the classic
diffusive guard dt <= 0.5 dsigma^2 / max(a) is enforced even though the
principal part is implicit.  The step reads it as max r <= 0.5 on all
n + 1 nodes of each branch, from the chart's per-branch minimum of J^2:
division is monotone, so c / min J^2 is max(c / J^2) bitwise.  The band
-c / J^2 is one division of a Stepper constant by the chart's J^2; neither
L nor a is formed.  The sweep's maps (its start, its residual and the
accepted root's boundary values, which also update the start's history)
are closures bound once per Stepper.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded  # noqa: F401 -- bench/spans.py traces this name
from scipy.linalg.lapack import dgtsv

from .domains import _NEWTON_TOL, ImplicitDomain, LaggedJacobian, newton
from .errors import (
    CflViolation,
    CompatibilityFailed,
    DegenerateMetric,
    MatrixMNotInvertible,
    NewtonDiverged,
    NoConvergence,
    NoIntersection,
    NonFiniteState,
    OffsetMissesBoundary,
    SingularJacobian,
)
from .parameterization import (
    BoundaryOperator,
    GraphState,
    StationaryNetwork,
    coefficients,
    end_slope,
    junction_point,
    psi_first_jet,
    state_from_rho,
)
from .tensions import SurfaceTensions

_CFL_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class EvolveConfig:
    t_end: float
    dt: float | None = None  # None: 0.45 dsigma_min^2, resolved by each Stepper
    n: int = 100
    output_every: int = 50
    amplitude_cap: float = 0.25

    def __post_init__(self):
        # every Stepper, run and initial_state reads a checked config
        for field, ok, want in (
                ("n", isinstance(self.n, numbers.Integral) and self.n >= 3, "an integer >= 3"),
                ("dt", self.dt is None or _finite(self.dt) and self.dt > 0,
                 "None or finite and > 0"),
                ("t_end", _finite(self.t_end) and self.t_end >= 0, "finite and >= 0"),
                ("output_every",
                 isinstance(self.output_every, numbers.Integral) and self.output_every >= 1,
                 "an integer >= 1"),
                ("amplitude_cap",
                 isinstance(self.amplitude_cap, numbers.Real) and self.amplitude_cap > 0,
                 "> 0")):
            if not ok:
                raise ValueError(f"EvolveConfig.{field} must be {want}, "
                                 f"got {getattr(self, field)!r}")


def _finite(v):
    return isinstance(v, numbers.Real) and math.isfinite(v)


def _three_finite_lists(rows):
    try:
        rows = [np.asarray(row, dtype=float) for row in rows]
    except (TypeError, ValueError):
        return False
    return len(rows) == 3 and all(row.ndim == 1 and np.isfinite(row).all() for row in rows)


@dataclass
class Trajectory:
    records: list
    states: list
    status: str  # "completed" | "amplitude_cap" | a numerics-error name
    message: str = ""

    @property
    def times(self):
        return np.array([r.t for r in self.records])


class Stepper:
    """Holds per-run constants, the lagged boundary Jacobian and the
    coefficients of the state its next step starts from."""

    def __init__(self, network: StationaryNetwork, domain: ImplicitDomain,
                 tensions: SurfaceTensions, config: EvolveConfig):
        self.network = network
        self.domain = domain
        self.tensions = tensions
        self.config = config
        n = config.n
        self.dt = (0.45 * float(np.min(network.lengths / n) ** 2) if config.dt is None
                   else config.dt)
        # step() solves (I - r D2) delta = dt F for all three branches in one
        # tridiagonal system on the flattened (3, n+1) grid, with the weights
        # r = c / J^2 and the per-branch constant c = dt / dsigma^2.  Its band
        # is _band_c / J^2, with _band_c = -c inside and 0 at the six end
        # columns, so the end rows are the identity and no row couples two
        # branches.
        self._c = self.dt / (network.lengths / n) ** 2
        self._band_c = np.repeat(-self._c[:, None], n + 1, axis=1)
        self._band_c[:, ::n] = 0.0
        self._diag = np.empty(3 * (n + 1))
        self._exits = domain.network_exits(network, n)
        # the boundary sweep's operator and maps, on per-run constants as
        # Python floats, and its lagged Jacobian
        self._bc = BoundaryOperator(network, self._exits, tensions.angles, n)
        self._sweep = _sweep_maps(self._bc, tensions)
        self._jac = LaggedJacobian()
        self._ahead = None  # (state, its coefficients) for the next step to read

    def enforce_bcs(self, rho):
        """Newton on the 5 boundary unknowns; returns (rho, mu) updated, with
        mu = Q rho(0) the 3-list of floats that the sweep's residual formed.

        The unknowns are c = b rho(0) in the constraint plane's basis b, with
        r0 = c b, and the three wall values; so sum_i gamma^i rho^i(0) = 0
        holds exactly throughout.  The iteration is domains.newton on the
        Stepper's BoundaryOperator, with its lagged exact Jacobian, started from
        the predicted unknowns u_pred (those of rho) plus 2 d_k - d_{k-1},
        the corrections d = u - u_pred of the last two sweeps extrapolated
        (d_k with one held, nothing with none).  A start whose exits leave
        the domain (NoIntersection, OffsetMissesBoundary) is dropped with
        its history, and the sweep runs again from u_pred.  A singular
        Jacobian, a stall or the iteration cap raises NewtonDiverged.
        """
        start, residual, accept, forget, jacobian = self._sweep
        warm, cold = start(self._bc.nodes(rho))
        try:
            try:
                u = newton(residual, jacobian, warm, self._jac)
            except (NoIntersection, OffsetMissesBoundary):
                if not forget():  # no history: the start was u_pred
                    raise
                u = newton(residual, jacobian, cold, self._jac)
        except SingularJacobian as e:
            raise NewtonDiverged(f"boundary sweep Jacobian singular: {e}") from e
        except NoConvergence as e:
            raise NewtonDiverged(
                f"boundary sweep stalled at residual {e.residual:.3e}" if e.stalled else
                f"boundary sweep did not reach {_NEWTON_TOL:.1e} (residual {e.residual:.3e})"
            ) from e
        r0, w, mu = accept(u)
        rho[:, 0] = r0
        rho[:, -1] = w
        return rho, mu

    # -- one time step -----------------------------------------------------

    def chart(self, state: GraphState):
        """Coefficients of `state`, with the exits of the Stepper's binding;
        step(state) reads them instead of evaluating them again."""
        coef = coefficients(self.network, self.domain, self.tensions, state, self._exits)
        self._ahead = (state, coef)
        return coef

    def step(self, state: GraphState) -> GraphState:
        if self._ahead is None or self._ahead[0] is not state:
            self.chart(state)
        coef = self._ahead[1]
        self._ahead = None
        dt = self.dt
        # the guard dt <= 0.5 min(dsigma^2 / a), a = 1/J^2, as max r <= 0.5 on
        # every node: per branch c / min J^2, which is max(c / J^2) bitwise
        r_max = float((self._c / coef.J2_min).max())
        if r_max > 0.5 * _CFL_SLACK:
            raise CflViolation(f"dt = {dt:.3e} exceeds guard {0.5 * dt / r_max:.3e}")

        # the band: -r inside, 0 on the end rows; the diagonal: 1 - 2 band
        band = np.divide(self._band_c, coef.J2).ravel()
        np.multiply(band, -2.0, out=self._diag)
        self._diag += 1.0
        # right-hand side dt F on every node: the end rows return it as the
        # explicit predictor's increment, bitwise
        rhs = coef.F * dt
        # dgtsv overwrites its bands, so f2py hands it copies of the views
        # dl = band[1:] and du = band[:-1]; the diagonal is rewritten each step
        *_, rho_new, info = dgtsv(band[1:], self._diag, band[:-1], rhs.ravel(),
                                  overwrite_d=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"step solve failed (dgtsv info {info})")
        rho_new = rho_new.reshape(rhs.shape)
        rho_new += state.rho
        rho_new, mu = self.enforce_bcs(rho_new)
        return GraphState(rho=rho_new, mu=np.array(mu), t=state.t + dt)


def _sweep_maps(bc, tensions):
    """The boundary sweep's maps in Python floats, on the constraint basis b
    and the junction matrix Q bound once per Stepper, and its start history.

    start(nodes) takes the nodes of rho that bc.nodes fetches and holds them
    for residual; it returns the warm start u_pred + s and the predicted
    unknowns u_pred = (b rho(0), rho(l)).  residual(u) gives the junction
    and wall residuals of bc, the BoundaryOperator, at u with the held
    nodes' interior frozen, r0 = c b and mu = Q r0.  accept(u) gives the
    accepted root's r0, wall values and mu as 3-lists, bitwise those its
    residual formed, holds d = u - u_pred and sets the next shift
    s = 2 d - d_prev (d when no d_prev is held).  forget() drops the
    history, so the next start is u_pred, and says whether there was one.
    jacobian(u) gives bc.jacobian at u, the exact Jacobian of residual, in
    which c_k moves r0 by the basis row b_k and mu by Q b_k."""
    (x0, x1, x2), (y0, y1, y2) = tensions.basis.tolist()
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = tensions.q.tolist()
    held = pred = last = None  # the swept rho's nodes, its u_pred, the last d
    shift = 0.0, 0.0, 0.0, 0.0, 0.0  # the next start's shift

    def start(nodes):
        nonlocal held, pred
        held = nodes
        (r1, _, _, _, _, w1), (r2, _, _, _, _, w2), (r3, _, _, _, _, w3) = nodes
        c0 = x0 * r1 + x1 * r2 + x2 * r3
        c1 = y0 * r1 + y1 * r2 + y2 * r3
        s0, s1, s2, s3, s4 = shift
        pred = [c0, c1, w1, w2, w3]
        return [c0 + s0, c1 + s1, w1 + s2, w2 + s3, w3 + s4], pred

    def residual(u):
        c0, c1 = u[0], u[1]
        r1, r2, r3 = r0 = [c0 * x0 + c1 * y0, c0 * x1 + c1 * y1, c0 * x2 + c1 * y2]
        return bc(held, r0, u[2:], [q00 * r1 + q01 * r2 + q02 * r3,
                                    q10 * r1 + q11 * r2 + q12 * r3,
                                    q20 * r1 + q21 * r2 + q22 * r3])

    def accept(u):
        nonlocal shift, last
        c0, c1, w1, w2, w3 = u
        p0, p1, p2, p3, p4 = pred
        d = d0, d1, d2, d3, d4 = c0 - p0, c1 - p1, w1 - p2, w2 - p3, w3 - p4
        e0, e1, e2, e3, e4 = last or d
        shift = d0 + d0 - e0, d1 + d1 - e1, d2 + d2 - e2, d3 + d3 - e3, d4 + d4 - e4
        last = d
        r1, r2, r3 = r0 = [c0 * x0 + c1 * y0, c0 * x1 + c1 * y1, c0 * x2 + c1 * y2]
        return r0, [w1, w2, w3], [q00 * r1 + q01 * r2 + q02 * r3,
                                  q10 * r1 + q11 * r2 + q12 * r3,
                                  q20 * r1 + q21 * r2 + q22 * r3]

    def forget():
        nonlocal shift, last
        had, last = last is not None, None
        shift = 0.0, 0.0, 0.0, 0.0, 0.0
        return had

    # along c_k, r0 moves by the basis row b_k and mu by Q b_k
    planes = [(b.tolist(), (tensions.q @ b).tolist()) for b in tensions.basis]

    def jacobian(u):
        c0, c1 = u[0], u[1]
        r0 = [c0 * x + c1 * y for x, y in zip(planes[0][0], planes[1][0])]
        mu = [c0 * x + c1 * y for x, y in zip(planes[0][1], planes[1][1])]
        return bc.jacobian(held, r0, u[2:], mu, planes)

    return start, residual, accept, forget, jacobian


def initial_state(network, domain, tensions, config: EvolveConfig,
                  kind: str = "cosine", amplitude: float = 0.01,
                  cosine_coefficients=None, eigenfunction=None) -> GraphState:
    """Compatible initial data from a perturbation recipe.

    kind="cosine": rho^i(sigma) = amplitude * sum_k c^i_k cos(k pi sigma/l_i)
    with per-branch coefficient lists (default: the first mode on every
    branch).  kind="eigenmode": amplitude * phi/||phi||_inf for a supplied
    or freshly computed eigenfunction of the linearized problem.

    The junction triple is projected exactly onto the weighted constraint
    plane and the boundary values are Newton-corrected until the nonlinear
    junction and wall conditions hold to 1e-10.  A non-finite amplitude,
    coefficients other than three lists of finite numbers and an
    eigenfunction that is non-finite or identically zero raise ValueError
    before any work.
    """
    if not _finite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    n = config.n
    sigma = network.sigma_grid(n)
    if kind == "cosine":
        if cosine_coefficients is None:
            cosine_coefficients = [[0.0, 1.0]] * 3
        elif not _three_finite_lists(cosine_coefficients):
            raise ValueError("cosine_coefficients must be three lists of finite numbers, "
                             f"got {cosine_coefficients!r}")
        rho = np.zeros((3, n + 1))
        for i in range(3):
            for k, ck in enumerate(cosine_coefficients[i]):
                rho[i] += ck * np.cos(k * np.pi * sigma[i] / network.lengths[i])
        rho *= amplitude
    elif kind == "eigenmode":
        if eigenfunction is None:
            from .stability import max_eigenvalue

            eigenfunction = max_eigenvalue(network, tensions, n).eigenfunction
        phi = np.asarray(eigenfunction, dtype=float)
        if phi.shape != (3, n + 1):
            raise ValueError(f"eigenfunction shape {phi.shape} != (3, {n + 1})")
        scale = np.max(np.abs(phi))  # NaN or inf if any entry is
        if not 0.0 < scale < math.inf:
            raise ValueError("eigenfunction must be finite and not identically zero")
        rho = amplitude * phi / scale
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")

    state = state_from_rho(network, tensions, rho, t=0.0)
    stepper = Stepper(network, domain, tensions, config)
    try:
        rho, mu = stepper.enforce_bcs(state.rho)
    except NewtonDiverged as e:
        raise CompatibilityFailed(str(e)) from e
    state = GraphState(rho=rho, mu=np.array(mu), t=0.0)
    # fail early if the state starts outside the admissible region
    coefficients(network, domain, tensions, state, stepper._exits)
    return state


_ABORTING = (MatrixMNotInvertible, DegenerateMetric, CflViolation,
             NewtonDiverged, OffsetMissesBoundary, NoIntersection, NonFiniteState)


_RECORD_BATCH = 8  # pending records that run evaluates together


def run(network, domain, tensions, init: GraphState, config: EvolveConfig) -> Trajectory:
    """Integrate to t_end, recording diagnostics every output_every steps.

    The run never blows up silently: leaving the admissible neighbourhood
    (det M floor, metric collapse, step-size guard, failed sweep, an offset
    line that misses the wall, a non-finite state) or hitting the amplitude
    cap ends the trajectory with that status.  A state whose chart fails
    past the det M floor is recorded on the plain chart; one whose chart
    fails otherwise is not recorded, and its status replaces amplitude_cap.

    Records are evaluated in batches of 8 by records_from_states, and once
    more at the end.  A pending record keeps the state copy that the
    trajectory stores and the coefficients that the Stepper charted for it,
    whose exit jet gives the record its wall terms: a record given its
    chart makes no domain call.  The error of a plain chart (a
    DegenerateMetric, say) is raised when its batch is evaluated, at most 7
    records later, with the same type and message as a lone record's.
    """
    from .diagnostics import records_from_states

    stepper = Stepper(network, domain, tensions, config)
    records, states, charts = [], [], []

    def evaluate_pending():
        records.extend(records_from_states(network, domain, tensions, states[len(records):],
                                           charts))
        charts.clear()

    def record(state):
        # the record reads the chart that the next step starts from; past
        # the det M floor it takes the plain chart, and that step aborts.
        # Any other chart error ends the run with the state unrecorded.
        try:
            charts.append(stepper.chart(state))
        except MatrixMNotInvertible:
            charts.append(None)
        states.append(state.copy())
        if len(charts) == _RECORD_BATCH:
            evaluate_pending()

    state = init
    status, message = "completed", ""
    n_steps = int(round(config.t_end / stepper.dt))
    try:
        record(state)
        for k in range(1, n_steps + 1):
            state = stepper.step(state)
            if np.abs(state.rho).max() > config.amplitude_cap:
                status = "amplitude_cap"
                message = f"max |rho| exceeded {config.amplitude_cap} at t = {state.t:.6g}"
                record(state)
                break
            if k % config.output_every == 0 or k == n_steps:
                record(state)
    except _ABORTING as exc:
        # a batch whose record raised is evaluated again below and raises
        status, message = type(exc).__name__, str(exc)
    evaluate_pending()
    return Trajectory(records=records, states=states, status=status, message=message)


def junction_kinematics(network, domain, state0: GraphState, state1: GraphState):
    """(V, v): normal/tangential junction velocities from consecutive states.

    The junction displacement rate is resolved against the current unit
    frames of each branch at sigma = 0, so v should reproduce Q V and the
    weighted tangential sum should vanish, both up to O(dt + dsigma).
    """
    dt = state1.t - state0.t
    if dt <= 0:
        raise ValueError("states must be time ordered")

    dp = (junction_point(network, state1) - junction_point(network, state0)) / dt
    rho = state0.rho
    rs0 = end_slope(rho[:, 0], rho[:, 1], rho[:, 2], 2.0 * network.lengths / state0.n)
    _, d_sigma, d_q = psi_first_jet(network, domain, np.zeros((3, 1)), rho[:, :1],
                                    state0.mu[:, None])
    phi_s = d_sigma[:, 0] + rs0[:, None] * d_q[:, 0]
    J = np.linalg.norm(phi_s, axis=1)
    T = phi_s / J[:, None]
    N = np.stack([-T[:, 1], T[:, 0]], axis=1)
    V = N @ dp
    v = T @ dp
    return V, v
