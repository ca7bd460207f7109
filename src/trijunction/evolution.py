"""Time integration of the junction flow on the fixed sigma grids.

One step is linearly implicit: the stiff local diffusion a^i rho_ss is
advanced implicitly (one tridiagonal solve per branch), while the nonlocal
junction coupling Lambda^i mu_t, whose mu_t carries the junction traces
of rho_ss, and all lower-order content, i.e. the difference
L kappa + Lambda mu_t - a rho_ss evaluated at the current state, is
explicit.  A Newton sweep on the six boundary nodal values then re-enforces
the junction conditions (weighted sum exactly, the two angle residuals to
tolerance) and the three perpendicularity conditions, with interior nodes
frozen.  It works in the constraint plane's basis: its unknowns are the
junction triple's two coordinates in the weighted constraint plane and the
three wall values.  mu is slaved to rho(0) through the junction matrix after
every sweep so the stick condition cannot drift.  The sweep runs
domains.newton, the package's one damped Newton, in Python floats with a
lagged Jacobian that the Stepper holds and inverts once per refresh: each
residual evaluation makes one call of the domain's end_exits callable for
the six branch ends, whose jet also gives the wall normals, because numpy's
per-call dispatch would cost more than the few hundred flops on 5-entry
vectors.  On a conic domain the exits themselves are Python floats too; on
a polynomial domain they are one call of the line-polynomial kernel, with
the six lines' stacks bound once per Stepper.
Where the domain's exit reads its start (exit_reads_start), the step's exit
searches start from a second-order prediction off the last chart's exit
jet, mu_b + dq (mu_b' + mu_b'' dq / 2) with dq the change of rho since that
chart, so that a polynomial exit is mostly accepted at its first evaluation;
a conic's closed form needs no start, and none is predicted.

The explicit remainder carries second-derivative traces, so the classic
diffusive guard dt <= 0.5 dsigma^2 / max(a) is enforced even though the
principal part is implicit.
"""

from __future__ import annotations

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
    sigma_grids,
    state_from_rho,
)
from .tensions import SurfaceTensions

_CFL_SLACK = 1.0 + 1e-9


@dataclass
class EvolveConfig:
    t_end: float
    dt: float | None = None  # None: 0.45 dsigma_min^2, resolved by each Stepper
    n: int = 100
    output_every: int = 50
    amplitude_cap: float = 0.25


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
        # banded matrix of the interior solve in solve_banded's layout (rows:
        # super-, main and subdiagonal): the entries that decouple the branch
        # blocks stay zero, and step() rewrites the rest through the (3, n-1)
        # views
        m = n - 1
        self._ab = np.zeros((3, 3 * m))
        self._upper, self._diag, self._lower = (row.reshape(3, m) for row in self._ab)
        # the boundary sweep's per-run constants as Python floats
        self._bc = BoundaryOperator(network, domain, tensions.angles, n)
        self._basis = tensions.basis.tolist()
        self._q = tensions.q.tolist()
        self._jac = LaggedJacobian()  # the boundary sweep's
        self._last = None  # (rho, chart) that the next chart predicts its exits from
        self._ahead = None  # (state, its coefficients) for the next step to read

    def enforce_bcs(self, rho):
        """Newton on the 5 boundary unknowns; returns (rho, r0) updated.

        The unknowns are c = b rho(0) in the constraint plane's basis b, with
        r0 = c b, and the three wall values; so sum_i gamma^i rho^i(0) = 0
        holds exactly throughout.  Where the domain's exit reads its start,
        the six exits are predicted from the last chart's jet (the
        reference lengths before the first chart).
        The iteration is domains.newton on the Stepper's BoundaryOperator,
        with its lagged Jacobian; a singular Jacobian, a stall or the
        iteration cap raises NewtonDiverged.
        """
        bc, (b0, b1), q = self._bc, self._basis, self._q
        inner = bc.inner(rho)

        def unpack(u):
            c0, c1 = u[0], u[1]
            return [c0 * x + c1 * y for x, y in zip(b0, b1)], u[2:]

        def residual(u):
            # junction angle + outer perpendicularity residuals, interior frozen
            r0, w = unpack(u)
            mu = [qa * r0[0] + qb * r0[1] + qc * r0[2] for qa, qb, qc in q]
            return bc(inner, r0, w, mu)

        u = (self.tensions.basis @ rho[:, 0]).tolist() + rho[:, -1].tolist()
        try:
            u = newton(residual, u, self._jac)
        except SingularJacobian as e:
            raise NewtonDiverged(f"boundary sweep Jacobian singular: {e}") from e
        except NoConvergence as e:
            raise NewtonDiverged(
                f"boundary sweep stalled at residual {e.residual:.3e}" if e.stalled else
                f"boundary sweep did not reach {_NEWTON_TOL:.1e} (residual {e.residual:.3e})"
            ) from e
        r0_new, w_new = unpack(u)
        rho[:, 0] = r0_new
        rho[:, -1] = w_new
        return rho, np.array(r0_new)

    # -- one time step -----------------------------------------------------

    def chart(self, state: GraphState):
        """Coefficients of `state`; step(state) reads them instead of
        evaluating them again.  Its exits start from the last chart's jet
        and the change of rho since (the first chart cold-starts), and the
        boundary sweep predicts its exits from its jet in turn; on a domain
        whose exit does not read its start, neither predicts."""
        guess = None
        if self._last is not None:
            rho, geo = self._last
            dq = state.rho - rho
            guess = geo.mu_b + dq * (geo.dmu_b + 0.5 * geo.ddmu_b * dq)
        coef = coefficients(self.network, self.domain, self.tensions, state,
                            mu_b_guess=guess)
        if self.domain.exit_reads_start:
            self._last = (state.rho.copy(), coef)
        self._bc.anchor(state.rho, coef)
        self._ahead = (state, coef)
        return coef

    def step(self, state: GraphState) -> GraphState:
        if self._ahead is None or self._ahead[0] is not state:
            self.chart(state)
        coef = self._ahead[1]
        self._ahead = None
        a = coef.a
        d2 = sigma_grids(self.config.n, tuple(self.network.lengths.tolist()))[2]  # dsigma^2
        # min over branches of dsigma^2 / max a, as one division and one min
        guard = 0.5 * float((d2 / a).min())
        dt = self.dt
        if dt > guard * _CFL_SLACK:
            raise CflViolation(f"dt = {dt:.3e} exceeds guard {guard:.3e}")

        rhs = coef.L * coef.kappa + coef.Lam * coef.mu_t[:, None]
        expl = rhs - a * coef.rho_ss

        rho = state.rho

        # explicit predictor for the boundary nodes
        b0 = rho[:, 0] + dt * rhs[:, 0]
        bn = rho[:, -1] + dt * rhs[:, -1]

        # batched tridiagonal solve for the interior nodes of all branches;
        # row i of the banded matrix couples node j to j-1 and j+1 of the
        # same branch only
        r = dt * a[:, 1:-1] / d2[:, 1:-1]  # (3, n-1)
        rhs_int = rho[:, 1:-1] + dt * expl[:, 1:-1]
        rhs_int[:, 0] += r[:, 0] * b0
        rhs_int[:, -1] += r[:, -1] * bn
        np.negative(r[:, :-1], out=self._upper[:, 1:])
        np.multiply(2.0, r, out=self._diag)
        self._diag += 1.0
        np.negative(r[:, 1:], out=self._lower[:, :-1])
        # LAPACK's tridiagonal solver, as solve_banded((1, 1), ...) calls it
        ab = self._ab
        *_, sol, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs_int.ravel(),
                              overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"interior solve failed (dgtsv info {info})")

        rho_new = np.empty_like(rho)
        rho_new[:, 1:-1] = sol.reshape(r.shape)
        rho_new[:, 0] = b0
        rho_new[:, -1] = bn
        rho_new, r0 = self.enforce_bcs(rho_new)
        return GraphState(rho=rho_new, mu=self.tensions.q @ r0, t=state.t + dt)


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
    junction and wall conditions hold to 1e-10.
    """
    n = config.n
    sigma = network.sigma_grid(n)
    if kind == "cosine":
        if cosine_coefficients is None:
            cosine_coefficients = [[0.0, 1.0]] * 3
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
        rho = amplitude * phi / np.max(np.abs(phi))
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")

    state = state_from_rho(network, tensions, rho, t=0.0)
    stepper = Stepper(network, domain, tensions, config)
    try:
        rho, r0 = stepper.enforce_bcs(state.rho)
    except NewtonDiverged as e:
        raise CompatibilityFailed(str(e)) from e
    state = GraphState(rho=rho, mu=tensions.q @ r0, t=0.0)
    # fail early if the state starts outside the admissible region
    coefficients(network, domain, tensions, state)
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
    trajectory stores and the slices of the chart that it reads
    (RecordChart), never the whole coefficients.  A record error
    (SingularGradient, NotOnBoundary, or a plain chart's DegenerateMetric)
    is raised when its batch is evaluated, at most 7 records later, with
    the same type and message as a lone record's.
    """
    from .diagnostics import RecordChart, records_from_states

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
            charts.append(RecordChart.of(stepper.chart(state)))
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
    _, d_sigma, d_q = psi_first_jet(network, domain, np.arange(3), np.zeros((3, 1)),
                                    rho[:, :1], state0.mu[:, None])
    phi_s = d_sigma[:, 0] + rs0[:, None] * d_q[:, 0]
    J = np.linalg.norm(phi_s, axis=1)
    T = phi_s / J[:, None]
    N = np.stack([-T[:, 1], T[:, 0]], axis=1)
    V = N @ dp
    v = T @ dp
    return V, v
