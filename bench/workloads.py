"""The four benchmark workloads.

Each workload has a `setup(seed, quick)` that builds its inputs and an
`op(state, span)` that performs one timed operation and checks its output.
Operations within a run use identical inputs, so their fingerprints (final
E, ||kappa||^2, lambda_max, fitted rate, as exact floats) must agree
bitwise; a change that moves a fingerprint changes behaviour.  `quick`
selects the minimal length used by `run.py --self-check`.

Why these workloads, and which layer metric should move which end-to-end
metric (everything not named should stay put):

disk_n200
    Unit disk, gamma = (1, 1, 1), eigenmode start (n = 200 spectrum,
    amplitude 1e-2), dt = 0.45 / n^2, output every 100 steps.  The
    fine-grid trajectory of the acceptance energy-law and rate runs.
    `coefficients` and the stepper do almost all the work, `domains` uses
    the closed-form conic exit and diagnostics is a few percent.
    Seed-independent.
dents_escape_n48
    Two-dents polynomial domain, n = 48, unstable eigenmode started in the
    nonlinear range and integrated until the run stops at the amplitude
    cap.  Same stepper, but the generic Newton `line_exit` runs about three
    times per step and `enforce_bcs` iterates more; per-step Python
    overhead dominates.  Seed-independent.
spectrum_batch
    A seeded batch of admissible (l, h, gamma) networks: `max_eigenvalue`
    at n = 400 and `stability_criterion` on each, `find_stationary` on the
    disk, the 1.2 x 1.0 ellipse, the trefoil and the two-dents domain, and
    the symmetric disk spectrum against w^2 (w tanh w = 1).  `stability`
    and `steady` do all the work, the stepper none: a stepper optimisation
    must predict "no change" here.
cli_pipeline
    `trijunction.cli.main` in-process: steady, spectrum, evolve (n = 64,
    output every step) and verify, on a 1.2 x 1.0 ellipse with the default
    cosine perturbation, its coefficients jittered by the seed.
    `record_from_state` runs every step, joined by CSV write/read and
    config parsing.  The only workload covering the ellipse, cosine data
    and the CLI.  `verify` exits 3 on this data (the
    t = 0 record violates the identities); that exit is counted as a
    failed operation, not hidden.

Layer metric (traced run)                         moves solve_s on
  evolution.step.*                                disk_n200, dents_escape_n48; not spectrum_batch
  parameterization.coefficients.*                 disk_n200 most, dents_escape_n48 less
  evolution.enforce_bcs.*                         dents_escape_n48 most, disk_n200 less
  evolution.solve_banded.us_p50                   disk_n200; ~nothing at n = 48
  domains.line_exit.*, domains.psi_grad_hess      dents_escape_n48; no change on disk_n200
  diagnostics.*, domains.boundary_curvature       cli_pipeline (dominant); ~4 % of disk_n200
  stability.*                                     spectrum_batch; setup_s of the evolve workloads
  steady.*                                        setup_s everywhere; spectrum_batch
  storage.*, config.*, cli.*                      cli_pipeline only
  tensions.junction_matrix.calls                  cli_pipeline
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trijunction import cli, diagnostics, evolution, parameterization, stability, steady, storage
from trijunction.domains import (
    CircleDomain,
    EllipseDomain,
    PolynomialDomain,
    disk_terms,
    poly_product,
    poly_scale,
)
from trijunction.tensions import SurfaceTensions, tangent_frames, young_angles

UNIT_TENSIONS = (1.0, 1.0, 1.0)


@dataclass
class OpResult:
    attempted: int
    failed: int = 0
    gates: dict = field(default_factory=dict)  # gate name -> passed
    figures: dict = field(default_factory=dict)  # accuracy figures
    fingerprints: dict = field(default_factory=dict)  # must repeat bitwise
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# domains (rebuilt from the test fixtures so the benchmark stands alone)


def trefoil_domain(depth=0.8, confine=0.2):
    """Disk with three symmetric dents; its symmetric fork is stable."""
    return PolynomialDomain(
        [
            (2, 0, 1.0), (0, 2, 1.0), (0, 0, -1.0),
            (3, 0, depth), (1, 2, -3.0 * depth),
            (4, 0, confine), (2, 2, 2.0 * confine), (0, 4, confine),
        ],
        bounding_box=(-2.2, 2.2, -2.2, 2.2),
    )


def two_dents_domain(r_outer=1.0, center_dist=1.15, r_dent=0.4):
    """Unit disk with two excluded disks at +-120 degrees; unstable fork."""
    c2 = center_dist * np.array([-0.5, np.sqrt(3.0) / 2.0])
    c3 = center_dist * np.array([-0.5, -np.sqrt(3.0) / 2.0])
    outer = poly_scale(disk_terms(r_outer), -1.0)
    terms = poly_scale(
        poly_product(outer, disk_terms(r_dent, c2), disk_terms(r_dent, c3)), -1.0
    )
    return PolynomialDomain(terms, bounding_box=(-1.3, 1.3, -1.3, 1.3))


def synthetic_network(lengths, h, tensions):
    """Straight fork with prescribed lengths and wall curvatures."""
    tangents, normals = tangent_frames(young_angles(tensions), 0.0)
    return parameterization.StationaryNetwork(
        p_star=np.zeros(2), tangents=tangents, normals=normals,
        lengths=np.asarray(lengths, dtype=float), h_star=np.asarray(h, dtype=float),
        endpoints=None,
    )


def random_tensions(rng):
    """Admissible tension triple by rejection sampling."""
    while True:
        g = rng.uniform(0.5, 2.0, 3)
        if all(g[k] < g[(k + 1) % 3] + g[(k + 2) % 3] for k in range(3)):
            return SurfaceTensions(tuple(g))


def disk_lambda_exact():
    """w^2 with w tanh w = 1: lambda_max of the symmetric unit-disk fork."""
    w = 1.2
    for _ in range(50):
        step = (w * math.tanh(w) - 1.0) / (math.tanh(w) + w / math.cosh(w) ** 2)
        w -= step
        if abs(step) < 1e-16:
            break
    return w * w


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:16]


def _late_energy_law(records):
    """max |dE/dt + ||kappa||^2| over records after 10 % of the run."""
    tt, res = diagnostics.energy_law_residual(records)
    return float(res[tt > 0.1 * records[-1].t].max())


class Workload:
    name = ""
    accuracy = ""  # the figure reported as accuracy_err

    def teardown(self, state):
        pass


# ---------------------------------------------------------------------------
# trajectory workloads


@dataclass
class TrajectoryState:
    domain: object
    tensions: SurfaceTensions
    network: object
    spectrum: object
    config: object
    init: object


def _setup_trajectory(domain, guess_p, n, dt, t_end, amplitude, amplitude_cap):
    tensions = SurfaceTensions(UNIT_TENSIONS)
    network = steady.find_stationary(domain, tensions, steady.SteadyGuess(p=guess_p, gauge=0.0))
    spec = stability.max_eigenvalue(network, tensions, n)
    config = evolution.EvolveConfig(dt=dt, t_end=t_end, n=n, output_every=100,
                                    amplitude_cap=amplitude_cap)
    init = evolution.initial_state(network, domain, tensions, config, kind="eigenmode",
                                   amplitude=amplitude, eigenfunction=spec.eigenfunction)
    return TrajectoryState(domain, tensions, network, spec, config, init)


def _trajectory_op(st: TrajectoryState):
    traj = evolution.run(st.network, st.domain, st.tensions, st.init, st.config)
    k2 = np.array([r.kappa_l2_sq for r in traj.records])
    E = np.array([r.E for r in traj.records])
    rate, _, _ = diagnostics.decay_fit(traj.times, k2, window=0.5)
    target = 2.0 * st.spectrum.lambda_max
    res = OpResult(attempted=1)
    res.figures = {
        "rate_rel_err": abs(rate - target) / abs(target),
        "energy_law_res": _late_energy_law(traj.records),
        "max_dE": float(np.diff(E).max()),
    }
    res.fingerprints = {
        "final_E": float(E[-1]),
        "final_kappa_l2_sq": float(k2[-1]),
        "lambda_max": float(st.spectrum.lambda_max),
        "fitted_rate": float(rate),
        "steps": float(round(traj.records[-1].t / st.config.dt)),
    }
    res.notes.append(f"status {traj.status}, {len(traj.records)} records, "
                     f"final t {traj.records[-1].t:.6g}")
    return res, traj


class DiskN200(Workload):
    name = "disk_n200"
    accuracy = "rate_rel_err"
    N = 200

    def setup(self, seed, quick, workdir):
        # lengths are 1, so dsigma = 1/n; t_end 0.01 is 889 steps
        return _setup_trajectory(CircleDomain(1.0), (0.05, 0.03), self.N,
                                 dt=0.45 / self.N**2, t_end=0.004 if quick else 0.01,
                                 amplitude=1e-2, amplitude_cap=0.25)

    def op(self, st, span):
        res, traj = _trajectory_op(st)
        res.gates = {
            "status completed": traj.status == "completed",
            "E monotone (max dE <= 1e-12)": res.figures["max_dE"] <= 1e-12,
            "rate_rel_err < 0.10": res.figures["rate_rel_err"] < 0.10,
        }
        res.failed = int(not all(res.gates.values()))
        return res


class DentsEscapeN48(Workload):
    name = "dents_escape_n48"
    accuracy = "rate_rel_err"
    N = 48

    def setup(self, seed, quick, workdir):
        # Started at 7.2 % of the unit length, the mode leaves the linear
        # range at once; the cap stays below the amplitude (~0.1) at which
        # the fixed dt meets the step-size guard.  About 850 steps.
        domain = two_dents_domain()
        lengths_min = 0.75  # closed form: d - r_dent
        return _setup_trajectory(domain, (0.03, 0.02), self.N,
                                 dt=0.45 * (lengths_min / self.N) ** 2, t_end=10.0,
                                 amplitude=0.077 if quick else 0.072, amplitude_cap=0.08)

    def op(self, st, span):
        res, traj = _trajectory_op(st)
        verdict = stability.stability_criterion(st.network.lengths, st.network.h_star,
                                                st.tensions)
        res.gates = {
            "status amplitude_cap": traj.status == "amplitude_cap",
            "criterion verdict Unstable": verdict.verdict == "Unstable",
        }
        res.failed = int(not all(res.gates.values()))
        return res


# ---------------------------------------------------------------------------
# spectrum batch


@dataclass
class SpectrumState:
    batch: list  # (network, tensions)
    domains: list  # (domain, guess p)
    symmetric: object
    lambda_exact: float


class SpectrumBatch(Workload):
    name = "spectrum_batch"
    accuracy = "lambda_err"
    N = 400

    def setup(self, seed, quick, workdir):
        rng = np.random.default_rng(seed)
        batch = []
        for _ in range(6 if quick else 50):
            t = random_tensions(rng)
            l = rng.uniform(0.5, 2.0, 3)
            h = rng.uniform(-0.8, 2.0, 3)
            if np.sum(h <= 0) > 1:  # at most one non-positive wall curvature
                k = rng.integers(0, 3)
                h = np.abs(h)
                h[k] = rng.uniform(-0.8, 0.0)
            batch.append((synthetic_network(l, h, t), t))
        domains = [
            (CircleDomain(1.0), (0.05, 0.03)),
            (EllipseDomain(1.2, 1.0), (0.1, 0.0)),
            (trefoil_domain(), (0.02, 0.01)),
            (two_dents_domain(), (0.03, 0.02)),
        ]
        unit = SurfaceTensions(UNIT_TENSIONS)
        symmetric = (synthetic_network((1.0, 1.0, 1.0), (-1.0, -1.0, -1.0), unit), unit)
        return SpectrumState(batch, domains, symmetric, disk_lambda_exact())

    def op(self, st, span):
        res = OpResult(attempted=0)
        lams, mismatches, skipped = [], 0, 0
        for net, t in st.batch:
            res.attempted += 1
            try:
                lam = stability.max_eigenvalue(net, t, self.N).lambda_max
                verdict = stability.stability_criterion(net.lengths, net.h_star, t).verdict
            except Exception as exc:  # counted, reported, and the gate fails
                res.failed += 1
                res.notes.append(f"spectrum failed: {exc!r}")
                continue
            lams.append(lam)
            if abs(lam) < 1e-4 or verdict == "Marginal":
                skipped += 1
            elif (lam < 0) != (verdict == "Stable"):
                mismatches += 1
        steady_res = 0.0
        for domain, guess in st.domains:
            res.attempted += 1
            try:
                net = steady.find_stationary(domain, SurfaceTensions(UNIT_TENSIONS),
                                             steady.SteadyGuess(p=guess, gauge=0.0))
            except Exception as exc:
                res.failed += 1
                res.notes.append(f"find_stationary failed: {exc!r}")
                continue
            r = parameterization.network_residuals(net, domain, SurfaceTensions(UNIT_TENSIONS))
            steady_res = max(steady_res, r["perpendicular"], r["on_boundary"], r["angles"])
        net, t = st.symmetric
        res.attempted += 2
        lam400 = stability.max_eigenvalue(net, t, self.N).lambda_max
        lam800 = stability.max_eigenvalue(net, t, 2 * self.N).lambda_max
        res.figures = {
            "lambda_err": abs(lam400 - st.lambda_exact),
            "lambda_err_n800": abs(lam800 - st.lambda_exact),
            "sign_mismatches": float(mismatches),
            "skipped_marginal": float(skipped),
            "steady_residual": steady_res,
        }
        # The n = 400 error is the discretization error (second order,
        # 1.08e-6); the 1e-6 oracle tolerance is applied at n = 800, as the
        # acceptance suite does.
        res.gates = {
            "no spectrum failures": res.failed == 0,
            "zero sign mismatches outside the marginal band": mismatches == 0,
            "|lambda(n=800) - w^2| < 1e-6": res.figures["lambda_err_n800"] < 1e-6,
            "steady networks satisfy invariants (< 1e-8)": steady_res < 1e-8,
        }
        res.fingerprints = {
            "lambda_max": lam400,
            "lambda_batch_sha": _digest(lams),
        }
        res.notes.append(f"{len(st.batch)} networks, {skipped} near-marginal skipped")
        return res


# ---------------------------------------------------------------------------
# CLI pipeline

_CLI_CONFIG = """\
domain.type = ellipse
domain.semi_axes = 1.2, 1.0
tensions = 1.0, 1.0, 1.0
n = 64
t_end = {t_end!r}
output_every = 1
gauge = 0.0
guess.p = 0.1, 0.0
perturbation.type = cosine
perturbation.amplitude = 0.01
perturbation.coefficients.1 = {c[0]}
perturbation.coefficients.2 = {c[1]}
perturbation.coefficients.3 = {c[2]}
output = {out}
"""

# documented exit codes: 0 success, 3 verification failure
_EXPECTED_EXIT = {"steady": {0}, "spectrum": {0}, "evolve": {0}, "verify": {0, 3}}


@dataclass
class CliState:
    workdir: Path
    commands: list  # (name, argv)
    csv: Path


class CliPipeline(Workload):
    name = "cli_pipeline"
    accuracy = "energy_law_res"

    def setup(self, seed, quick, workdir):
        d = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        # The default first cosine mode on every branch, its weight and a
        # second mode jittered by 1 % from the seed: at 2 % the accuracy
        # figure already spreads 5 % across seeds, half its bound.
        jitter = 0.01 * np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 2))
        coefs = [f"0.0, {1.0 + a!r}, {b!r}" for a, b in jitter.tolist()]
        csv = d / "trajectory.csv"
        cfg = d / "run.cfg"
        cfg.write_text(_CLI_CONFIG.format(t_end=0.003 if quick else 0.03, c=coefs, out=str(csv)),
                       encoding="utf-8")
        commands = [
            ("steady", ["steady", str(cfg), "--out", str(d / "network.txt")]),
            ("spectrum", ["spectrum", str(cfg), "--out", str(d / "eigenfunction.csv")]),
            ("evolve", ["evolve", str(cfg)]),
            ("verify", ["verify", str(csv)]),
        ]
        return CliState(d, commands, csv)

    def op(self, st, span):
        res = OpResult(attempted=0)
        codes, out = {}, {}
        for name, argv in st.commands:
            res.attempted += 1
            buf = io.StringIO()
            with span(f"cli.{name}"), contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                try:
                    codes[name] = cli.main(argv)
                except Exception as exc:  # an uncaught error is a failed command
                    codes[name] = repr(exc)
            out[name] = buf.getvalue()
            if codes[name] != 0:
                res.failed += 1
                res.notes.append(f"{name} exit {codes[name]}: "
                                 + " | ".join(out[name].strip().splitlines()[-4:]))
        rows = storage.read_trajectory(st.csv)
        copy = st.csv.with_name("roundtrip.csv")
        storage.write_trajectory(rows, copy)
        roundtrip = (copy.read_bytes() == st.csv.read_bytes()
                     and storage.read_trajectory(copy) == rows)
        k2 = np.array([r.kappa_l2_sq for r in rows])
        rate, _, _ = diagnostics.decay_fit(np.array([r.t for r in rows]), k2, window=0.5)
        lam_line = [ln for ln in out["spectrum"].splitlines() if ln.startswith("lambda_max")]
        res.figures = {"energy_law_res": _late_energy_law(rows)}
        res.gates = {
            f"{name} exit code documented": codes[name] in _EXPECTED_EXIT[name]
            for name, _ in st.commands
        }
        res.gates["CSV round-trips bitwise"] = roundtrip
        res.fingerprints = {
            "final_E": rows[-1].E,
            "final_kappa_l2_sq": rows[-1].kappa_l2_sq,
            "lambda_max": lam_line[0].split("=")[1].split()[0] if lam_line else "missing",
            "fitted_rate": rate,
            "records": float(len(rows)),
        }
        return res

    def teardown(self, st):
        shutil.rmtree(st.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DiskN200(), DentsEscapeN48(), SpectrumBatch(), CliPipeline())}
