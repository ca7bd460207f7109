"""Command-line front end.

Subcommands: steady, spectrum, evolve, verify, sweep.  Exit codes: 0 on
success, 1 for config/validation problems, 2 for numerical failures (the
typed status is printed), 3 when `verify` finds a violated identity.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, evolution, stability, steady, storage
from .config import RunConfig, parse_config
from .errors import IoError, ParseError, TriJunctionError, ValidationError
from .parameterization import network_residuals

_NETWORK_TOL = 1e-8  # invariant bound a reused network file must meet


def _config_text(path) -> str:
    """Text of a config file; one that cannot be read is a config error."""
    try:
        return storage.read_text(path)
    except IoError as exc:
        raise ValidationError("config", str(exc)) from exc


def _problem(cfg: RunConfig, solve=False):
    """(domain, tensions, network) of a config; the network is solved for
    unless the config names a network file, which must fit the config."""
    domain = cfg.make_domain()
    tensions = cfg.make_tensions()
    if solve or cfg.network is None:
        guess = steady.SteadyGuess(p=cfg.guess_p, phi=cfg.guess_phi, gauge=cfg.gauge)
        return domain, tensions, steady.find_stationary(domain, tensions, guess)
    try:
        network = storage.read_network(cfg.network)
    except IoError as exc:
        raise ValidationError("network", str(exc)) from exc
    bad = {k: v for k, v in network_residuals(network, domain, tensions).items()
           if not v < _NETWORK_TOL}
    if bad:
        raise ValidationError("network", f"{cfg.network} does not fit the config: "
                              + ", ".join(f"{k} = {v:.3e}" for k, v in bad.items()))
    return domain, tensions, network


def _cmd_steady(args) -> int:
    domain, tensions, network = _problem(parse_config(_config_text(args.config)), solve=True)
    storage.write_network(network, args.out)
    res = max(network_residuals(network, domain, tensions).values())
    print(f"junction p = ({network.p_star[0]:.12g}, {network.p_star[1]:.12g})")
    print(f"lengths    = {network.lengths}")
    print(f"h          = {network.h_star}")
    print(f"residual   = {res:.3e}")
    print(f"network block written to {args.out}")
    return 0


def _cmd_spectrum(args) -> int:
    cfg = parse_config(_config_text(args.config))
    _, tensions, network = _problem(cfg)
    result = stability.max_eigenvalue(network, tensions, cfg.spectrum_n)
    verdict = stability.stability_criterion(network.lengths, network.h_star, tensions)
    print(f"lambda_max = {result.lambda_max:.12g}  (n = {cfg.spectrum_n})")
    print(f"verdict    = {verdict.verdict}  [{verdict.case}]")
    if verdict.criterion_value is not None:
        print(f"criterion  = {verdict.criterion_value:.12g}")
    lines = ["branch,sigma,phi"]
    for i in range(3):
        sigma = np.linspace(0.0, network.lengths[i], result.n + 1)
        lines.extend(f"{i + 1},{s:.17g},{v:.17g}"
                     for s, v in zip(sigma, result.eigenfunction[i]))
    storage.write_lines(args.out, lines)
    print(f"eigenfunction written to {args.out}")
    return 0


def _run_once(cfg: RunConfig, output_path) -> evolution.Trajectory:
    domain, tensions, network = _problem(cfg)
    econf = evolution.EvolveConfig(dt=cfg.dt, t_end=cfg.t_end, n=cfg.n,
                                   output_every=cfg.output_every,
                                   amplitude_cap=cfg.amplitude_cap)
    init = evolution.initial_state(
        network, domain, tensions, econf, kind=cfg.perturbation_type,
        amplitude=cfg.perturbation_amplitude,
        cosine_coefficients=cfg.perturbation_coefficients,
    )
    traj = evolution.run(network, domain, tensions, init, econf)
    storage.write_trajectory(traj.records, output_path)
    return traj


def _cmd_evolve(args) -> int:
    cfg = parse_config(_config_text(args.config))
    traj = _run_once(cfg, cfg.output)
    last = traj.records[-1]
    print(f"status  = {traj.status}" + (f"  ({traj.message})" if traj.message else ""))
    print(f"records = {len(traj.records)}, final t = {last.t:.6g}")
    print(f"E = {last.E:.12g}, |kappa|_L2^2 = {last.kappa_l2_sq:.6e}")
    print(f"trajectory written to {cfg.output}")
    return 0 if traj.status == "completed" else 2


def _cmd_verify(args) -> int:
    # every comparison passes only on a number inside its bound, so NaN fails
    if not 0.0 < args.res_tol < np.inf:
        raise ValidationError("--res-tol", f"must be positive and finite, got {args.res_tol}")
    rows = storage.read_trajectory(args.trajectory)
    if len(rows) < 3:
        print("verify: need at least three records")
        return 3
    t = np.array([r.t for r in rows])
    E = np.array([r.E for r in rows])
    k2 = np.array([r.kappa_l2_sq for r in rows])
    failures = []
    cols = {
        "kappa_l2_sq": k2,
        "kappa_s_l2_sq": np.array([r.kappa_s_l2_sq for r in rows]),
        "kappa_ss_l2_sq": np.array([r.kappa_ss_l2_sq for r in rows]),
    }
    for name, vals in cols.items():
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            failures.append(f"{name} has negative or non-finite entries")
    if not np.all(np.isfinite(E)):
        failures.append("E has non-finite entries")
    if np.any(np.diff(E) > 1e-12):
        k = int(np.argmax(np.diff(E)))
        failures.append(f"energy increases between records {k} and {k + 1}")
    steps = np.diff(t)
    if not np.all(steps > 0.0):
        k = int(np.argmin(steps > 0.0))
        failures.append(f"record times do not increase between records {k} and {k + 1}")
    else:
        _, law = diagnostics.energy_law_residual(rows)
        law_tol = args.res_tol * max(1.0, float(k2.max()))
        if not law.max() <= law_tol:
            failures.append(f"energy law residual {law.max():.3e} exceeds {law_tol:.3e}")
    for name in ("res_junction", "res_flux", "res_outer", "res_perp"):
        vals = np.array([getattr(r, name) for r in rows])
        if not vals.max() <= args.res_tol:
            failures.append(f"{name} reaches {vals.max():.3e} > {args.res_tol:.3e}")
    if failures:
        for msg in failures:
            print(f"verify: FAIL: {msg}")
        return 3
    print(f"verify: OK ({len(rows)} records, final t = {t[-1]:.6g})")
    return 0


def _cmd_sweep(args) -> int:
    cfg_text = _config_text(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    # every value goes through the config parser before any run starts
    configs = [parse_config(cfg_text, overrides={_SWEEPABLE[args.param]: val})
               for val in values]
    worst = 0
    for val, cfg in zip(values, configs):
        base = Path(cfg.output)
        out = base.with_name(f"{base.stem}_{args.param}_{val}{base.suffix}")
        traj = _run_once(cfg, out)
        last = traj.records[-1]
        print(
            f"{args.param} = {val}: status = {traj.status}, final t = {last.t:.6g}, "
            f"|kappa|^2 = {last.kappa_l2_sq:.6e} -> {out}"
        )
        if traj.status != "completed":
            worst = max(worst, 2)
    return worst


_SWEEPABLE = {  # --param name -> config key
    "dt": "dt",
    "n": "n",
    "t_end": "t_end",
    "amplitude": "perturbation.amplitude",
    "output_every": "output_every",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trijunction",
        description="Triple-junction curvature-flow networks: stationary states, "
                    "stability, evolution, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="solve for a stationary network")
    p.add_argument("config")
    p.add_argument("--out", default="network.txt")
    p.set_defaults(func=_cmd_steady)

    p = sub.add_parser("spectrum", help="maximal eigenvalue and stability verdict")
    p.add_argument("config")
    p.add_argument("--out", default="eigenfunction.csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("evolve", help="integrate the flow and write a trajectory")
    p.add_argument("config")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("verify", help="check identities on a trajectory file")
    p.add_argument("trajectory")
    p.add_argument("--res-tol", type=float, default=1e-2)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="re-run evolve over a parameter list")
    p.add_argument("config")
    p.add_argument("--param", required=True, choices=sorted(_SWEEPABLE))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TriJunctionError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
