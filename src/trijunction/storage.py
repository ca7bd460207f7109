"""Persistence: trajectory CSV files and stationary-network text blocks.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so read(write(rows)) == rows bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import IoError
from .parameterization import StationaryNetwork
from .tensions import ROT90


@dataclass
class TrajectoryRow:
    t: float
    E: float
    kappa_l2_sq: float
    kappa_s_l2_sq: float
    kappa_ss_l2_sq: float
    px: float
    py: float
    mu1: float
    mu2: float
    mu3: float
    res_junction: float
    res_flux: float
    res_outer: float
    res_perp: float


_COLUMNS = [f.name for f in fields(TrajectoryRow)]
_N_COLS = len(_COLUMNS)
TRAJECTORY_HEADER = ",".join(_COLUMNS)


def row_from_record(record) -> TrajectoryRow:
    """CSV row of a DiagnosticsRecord: its scalar fields of the same name,
    with the junction position p and offsets mu split into components."""
    split = dict(zip(("px", "py", "mu1", "mu2", "mu3"), map(float, (*record.p, *record.mu))))
    return TrajectoryRow(*(split[c] if c in split else getattr(record, c) for c in _COLUMNS))


def write_trajectory(rows, path) -> None:
    """Write records (DiagnosticsRecord or TrajectoryRow) as CSV."""
    out = [TRAJECTORY_HEADER]
    for row in rows:
        if not isinstance(row, TrajectoryRow):
            row = row_from_record(row)
        out.append(",".join(f"{getattr(row, name):.17g}" for name in _COLUMNS))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(out) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_trajectory(path) -> list[TrajectoryRow]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise IoError(f"{path}: missing or wrong header")
    rows = []
    for idx, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != _N_COLS:
            raise IoError(f"{path}: row {idx} has {len(parts)} fields, expected {_N_COLS}")
        try:
            rows.append(TrajectoryRow(*[float(p) for p in parts]))
        except ValueError as exc:
            raise IoError(f"{path}: row {idx}: {exc}") from exc
    return rows


def write_network(network: StationaryNetwork, path) -> None:
    def fmt(vals):
        return ", ".join(f"{float(v):.17g}" for v in np.atleast_1d(vals))

    lines = [
        "# stationary network",
        f"p = {fmt(network.p_star)}",
        f"tangent.1 = {fmt(network.tangents[0])}",
        f"tangent.2 = {fmt(network.tangents[1])}",
        f"tangent.3 = {fmt(network.tangents[2])}",
        f"lengths = {fmt(network.lengths)}",
        f"h = {fmt(network.h_star)}",
        f"endpoint.1 = {fmt(network.endpoints[0])}",
        f"endpoint.2 = {fmt(network.endpoints[1])}",
        f"endpoint.3 = {fmt(network.endpoints[2])}",
    ]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_network(path) -> StationaryNetwork:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    data = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IoError(f"{path}: malformed line {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            data[key] = np.array([float(tok) for tok in value.replace(",", " ").split()])
        except ValueError as exc:
            raise IoError(f"{path}: {key}: {exc}") from exc
    try:
        tangents = np.stack([data[f"tangent.{i}"] for i in (1, 2, 3)])
        endpoints = np.stack([data[f"endpoint.{i}"] for i in (1, 2, 3)])
        return StationaryNetwork(
            p_star=data["p"],
            tangents=tangents,
            normals=tangents @ ROT90.T,
            lengths=data["lengths"],
            h_star=data["h"],
            endpoints=endpoints,
        )
    except KeyError as exc:
        raise IoError(f"{path}: missing field {exc}") from exc
