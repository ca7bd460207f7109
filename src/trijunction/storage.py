"""Persistence: trajectory CSV files and stationary-network text blocks.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so read(write(rows)) == rows bitwise.
"""

from __future__ import annotations

import operator
from dataclasses import fields, make_dataclass

import numpy as np

from .diagnostics import DiagnosticsRecord
from .errors import IoError
from .parameterization import StationaryNetwork
from .tensions import ROT90

# (record field, its CSV columns), in column order; the record's field
# metadata names the stored fields and the columns of its vectors
_LAYOUT = [(f.name, f.metadata["csv"] or (f.name,))
           for f in fields(DiagnosticsRecord) if "csv" in f.metadata]
_COLUMNS = [col for _, cols in _LAYOUT for col in cols]
_N_COLS = len(_COLUMNS)
TRAJECTORY_HEADER = ",".join(_COLUMNS)
_ROW_FORMAT = ",".join(["%.17g"] * _N_COLS)  # one CSV row: 17 significant digits a value

TrajectoryRow = make_dataclass("TrajectoryRow", [(col, float) for col in _COLUMNS])
TrajectoryRow.__module__ = __name__
TrajectoryRow.__doc__ = "One trajectory CSV row: the stored record fields, vectors split."
_row_values = operator.attrgetter(*_COLUMNS)  # a TrajectoryRow's values, in column order


def read_text(path) -> str:
    """Contents of a UTF-8 text file; IoError if it cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def write_lines(path, lines) -> None:
    """Write lines, each ended by a newline, as UTF-8; IoError on failure."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _record_values(record) -> tuple:
    """The CSV values of a DiagnosticsRecord, in column order: its stored
    scalar fields as they are, its junction position p and offsets mu split
    into components as floats."""
    values = []
    for name, cols in _LAYOUT:
        value = getattr(record, name)
        values.extend(map(float, value) if len(cols) > 1 else (value,))
    return tuple(values)


def row_from_record(record) -> TrajectoryRow:
    """CSV row of a DiagnosticsRecord: the values that write_trajectory
    writes of it."""
    return TrajectoryRow(*_record_values(record))


def write_trajectory(rows, path) -> None:
    """Write records (DiagnosticsRecord or TrajectoryRow) as CSV.  A row is
    one format over its values in column order, each with 17 significant
    digits: the text of format(value, ".17g"), so a record and its
    TrajectoryRow write the same bytes."""
    out = [TRAJECTORY_HEADER]
    for row in rows:
        out.append(_ROW_FORMAT % (_row_values(row) if isinstance(row, TrajectoryRow)
                                  else _record_values(row)))
    write_lines(path, out)


def read_trajectory(path) -> list[TrajectoryRow]:
    lines = read_text(path).splitlines()
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
    write_lines(path, lines)


# the fields of a network block and the number of values each holds
_NETWORK_FIELDS = {"p": 2, **{f"tangent.{i}": 2 for i in (1, 2, 3)}, "lengths": 3, "h": 3,
                   **{f"endpoint.{i}": 2 for i in (1, 2, 3)}}


def read_network(path) -> StationaryNetwork:
    """The network block of write_network.  A malformed line, a missing
    field, a field with the wrong number of values or a non-finite one, or
    a length that is not positive raises IoError."""
    data = {}
    for line in read_text(path).splitlines():
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
    for key, size in _NETWORK_FIELDS.items():
        if key not in data:
            raise IoError(f"{path}: missing field {key!r}")
        if data[key].size != size or not np.isfinite(data[key]).all():
            raise IoError(f"{path}: {key}: expected {size} finite values, "
                          f"got {data[key].tolist()}")
    if not (data["lengths"] > 0.0).all():
        raise IoError(f"{path}: lengths: must be positive, got {data['lengths'].tolist()}")
    tangents = np.stack([data[f"tangent.{i}"] for i in (1, 2, 3)])
    return StationaryNetwork(
        p_star=data["p"],
        tangents=tangents,
        normals=tangents @ ROT90.T,
        lengths=data["lengths"],
        h_star=data["h"],
        endpoints=np.stack([data[f"endpoint.{i}"] for i in (1, 2, 3)]),
    )
