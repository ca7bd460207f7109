from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trijunction.config import SCALAR_KEYS, RunConfig, parse_config
from trijunction.diagnostics import DiagnosticsRecord
from trijunction.domains import MAX_POWER
from trijunction.errors import IoError, ParseError, ValidationError
from trijunction.storage import (
    TRAJECTORY_HEADER,
    TrajectoryRow,
    read_network,
    read_trajectory,
    row_from_record,
    write_network,
    write_trajectory,
)

MINIMAL = """
# a disk
domain.type = circle
domain.radius = 1.0
tensions = 1.0, 1.0, 1.0
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.domain_type == "circle"
    assert cfg.n == 100
    assert cfg.dt is None
    assert cfg.t_end == 1.0
    assert cfg.output == "trajectory.csv"
    assert cfg.perturbation_type == "cosine"
    assert cfg.make_domain().family == "circle"
    assert cfg.make_tensions().array.tolist() == [1.0, 1.0, 1.0]


def test_config_full_round():
    text = MINIMAL + """
n = 64
dt = 1e-5
t_end = 0.25
output_every = 10
gauge = 0.0
guess.p = 0.05, 0.03
perturbation.type = eigenmode
perturbation.amplitude = 0.02
spectrum_n = 128
output = out.csv
"""
    cfg = parse_config(text)
    assert cfg.n == 64 and cfg.dt == 1e-5 and cfg.spectrum_n == 128
    assert cfg.gauge == 0.0 and cfg.guess_p == (0.05, 0.03)
    assert cfg.perturbation_type == "eigenmode"


def test_polynomial_domain_config():
    cfg = parse_config(
        "domain.type = polynomial\n"
        "domain.coefficients = 2 0 1; 0 2 1; 0 0 -1\n"
        "domain.bounding_box = -2, 2, -2, 2\n"
        "tensions = 1, 1, 1\n"
    )
    dom = cfg.make_domain()
    assert dom.family == "polynomial"
    assert abs(float(dom.psi(np.array([1.0, 0.0])))) < 1e-15


def test_unknown_key_rejected_with_line():
    with pytest.raises(ParseError) as err:
        parse_config(MINIMAL + "foo = 1\n")
    assert "foo" in str(err.value)
    assert err.value.line == 6


def test_degenerate_tensions_rejected():
    with pytest.raises(ValidationError) as err:
        parse_config("domain.type = circle\ntensions = 1, 1, 2.5\n")
    assert err.value.field == "tensions"


@pytest.mark.parametrize(
    "text,field",
    [
        ("domain.type = circle\ntensions = 1, 1, 1\nn = 4\n", "n"),
        ("domain.type = circle\ntensions = 1, 1, 1\ndt = -1\n", "dt"),
        ("domain.type = circle\ntensions = 1, 1, 1\nt_end = oops\n", "t_end"),
        ("domain.type = ellipse\ntensions = 1, 1, 1\n", "domain.semi_axes"),
        ("tensions = 1, 1, 1\n", "domain.type"),
        ("domain.type = circle\ntensions = 1, 1\n", "tensions"),
        # malformed domains and keys the domain type does not use
        ("domain.type = circle\ndomain.radius = -1\ntensions = 1, 1, 1\n", "domain"),
        ("domain.type = circle\ndomain.center = 1\ntensions = 1, 1, 1\n",
         "domain.center"),
        ("domain.type = ellipse\ndomain.semi_axes = 1.2\ntensions = 1, 1, 1\n",
         "domain.semi_axes"),
        ("domain.type = ellipse\ndomain.semi_axes = 1.2, 1\ndomain.radius = 5\n"
         "tensions = 1, 1, 1\n", "domain.radius"),
        ("domain.type = circle\ndomain.bounding_box = -2, 2, -2, 2\n"
         "tensions = 1, 1, 1\n", "domain.bounding_box"),
        ("domain.type = polynomial\ndomain.coefficients = 0 -1 1\n"
         "tensions = 1, 1, 1\n", "domain"),
        # sizes whose square overflows or underflows
        ("domain.type = circle\ndomain.radius = 1e200\ntensions = 1, 1, 1\n", "domain"),
        ("domain.type = ellipse\ndomain.semi_axes = 1e-200, 1\ntensions = 1, 1, 1\n",
         "domain"),
        # powers are whole numbers at most MAX_POWER, checked before the
        # domain allocates its coefficient stack
        ("domain.type = polynomial\ndomain.coefficients = 2.7 0 1; 0 0 -1\n"
         "tensions = 1, 1, 1\n", "domain.coefficients"),
        (f"domain.type = polynomial\ndomain.coefficients = 0 {MAX_POWER + 1} 1; 0 0 -1\n"
         "tensions = 1, 1, 1\n", "domain.coefficients"),
        # coefficients whose exact derivatives overflow
        ("domain.type = polynomial\ndomain.coefficients = 32 0 1e308; 0 0 -1\n"
         "tensions = 1, 1, 1\n", "domain"),
        # non-finite numbers
        ("domain.type = circle\ntensions = 1, 1, 1\nt_end = nan\n", "t_end"),
        ("domain.type = circle\ntensions = 1, 1, 1\ngauge = inf\n", "gauge"),
        ("domain.type = circle\ntensions = 1, 1, 1\nguess.p = nan, 0\n", "guess.p"),
        ("domain.type = circle\ndomain.radius = inf\ntensions = 1, 1, 1\n",
         "domain.radius"),
        ("domain.type = circle\ntensions = nan, 1, 1\n", "tensions"),
        ("domain.type = circle\ntensions = x, 1, 1\n", "tensions"),
    ],
)
def test_validation_errors_name_the_field(text, field):
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == field


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "tensions = 1, 1, 1\n")


# ---------------------------------------------------------------------------
# config round trip


def _num(value):
    return repr(float(value))  # repr round-trips a double exactly


def _nums(values):
    return ", ".join(map(_num, values))


def render_config(cfg: RunConfig) -> str:
    """Config text, every field written out, that parses back to cfg."""
    params = cfg.domain_params
    lines = [f"domain.type = {cfg.domain_type}"]
    if cfg.domain_type == "circle":
        lines.append(f"domain.radius = {_num(params['radius'])}")
    elif cfg.domain_type == "ellipse":
        lines.append(f"domain.semi_axes = {_nums(params['semi_axes'])}")
    else:
        lines.append("domain.coefficients = "
                     + "; ".join(f"{i} {j} {_num(c)}" for i, j, c in params["coefficients"]))
    for key in ("center", "bounding_box"):
        if key in params:
            lines.append(f"domain.{key} = {_nums(params[key])}")
    lines.append(f"tensions = {_nums(cfg.tensions)}")
    for key, (attr, conv, _) in SCALAR_KEYS.items():
        value = getattr(cfg, attr)
        if value is not None:
            lines.append(f"{key} = {value if conv is int else _num(value)}")
    lines.append(f"guess.p = {_nums(cfg.guess_p)}")
    lines.append(f"perturbation.type = {cfg.perturbation_type}")
    for i, coefs in enumerate(cfg.perturbation_coefficients, start=1):
        lines.append(f"perturbation.coefficients.{i} = {_nums(coefs)}")
    lines.append(f"output = {cfg.output}")
    if cfg.network is not None:
        lines.append(f"network = {cfg.network}")
    return "\n".join(lines) + "\n"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# domain sizes and coefficients whose squares, inverses and derivatives stay finite
_SIZE = st.floats(1e-3, 1e3)
_COEFFICIENT = st.floats(-1e6, 1e6)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_PATH = st.from_regex(r"[A-Za-z0-9_./-]+( [A-Za-z0-9_./-]+)*", fullmatch=True)
_TENSIONS = st.tuples(*[st.floats(0.5, 2.0)] * 3).filter(
    lambda g: all(g[k] < g[(k + 1) % 3] + g[(k + 2) % 3] for k in range(3)))


@st.composite
def config_texts(draw):
    """(text, expected RunConfig): a valid config on a circle, an ellipse or
    a polynomial domain, its optional keys drawn or left to their defaults,
    its lines shuffled, padded and interleaved with comments."""
    dtype = draw(st.sampled_from(["circle", "ellipse", "polynomial"]))
    entries = {"domain.type": dtype}
    params = {}
    optional = st.booleans()
    if dtype == "circle":
        params["radius"] = 1.0
        if draw(optional):
            params["radius"] = draw(_SIZE)
            entries["domain.radius"] = _num(params["radius"])
        if draw(optional):
            params["center"] = draw(st.tuples(_FINITE, _FINITE))
            entries["domain.center"] = _nums(params["center"])
    elif dtype == "ellipse":
        params["semi_axes"] = draw(st.tuples(_SIZE, _SIZE))
        entries["domain.semi_axes"] = _nums(params["semi_axes"])
    else:
        power = st.integers(0, MAX_POWER)
        params["coefficients"] = draw(st.lists(st.tuples(power, power, _COEFFICIENT),
                                               min_size=1, max_size=4))
        entries["domain.coefficients"] = "; ".join(
            f"{i} {j} {_num(c)}" for i, j, c in params["coefficients"])
        if draw(optional):
            params["bounding_box"] = draw(st.tuples(*[_FINITE] * 4))
            entries["domain.bounding_box"] = _nums(params["bounding_box"])
    tensions = draw(_TENSIONS)
    entries["tensions"] = _nums(tensions)
    cfg = RunConfig(domain_type=dtype, domain_params=params, tensions=tensions)

    for key, (attr, conv, positive) in SCALAR_KEYS.items():
        if not draw(optional):
            continue
        if conv is int:
            value = draw(st.integers(8 if key == "n" else 1, 10**6))
        else:
            value = draw(_POSITIVE if positive else _FINITE)
        setattr(cfg, attr, value)
        entries[key] = str(value) if conv is int else _num(value)
    if draw(optional):
        cfg.guess_p = draw(st.tuples(_FINITE, _FINITE))
        entries["guess.p"] = _nums(cfg.guess_p)
    if draw(optional):
        cfg.perturbation_type = entries["perturbation.type"] = draw(
            st.sampled_from(["cosine", "eigenmode"]))
    for i in range(3):
        if draw(optional):
            coefs = draw(st.lists(_FINITE, max_size=5))
            cfg.perturbation_coefficients[i] = coefs
            entries[f"perturbation.coefficients.{i + 1}"] = _nums(coefs)
    for key in ("output", "network"):
        if draw(optional):
            setattr(cfg, key, draw(_PATH))
            entries[key] = getattr(cfg, key)

    pad = st.sampled_from(["", " ", "\t", "  "])
    comment = st.sampled_from(["", "  # note", "# a = 1"])
    lines = [f"{draw(pad)}{key}{draw(pad)}={draw(pad)}{value}{draw(pad)}{draw(comment)}"
             for key, value in draw(st.permutations(list(entries.items())))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# comment"])))
    return "\n".join(lines) + "\n", cfg


def _assert_same_fields(got: RunConfig, want: RunConfig):
    for f in fields(RunConfig):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@settings(max_examples=100, deadline=None)
@given(config_texts())
def test_config_parse_render_round_trip(drawn):
    text, expected = drawn
    parsed = parse_config(text)
    _assert_same_fields(parsed, expected)
    _assert_same_fields(parse_config(render_config(parsed)), parsed)


# ---------------------------------------------------------------------------
# trajectory files


def sample_rows():
    rng = np.random.default_rng(0)
    rows = []
    for k in range(3):
        vals = rng.uniform(-1.0, 1.0, 14)
        vals[0] = 0.1 * k
        rows.append(TrajectoryRow(*vals))
    return rows


def test_trajectory_round_trip_bitwise(tmp_path):
    rows = sample_rows()
    path = tmp_path / "t.csv"
    write_trajectory(rows, path)
    back = read_trajectory(path)
    assert back == rows  # dataclass equality is fieldwise float equality


def test_empty_trajectory(tmp_path):
    path = tmp_path / "empty.csv"
    write_trajectory([], path)
    assert path.read_text().strip() == TRAJECTORY_HEADER
    assert read_trajectory(path) == []


def test_malformed_row_reports_index(tmp_path):
    path = tmp_path / "bad.csv"
    write_trajectory(sample_rows(), path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]  # drop a field from row 2
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IoError) as err:
        read_trajectory(path)
    assert "row 2" in str(err.value)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("nope\n1,2\n")
    with pytest.raises(IoError):
        read_trajectory(path)


def test_row_from_record_mapping(trefoil, trefoil_network, unit_tensions):
    from trijunction.diagnostics import record_from_state
    from trijunction.parameterization import GraphState

    state = GraphState(np.zeros((3, 17)), np.zeros(3), t=0.5)
    rec = record_from_state(trefoil_network, trefoil, unit_tensions, state)
    row = row_from_record(rec)
    assert row.t == 0.5
    assert row.E == rec.E
    assert row.mu1 == 0.0


_VECTORS = {"p": 2, "mu": 3}  # the array fields of a record


@st.composite
def finite_records(draw):
    values = {}
    for f in fields(DiagnosticsRecord):
        k = _VECTORS.get(f.name)
        values[f.name] = (draw(_FINITE) if k is None
                          else np.array(draw(st.lists(_FINITE, min_size=k, max_size=k))))
    return DiagnosticsRecord(**values)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_records(), max_size=4))
def test_trajectory_write_read_write_bitwise(tmp_path_factory, records):
    first = tmp_path_factory.mktemp("csv") / "first.csv"
    second = first.with_name("second.csv")
    write_trajectory(records, first)
    rows = read_trajectory(first)
    assert rows == [row_from_record(r) for r in records]
    write_trajectory(rows, second)
    assert second.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------------------
# network blocks


def test_network_round_trip(tmp_path, trefoil_network):
    path = tmp_path / "net.txt"
    write_network(trefoil_network, path)
    back = read_network(path)
    assert np.array_equal(back.p_star, trefoil_network.p_star)
    assert np.array_equal(back.tangents, trefoil_network.tangents)
    assert np.array_equal(back.lengths, trefoil_network.lengths)
    assert np.array_equal(back.h_star, trefoil_network.h_star)
    assert np.array_equal(back.endpoints, trefoil_network.endpoints)
    assert np.abs(back.normals - trefoil_network.normals).max() < 1e-16


def test_network_missing_field(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("p = 0, 0\n")
    with pytest.raises(IoError):
        read_network(path)
