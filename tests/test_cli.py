import dataclasses
import re

import pytest

from trijunction import steady
from trijunction.cli import main
from trijunction.config import RunConfig
from trijunction.storage import read_trajectory, write_trajectory

from conftest import NanGradientDisk

DISK_CFG = """
domain.type = circle
domain.radius = 1.0
tensions = 1.0, 1.0, 1.0
gauge = 0.0
guess.p = 0.05, 0.03
n = 32
t_end = 0.02
output_every = 20
spectrum_n = 64
perturbation.type = eigenmode
perturbation.amplitude = 0.005
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "disk.cfg"
    cfg.write_text(DISK_CFG + f"output = {tmp_path / 'run.csv'}\n")
    return tmp_path


def test_steady_subcommand(workdir, capsys):
    code = main(["steady", str(workdir / "disk.cfg"), "--out", str(workdir / "net.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "junction p" in out
    assert (workdir / "net.txt").exists()


def test_spectrum_subcommand(workdir, capsys):
    code = main(["spectrum", str(workdir / "disk.cfg"), "--out", str(workdir / "eig.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda_max" in out and "verdict" in out
    lines = (workdir / "eig.csv").read_text().splitlines()
    assert lines[0] == "branch,sigma,phi"
    assert len(lines) == 1 + 3 * 65


def test_evolve_and_verify(workdir, capsys):
    code = main(["evolve", str(workdir / "disk.cfg")])
    assert code == 0
    rows = read_trajectory(workdir / "run.csv")
    assert len(rows) >= 3
    assert main(["verify", str(workdir / "run.csv"), "--res-tol", "0.05"]) == 0


def test_verify_flags_energy_increase(workdir):
    main(["evolve", str(workdir / "disk.cfg")])
    path = workdir / "run.csv"
    lines = path.read_text().splitlines()
    parts = lines[-1].split(",")
    parts[1] = f"{float(parts[1]) + 1.0:.17g}"  # corrupt the energy column
    lines[-1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path), "--res-tol", "0.05"]) == 3


def _verify_rows(workdir, **changes):
    """The records of an evolved disk run, as 5 rows, with the listed
    fields replaced by {field: [value per row]}; written to bad.csv."""
    main(["evolve", str(workdir / "disk.cfg")])
    rows = read_trajectory(workdir / "run.csv")
    rows = [rows[k] for k in (0, 1, 1, 2, 3)]
    for field, values in changes.items():
        rows = [dataclasses.replace(r, **{field: v}) for r, v in zip(rows, values)]
    path = workdir / "bad.csv"
    write_trajectory(rows, path)
    return path


@pytest.mark.filterwarnings("error")
def test_verify_fails_on_a_nan_residual(workdir, capsys):
    path = _verify_rows(workdir, t=[0.0, 0.005, 0.01, 0.015, 0.02])
    assert main(["verify", str(path), "--res-tol", "0.05"]) == 0
    capsys.readouterr()
    path = _verify_rows(workdir, t=[0.0, 0.005, 0.01, 0.015, 0.02],
                        res_outer=[0.0, 0.0, float("nan"), 0.0, 0.0])
    assert main(["verify", str(path), "--res-tol", "0.05"]) == 3
    assert "res_outer reaches nan" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_verify_fails_when_record_times_do_not_increase(workdir, capsys):
    # t = 0, 0.1, 0.1, 0.1, 0.2: the energy law's centred difference would
    # divide 0 by 0, so it is not evaluated
    path = _verify_rows(workdir, t=[0.0, 0.1, 0.1, 0.1, 0.2],
                        E=[3.0, 2.9, 2.9, 2.9, 2.8])
    assert main(["verify", str(path), "--res-tol", "0.05"]) == 3
    out = capsys.readouterr().out
    assert "record times do not increase between records 1 and 2" in out
    assert "energy law" not in out


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.1"])
def test_verify_rejects_a_tolerance_that_is_not_positive_and_finite(workdir, capsys, tol):
    main(["evolve", str(workdir / "disk.cfg")])
    assert main(["verify", str(workdir / "run.csv"), "--res-tol", tol]) == 1
    assert "config error: --res-tol: must be positive and finite" in capsys.readouterr().err


def test_network_reuse_between_subcommands(workdir):
    assert main(["steady", str(workdir / "disk.cfg"), "--out", str(workdir / "net.txt")]) == 0
    cfg2 = workdir / "disk2.cfg"
    cfg2.write_text(
        DISK_CFG
        + f"output = {workdir / 'run2.csv'}\n"
        + f"network = {workdir / 'net.txt'}\n"
    )
    assert main(["evolve", str(cfg2)]) == 0
    assert (workdir / "run2.csv").exists()


def test_network_file_must_fit_the_config(workdir, capsys):
    # a unit-disk fork reused under radius 1.5 misses the wall
    assert main(["steady", str(workdir / "disk.cfg"), "--out", str(workdir / "net.txt")]) == 0
    big = workdir / "big.cfg"
    big.write_text(
        DISK_CFG.replace("domain.radius = 1.0", "domain.radius = 1.5")
        + f"output = {workdir / 'big.csv'}\n"
        + f"network = {workdir / 'net.txt'}\n"
    )
    capsys.readouterr()
    assert main(["evolve", str(big)]) == 1
    assert main(["spectrum", str(big), "--out", str(workdir / "eig.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("config error: network:") == 2 and "on_boundary" in err
    assert not (workdir / "big.csv").exists()
    assert not (workdir / "eig.csv").exists()


def test_steady_prints_residual_of_solved_network(workdir, capsys):
    # no gauge: the solve moves the rotation away from guess.phi
    ell = workdir / "ellipse.cfg"
    ell.write_text(
        "domain.type = ellipse\ndomain.semi_axes = 1.2, 1.0\ntensions = 1, 1, 1\n"
        "guess.p = 0.1, 0\nguess.phi = 0.2\n"
    )
    assert main(["steady", str(ell), "--out", str(workdir / "net.txt")]) == 0
    line = re.search(r"residual\s*=\s*(\S+)", capsys.readouterr().out)
    assert float(line.group(1)) < 1e-8


def test_bad_config_exit_code(workdir):
    bad = workdir / "bad.cfg"
    bad.write_text("domain.type = circle\ntensions = 1, 1, 2.5\n")
    assert main(["evolve", str(bad)]) == 1


@pytest.mark.parametrize("old,new,field", [
    ("domain.radius = 1.0", "domain.radius = -1", "domain"),
    ("t_end = 0.02", "t_end = nan", "t_end"),
])
def test_malformed_config_exits_1_without_traceback(workdir, capsys, old, new, field):
    # both raised uncaught ValueErrors from inside the run before
    bad = workdir / "bad.cfg"
    bad.write_text(DISK_CFG.replace(old, new))
    assert main(["evolve", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}:")
    assert not (workdir / "trajectory.csv").exists()


_CONFIG_COMMANDS = {
    "steady": ["--out", "net.txt"],
    "spectrum": ["--out", "eig.csv"],
    "evolve": [],
    "sweep": ["--param", "amplitude", "--values", "0.002"],
}


@pytest.mark.parametrize("command", sorted(_CONFIG_COMMANDS))
@pytest.mark.parametrize("problem", ["missing", "not_utf8"])
def test_unreadable_config_exits_1_without_traceback(workdir, capsys, command, problem):
    # both ended in a FileNotFoundError or UnicodeDecodeError traceback before
    cfg = workdir / "bad.cfg"
    if problem == "not_utf8":
        cfg.write_bytes(DISK_CFG.encode("utf-8") + b"# \xff\xfe latin-1\n")
    files = sorted(workdir.iterdir())
    assert main([command, str(cfg), *_CONFIG_COMMANDS[command]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config: cannot read {cfg}: ")
    assert sorted(workdir.iterdir()) == files  # nothing ran, nothing written


def test_spectrum_unwritable_out_is_an_io_error(workdir, capsys):
    out = workdir / "no_such_dir" / "eig.csv"
    assert main(["spectrum", str(workdir / "disk.cfg"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"IoError: cannot write {out}: ")


def test_numerical_failure_exit_code(workdir):
    # missing gauge on the rotationally symmetric disk
    nogauge = workdir / "nogauge.cfg"
    nogauge.write_text(
        "domain.type = circle\ndomain.radius = 1.0\ntensions = 1, 1, 1\n"
        "guess.p = 0.05, 0.03\n"
    )
    assert main(["steady", str(nogauge), "--out", str(workdir / "x.txt")]) == 2


def test_record_on_a_nan_gradient_wall_exits_2(workdir, capsys, disk_network, monkeypatch):
    # The stepper needs no wall gradient; the first record's wall curvature
    # does, and a NaN one raises SingularGradient, a numerical failure.
    monkeypatch.setattr(RunConfig, "make_domain", lambda cfg: NanGradientDisk(1.0))
    monkeypatch.setattr(steady, "find_stationary", lambda *args: disk_network)
    assert main(["evolve", str(workdir / "disk.cfg")]) == 2
    assert capsys.readouterr().err.startswith("SingularGradient: gradient vanishes or is "
                                              "not finite")


def test_determinism_identical_runs(workdir):
    cfg = workdir / "disk.cfg"
    assert main(["evolve", str(cfg)]) == 0
    first = (workdir / "run.csv").read_bytes()
    assert main(["evolve", str(cfg)]) == 0
    assert (workdir / "run.csv").read_bytes() == first


def test_sweep_subcommand(workdir, capsys):
    code = main([
        "sweep", str(workdir / "disk.cfg"), "--param", "amplitude",
        "--values", "0.002,0.004",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("status = completed") == 2
    assert (workdir / "run_amplitude_0.002.csv").exists()
    assert (workdir / "run_amplitude_0.004.csv").exists()


@pytest.mark.parametrize("param, values, field", [
    ("n", "1.5", "n"),
    ("n", "4", "n"),
    ("dt", "-1", "dt"),
    ("amplitude", "0.002,-1", "perturbation.amplitude"),
])
def test_sweep_rejects_invalid_values_before_running(workdir, capsys, param, values, field):
    code = main(["sweep", str(workdir / "disk.cfg"), "--param", param, "--values", values])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not list(workdir.glob("run_*.csv"))
