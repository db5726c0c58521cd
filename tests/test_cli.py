"""Command-line behavior: exit codes, emitted files, determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

from beamstops.cli import main

PIPE_SHORT = """\
L = 1.501
J = 19
k2 = 282.84
g = 0.1
phi = sin
phi_amplitude = 0.2
phi_omega = 10
scheme = signorini
beta = 0.5
dt = 5e-5
T = 0.05
output = out.csv
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(PIPE_SHORT)
    return path


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


# ------------------------------------------------------------------------- run

def test_run_writes_trajectory_and_prints_report(cfg_file, tmp_path, capsys):
    code = main(["run", str(cfg_file), "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict" in out and "unconditional" in out
    data = read_csv(tmp_path / "out.csv")
    # T / (dt * stride) + 1 rows, all |u_tip| within the stops
    assert data.shape == (1001, 6)
    assert np.max(np.abs(data[:, 1])) <= 0.1 + 1e-12
    with open(tmp_path / "out.csv") as fh:
        assert fh.readline().strip() == "t,u_tip,v_tip,energy,reaction,violation"


def test_run_zero_horizon_single_row(cfg_file, tmp_path):
    cfg = cfg_file.read_text().replace("T = 0.05", "T = 0")
    cfg_file.write_text(cfg)
    assert main(["run", str(cfg_file), "--output-dir", str(tmp_path)]) == 0
    data = read_csv(tmp_path / "out.csv")
    assert data.shape == (6,)  # single row
    assert data[0] == 0.0


def test_run_is_byte_deterministic(cfg_file, tmp_path):
    for sub in ("a", "b"):
        assert main(["run", str(cfg_file), "--output-dir", str(tmp_path / sub)]) == 0
    assert (tmp_path / "a" / "out.csv").read_bytes() == (
        tmp_path / "b" / "out.csv"
    ).read_bytes()


def test_run_stability_veto_and_force(cfg_file, tmp_path, capsys):
    cfg_file.write_text(
        PIPE_SHORT.replace("beta = 0.5", "beta = 0.25").replace("T = 0.05", "T = 0.001")
    )
    code = main(["run", str(cfg_file), "--output-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "violated" in captured.out
    assert "--force" in captured.err
    assert not (tmp_path / "out.csv").exists()
    assert main(["run", str(cfg_file), "--output-dir", str(tmp_path), "--force"]) == 0
    assert (tmp_path / "out.csv").exists()


def test_run_beta_quarter_below_limit_runs(cfg_file, tmp_path):
    # dt = 5e-6 sits under the exact-kappa limit for beta = 1/4 at J = 19
    cfg_file.write_text(
        PIPE_SHORT.replace("beta = 0.5", "beta = 0.25")
        .replace("dt = 5e-5", "dt = 5e-6")
        .replace("T = 0.05", "T = 0.005")
    )
    assert main(["run", str(cfg_file), "--output-dir", str(tmp_path)]) == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_run_blow_up_fails_and_keeps_existing_output(cfg_file, tmp_path, capsys):
    """A forced beta = 0 run far above the limit turns NaN: exit 1 naming
    the first bad record, and the previous output file is left as it was."""
    cfg_file.write_text(
        PIPE_SHORT.replace("scheme = signorini", "scheme = linear")
        .replace("beta = 0.5", "beta = 0")
        .replace("dt = 5e-5", "dt = 1e-3")
        .replace("T = 0.05", "T = 0.5")
    )
    (tmp_path / "out.csv").write_text("previous run\n")
    code = main(["run", str(cfg_file), "--output-dir", str(tmp_path), "--force"])
    captured = capsys.readouterr()
    assert code == 1
    assert "violated" in captured.out
    assert "record" in captured.err and "not finite" in captured.err
    assert (tmp_path / "out.csv").read_text() == "previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]
    out = tmp_path / "sweep"
    code = main(["sweep", str(cfg_file), "--key", "dt", "--values", "1e-3",
                 "--output-dir", str(out), "--force"])
    assert code == 1
    assert "not finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_interrupted_write_keeps_existing_output(cfg_file, tmp_path, monkeypatch):
    """The CSV is renamed into place whole: an interrupt before the rename
    leaves the old file intact and no temp file behind."""
    (tmp_path / "out.csv").write_text("previous run\n")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["run", str(cfg_file), "--output-dir", str(tmp_path)])
    assert (tmp_path / "out.csv").read_text() == "previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]


def test_missing_and_invalid_configs_exit_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("L = 1\nwat = 2\n")
    assert main(["run", str(bad)]) == 1
    assert "wat" in capsys.readouterr().err


# ----------------------------------------------------------------------- sweep

def test_sweep_writes_children_and_summary(cfg_file, tmp_path, monkeypatch):
    monkeypatch.setenv("BEAM_THREADS", "2")
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            str(cfg_file),
            "--key",
            "dt",
            "--values",
            "5e-5,2.5e-5",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "dt_5e-5.csv").exists()
    assert (out / "dt_2.5e-5.csv").exists()
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "label,max_violation,tip_min,tip_max,contact_episodes,wall_seconds"
    assert summary[1].startswith("dt=5e-5,")
    assert summary[2].startswith("dt=2.5e-5,")
    assert (out / "summary.txt").exists()


def test_sweep_vetoed_child_fails_others_written(cfg_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BEAM_THREADS", "1")
    cfg_file.write_text(
        PIPE_SHORT.replace("beta = 0.5", "beta = 0.25").replace("T = 0.05", "T = 0.002")
    )
    out = tmp_path / "sweep"
    code = main(
        ["sweep", str(cfg_file), "--key", "dt", "--values", "5e-6,5e-5",
         "--output-dir", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert (out / "dt_5e-6.csv").exists()  # the stable child still ran
    assert not (out / "dt_5e-5.csv").exists()
    assert "dt=5e-5" in captured.err
    # summary covers the surviving child
    assert "dt=5e-6" in (out / "summary.csv").read_text()


def test_sweep_inv_eps_violations_decrease(cfg_file, tmp_path, monkeypatch):
    monkeypatch.setenv("BEAM_THREADS", "3")
    cfg_file.write_text(
        PIPE_SHORT.replace("scheme = signorini", "scheme = penalty\ninv_eps = 1e6")
        .replace("T = 0.05", "T = 0.15")
    )
    out = tmp_path / "sweep"
    assert (
        main(
            ["sweep", str(cfg_file), "--key", "inv_eps", "--values", "1e5,1e7,1e9",
             "--output-dir", str(out)]
        )
        == 0
    )
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    viols = [float(r.split(",")[1]) for r in rows]
    assert viols[0] > viols[1] > viols[2]


def test_sweep_empty_values_is_usage_error(cfg_file):
    with pytest.raises(SystemExit) as info:
        main(["sweep", str(cfg_file), "--key", "dt", "--values", ",,"])
    assert info.value.code == 2


def test_sweep_rejects_unknown_key(cfg_file):
    with pytest.raises(SystemExit):
        main(["sweep", str(cfg_file), "--key", "L", "--values", "1,2"])


# ------------------------------------------------------------------- stability

def test_stability_prints_both_limits(cfg_file, capsys):
    cfg_file.write_text(PIPE_SHORT.replace("beta = 0.5", "beta = 0.25"))
    assert main(["stability", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "dt_max (bound)" in out and "dt_max (exact)" in out
    # the bound-based figure for the pipe discretization is ~3.3e-6 s
    assert "3.3" in out


def test_stability_unconditional_beta_half(cfg_file, capsys):
    assert main(["stability", str(cfg_file)]) == 0
    assert "unconditional" in capsys.readouterr().out


def test_stability_coarser_mesh_larger_limit(cfg_file, tmp_path, capsys):
    cfg_file.write_text(PIPE_SHORT.replace("beta = 0.5", "beta = 0.25"))
    main(["stability", str(cfg_file)])
    out19 = capsys.readouterr().out
    five = tmp_path / "five.cfg"
    five.write_text(PIPE_SHORT.replace("beta = 0.5", "beta = 0.25").replace("J = 19", "J = 5"))
    main(["stability", str(five)])
    out5 = capsys.readouterr().out

    def exact_limit(text):
        for line in text.splitlines():
            if "dt_max (exact)" in line:
                return float(line.split("=")[1].replace("s", "").strip())
        raise AssertionError("no exact limit printed")

    assert exact_limit(out5) > exact_limit(out19)


# --------------------------------------------------------------- entry point

def test_console_script_runs(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPE_SHORT.replace("T = 0.05", "T = 0.002"))
    proc = subprocess.run(
        [sys.executable, "-m", "beamstops.cli", "run", str(cfg), "--output-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "BEAM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").exists()
