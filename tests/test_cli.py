"""Command-line behavior: exit codes, emitted files, determinism."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from beamstops import cli
from beamstops.cli import _chunks, main
from beamstops.config import override, parse_config
from beamstops.linalg import PenaltyTipSolver, PinnedDofSolver
from faults import clamp_only_init, wrong_branch_init

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


def test_failed_complementarity_certificate_fails_and_writes_nothing(
    cfg_file, tmp_path, monkeypatch, capsys
):
    """A pinned solver whose w = A^{-1} e_c is e_c clamps the tip onto the
    stop without the step along A^{-1} e_c, which leaves the equations off
    the tip broken in contact: the run's audit fails, and neither a run nor
    a sweep member writes a CSV."""
    monkeypatch.setattr(PinnedDofSolver, "__init__", clamp_only_init())
    monkeypatch.setenv("BEAM_THREADS", "1")
    # stops at +-0.002 m: the tip first arrives at t = 0.0068 s
    cfg_file.write_text(PIPE_SHORT.replace("g = 0.1", "g = 0.002").replace("T = 0.05", "T = 0.01"))
    code = main(["run", str(cfg_file), "--output-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert "solver error: off-contact residual" in err
    assert not (tmp_path / "run" / "out.csv").exists()
    out = tmp_path / "sweep"
    code = main(["sweep", str(cfg_file), "--key", "dt", "--values", "5e-5,2.5e-5",
                 "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "dt=5e-5: solver error: off-contact residual" in err
    assert "dt=2.5e-5: solver error: off-contact residual" in err
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


def test_run_infinite_horizon_is_bad_config(cfg_file, tmp_path, capsys):
    cfg_file.write_text(PIPE_SHORT.replace("T = 0.05", "T = inf"))
    assert main(["run", str(cfg_file), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "bad config" in err and "'T'" in err
    assert not (tmp_path / "out.csv").exists()


def test_run_output_without_a_file_name_is_bad_config(cfg_file, tmp_path, capsys):
    """An output of '.' or '..' names no file: the config is rejected
    before the run, not after it."""
    for bad in (".", ".."):
        cfg_file.write_text(PIPE_SHORT.replace("output = out.csv", f"output = {bad}"))
        assert main(["run", str(cfg_file), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "bad config" in err and "'output'" in err


def test_run_output_that_is_a_directory_fails_with_a_message(cfg_file, tmp_path, capsys):
    (tmp_path / "out.csv").mkdir()
    assert main(["run", str(cfg_file), "--output-dir", str(tmp_path)]) == 1
    assert f"cannot write {tmp_path / 'out.csv'}: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]


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


def test_sweep_bad_token_fails_its_member_only(cfg_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BEAM_THREADS", "1")
    cfg_file.write_text(PIPE_SHORT.replace("T = 0.05", "T = 0.002"))
    out = tmp_path / "sweep"
    code = main(["sweep", str(cfg_file), "--key", "dt", "--values", "nan,5e-5",
                 "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "dt=nan" in err and "'dt'" in err
    assert sorted(p.name for p in out.iterdir()) == ["dt_5e-5.csv", "summary.csv", "summary.txt"]
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 1 and rows[0].startswith("dt=5e-5,")


def test_sweep_member_that_cannot_be_written_fails_alone(
    cfg_file, tmp_path, monkeypatch, capsys
):
    """A member whose CSV path is a directory fails with a message; the
    other member and the summary are still written."""
    monkeypatch.setenv("BEAM_THREADS", "1")
    cfg_file.write_text(PIPE_SHORT.replace("T = 0.05", "T = 0.002"))
    out = tmp_path / "sweep"
    (out / "dt_5e-5.csv").mkdir(parents=True)
    code = main(["sweep", str(cfg_file), "--key", "dt", "--values", "5e-5,2.5e-5",
                 "--output-dir", str(out)])
    assert code == 1
    assert f"dt=5e-5: cannot write {out / 'dt_5e-5.csv'}: " in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "dt_2.5e-5.csv", "dt_5e-5.csv", "summary.csv", "summary.txt"]
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 1 and rows[0].startswith("dt=2.5e-5,")


def test_sweep_summary_that_cannot_be_written_fails_with_a_message(
    cfg_file, tmp_path, monkeypatch, capsys
):
    """A summary.csv path that is a directory fails the sweep with a
    message; the member CSVs and summary.txt are still written."""
    monkeypatch.setenv("BEAM_THREADS", "1")
    cfg_file.write_text(PIPE_SHORT.replace("T = 0.05", "T = 0.002"))
    out = tmp_path / "sweep"
    (out / "summary.csv").mkdir(parents=True)
    code = main(["sweep", str(cfg_file), "--key", "dt", "--values", "5e-5,2.5e-5",
                 "--output-dir", str(out)])
    assert code == 1
    assert f"cannot write {out / 'summary.csv'}: " in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "dt_2.5e-5.csv", "dt_5e-5.csv", "summary.csv", "summary.txt"]
    assert (out / "summary.csv").is_dir()
    assert len((out / "summary.txt").read_text().strip().split("\n")) == 3


def test_sweep_output_dir_that_is_a_file_fails_with_a_message(cfg_file, tmp_path, capsys):
    """``--output-dir F`` with F an existing file fails before any member runs."""
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    code = main(["sweep", str(cfg_file), "--key", "dt", "--values", "5e-5,2.5e-5",
                 "--output-dir", str(taken)])
    assert code == 1
    assert f"cannot write {taken}: " in capsys.readouterr().err
    assert taken.read_text() == "keep me\n"


def test_sweep_chunks_come_from_the_swept_key():
    """Sweep members differ in the swept key alone: a dt sweep runs one
    member per chunk, and an inv_eps sweep is cut into at most one
    contiguous chunk per worker, in order."""
    cfg = parse_config(PIPE_SHORT)
    dts = [(i, v, override(cfg, "dt", v)) for i, v in enumerate(("5e-5", "2.5e-5", "1e-5"))]
    assert _chunks("dt", dts, 4, "out", False) == [("dt", [m], "out", False) for m in dts]
    penalty = parse_config(PIPE_SHORT.replace("scheme = signorini", "scheme = penalty\ninv_eps = 1"))
    stiff = [(i, v, override(penalty, "inv_eps", v))
             for i, v in enumerate(("1e6", "1e7", "1e8", "1e9", "1e10"))]
    assert [c[1] for c in _chunks("inv_eps", stiff, 2, "out", True)] == [stiff[:2], stiff[2:]]


def test_penalty_sweep_nan_stiffness_fails(cfg_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BEAM_THREADS", "1")
    cfg_file.write_text(
        PIPE_SHORT.replace("scheme = signorini", "scheme = penalty\ninv_eps = 1e6")
        .replace("beta = 0.5", "beta = 0.25").replace("dt = 5e-5", "dt = 5e-6")
        .replace("T = 0.05", "T = 0.001")
    )
    out = tmp_path / "sweep"
    code = main(["sweep", str(cfg_file), "--key", "inv_eps", "--values", "nan",
                 "--output-dir", str(out)])
    assert code == 1
    assert "'inv_eps'" in capsys.readouterr().err
    assert not (out / "inv_eps_nan.csv").exists()


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


def penalty_cfg(beta, dt):
    """Penalty config with stops at +-0.002 m (first arrival t = 0.0068 s), T = 0.03."""
    return (
        PIPE_SHORT.replace("scheme = signorini", "scheme = penalty\ninv_eps = 1e6")
        .replace("g = 0.1", "g = 0.002").replace("beta = 0.5", f"beta = {beta}")
        .replace("dt = 5e-5", f"dt = {dt}").replace("T = 0.05", "T = 0.03")
        + "record_stride = 7\n"
    )


def solo_runs(cfg_text, values, tmp_path, capsys):
    """value -> (exit code, SHA-256 of the CSV or None, stderr) of each member's own run."""
    out = {}
    for value in values:
        cfg = tmp_path / f"solo_{value}.cfg"
        cfg.write_text(cfg_text.replace("inv_eps = 1e6", f"inv_eps = {value}"))
        code = main(["run", str(cfg), "--output-dir", str(tmp_path / f"solo_{value}")])
        csv = tmp_path / f"solo_{value}" / "out.csv"
        digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None
        out[value] = (code, digest, capsys.readouterr().err)
    return out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_penalty_sweep_members_are_byte_identical_to_solo_runs(
    cfg_file, tmp_path, monkeypatch, capsys, threads
):
    """The four members step together (one block, or one per worker), and
    each member CSV has the SHA-256 of its own ``run``."""
    monkeypatch.setenv("BEAM_THREADS", threads)
    text = penalty_cfg(0.25, 1.5e-5)
    cfg_file.write_text(text)
    values = ["1e6", "1e7", "1e8", "1e9"]
    solo = solo_runs(text, values, tmp_path, capsys)
    out = tmp_path / "sweep"
    code = main(["sweep", str(cfg_file), "--key", "inv_eps", "--values", ",".join(values),
                 "--output-dir", str(out)])
    assert code == 0
    for value in values:
        assert solo[value][0] == 0
        assert hashlib.sha256((out / f"inv_eps_{value}.csv").read_bytes()).hexdigest() == solo[value][1]
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == [f"inv_eps={v}" for v in values]


@pytest.mark.parametrize(
    "beta,dt,values,failing",
    [
        # 1e9 blows up at beta = 0.1: its rows turn non-finite at t = 0.0279 s
        # (0.0228 s under the Haswell and Sandybridge kernels); 1e8 and 1e6 stay
        # finite under every kernel set
        (0.1, 1.2e-5, ["1e8", "1e9", "1e6"], "1e9"),
        # 1e300 turns NaN between two records: its run names the first non-finite record
        (0.2, 1.4e-5, ["1e6", "1e300", "1e9"], "1e300"),
    ],
)
def test_sweep_member_failure_leaves_the_others_byte_identical(
    cfg_file, tmp_path, monkeypatch, capsys, beta, dt, values, failing
):
    """One member of a block fails; it exits 1 with its solo run's message,
    and every other member's CSV is its solo run's, byte for byte."""
    monkeypatch.setenv("BEAM_THREADS", "1")
    text = penalty_cfg(beta, dt)
    cfg_file.write_text(text)
    solo = solo_runs(text, values, tmp_path, capsys)
    out = tmp_path / "sweep"
    code = main(["sweep", str(cfg_file), "--key", "inv_eps", "--values", ",".join(values),
                 "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    solo_code, _, solo_err = solo[failing]
    assert solo_code == 1 and solo_err.strip()
    assert f"inv_eps={failing}: {solo_err.strip()}" in err
    assert not (out / f"inv_eps_{failing}.csv").exists()
    for value in values:
        if value != failing:
            digest = hashlib.sha256((out / f"inv_eps_{value}.csv").read_bytes()).hexdigest()
            assert digest == solo[value][1]
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == [f"inv_eps={v}" for v in values if v != failing]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_member_with_an_inconsistent_penalty_branch_writes_no_csv(
    cfg_file, tmp_path, monkeypatch, capsys, threads
):
    """The 1e7 member's bumped factor is that of A + 100 bump e_c e_c^T
    (``wrong_branch_init``): at step 446 its first bumped solve returns its tip
    on the free side of the stop it presses.  Its state u^447 turns NaN, so
    the sweep exits 1 naming its first record at or after t = 447 dt
    (record 64, t = 448 dt at stride 7) and writes no CSV for it; every
    other member's CSV is its solo run's, byte for byte."""
    monkeypatch.setenv("BEAM_THREADS", threads)
    text = penalty_cfg(0.25, 1.5e-5)
    cfg_file.write_text(text)
    values = ["1e6", "1e7", "1e8", "1e9"]
    solo = solo_runs(text, values, tmp_path, capsys)
    monkeypatch.setattr(PenaltyTipSolver, "__init__", wrong_branch_init(1e7))
    out = tmp_path / "sweep"
    code = main(["sweep", str(cfg_file), "--key", "inv_eps", "--values", ",".join(values),
                 "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip() == ("inv_eps=1e7: solver error: record 64 (t = 0.00672 s) "
                           "is not finite: the run blew up")
    assert not (out / "inv_eps_1e7.csv").exists()
    for value in ("1e6", "1e8", "1e9"):
        assert solo[value][0] == 0
        digest = hashlib.sha256((out / f"inv_eps_{value}.csv").read_bytes()).hexdigest()
        assert digest == solo[value][1]
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["inv_eps=1e6", "inv_eps=1e8", "inv_eps=1e9"]


def test_sweep_repeated_value_fails_before_any_member_runs(cfg_file, tmp_path, capsys):
    """Two tokens that read as the same value would run one configuration
    twice and write one CSV from two members."""
    out = tmp_path / "sweep"
    code = main(["sweep", str(cfg_file), "--key", "dt", "--values", "5e-5,2.5e-5,5.0e-5",
                 "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "'5e-5'" in err and "'5.0e-5'" in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["-1", "0", "0.5", "abc"])
def test_sweep_rejects_a_bad_thread_count(cfg_file, tmp_path, monkeypatch, capsys, threads):
    """BEAM_THREADS is a positive integer, or unset or empty for the CPU
    count; anything else fails before a member runs or a directory is made."""
    monkeypatch.setenv("BEAM_THREADS", threads)
    out = tmp_path / "sweep"
    code = main(["sweep", str(cfg_file), "--key", "dt", "--values", "5e-5,2.5e-5",
                 "--output-dir", str(out)])
    assert code == 1
    assert "BEAM_THREADS" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("flag", [["--force"], ["--output-dir", "."]])
def test_stability_rejects_run_only_flags(cfg_file, flag):
    """stability neither runs nor writes, so it takes neither flag."""
    with pytest.raises(SystemExit) as info:
        main(["stability", str(cfg_file), *flag])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["sweep", "--help"], [],
                                  ["walk"], ["sweep", "x.cfg", "--key", "L", "--values", "1"],
                                  ["sweep", "x.cfg", "--key", "dt", "--values", " , "]],
                         ids=["help", "run-help", "sweep-help", "no-command", "bad-command",
                              "bad-key", "no-values"])
def test_the_parser_built_once_prints_as_a_fresh_one(argv, tmp_path, monkeypatch, capsys):
    """``main`` builds its parser once per process; every call after the
    first prints the same help and the same usage errors, with the same
    exit code, as a parser built for that call alone."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.cfg").write_text(PIPE_SHORT)
    assert cli._build_parser() is cli._build_parser()
    printed = []
    for fresh in (False, False, True):
        if fresh:
            monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        with pytest.raises(SystemExit) as info:
            main(argv)
        printed.append((info.value.code, capsys.readouterr()))
    assert printed[0] == printed[1] == printed[2]
    assert printed[0][0] in (0, 2) and printed[0][1] != ("", "")


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
