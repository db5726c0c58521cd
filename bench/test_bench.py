"""Self-test of the benchmark at tiny horizons.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import calibrate
import checks
import run_bench
import tracing
import workloads

# Long enough for the sweep's members to reach a stop (first impact near
# t = 0.088 s), so its penalty checks have something to check.
TINY = {"pipe": 0.02, "fine-mesh": 0.002, "penalty-sweep": 0.1, "obstacle": 0.005}
BENCHMARK = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name, tmp_path, seed=0):
    return workloads.make(name, seed, tmp_path, horizon=TINY[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    tally = run_bench.Tally()
    metrics = run_bench.measure(tiny(name, tmp_path), tally, seconds=0.0)
    assert tally.failed == 0, tally.errors
    assert tally.consistent
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(v > 0.0 for v in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_has_a_calibration_kernel(name):
    kernel = calibrate.Kernel(2 * workloads.WORKLOADS[name].J)
    assert 0.0 < kernel.speed(0.01) < 100.0


def test_seed_zero_is_the_reference_scenario():
    assert workloads.support_motion(0) == (workloads.AMPLITUDE, workloads.OMEGA)
    amp, omega = workloads.support_motion(7)
    assert workloads.support_motion(7) == (amp, omega)
    assert abs(amp / workloads.AMPLITUDE - 1.0) <= workloads.JITTER
    assert abs(omega / workloads.OMEGA - 1.0) <= workloads.JITTER


def _good_history(n=50, dt=5e-5):
    t = np.arange(n + 1) * dt
    u = 0.05 * np.sin(200.0 * t)
    zeros = np.zeros_like(t)
    return {"t": t, "u_tip": u, "v_tip": zeros, "energy": 1.0 + zeros,
            "reaction": zeros.copy(), "violation": zeros.copy()}, n, dt


def _write_csv(path, cols):
    rows = np.column_stack([cols[c] for c in checks.COLUMNS])
    body = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows)
    path.write_text(checks.CSV_HEADER + "\n" + body + "\n", encoding="utf-8")


def test_check_accepts_a_good_history(tmp_path):
    cols, n, dt = _good_history()
    _write_csv(tmp_path / "ok.csv", cols)
    checks.check_tip_history(checks.read_csv(tmp_path / "ok.csv"), -0.1, 0.1, n, dt, "ok", exact=True)


def test_check_rejects_a_nan_row(tmp_path):
    cols, n, dt = _good_history()
    for name in ("u_tip", "energy", "violation"):
        cols[name][7] = np.nan
    _write_csv(tmp_path / "nan.csv", cols)
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_tip_history(checks.read_csv(tmp_path / "nan.csv"), -0.1, 0.1, n, dt, "nan", exact=True)


def test_check_rejects_a_penetrating_tip(tmp_path):
    cols, n, dt = _good_history()
    cols["u_tip"][9] = 0.1 + 1e-6
    _write_csv(tmp_path / "deep.csv", cols)
    with pytest.raises(checks.CheckFailed, match="penetrates"):
        checks.check_tip_history(checks.read_csv(tmp_path / "deep.csv"), -0.1, 0.1, n, dt, "deep", exact=True)


def test_check_rejects_wrong_reaction_signs():
    cols, n, dt = _good_history()
    cols["u_tip"][4] = 0.1
    cols["reaction"][4] = 1e-6  # pulls toward the upper stop
    with pytest.raises(checks.CheckFailed, match="upper stop"):
        checks.check_tip_history(cols, -0.1, 0.1, n, dt, "sign", exact=True)
    cols["reaction"][4] = 0.0
    cols["reaction"][20] = 1e-6  # force without contact
    with pytest.raises(checks.CheckFailed, match="without contact"):
        checks.check_tip_history(cols, -0.1, 0.1, n, dt, "free", exact=True)


def test_check_rejects_penalty_violations_that_do_not_fall():
    checks.check_penalty_violations({1e6: 1e-3, 1e7: 2e-4, 1e8: 6e-5, 1e9: 2e-5})
    with pytest.raises(checks.CheckFailed, match="does not fall"):
        checks.check_penalty_violations({1e6: 1e-3, 1e7: 2e-4, 1e8: 6e-5, 1e9: 7e-5})
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_penalty_violations({1e7: 1e-2, 1e8: 2e-3})


def test_check_rejects_a_drifted_tip_history():
    cols, n, dt = _good_history()
    ref = {"every": 10, "u_tip": list(cols["u_tip"][::10]), "tol": 1e-8}
    assert checks.match_reference(ref, cols["t"], cols["u_tip"], dt, n, "same") > 0
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.match_reference(ref, cols["t"], cols["u_tip"] + 1e-7, dt, n, "drift")


def test_obstacle_reaches_the_band(tmp_path):
    traj, _ = workloads.make("obstacle", 0, tmp_path)._run(False)
    band = float(workloads.obstacle_band(workloads.L))
    assert np.abs(traj.u_tip).max() == pytest.approx(band, abs=1e-12)


USED_LAYERS = {
    "pipe": tracing.LAYERS,
    "fine-mesh": tracing.LAYERS,
    "penalty-sweep": tracing.LAYERS,
    "obstacle": ("fem", "linalg", "stability", "steppers", "diagnostics"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_sees_every_layer_it_uses(name, tmp_path):
    tally = run_bench.Tally()
    metrics = run_bench.measure_traced(tiny(name, tmp_path), tally, 0.0, {"test": True})
    assert tally.failed == 0, tally.errors
    assert tally.consistent  # traced outputs equal untraced ones
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for layer in USED_LAYERS[name]:
        assert metrics[f"{layer}.calls"] > 0, layer
    if name == "obstacle":
        assert metrics["linalg.pgs.calls"] > 0
        assert metrics["linalg.pgs.sweeps_per_call"] >= 1.0
    else:
        assert metrics["linalg.pgs.calls"] == 0
    assert metrics["fem.loads.calls"] > 0
    assert metrics["linalg.factorizations"] > 0
    assert metrics["stability.check.calls"] > 0
    if name == "penalty-sweep":
        assert metrics["steppers.penalty.bumped_ratio"] > 0.0
        assert metrics["cli.pool_efficiency"] > 0.0
    if name in ("pipe", "fine-mesh"):
        # one solve per step after the first, which comes from the
        # initial data, and two on contact: the power iteration's solves
        # in set-up are not counted
        assert 0.95 <= metrics["linalg.solves_per_step"] < 1.2


def test_tracer_restores_the_program():
    import beamstops.cli
    import beamstops.linalg
    import beamstops.steppers

    before = (beamstops.steppers.pgs_box, beamstops.cli.run, beamstops.linalg.BandedSpd.matvec)
    with tracing.Tracer():
        assert beamstops.steppers.pgs_box is not before[0]
        assert beamstops.cli.run is not before[1]
    assert (beamstops.steppers.pgs_box, beamstops.cli.run, beamstops.linalg.BandedSpd.matvec) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run_bench.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "pipe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
