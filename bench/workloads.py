"""The four benchmark workloads.

Each workload turns a seed into inputs, invokes the program once per
call of :meth:`invoke` (optionally with the horizon cut to one step, for
set-up time) and checks every output it wrote.  The program is imported
from this checkout's ``src/`` and nowhere else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "beamstops" / "__init__.py").is_file():
    raise ImportError(f"beamstops sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import beamstops  # noqa: E402
from beamstops import cli, steppers  # noqa: E402
from beamstops.fem import BeamModel, Mesh, SupportMotion  # noqa: E402

if Path(beamstops.__file__).resolve().parent != (SRC / "beamstops").resolve():
    raise ImportError(f"beamstops imported from {beamstops.__file__}, not {SRC}")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# README reference scenario: support motion 0.2 sin(10 t), stops at +-0.1 m.
L, K2, GAP = 1.501, 282.84, 0.1
AMPLITUDE, OMEGA = 0.2, 10.0
#: Relative spread of the seeded support motion around the reference.
#: Small, so that the cost of a workload hardly depends on its seed.
JITTER = 0.01

PENALTY_VALUES = ("1e6", "1e7", "1e8", "1e9")


def support_motion(seed: int) -> tuple[float, float]:
    """(amplitude, omega); seed 0 is the reference scenario itself."""
    if seed == 0:
        return AMPLITUDE, OMEGA
    rng = random.Random(seed)
    return (
        AMPLITUDE * (1.0 + JITTER * rng.uniform(-1.0, 1.0)),
        OMEGA * (1.0 + JITTER * rng.uniform(-1.0, 1.0)),
    )


def config_text(J, scheme, beta, dt, T, amplitude, omega, output, stride, inv_eps=None) -> str:
    lines = [
        f"L = {L!r}",
        f"J = {J}",
        f"k2 = {K2!r}",
        f"g = {GAP!r}",
        "phi = sin",
        f"phi_amplitude = {amplitude!r}",
        f"phi_omega = {omega!r}",
        f"scheme = {scheme}",
        f"beta = {beta!r}",
        f"dt = {dt!r}",
        f"T = {T!r}",
        f"output = {output}",
        f"record_stride = {stride}",
    ]
    if inv_eps is not None:
        lines.append(f"inv_eps = {inv_eps}")
    return "\n".join(lines) + "\n"


@dataclass
class Outcome:
    """One checked invocation."""

    steps: int
    wall: float
    digest: str  # hash of the outputs: equal inputs must give equal outputs
    pool_efficiency: float | None = None


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _quiet_main(argv) -> tuple[int, float, str]:
    """Run ``cli.main`` with its console output captured; returns (code, wall, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    return code, wall, err.getvalue()


def _load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Workload:
    """Base: seed, output directory, horizon and the reference to compare with."""

    name = ""
    dt = 0.0
    J = 19  # elements; the model has 2 J unknowns
    horizon = 0.0
    every = 1  # reference keeps the tip at every ``every``-th step
    tol = 1e-8  # reference tolerance [m]
    pooled = False  # can run its members in a process pool

    def __init__(self, seed: int, out_dir: Path, horizon: float | None = None):
        self.seed = seed
        self.out = Path(out_dir) / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        if horizon is not None:
            self.horizon = horizon
        self.amplitude, self.omega = support_motion(seed)
        self.reference = _load_reference().get(self.name, {}) if seed == 0 else {}

    def n_steps(self, one_step: bool) -> int:
        return 1 if one_step else int(round(self.horizon / self.dt))

    def _reference_check(self, key, t, u_tip, n_steps, label):
        if key in self.reference:
            ref = dict(self.reference[key], tol=self.tol)
            checks.match_reference(ref, t, u_tip, self.dt, n_steps, label)

    def reference_entry(self, t, u_tip) -> dict:
        # the last load window is clipped at the horizon, so the last two
        # steps differ from a longer run's and are left out
        steps = np.rint(t / self.dt).astype(np.int64)
        keep = (steps % self.every == 0) & (steps <= steps[-1] - 2)
        return {"every": self.every, "u_tip": [float(u) for u in u_tip[keep]]}


class CliRun(Workload):
    """``beamstops run`` through ``cli.main`` on one signorini config."""

    dt = 5e-5
    stride = "auto"

    def __init__(self, seed, out_dir, horizon=None):
        super().__init__(seed, out_dir, horizon)
        self.configs = {}
        for one_step in (False, True):
            T = self.dt if one_step else self.horizon
            path = self.out / ("setup.cfg" if one_step else "run.cfg")
            path.write_text(
                config_text(self.J, "signorini", 0.5, self.dt, T, self.amplitude,
                            self.omega, f"{self.name}.csv", self.stride),
                encoding="utf-8",
            )
            self.configs[one_step] = str(path)

    def invoke(self, one_step: bool = False) -> Outcome:
        code, wall, err = _quiet_main(["run", self.configs[one_step], "--output-dir", str(self.out)])
        if code != 0:
            raise checks.CheckFailed(f"{self.name}: exit code {code}: {err.strip()}")
        csv = self.out / f"{self.name}.csv"
        cols = checks.read_csv(csv)
        n = self.n_steps(one_step)
        checks.check_tip_history(cols, -GAP, GAP, n, self.dt, self.name, exact=True)
        self._reference_check("tip", cols["t"], cols["u_tip"], n, self.name)
        return Outcome(steps=n, wall=wall, digest=_digest(csv.read_bytes()))

    def record(self) -> dict:
        self.invoke()
        cols = checks.read_csv(self.out / f"{self.name}.csv")
        return {"tip": self.reference_entry(cols["t"], cols["u_tip"])}


class Pipe(CliRun):
    """README reference config: J=19, signorini, beta=1/2, dt=5e-5.

    The horizon is cut from T=2 to 0.15 s (3 000 steps), so that a run
    holds many short invocations.  0.15 s is the shortest prefix whose
    contact share (pinned solves that make a second solve) matches the
    T=2 run: 5.5 % against 5.6 % (3.3 % at 0.1 s).  Recording every 2nd
    step keeps the recording share of the T=2 run, whose auto stride
    is 2.
    """

    name = "pipe"
    horizon = 0.15
    stride = 2
    every = 20


class FineMesh(CliRun):
    """The same config at J=320 (n=640): dense load product and largest set-up.

    Cut to T=0.15 like ``pipe``: contact share 5.6 %, against 5.4 % over
    T=2 (3.2 % at 0.1 s); the auto stride of the T=2 run is 2.
    """

    name = "fine-mesh"
    J = 320
    horizon = 0.15
    stride = 2
    every = 20


class PenaltySweep(Workload):
    """``beamstops sweep --key inv_eps`` over four stiffnesses, beta=1/4, J=19."""

    name = "penalty-sweep"
    pooled = True
    dt = 1.5e-5  # below the exact beta=1/4 limit of 1.74e-5 s at J=19
    # 6 667 steps per member, past the first impact at t ~ 0.088 s.  The
    # share of penalty steps that make a second solve is 2.2 %, against
    # 1.7 % over T=2 and 2.5 % over T=0.5.  Recording every 7th step
    # keeps the recording share of the T=2 sweep, whose auto stride is 7.
    horizon = 0.1
    stride = 7
    every = 70

    def __init__(self, seed, out_dir, horizon=None):
        super().__init__(seed, out_dir, horizon)
        # Members run one after another in this process, as ``BEAM_THREADS=1``
        # makes them: a pool of two workers on two shared cores measures the
        # host's scheduler more than the program.  False runs the pool.
        self.serial = True
        self.values = list(PENALTY_VALUES)
        if seed != 0:
            random.Random(seed).shuffle(self.values)
        self.configs = {}
        for one_step in (False, True):
            T = self.dt if one_step else self.horizon
            path = self.out / ("setup.cfg" if one_step else "sweep.cfg")
            path.write_text(
                config_text(self.J, "penalty", 0.25, self.dt, T, self.amplitude, self.omega,
                            "unused.csv", self.stride, inv_eps=PENALTY_VALUES[0]),
                encoding="utf-8",
            )
            self.configs[one_step] = str(path)

    def workers(self) -> int:
        return 1 if self.serial else min(os.cpu_count() or 1, len(self.values))

    def invoke(self, one_step: bool = False) -> Outcome:
        workers = self.workers()
        saved = os.environ.get("BEAM_THREADS")
        os.environ["BEAM_THREADS"] = str(workers)
        try:
            code, wall, err = _quiet_main([
                "sweep", self.configs[one_step], "--key", "inv_eps",
                "--values", ",".join(self.values), "--output-dir", str(self.out),
            ])
        finally:
            if saved is None:
                del os.environ["BEAM_THREADS"]
            else:
                os.environ["BEAM_THREADS"] = saved
        if code != 0:
            raise checks.CheckFailed(f"{self.name}: exit code {code}: {err.strip()}")
        summary = self._summary()
        if sorted(summary) != sorted(f"inv_eps={v}" for v in self.values):
            raise checks.CheckFailed(f"{self.name}: summary rows {sorted(summary)}")
        n = self.n_steps(one_step)
        blobs = []
        for value in PENALTY_VALUES:
            label = f"inv_eps={value}"
            csv = self.out / f"inv_eps_{value}.csv"
            cols = checks.read_csv(csv)
            checks.check_tip_history(cols, -GAP, GAP, n, self.dt, label, exact=False)
            self._reference_check(label, cols["t"], cols["u_tip"], n, label)
            blobs.append(csv.read_bytes())
        if not one_step:
            checks.check_penalty_violations({float(v): summary[f"inv_eps={v}"][0] for v in self.values})
        busy = sum(row[1] for row in summary.values())
        return Outcome(
            steps=n * len(self.values), wall=wall, digest=_digest(*blobs),
            pool_efficiency=busy / (workers * wall),
        )

    def _summary(self) -> dict[str, tuple[float, float]]:
        """label -> (max_violation, wall_seconds) from summary.csv."""
        lines = (self.out / "summary.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        iv, iw = header.index("max_violation"), header.index("wall_seconds")
        rows = {}
        for line in lines[1:]:
            cells = line.split(",")
            rows[cells[0]] = (float(cells[iv]), float(cells[iw]))
            if not all(np.isfinite(rows[cells[0]])):
                raise checks.CheckFailed(f"{self.name}: non-finite summary row {line!r}")
        return rows

    def record(self) -> dict:
        self.invoke()
        out = {}
        for value in PENALTY_VALUES:
            cols = checks.read_csv(self.out / f"inv_eps_{value}.csv")
            out[f"inv_eps={value}"] = self.reference_entry(cols["t"], cols["u_tip"])
        return out


def obstacle_band(x):
    """Half-width of the distributed obstacle: 0.02 m at the clamp, 0.11 m at the tip."""
    return 0.02 + 0.06 * np.asarray(x, dtype=float)


def obstacle_load(x, t):
    """Distributed load that the config format cannot express [m s^-2]."""
    return 2.0 * np.cos(15.0 * t) * np.asarray(x, dtype=float) / L


class Obstacle(Workload):
    """API ``run()`` with per-node bands and a callable load: the PGS path.

    The horizon is cut from T=2 to 0.15 s (3 000 steps), the shortest
    prefix whose contact share matches the T=2 run: 5.1 % of the steps
    have a node on the band, against 5.2 % (nearly always the tip alone;
    0 before the first contact near t = 0.09 s, 2.7 % at 0.1 s).  PGS
    makes 18.4 sweeps per call here, 19.1 over T=2.
    """

    name = "obstacle"
    dt = 5e-5
    horizon = 0.15
    every = 10
    tol = 1e-6  # PGS stops at a 1e-10 natural residual, so allow more drift

    def __init__(self, seed, out_dir, horizon=None):
        super().__init__(seed, out_dir, horizon)
        self.model = BeamModel(
            k2=K2, L=L,
            g_lower=lambda x: -obstacle_band(x), g_upper=obstacle_band,
            phi=SupportMotion.sine(self.amplitude, self.omega),
            f_tilde=obstacle_load,
        )
        self.mesh = Mesh(L, self.J)

    def _run(self, one_step: bool):
        params = steppers.SchemeParams(beta=0.5, dt=self.dt, T=self.n_steps(one_step) * self.dt)
        t0 = time.perf_counter()
        traj = steppers.run(self.model, self.mesh, params)
        return traj, time.perf_counter() - t0

    def invoke(self, one_step: bool = False) -> Outcome:
        traj, wall = self._run(one_step)
        n = self.n_steps(one_step)
        if traj.n_steps != n:
            raise checks.CheckFailed(f"{self.name}: {traj.n_steps} steps, expected {n}")
        if traj.max_violation != 0.0:
            raise checks.CheckFailed(f"{self.name}: max_violation {traj.max_violation!r}")
        cols = checks.trajectory_columns(traj)
        tip_band = float(obstacle_band(L))
        checks.check_tip_history(cols, -tip_band, tip_band, n, self.dt, self.name, exact=True)
        self._reference_check("tip", cols["t"], cols["u_tip"], n, self.name)
        return Outcome(steps=n, wall=wall, digest=_digest(*(cols[k].tobytes() for k in checks.COLUMNS)))

    def record(self) -> dict:
        traj, _ = self._run(False)
        return {"tip": self.reference_entry(traj.t, traj.u_tip)}


WORKLOADS = {w.name: w for w in (Pipe, FineMesh, PenaltySweep, Obstacle)}


def make(name: str, seed: int, out_dir: Path, horizon: float | None = None) -> Workload:
    return WORKLOADS[name](seed, out_dir, horizon)


def write_reference(out_dir: Path) -> None:
    """Record the default-seed tip histories that later runs are checked against."""
    data = {}
    for name, cls in WORKLOADS.items():
        workload = cls(0, out_dir)
        workload.reference = {}
        data[name] = workload.record()
    REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
