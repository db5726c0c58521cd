"""Output checks: a run that exits 0 but writes garbage counts as failed.

Every check raises :class:`CheckFailed` with a message naming the file or
member and the first offending record.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

CSV_HEADER = "t,u_tip,v_tip,energy,reaction,violation"
COLUMNS = tuple(CSV_HEADER.split(","))

#: Sign tolerance on the dt^2-scaled tip reaction, the same 1e-9 that the
#: run's own complementarity audit and acceptance criterion 9 use.
REACTION_TOL = 1e-9
#: Relative slack for "resting on a stop" (the exact solve pins the tip to
#: the bound itself, so this only absorbs a last-digit difference).
AT_STOP_REL = 1e-12
#: Acceptance criterion 8's penetration bracket for 1/eps = 1e8 [m].
PENALTY_BRACKET = (1e-5, 1e-3)


class CheckFailed(Exception):
    """The program's output failed a benchmark check."""


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a trajectory CSV, keyed by header name."""
    header, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    if header != CSV_HEADER:
        raise CheckFailed(f"{Path(path).name}: unexpected header {header!r}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape[1] != len(COLUMNS) or data.shape[0] < 2:
        raise CheckFailed(f"{Path(path).name}: expected >= 2 rows of {len(COLUMNS)} columns")
    return {name: data[:, i] for i, name in enumerate(COLUMNS)}


def trajectory_columns(traj) -> dict[str, np.ndarray]:
    """The same columns taken from an in-memory ``Trajectory``."""
    return {name: np.asarray(getattr(traj, name), dtype=float) for name in COLUMNS}


def check_tip_history(
    cols: dict[str, np.ndarray],
    lower: float,
    upper: float,
    n_steps: int,
    dt: float,
    label: str,
    *,
    exact: bool,
) -> None:
    """Finite values, full horizon, admissible tip and the reaction sign pattern.

    ``exact`` marks the Signorini (exact-contact) scheme: there the
    violation column must be 0 and the tip inside [lower, upper].  For
    both schemes the reaction is <= 0 resting on the upper stop, >= 0 on
    the lower one and about 0 when free.
    """
    t = cols["t"]
    for name in COLUMNS:
        bad = np.flatnonzero(~np.isfinite(cols[name]))
        if bad.size:
            raise CheckFailed(f"{label}: non-finite {name} in row {bad[0]} (t={t[bad[0]]!r})")
    if abs(t[-1] - n_steps * dt) > 1e-9 * max(1.0, n_steps * dt):
        raise CheckFailed(f"{label}: last record at t={t[-1]!r}, expected {n_steps * dt!r}")
    u, reaction, viol = cols["u_tip"], cols["reaction"], cols["violation"]
    if np.any(viol < 0.0):
        raise CheckFailed(f"{label}: negative violation")
    if exact:
        if np.any(viol != 0.0):
            raise CheckFailed(f"{label}: exact scheme reports violation {viol.max()!r}")
        out = np.flatnonzero((u > upper) | (u < lower))
        if out.size:
            raise CheckFailed(f"{label}: tip {u[out[0]]!r} penetrates a stop at t={t[out[0]]!r}")
    at_upper = u >= upper - AT_STOP_REL * abs(upper)
    at_lower = u <= lower + AT_STOP_REL * abs(lower)
    free = ~(at_upper | at_lower)
    if np.any(reaction[at_upper] > REACTION_TOL):
        raise CheckFailed(f"{label}: reaction pulls toward the upper stop")
    if np.any(reaction[at_lower] < -REACTION_TOL):
        raise CheckFailed(f"{label}: reaction pulls toward the lower stop")
    if np.any(np.abs(reaction[free]) > REACTION_TOL):
        raise CheckFailed(f"{label}: reaction {np.abs(reaction[free]).max()!r} without contact")


def check_penalty_violations(violations: dict[float, float]) -> None:
    """Penetration is positive, falls as 1/eps grows, and 1e8 sits in criterion 8's bracket."""
    stiff = sorted(violations)
    values = [violations[k] for k in stiff]
    if not all(v > 0.0 for v in values):
        raise CheckFailed(f"penalty violations not all positive: {values}")
    if not all(a > b for a, b in zip(values, values[1:])):
        raise CheckFailed(f"penalty violation does not fall with inv_eps: {values}")
    lo, hi = PENALTY_BRACKET
    if 1e8 in violations and not lo <= violations[1e8] <= hi:
        raise CheckFailed(f"inv_eps=1e8 violation {violations[1e8]!r} outside [{lo}, {hi}]")


def match_reference(
    ref: dict, t: np.ndarray, u_tip: np.ndarray, dt: float, n_steps: int, label: str
) -> int:
    """Compare the tip history with a recorded reference; returns points compared.

    ``ref`` holds ``u_tip`` at every ``every``-th step from step 0 and a
    tolerance ``tol`` in metres.  Only steps recorded by this run and at
    least two steps before its horizon are compared, because the last
    load window is clipped at the horizon, so a shortened run shares the
    reference's history up to there.
    """
    every, ref_u, tol = int(ref["every"]), np.asarray(ref["u_tip"]), float(ref["tol"])
    steps = np.rint(t / dt).astype(np.int64)
    keep = (steps % every == 0) & (steps <= n_steps - 2) & (steps // every < ref_u.size)
    if not np.any(keep):
        return 0
    diff = np.abs(u_tip[keep] - ref_u[steps[keep] // every])
    worst = int(np.argmax(diff))
    if diff[worst] > tol:
        raise CheckFailed(
            f"{label}: tip differs from the reference by {diff[worst]:.3e} m "
            f"at step {steps[keep][worst]} (tolerance {tol:.0e} m)"
        )
    return int(np.count_nonzero(keep))
