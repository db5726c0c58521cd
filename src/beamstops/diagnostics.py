"""Energy, contact-complementarity and run-comparison diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import BandedSpd


def discrete_energy(pair, a_pair, stiffness: BandedSpd, dt: float) -> float:
    """Discrete energy of a consecutive pair ``(u0, u1)`` = (u^{n-1}, u^n).

    E = |(u1 - u0)/dt|_M^2
        + (1 - 2 beta) a(u0, u1)
        + beta a(u1, u1) + beta a(u0, u0),

    evaluated as E = (w . A w)/dt^2 + u0 . S u1 with w = u1 - u0 and
    A = M + dt^2 beta S, from the products ``a_pair`` = (A u0, A u1)
    that the run already holds: one product with S per call.

    Exactly conserved by the unconstrained scheme with zero load; for
    beta = 1/2 the quadratic form is positive definite so boundedness of
    E bounds the state.
    """
    u0, u1 = pair
    au0, au1 = a_pair
    w = u1 - u0
    return float((w @ (au1 - au0)) / dt**2 + u0 @ stiffness.matvec(u1))


# ---------------------------------------------------------------------------
# contact complementarity
# ---------------------------------------------------------------------------


class ComplementarityError(Exception):
    """A computed step violates the contact sign conditions."""


@dataclass(frozen=True)
class ContactRecord:
    """Contact state of one accepted step.

    ``reaction`` is the scheme-native, dt^2-scaled contact force
    (A u - F) at the constrained DOF: zero off contact, <= 0 while
    pressing the upper stop, >= 0 at the lower stop.  Divide by dt^2 for
    the physical force.
    """

    tip: float
    reaction: float
    active: str  # "upper" | "lower" | "inactive"
    offband_residual: float


def active_sides(tips, lower: float, upper: float) -> np.ndarray:
    """"upper", "lower" or "inactive" for each tip; a tip within 1e-12
    (relative) of a finite stop rests on it, and a NaN tip is inactive."""
    tips = np.asarray(tips, dtype=float)
    on_upper = np.zeros(tips.shape, dtype=bool)
    on_lower = np.zeros(tips.shape, dtype=bool)
    if math.isfinite(upper):
        on_upper = tips >= upper - 1e-12 * max(1.0, abs(upper))
    if math.isfinite(lower):
        on_lower = tips <= lower + 1e-12 * max(1.0, abs(lower))
    return np.where(on_upper, "upper", np.where(on_lower, "lower", "inactive"))


def contact_residual(
    u_next: np.ndarray,
    au_next: np.ndarray,
    f_n: np.ndarray,
    index: int,
    lower: float,
    upper: float,
    tol: float = 1e-9,
) -> ContactRecord:
    """Verify the complementarity conditions of one computed step.

    Off the constrained DOF the equations must hold (residual <= tol);
    at the constrained DOF the reaction must vanish off contact and
    push away from the violated stop on contact.  The residual
    r = A u - F is formed from the product ``au_next`` = A u; raises
    :class:`ComplementarityError` on violation.
    """
    r = au_next - f_n
    reaction = float(r[index])
    r[index] = 0.0
    offband = float(np.abs(r).max())
    active = str(active_sides(u_next[index], lower, upper))
    if offband > tol:
        raise ComplementarityError(
            f"off-contact residual {offband:.3e} exceeds {tol:.1e}"
        )
    if active == "inactive" and abs(reaction) > tol:
        raise ComplementarityError(
            f"nonzero reaction {reaction:.3e} without contact"
        )
    if active == "upper" and reaction > tol:
        raise ComplementarityError(
            f"reaction {reaction:.3e} pulls toward the upper stop"
        )
    if active == "lower" and reaction < -tol:
        raise ComplementarityError(
            f"reaction {reaction:.3e} pulls toward the lower stop"
        )
    return ContactRecord(
        tip=float(u_next[index]), reaction=reaction, active=active, offband_residual=offband
    )


@dataclass
class ContactAudit:
    """Worst-case complementarity figures accumulated over a whole run."""

    contact_steps: int = 0
    episodes: int = 0
    max_offband_residual: float = 0.0
    # (A u - F) at the constrained DOF: <= 0 at the upper stop, >= 0 at
    # the lower stop, = 0 inactive; track the worst signed excess.
    max_upper_reaction: float = -np.inf
    min_lower_reaction: float = np.inf
    max_inactive_reaction: float = 0.0
    _in_contact: bool = field(default=False, repr=False)

    def update(self, active, reaction, offband) -> None:
        """Fold in a run of consecutive steps: their active sides ("upper",
        "lower" or "inactive"), reactions and off-contact residuals, as
        arrays or as the scalars of one step.  NaN figures are skipped."""
        active, reaction, offband = np.atleast_1d(active, reaction, offband)
        if active.size == 0:
            return
        self.max_offband_residual = float(np.fmax.reduce(offband, initial=self.max_offband_residual))
        inactive = active == "inactive"
        self.max_inactive_reaction = float(
            np.fmax.reduce(np.abs(reaction[inactive]), initial=self.max_inactive_reaction)
        )
        contact = ~inactive
        self.contact_steps += int(np.count_nonzero(contact))
        before = np.concatenate(([self._in_contact], contact[:-1]))
        self.episodes += int(np.count_nonzero(contact & ~before))
        self._in_contact = bool(contact[-1])
        self.max_upper_reaction = float(
            np.fmax.reduce(reaction[active == "upper"], initial=self.max_upper_reaction)
        )
        self.min_lower_reaction = float(
            np.fmin.reduce(reaction[active == "lower"], initial=self.min_lower_reaction)
        )

    def satisfies(self, tol: float = 1e-9) -> bool:
        ok = self.max_offband_residual <= tol
        ok &= self.max_inactive_reaction <= tol
        if np.isfinite(self.max_upper_reaction):
            ok &= self.max_upper_reaction <= tol
        if np.isfinite(self.min_lower_reaction):
            ok &= self.min_lower_reaction >= -tol
        return bool(ok)


# ---------------------------------------------------------------------------
# trajectory-level measures
# ---------------------------------------------------------------------------


def violation(traj, g: float) -> float:
    """Max recorded overshoot beyond the symmetric stops [-g, g]."""
    if not g > 0.0:
        raise ValueError("gap g must be positive")
    return float(np.max(np.maximum(np.abs(traj.u_tip) - g, 0.0)))


def _active_flags(traj) -> np.ndarray:
    return active_sides(traj.u_tip, traj.tip_lower, traj.tip_upper) != "inactive"


def count_episodes(flags: np.ndarray) -> int:
    """Number of maximal runs of consecutive set flags."""
    f = np.asarray(flags, dtype=bool)
    if f.size == 0:
        return 0
    return int(f[0]) + int(np.sum(~f[:-1] & f[1:]))


@dataclass(frozen=True)
class RunSummaryRow:
    label: str
    max_violation: float
    tip_min: float
    tip_max: float
    contact_episodes: int
    wall_seconds: float


@dataclass(frozen=True)
class RunComparison:
    rows: tuple

    HEADER = ("label", "max_violation", "tip_min", "tip_max", "contact_episodes", "wall_seconds")

    def to_csv(self) -> str:
        lines = [",".join(self.HEADER)]
        for r in self.rows:
            lines.append(
                f"{r.label},{r.max_violation:.17g},{r.tip_min:.17g},"
                f"{r.tip_max:.17g},{r.contact_episodes},{r.wall_seconds:.17g}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        cells = [list(self.HEADER)]
        for r in self.rows:
            cells.append(
                [
                    r.label,
                    f"{r.max_violation:.6g}",
                    f"{r.tip_min:.6g}",
                    f"{r.tip_max:.6g}",
                    str(r.contact_episodes),
                    f"{r.wall_seconds:.3f}",
                ]
            )
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.HEADER))]
        lines = []
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines) + "\n"


def summary_row(label, traj) -> RunSummaryRow:
    """One labelled trajectory's summary: the per-step running maximum
    violation tracked by the run loop, and episodes counted on the
    recorded samples."""
    return RunSummaryRow(
        label=str(label),
        max_violation=traj.max_violation,
        tip_min=float(np.min(traj.u_tip)),
        tip_max=float(np.max(traj.u_tip)),
        contact_episodes=count_episodes(_active_flags(traj)),
        wall_seconds=traj.wall_time,
    )


def compare_runs(entries) -> RunComparison:
    """Summarize labelled trajectories side by side.

    ``entries`` is an iterable of (label, trajectory) pairs, each
    summarized by :func:`summary_row`.
    """
    return RunComparison(rows=tuple(summary_row(label, traj) for label, traj in entries))
