"""Energy, contact-complementarity and run-comparison diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import BandedSpd
from .steploop import sbmv


def discrete_energy(pair, a_pair, stiffness: BandedSpd, dt: float):
    """Discrete energy of a consecutive pair ``(u0, u1)`` = (u^{n-1}, u^n).

    E = |(u1 - u0)/dt|_M^2
        + (1 - 2 beta) a(u0, u1)
        + beta a(u1, u1) + beta a(u0, u0),

    evaluated as E = (w . A w)/dt^2 + u0 . S u1 with w = u1 - u0 and
    A = M + dt^2 beta S, from the products ``a_pair`` = (A u0, A u1)
    that the run already holds.  The four entries are vectors, giving
    one float, or (m, n) stacks of m pairs, giving m energies; the S u1
    of a stack are one call of the step loop's product kernel, row by row
    (:func:`~beamstops.steploop.sbmv`, which rounds as
    ``BandedSpd.matvec``), so a NaN or an infinity in one pair reaches no
    other.

    Exactly conserved by the unconstrained scheme with zero load; for
    beta = 1/2 the quadratic form is positive definite so boundedness of
    E bounds the state.
    """
    u0, u1, au0, au1 = (np.atleast_2d(x) for x in (*pair, *a_pair))
    s_u1 = np.empty(u1.shape)
    sbmv(stiffness, np.ascontiguousarray(u1, dtype=float), s_u1)
    work = np.vecdot(u0, s_u1)
    # A w = A u1 - A u0 into S u1's buffer, which holds nothing needed now
    energy = np.vecdot(u1 - u0, np.subtract(au1, au0, out=s_u1)) / dt**2 + work
    return float(energy[0]) if np.ndim(pair[1]) == 1 else energy


# ---------------------------------------------------------------------------
# contact complementarity
# ---------------------------------------------------------------------------


class ComplementarityError(Exception):
    """A computed step violates the contact sign conditions."""


#: The codes of :func:`active_sides`.
UPPER, INACTIVE, LOWER = 1, 0, -1


def active_sides(tips, lower: float, upper: float) -> np.ndarray:
    """int8 codes UPPER (+1), LOWER (-1) or INACTIVE (0) for each tip; a
    tip within 1e-12 (relative) of a finite stop rests on it (the upper
    one if both), and a NaN tip is inactive."""
    tips = np.asarray(tips, dtype=float)
    sides = np.zeros(tips.shape, dtype=np.int8)
    if math.isfinite(lower):
        sides[tips <= lower + 1e-12 * max(1.0, abs(lower))] = LOWER
    if math.isfinite(upper):
        sides[tips >= upper - 1e-12 * max(1.0, abs(upper))] = UPPER
    return sides


@dataclass
class ContactAudit:
    """The complementarity certificate of consecutive steps.

    The reaction is the scheme-native, dt^2-scaled contact force, the
    residual A u - F at the constrained DOF: zero off contact, <= 0 while
    pressing the upper stop, >= 0 at the lower stop.  Off that DOF the
    equations must hold.  :meth:`update` folds steps in, :meth:`check`
    raises on the first condition the folded steps break; one step is
    certified by one call of each; the run, not the audit, counts episodes.
    """

    contact_steps: int = 0
    max_offband_residual: float = 0.0
    # worst signed excess of the reaction on each side, and |reaction| off contact
    max_upper_reaction: float = -np.inf
    min_lower_reaction: float = np.inf
    max_inactive_reaction: float = 0.0

    def update(self, sides, reactions, off_contact) -> None:
        """Fold in a run of consecutive steps: their :func:`active_sides`
        codes ``sides``, their reactions and the largest |A u - F| of each
        off the constrained DOF (NaN where one is), as arrays or as the
        figures of one step; the compiled loop writes these figures for each
        step (:class:`~beamstops.steploop.Loop`).  NaN figures are skipped."""
        sides, reaction = np.atleast_1d(sides), np.atleast_1d(reactions)
        if sides.size == 0:
            return
        self.max_offband_residual = float(
            np.fmax.reduce(np.atleast_1d(off_contact), initial=self.max_offband_residual)
        )
        inactive = sides == INACTIVE
        self.max_inactive_reaction = float(
            np.fmax.reduce(np.abs(reaction[inactive]), initial=self.max_inactive_reaction)
        )
        self.contact_steps += int(np.count_nonzero(~inactive))
        self.max_upper_reaction = float(
            np.fmax.reduce(reaction[sides == UPPER], initial=self.max_upper_reaction)
        )
        self.min_lower_reaction = float(
            np.fmin.reduce(reaction[sides == LOWER], initial=self.min_lower_reaction)
        )

    def check(self, tol: float = 1e-9) -> None:
        """Raise :class:`ComplementarityError` naming the first condition
        the folded steps break by more than ``tol``: the equations off the
        constrained DOF, no reaction off contact, and a reaction pushing
        away from the stop on contact."""
        if self.max_offband_residual > tol:
            message = f"off-contact residual {self.max_offband_residual:.3e} exceeds {tol:.1e}"
        elif self.max_inactive_reaction > tol:
            message = f"nonzero reaction {self.max_inactive_reaction:.3e} without contact"
        elif self.max_upper_reaction > tol:
            message = f"reaction {self.max_upper_reaction:.3e} pulls toward the upper stop"
        elif self.min_lower_reaction < -tol:
            message = f"reaction {self.min_lower_reaction:.3e} pulls toward the lower stop"
        else:
            return
        raise ComplementarityError(message)

# ---------------------------------------------------------------------------
# trajectory-level measures
# ---------------------------------------------------------------------------


def count_episodes(flags: np.ndarray, carried: bool = False) -> int:
    """Number of maximal runs of consecutive set flags.  With ``carried``
    the flags continue a run already counted, so a leading run is not new."""
    f = np.asarray(flags, dtype=bool)
    if f.size == 0:
        return 0
    return int(f[0] and not carried) + int(np.count_nonzero(~f[:-1] & f[1:]))


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
    """One labelled trajectory's summary: the maximum violation and the
    tip's extremes and contact episodes, all tracked by the run over
    every state, not only the recorded ones."""
    return RunSummaryRow(
        label=str(label),
        max_violation=traj.max_violation,
        tip_min=traj.tip_min,
        tip_max=traj.tip_max,
        contact_episodes=traj.contact_episodes,
        wall_seconds=traj.wall_time,
    )


def compare_runs(entries) -> RunComparison:
    """Summarize labelled trajectories side by side.

    ``entries`` is an iterable of (label, trajectory) pairs, each
    summarized by :func:`summary_row`.
    """
    return RunComparison(rows=tuple(summary_row(label, traj) for label, traj in entries))
