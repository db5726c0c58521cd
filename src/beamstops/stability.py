"""Time-step stability limits for the beta time-stepping family.

For beta < 1/2 the scheme is stable only while

    dt < min( 2 sqrt((1 - alpha) / (kappa_h (1 - 2 beta))), alpha )

for some alpha in (0, 1), where kappa_h is the largest generalized
eigenvalue of the stiffness/mass pair (the discrete operator norm
sup a(u,u)/|u|^2).  beta = 1/2 is unconditionally stable.  kappa_h can
be measured exactly by Lanczos or over-estimated by the closed form

    kappa(h) <= (24 * 420 * 19^2 / 37) * k2 / dx^4,

which is convenient but conservative (a factor ~27 above the measured
value on the reference mesh), so the limit derived from it understates
the usable step.  The run veto is therefore keyed to the exact-kappa
limit; both limits are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fem import BeamModel, Mesh, assemble
from .linalg import BandedSpd, max_generalized_eig

#: Closed-form over-estimate coefficient: kappa <= COEF * k2 / dx^4.
KAPPA_BOUND_COEF = 24.0 * 420.0 * 19.0**2 / 37.0


class UnstableTimeStepError(Exception):
    """A run was vetoed because dt exceeds the stability limit."""

    def __init__(self, report: "StabilityReport"):
        self.report = report
        super().__init__(
            f"dt = {report.dt:.6g} s exceeds the stability limit "
            f"{report.dt_max_exact:.6g} s for beta = {report.beta:g} "
            "(use force to override)"
        )


def kappa_bound(k2: float, dx: float) -> float:
    """Closed-form upper bound on the discrete operator norm kappa_h."""
    if k2 <= 0.0:
        raise ValueError("k2 must be positive")
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    return KAPPA_BOUND_COEF * k2 / dx**4


def kappa_exact(mass: BandedSpd, stiffness: BandedSpd) -> float:
    """Largest generalized eigenvalue of (S, M) by Lanczos."""
    return max_generalized_eig(stiffness, mass)


def max_stable_dt(kappa: float, beta: float, alpha: float) -> float:
    """Largest admissible dt for the given kappa; inf when beta = 1/2."""
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if not 0.0 <= beta <= 0.5:
        raise ValueError("beta must lie in [0, 1/2]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if beta == 0.5:
        return math.inf
    return min(2.0 * math.sqrt((1.0 - alpha) / (kappa * (1.0 - 2.0 * beta))), alpha)


@dataclass(frozen=True)
class StabilityReport:
    """Stability limits and verdict for one (mesh, scheme) combination."""

    beta: float
    dt: float
    alpha: float
    kappa_bound: float
    kappa_exact: float
    dt_max_bound: float
    dt_max_exact: float
    verdict: str  # "unconditional" | "stable" | "violated"

    def format(self) -> str:
        lines = [
            "stability check",
            f"  beta            = {self.beta:.17g}",
            f"  dt              = {self.dt:.17g} s",
            f"  alpha           = {self.alpha:.17g}",
            f"  kappa (bound)   = {self.kappa_bound:.17g} 1/s^2",
            f"  kappa (exact)   = {self.kappa_exact:.17g} 1/s^2",
            f"  dt_max (bound)  = {self.dt_max_bound:.17g} s",
            f"  dt_max (exact)  = {self.dt_max_exact:.17g} s",
            f"  verdict         = {self.verdict}",
        ]
        return "\n".join(lines)


def check_matrices(
    mass: BandedSpd,
    stiffness: BandedSpd,
    dx: float,
    k2: float,
    beta: float,
    dt: float,
    alpha: float = 0.01,
) -> StabilityReport:
    """Stability report from pre-assembled matrices."""
    kb = kappa_bound(k2, dx)
    ke = kappa_exact(mass, stiffness)
    dt_e = max_stable_dt(ke, beta, alpha)
    verdict = "unconditional" if beta == 0.5 else "violated" if dt >= dt_e else "stable"
    return StabilityReport(
        beta=beta,
        dt=dt,
        alpha=alpha,
        kappa_bound=kb,
        kappa_exact=ke,
        dt_max_bound=max_stable_dt(kb, beta, alpha),
        dt_max_exact=dt_e,
        verdict=verdict,
    )


def check(
    mesh: Mesh,
    model: BeamModel,
    params,
    alpha: float = 0.01,
) -> StabilityReport:
    """Assemble the matrices for (mesh, model) and report stability of params."""
    gm = assemble(mesh, model)
    return check_matrices(
        gm.mass,
        gm.stiffness,
        mesh.h,
        model.k2,
        params.beta,
        params.dt,
        alpha=alpha,
    )
