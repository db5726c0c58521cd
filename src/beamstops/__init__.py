"""Finite-element simulation of a vibrating beam whose tip moves between two stops.

A cantilever clamped to an oscillating support carries Hermite cubic
elements; the free tip is confined by rigid stops handled either exactly
(unilateral contact, solved per step as a small box-constrained quadratic
program) or approximately (stiff penalty spring).  Time integration uses
a one-parameter implicit family with an energy-based stability check.

Typical use::

    from beamstops import BeamModel, Mesh, SchemeParams, SupportMotion, run

    model = BeamModel.symmetric_stops(
        k2=282.84, L=1.501, g=0.1, phi=SupportMotion.sine(0.2, 10.0)
    )
    traj = run(model, Mesh(1.501, 19), SchemeParams(beta=0.5, dt=5e-5, T=2.0))
    print(traj.max_abs_tip, traj.contact_episodes)
"""

from .diagnostics import (
    ComplementarityError,
    ContactAudit,
    RunComparison,
    compare_runs,
    discrete_energy,
)
from .fem import (
    BeamModel,
    DofMap,
    GlobalMatrices,
    Mesh,
    SupportMotion,
    assemble,
    lifting,
)
from .linalg import (
    BandedSpd,
    BoxConstraint,
    NotPositiveDefiniteError,
    PgsConvergenceError,
    PowerIterationError,
    pgs_box,
)
from .stability import (
    StabilityReport,
    UnstableTimeStepError,
    check,
    kappa_bound,
    kappa_exact,
    max_stable_dt,
)
from .steppers import (
    PenaltyParams,
    SchemeParams,
    Trajectory,
    run,
)
from .config import RunConfig, parse_config, serialize_config

__all__ = [
    "BandedSpd",
    "BeamModel",
    "BoxConstraint",
    "ComplementarityError",
    "ContactAudit",
    "DofMap",
    "GlobalMatrices",
    "Mesh",
    "NotPositiveDefiniteError",
    "PenaltyParams",
    "PgsConvergenceError",
    "PowerIterationError",
    "RunComparison",
    "RunConfig",
    "SchemeParams",
    "StabilityReport",
    "SupportMotion",
    "Trajectory",
    "UnstableTimeStepError",
    "assemble",
    "check",
    "compare_runs",
    "discrete_energy",
    "kappa_bound",
    "kappa_exact",
    "lifting",
    "max_stable_dt",
    "parse_config",
    "pgs_box",
    "run",
    "serialize_config",
]

__version__ = "0.1.0"
