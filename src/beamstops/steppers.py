"""Time integration of the discretized beam-with-stops problem.

One family of three-level schemes, parameterized by beta in [0, 1/2]
(beta = 1/2 is the unconditionally stable member, the Newmark average
with gamma = 1/2):

    (M + dt^2 beta S) u^{n+1} = (2M - dt^2 (1-2 beta) S) u^n
                                - (M + dt^2 beta S) u^{n-1} + dt^2 G^n

with G^n the beta-weighted combination of time-averaged loads.  Three
ways to close the step at the stops:

* ``linear``    — no stops, plain banded solve;
* ``signorini`` — the step minimizes the quadratic over the admissible
  box: unconstrained solve, and if the constrained DOF left its bounds
  a scalar step along A^{-1} e_c back onto the violated bound (or
  projected Gauss-Seidel for distributed obstacles);
* ``penalty``   — the stops are stiff one-sided springs of compliance
  eps, treated implicitly at level n+1 through an exact three-case
  analysis (the spring force is piecewise linear, so each case is one
  pre-factored banded solve).

Runs are vetoed up front when dt exceeds the stability limit for the
chosen beta (overridable with ``force``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .diagnostics import ContactAudit, contact_state, discrete_energy
from .fem import (
    BeamModel,
    DofMap,
    LoadAssembler,
    Mesh,
    assemble,
    interpolate_profile,
    lifting,
    lifting_slope,
)
from .linalg import (
    BandedSpd,
    BoxConstraint,
    PinnedDofSolver,
    pgs_box,
)
from .stability import StabilityReport, UnstableTimeStepError, check_matrices


class PenaltyConsistencyError(Exception):
    """No contact case of the implicit penalty solve was self-consistent."""


class NonFiniteRecordError(Exception):
    """A recorded row of a trajectory holds a NaN or an infinity."""

    def __init__(self, record: int, t: float):
        self.record = record
        self.t = t
        super().__init__(f"record {record} (t = {t:.6g} s) is not finite: the run blew up")


# ---------------------------------------------------------------------------
# parameters and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeParams:
    """Scheme weight beta, step dt and horizon T (N = round(T/dt) steps)."""

    beta: float
    dt: float
    T: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 0.5:
            raise ValueError("beta must lie in [0, 1/2]")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.T < 0.0:
            raise ValueError("horizon must be non-negative")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty-scheme parameters; inv_eps is the spring stiffness 1/eps."""

    inv_eps: float
    dt: float
    T: float
    beta: float = 0.25

    def __post_init__(self):
        if self.inv_eps < 0.0:
            raise ValueError("inv_eps must be non-negative")
        if not 0.0 <= self.beta <= 0.5:
            raise ValueError("beta must lie in [0, 1/2]")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.T < 0.0:
            raise ValueError("horizon must be non-negative")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class SchemeState:
    """Two consecutive DOF vectors (u^{n-1}, u^n) and the index n."""

    u_prev: np.ndarray
    u_curr: np.ndarray
    n: int


def init_states(
    model: BeamModel,
    mesh: Mesh,
    params,
    u0=None,
    v0=None,
) -> SchemeState:
    """Interpolate the initial data and build the starting pair.

    ``u0``/``v0`` are (value, slope) callable pairs or raw DOF vectors;
    omitted, they default to the beam at rest in the lab frame:
    u0 = -phi(0) h(x), v0 = -phi'(0) h(x) with h the lifting profile.
    u0 must satisfy the stops; u1 = u0 + dt v0 is projected onto them.
    """
    dofs = DofMap(mesh.J)
    box = model.box(dofs, mesh)

    def as_vector(data, scale_default):
        if data is None:
            c = scale_default
            return interpolate_profile(
                mesh,
                lambda x: -c * lifting(x, model.L)[0],
                lambda x: -c * lifting_slope(x, model.L),
            )
        if isinstance(data, np.ndarray):
            if data.shape[0] != dofs.ndof:
                raise ValueError("initial DOF vector has the wrong length")
            return np.asarray(data, dtype=float).copy()
        value_fn, slope_fn = data
        return interpolate_profile(mesh, value_fn, slope_fn)

    vec_u0 = as_vector(u0, float(model.phi.value(0.0)))
    if not box.contains(vec_u0):
        raise ValueError("initial displacement violates the stops")
    vec_v0 = as_vector(v0, float(model.phi.d1(0.0)))
    vec_u1 = box.project(vec_u0 + params.dt * vec_v0)
    return SchemeState(u_prev=vec_u0, u_curr=vec_u1, n=1)


# ---------------------------------------------------------------------------
# one step of each scheme
# ---------------------------------------------------------------------------


def effective_matrix(mass: BandedSpd, stiffness: BandedSpd, params) -> BandedSpd:
    """A = M + dt^2 beta S (the matrix inverted every step)."""
    return BandedSpd.lincomb(1.0, mass, params.dt**2 * params.beta, stiffness)


def transfer_matrix(mass: BandedSpd, stiffness: BandedSpd, params) -> BandedSpd:
    """B = 2M - dt^2 (1-2 beta) S (applied to u^n in the right-hand side)."""
    return BandedSpd.lincomb(
        2.0, mass, -(params.dt**2) * (1.0 - 2.0 * params.beta), stiffness
    )


def rhs(mass: BandedSpd, stiffness: BandedSpd, state: SchemeState, g_n: np.ndarray, params) -> np.ndarray:
    """Right-hand side F^n built from the state pair and the load G^n."""
    dt2 = params.dt**2
    beta = params.beta
    uc, up = state.u_curr, state.u_prev
    return (
        2.0 * mass.matvec(uc)
        - dt2 * (1.0 - 2.0 * beta) * stiffness.matvec(uc)
        - mass.matvec(up)
        - dt2 * beta * stiffness.matvec(up)
        + dt2 * np.asarray(g_n, dtype=float)
    )


def newmark_linear_step(state: SchemeState, f_n: np.ndarray, factor) -> SchemeState:
    """Unconstrained step: solve A u^{n+1} = F^n."""
    u_next = factor.solve(np.asarray(f_n, dtype=float))
    return SchemeState(u_prev=state.u_curr, u_curr=u_next, n=state.n + 1)


class PgsStepSolver:
    """Projected Gauss-Seidel step solver with cross-step warm starts."""

    def __init__(self, a: BandedSpd, box: BoxConstraint, tol: float = 1e-10, max_iter=None):
        self.a = a
        self.box = box
        self.tol = tol
        self.max_iter = max_iter
        self._warm = None

    def solve_with_case(self, f: np.ndarray):
        u = pgs_box(self.a, f, self.box, x0=self._warm, tol=self.tol, max_iter=self.max_iter)
        self._warm = u.copy()
        return u, None


def signorini_step(state: SchemeState, f_n: np.ndarray, solver) -> SchemeState:
    """Constrained step: minimize the step quadratic over the stop box.

    ``solver`` is a pre-factored :class:`~beamstops.linalg.PinnedDofSolver`
    (tip-only stops) or a :class:`PgsStepSolver` (distributed obstacles).
    """
    u_next, _ = solver.solve_with_case(np.asarray(f_n, dtype=float))
    return SchemeState(u_prev=state.u_curr, u_curr=u_next, n=state.n + 1)


class PenaltyTipSolver:
    """Implicit solve of one penalty step with stops on a single DOF.

    The spring force p(u) = -(1/eps)[max(u - g_hi, 0) - max(g_lo - u, 0)]
    enters the step beta-weighted like the elastic force; the n+1 term
    makes the system piecewise linear in the constrained coordinate with
    three branches (free / pressing upper / pressing lower).  The
    reduced equation for that coordinate is strictly increasing, so
    exactly one branch is self-consistent; both branch matrices (A and
    the diagonal-bumped A + dt^2 beta/eps e_c e_c^T) are factored once.
    """

    def __init__(self, a: BandedSpd, index: int, lower: float, upper: float, params: PenaltyParams):
        if np.isfinite(lower) and lower >= 0.0 or np.isfinite(upper) and upper <= 0.0:
            raise ValueError("stops must straddle zero")
        self.index = index
        self.lower = lower
        self.upper = upper
        self.inv_eps = params.inv_eps
        self.dt2 = params.dt**2
        self.beta = params.beta
        self.full_factor = a.cholesky()
        self.bump = self.dt2 * self.beta * self.inv_eps
        if self.bump > 0.0:
            self.bumped_factor = a.with_diagonal_bump(index, self.bump).cholesky()
        else:
            self.bumped_factor = self.full_factor

    def spring(self, tip: float) -> float:
        """Penalty force of the stops on the tip (negative at the upper stop)."""
        if tip > self.upper:
            return -self.inv_eps * (tip - self.upper)
        if tip < self.lower:
            return -self.inv_eps * (tip - self.lower)
        return 0.0

    def advance(self, state: SchemeState, f_n: np.ndarray) -> np.ndarray:
        c = self.index
        hist = (1.0 - 2.0 * self.beta) * self.spring(state.u_curr[c]) + self.beta * self.spring(
            state.u_prev[c]
        )
        base = np.asarray(f_n, dtype=float).copy()
        base[c] += self.dt2 * hist
        u = self.full_factor.solve(base)
        if self.bump == 0.0 or self.lower <= u[c] <= self.upper:
            return u
        if u[c] > self.upper:
            bound = self.upper
        else:
            bound = self.lower
        base[c] += self.bump * bound
        u2 = self.bumped_factor.solve(base)
        tiny = 1e-12 * max(1.0, abs(bound))
        if (bound == self.upper and u2[c] >= bound - tiny) or (
            bound == self.lower and u2[c] <= bound + tiny
        ):
            return u2
        raise PenaltyConsistencyError(
            f"no consistent contact case at step {state.n} (tip {u[c]:.6g} vs {u2[c]:.6g})"
        )


def penalty_step(state: SchemeState, f_n: np.ndarray, solver: PenaltyTipSolver) -> SchemeState:
    """Penalty step; with inv_eps = 0 it coincides with the linear step."""
    u_next = solver.advance(state, f_n)
    return SchemeState(u_prev=state.u_curr, u_curr=u_next, n=state.n + 1)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Recorded run output plus per-step extrema.

    The recorded velocity is the backward difference (u^n - u^{n-1})/dt
    at the tip; ``reaction`` is the scheme-native dt^2-scaled contact
    force at the tip DOF ((A u - F) for the stops, dt^2 times the spring
    force for the penalty scheme) and ``reaction_physical`` rescales it
    by 1/dt^2.  ``max_abs_tip``/``max_violation`` are tracked at every
    step, not just the recorded ones, and turn NaN once a step does.
    ``stability`` is the report the run's stability check produced.
    A run stops at the first record whose tip or energy is not finite,
    so the rows of a blown-up run end there, short of ``n_steps``.
    """

    t: np.ndarray
    u_tip: np.ndarray
    v_tip: np.ndarray
    energy: np.ndarray
    reaction: np.ndarray
    violation: np.ndarray
    scheme: str
    beta: float
    dt: float
    tip_lower: float
    tip_upper: float
    n_steps: int
    record_stride: int
    max_abs_tip: float
    max_violation: float
    audit: ContactAudit | None
    stability: StabilityReport
    wall_time: float

    CSV_HEADER = "t,u_tip,v_tip,energy,reaction,violation"

    @property
    def reaction_physical(self) -> np.ndarray:
        return self.reaction / self.dt**2

    def require_finite(self) -> None:
        """Raise :class:`NonFiniteRecordError` naming the first record with a non-finite value."""
        rows = np.column_stack(
            [self.t, self.u_tip, self.v_tip, self.energy, self.reaction, self.violation]
        )
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise NonFiniteRecordError(int(bad[0]), float(self.t[bad[0]]))

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for i in range(self.t.shape[0]):
            lines.append(
                f"{self.t[i]:.17g},{self.u_tip[i]:.17g},{self.v_tip[i]:.17g},"
                f"{self.energy[i]:.17g},{self.reaction[i]:.17g},{self.violation[i]:.17g}"
            )
        return "\n".join(lines) + "\n"


def _max_nan(a, b):
    """max(a, b), NaN if either is (the builtin drops a NaN second argument)."""
    return a if a != a or a > b else b


def run(
    model: BeamModel,
    mesh: Mesh,
    params,
    kind: str = "signorini",
    u0=None,
    v0=None,
    record_stride: int | None = None,
    alpha: float = 0.01,
    force: bool = False,
    seed: int = 0,
) -> Trajectory:
    """Integrate the beam from t=0 to T and record the tip history.

    ``kind`` picks the step closure ("signorini", "linear", "penalty" —
    the latter requires :class:`PenaltyParams`).  A stability veto is
    raised when dt exceeds the exact-kappa limit for beta < 1/2 unless
    ``force`` is set.  Signorini runs with stops on one DOF audit the
    complementarity conditions of every step (``Trajectory.audit``).
    Loads are built a block of time windows at a time
    (:meth:`~beamstops.fem.LoadAssembler.time_averaged`), and stepping
    stops at the first recorded row with a non-finite tip or energy.
    """
    t_begin = time.perf_counter()
    if kind not in ("signorini", "linear", "penalty"):
        raise ValueError(f"unknown scheme kind {kind!r}")
    if kind == "penalty" and not isinstance(params, PenaltyParams):
        raise ValueError("penalty runs need PenaltyParams")

    dofs = DofMap(mesh.J)
    gm = assemble(mesh, model)
    box = model.box(dofs, mesh)
    tip = dofs.tip_disp
    tip_lo, tip_hi = float(box.lower[tip]), float(box.upper[tip])

    report = check_matrices(
        gm.mass, gm.stiffness, mesh.h, model.k2, params.beta, params.dt,
        alpha=alpha, seed=seed,
    )
    if report.verdict == "violated" and not force:
        raise UnstableTimeStepError(report)

    a_mat = effective_matrix(gm.mass, gm.stiffness, params)
    b_mat = transfer_matrix(gm.mass, gm.stiffness, params)
    dt = params.dt
    dt2 = dt * dt
    n_total = params.n_steps

    # step closure: step(F^n, u^{n-1}, u^n, n) -> (u^{n+1}, reaction) -------
    single = box.single_bounded_dof()
    distributed = single is None and bool(np.any(box.finite_mask()))
    contact_audit = None
    if kind == "linear":
        factor = a_mat.cholesky()

        def step(f, up, uc, n):
            return factor.solve(f), 0.0

    elif kind == "penalty":
        if not model.tip_only:
            raise ValueError("penalty stops act on the tip only")
        penalty_solver = PenaltyTipSolver(a_mat, tip, tip_lo, tip_hi, params)

        def step(f, up, uc, n):
            u = penalty_solver.advance(SchemeState(up, uc, n), f)
            return u, dt2 * penalty_solver.spring(u[tip])

    elif distributed:
        pgs_solver = PgsStepSolver(a_mat, box)

        def step(f, up, uc, n):
            u, _ = pgs_solver.solve_with_case(f)
            return u, float((a_mat.matvec(u) - f)[tip])

    else:
        c, lo, hi = single if single is not None else (tip, tip_lo, tip_hi)
        direct_solver = PinnedDofSolver(a_mat, c, lo, hi)
        contact_audit = ContactAudit()

        def step(f, up, uc, n):
            u, _ = direct_solver.solve_with_case(f)
            active, reaction, offband = contact_state(u, f, a_mat, c, lo, hi)
            contact_audit.update(active, reaction, offband)
            return u, reaction

    if distributed:
        lo_b, hi_b = box.lower, box.upper

        def step_violation(u):
            return float(np.max(np.maximum(np.maximum(u - hi_b, lo_b - u), 0.0)))

    else:

        def step_violation(u):
            return _max_nan(u[tip] - tip_hi, _max_nan(tip_lo - u[tip], 0.0))

    state = init_states(model, mesh, params, u0=u0, v0=v0)
    u_prev, u_curr = state.u_prev, state.u_curr

    loads = LoadAssembler(mesh, model)
    horizon = params.T

    stride = record_stride
    if stride is None:
        stride = max(1, math.ceil(n_total / 20000)) if n_total else 1
    if stride < 1:
        raise ValueError("record_stride must be >= 1")

    rec_t, rec_tip, rec_v, rec_e, rec_r, rec_viol = [], [], [], [], [], []
    beta = params.beta

    def initial_reaction(u):
        return dt2 * penalty_solver.spring(u[tip]) if kind == "penalty" else 0.0

    def record(n, up, uc, reaction, viol):
        """Append the row of step n; False once its tip or energy is not finite.

        Row 0 holds u^0 with the forward-difference velocity of the
        starting pair, later rows u^n with the backward difference.
        """
        u_tip = up[tip] if n == 0 else uc[tip]
        energy = discrete_energy((up, uc), gm.mass, gm.stiffness, beta, dt)
        rec_t.append(n * dt)
        rec_tip.append(u_tip)
        rec_v.append((uc[tip] - up[tip]) / dt)
        rec_e.append(energy)
        rec_r.append(reaction)
        rec_viol.append(viol)
        return math.isfinite(u_tip) and math.isfinite(energy)

    viol_prev, viol_curr = step_violation(u_prev), step_violation(u_curr)
    max_abs_tip = _max_nan(abs(u_prev[tip]), abs(u_curr[tip]))
    max_violation = _max_nan(viol_prev, viol_curr)

    finite = record(0, u_prev, u_curr, initial_reaction(u_prev), viol_prev)
    if finite and n_total >= 1 and (stride == 1 or n_total == 1):
        finite = record(1, u_prev, u_curr, initial_reaction(u_curr), viol_curr)

    def step_loads():
        """dt^2 G^n for n = 1 .. n_total-1, a block of load windows at a time.

        G^n reads the time-averaged loads of windows n-1, n and n+1, so
        each block carries the last two windows of the one before; memory
        stays at one block whatever the horizon.
        """
        if n_total < 2:
            return
        f = np.empty((0, dofs.ndof))
        for w0 in range(0, n_total + 1, loads.block_rows):
            w1 = min(w0 + loads.block_rows, n_total + 1)
            f = np.concatenate((f[-2:], loads.time_averaged(np.arange(w0, w1), dt, horizon)))
            yield from dt2 * (beta * (f[2:] + f[:-2]) + (1.0 - 2.0 * beta) * f[1:-1])

    for n, g_n in enumerate(step_loads() if finite else (), start=1):
        f_vec = b_mat.matvec(u_curr) - a_mat.matvec(u_prev) + g_n
        u_next, reaction = step(f_vec, u_prev, u_curr, n)

        viol = step_violation(u_next)
        max_abs_tip = _max_nan(abs(u_next[tip]), max_abs_tip)
        max_violation = _max_nan(viol, max_violation)
        if n + 1 == n_total or (n + 1) % stride == 0:
            if not record(n + 1, u_curr, u_next, reaction, viol):
                break

        u_prev = u_curr
        u_curr = u_next

    wall = time.perf_counter() - t_begin
    return Trajectory(
        t=np.array(rec_t),
        u_tip=np.array(rec_tip),
        v_tip=np.array(rec_v),
        energy=np.array(rec_e),
        reaction=np.array(rec_r),
        violation=np.array(rec_viol),
        scheme=kind,
        beta=params.beta,
        dt=dt,
        tip_lower=tip_lo,
        tip_upper=tip_hi,
        n_steps=n_total,
        record_stride=stride,
        max_abs_tip=float(max_abs_tip),
        max_violation=float(max_violation),
        audit=contact_audit,
        stability=report,
        wall_time=wall,
    )
