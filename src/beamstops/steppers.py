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

:func:`run` is the one stepping path: it picks one step closure per run
and calls the solver objects of :mod:`beamstops.linalg` (the banded
factor, :class:`~beamstops.linalg.PinnedDofSolver`,
:func:`~beamstops.linalg.pgs_box` or
:class:`~beamstops.linalg.PenaltyTipSolver`) directly.  Penalty members
that differ only in inv_eps step through it together, as one block.  Runs
are vetoed up front when dt exceeds the stability limit for the chosen
beta (overridable with ``force``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .diagnostics import ContactAudit, discrete_energy
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
from .linalg import (  # PenaltyConsistencyError: run() returns it, so it is importable here
    BandedSpd,
    PenaltyConsistencyError,
    PenaltyTipSolver,
    PinnedDofSolver,
    pgs_box,
)
from .stability import StabilityReport, UnstableTimeStepError, check_matrices


class NonFiniteRecordError(Exception):
    """A recorded row of a trajectory holds a NaN or an infinity."""

    def __init__(self, record: int, t: float):
        self.record = record
        self.t = t
        super().__init__(f"record {record} (t = {t:.6g} s) is not finite: the run blew up")


# ---------------------------------------------------------------------------
# parameters and the starting pair
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
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0.0 <= self.T < math.inf:
            raise ValueError("horizon must be non-negative and finite")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True, kw_only=True)
class PenaltyParams(SchemeParams):
    """Penalty-scheme parameters; inv_eps is the spring stiffness 1/eps."""

    inv_eps: float
    beta: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.inv_eps < math.inf:
            raise ValueError("inv_eps must be non-negative and finite")
        super().__post_init__()


def init_states(
    model: BeamModel,
    mesh: Mesh,
    params,
    u0=None,
    v0=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate the initial data and build the starting pair (u^0, u^1).

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
    return vec_u0, vec_u1


# ---------------------------------------------------------------------------
# the matrices of one step, which run()'s step closures solve with
# ---------------------------------------------------------------------------


def effective_matrix(mass: BandedSpd, stiffness: BandedSpd, params) -> BandedSpd:
    """A = M + dt^2 beta S (the matrix inverted every step)."""
    return BandedSpd.lincomb(1.0, mass, params.dt**2 * params.beta, stiffness)


def transfer_matrix(mass: BandedSpd, stiffness: BandedSpd, params) -> BandedSpd:
    """B = 2M - dt^2 (1-2 beta) S (applied to u^n in the right-hand side)."""
    return BandedSpd.lincomb(
        2.0, mass, -(params.dt**2) * (1.0 - 2.0 * params.beta), stiffness
    )


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
        row = ",".join(["%.17g"] * 6)
        cols = (self.t, self.u_tip, self.v_tip, self.energy, self.reaction, self.violation)
        lines = [self.CSV_HEADER]
        # a few hundred rows of Python floats at a time keeps the peak memory down
        for i in range(0, self.t.size, 256):
            lines.extend(row % values for values in zip(*(col[i : i + 256].tolist() for col in cols)))
        return "\n".join(lines) + "\n"


def _max_nan(a, b):
    """max(a, b), NaN if either is (the builtin drops a NaN second argument)."""
    return a if a != a or a > b else b


class _MemberRun:
    """One member of a run: its recorded rows, per-step extrema and error."""

    def __init__(self, capacity):
        self.rows = np.empty((capacity, 6))  # t, u_tip, v_tip, energy, reaction, violation
        self.count = 0
        self.max_abs_tip = 0.0
        self.max_violation = 0.0
        self.error = None


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
):
    """Integrate the beam from t=0 to T and record the tip history.

    ``kind`` picks the step closure ("signorini", "linear", "penalty" —
    the latter requires :class:`PenaltyParams`).  A stability veto is
    raised when dt exceeds the exact-kappa limit for beta < 1/2 unless
    ``force`` is set.  Signorini runs with stops on one DOF audit the
    complementarity conditions of every step (``Trajectory.audit``).
    Loads are built a block of time windows at a time
    (:meth:`~beamstops.fem.LoadAssembler.time_averaged`), and stepping
    stops at the first recorded row with a non-finite tip or energy.
    A step makes two banded products, B u^n and A u^{n+1}; A u is
    carried with the state, so a recorded row adds only the energy's
    product with S.  The extrema and the audit are folded in once per
    load block, over that block's states.

    ``params`` may also be a list of penalty members that differ only in
    ``inv_eps``.  They share A, B, the loads and the starting pair, and
    step as one (k x 2J) block: per step one product call for each of
    B U and A U and one multi-RHS solve serve all of them, and only the
    tip work is per member.  The result is then a list with each
    member's Trajectory, or the :class:`PenaltyConsistencyError` that
    ended it; each member's rows are bit-identical to its own run, and
    its ``wall_time`` is the block's divided by k.  One ``params`` gives
    its Trajectory, or raises.
    """
    t_begin = time.perf_counter()
    members = list(params) if isinstance(params, (list, tuple)) else [params]
    if kind not in ("signorini", "linear", "penalty"):
        raise ValueError(f"unknown scheme kind {kind!r}")
    if kind == "penalty" and not all(isinstance(p, PenaltyParams) for p in members):
        raise ValueError("penalty runs need PenaltyParams")
    shared = {(p.beta, p.dt, p.T) for p in members}
    if len(members) > 1 and (kind != "penalty" or len(shared) > 1) or not members:
        raise ValueError("only penalty members that differ in inv_eps alone step together")
    scheme = members[0]

    dofs = DofMap(mesh.J)
    gm = assemble(mesh, model)
    box = model.box(dofs, mesh)
    tip = dofs.tip_disp
    tip_lo, tip_hi = float(box.lower[tip]), float(box.upper[tip])

    report = check_matrices(
        gm.mass, gm.stiffness, mesh.h, model.k2, scheme.beta, scheme.dt,
        alpha=alpha,
    )
    if report.verdict == "violated" and not force:
        raise UnstableTimeStepError(report)

    a_mat = effective_matrix(gm.mass, gm.stiffness, scheme)
    b_mat = transfer_matrix(gm.mass, gm.stiffness, scheme)
    dt = scheme.dt
    dt2 = dt * dt
    n_total = scheme.n_steps

    # Block layout: member j's state is entries [j w, j w + ndof) of one flat
    # vector, w = ndof + pad.  The pad zeros isolate the members in the
    # stacked products; a single member has none.
    k = len(members)
    ndof = dofs.ndof
    pad = a_mat.bw if k > 1 else 0
    width = ndof + pad
    a_stack, b_stack = a_mat.stacked(k, pad), b_mat.stacked(k, pad)

    def tiled(u):
        """k copies of the vector ``u`` in the block layout."""
        if pad == 0:
            return u
        out = np.zeros((k, width))
        out[:, :ndof] = u
        return out.reshape(-1)

    # step closure: step(F^n, u^{n-1}, u^n, n) -> (u^{n+1}, failed members);
    # reaction(j, F^n, u^{n+1}, A u^{n+1}) is member j's recorded reaction
    single = box.single_bounded_dof()
    distributed = single is None and bool(np.any(box.finite_mask()))
    contact_audit = None
    penalty_solver = None

    def no_reaction(j, f, u, au):
        return 0.0

    reaction = no_reaction
    if kind == "linear":
        factor = a_mat.cholesky()

        def step(f, up, uc, n):
            return factor.solve(f), {}

    elif kind == "penalty":
        if not model.tip_only:
            raise ValueError("penalty stops act on the tip only")
        penalty_solver = PenaltyTipSolver(a_mat, tip, tip_lo, tip_hi, members)

        def step(f, up, uc, n):
            return penalty_solver.advance(f, up, uc, n)

        def reaction(j, f, u, au):
            return dt2 * penalty_solver.spring(u[j * width + tip], j)

    elif distributed:

        def step(f, up, uc, n):
            # warm start from u^n; step 1 starts cold (PGS stops at a tolerance, so
            # the starting point shows in the last bits of every later step)
            return pgs_box(a_mat, f, box, x0=uc if n > 1 else None), {}

        def reaction(j, f, u, au):
            return float(au[tip] - f[tip])

    else:
        c, lo, hi = single if single is not None else (tip, tip_lo, tip_hi)
        direct_solver = PinnedDofSolver(a_mat, c, lo, hi)
        contact_audit = ContactAudit()

        def step(f, up, uc, n):
            return direct_solver.solve_with_case(f)[0], {}

        def reaction(j, f, u, au):
            return float(au[c] - f[c])

    # the entries of each accepted state that the fold of its load block
    # reads: the members' tips, or the whole state (one member) where the
    # violation or the audit needs more
    if distributed or contact_audit is not None and c != tip:
        watch, watched = slice(None), width
    else:
        watch, watched = slice(tip, None, width), 1
    tip_w = tip if watched > 1 else 0

    if distributed:
        lo_b, hi_b = box.lower, box.upper

        def violations(states):
            """Per-step violation of (..., k, watched) states, over every DOF."""
            return np.maximum(np.maximum(states - hi_b, lo_b - states), 0.0).max(axis=-1)

    else:

        def violations(states):
            """Per-step violation of (..., k, watched) states, at the tip."""
            u = states[..., tip_w]
            return np.maximum(np.maximum(u - tip_hi, tip_lo - u), 0.0)

    u_prev, u_curr = (tiled(u) for u in init_states(model, mesh, scheme, u0=u0, v0=v0))
    # A u of each accepted state is formed once and carried: the audit
    # residual of its step, the energy of its records, and the -A u^{n-1}
    # of F two steps later
    au_prev, au_curr = a_stack.matvec(u_prev), a_stack.matvec(u_curr)

    loads = LoadAssembler(mesh, model)
    horizon = scheme.T

    stride = record_stride
    if stride is None:
        stride = max(1, math.ceil(n_total / 20000)) if n_total else 1
    if stride < 1:
        raise ValueError("record_stride must be >= 1")

    beta = scheme.beta

    def start_reaction(j, u):
        return reaction(j, None, u, None) if kind == "penalty" else 0.0

    # rows recorded in this block, whose violation the block's fold fills in
    pending = []

    def record(j, n, up, uc, aup, auc, react, viol=None):
        """Append member j's row of step n; False once its tip or energy is not finite.

        Row 0 holds u^0 with the forward-difference velocity of the
        starting pair, later rows u^n with the backward difference.  A
        row without ``viol`` is the last kept step's.
        """
        o = j * width
        u0, u1 = up[o : o + ndof], uc[o : o + ndof]
        u_tip = u0[tip] if n == 0 else u1[tip]
        energy = discrete_energy((u0, u1), (aup[o : o + ndof], auc[o : o + ndof]), gm.stiffness, dt)
        mem = active[j]
        if viol is None:
            pending.append((mem.rows, mem.count, i - 1, j))
            viol = 0.0
        mem.rows[mem.count] = (n * dt, u_tip, (u1[tip] - u0[tip]) / dt, energy, react, viol)
        mem.count += 1
        return math.isfinite(u_tip) and math.isfinite(energy)

    # the watched entries of the steps not yet folded into the extrema and the audit
    kept = np.empty((loads.block_rows, k * watched))
    resid = np.empty((loads.block_rows, ndof)) if contact_audit is not None else None

    def fold(rows):
        """Fold the first ``rows`` kept steps into the members' extrema and the audit."""
        if rows == 0:
            return
        states = kept[:rows].reshape(rows, len(active), watched)
        viols = violations(states)
        abs_tips = np.abs(states[:, :, tip_w]).max(axis=0).tolist()
        for mem, abs_tip, viol in zip(active, abs_tips, viols.max(axis=0).tolist()):
            mem.max_abs_tip = _max_nan(abs_tip, mem.max_abs_tip)
            mem.max_violation = _max_nan(viol, mem.max_violation)
        if pending:
            viols = viols.tolist()
            for rows_of, row, step_row, j in pending:
                rows_of[row, 5] = viols[step_row][j]
            pending.clear()
        if contact_audit is not None:
            contact_audit.update(states[:, 0, c if watched > 1 else 0], resid[:rows], c, lo, hi)

    def load_blocks():
        """dt^2 G^n for n = 1 .. n_total-1, one block of load windows at a time.

        G^n reads the time-averaged loads of windows n-1, n and n+1, so
        each block carries the last two windows of the one before; memory
        stays at one block whatever the horizon.
        """
        if n_total < 2:
            return
        f = np.empty((0, ndof))
        for w0 in range(0, n_total + 1, loads.block_rows):
            w1 = min(w0 + loads.block_rows, n_total + 1)
            f = np.concatenate((f[-2:], loads.time_averaged(np.arange(w0, w1), dt, horizon)))
            yield dt2 * (beta * (f[2:] + f[:-2]) + (1.0 - 2.0 * beta) * f[1:-1])

    member_runs = [_MemberRun(n_total // stride + 3) for _ in members]
    active = list(member_runs)
    # a blown-up run overflows on its last record, which already reports the failure
    with np.errstate(over="ignore", invalid="ignore"):
        start = (u_prev, u_curr, au_prev, au_curr)
        viol_prev = violations(u_prev[watch].reshape(k, watched)).tolist()
        viol_curr = violations(u_curr[watch].reshape(k, watched)).tolist()
        for j, mem in enumerate(active):
            mem.max_abs_tip = _max_nan(abs(u_prev[tip]), abs(u_curr[tip]))
            mem.max_violation = _max_nan(viol_prev[j], viol_curr[j])
            # the members share the starting pair: its rows are finite for all or none
            finite = record(j, 0, *start, start_reaction(j, u_prev), viol_prev[j])
            if finite and n_total >= 1 and (stride == 1 or n_total == 1):
                finite = record(j, 1, *start, start_reaction(j, u_curr), viol_curr[j])
        i = n = 0
        for g_block in load_blocks() if finite else ():
            for g in range(g_block.shape[0]):
                n += 1
                f_vec = b_stack.matvec(u_curr)
                f_vec -= au_prev
                if pad:
                    f_vec.reshape(k, width)[:, :ndof] += g_block[g]
                else:
                    f_vec += g_block[g]
                u_next, done = step(f_vec, u_prev, u_curr, n)
                au_next = a_stack.matvec(u_next)
                kept[i] = u_next[watch]
                if resid is not None:
                    np.subtract(au_next, f_vec, out=resid[i])
                i += 1
                if n + 1 == n_total or (n + 1) % stride == 0:
                    for j in range(k):
                        if j not in done and not record(
                            j, n + 1, u_curr, u_next, au_curr, au_next,
                            reaction(j, f_vec, u_next, au_next),
                        ):
                            done[j] = None

                u_prev, au_prev = u_curr, au_curr
                u_curr, au_curr = u_next, au_next
                if done:
                    # the members that ended leave the block; the others step on
                    fold(i)
                    i = 0
                    for j, error in done.items():
                        active[j].error = error
                    keep = [j for j in range(k) if j not in done]
                    active = [active[j] for j in keep]
                    k = len(active)
                    if k == 0:
                        break
                    u_prev, u_curr, au_prev, au_curr = (
                        x.reshape(-1, width)[keep].reshape(-1)
                        for x in (u_prev, u_curr, au_prev, au_curr)
                    )
                    a_stack, b_stack = a_mat.stacked(k, pad), b_mat.stacked(k, pad)
                    if penalty_solver is not None:
                        penalty_solver = penalty_solver.subset(keep)
                    kept = np.empty((loads.block_rows, k * watched))
            if k == 0:
                break
            fold(i)
            i = 0

    wall = (time.perf_counter() - t_begin) / len(members)
    results = [
        mem.error
        or Trajectory(
            *mem.rows[: mem.count].T.copy(),
            scheme=kind,
            beta=scheme.beta,
            dt=dt,
            tip_lower=tip_lo,
            tip_upper=tip_hi,
            n_steps=n_total,
            record_stride=stride,
            max_abs_tip=float(mem.max_abs_tip),
            max_violation=float(mem.max_violation),
            audit=contact_audit,
            stability=report,
            wall_time=wall,
        )
        for mem in member_runs
    ]
    if isinstance(params, (list, tuple)):
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]
