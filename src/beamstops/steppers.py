"""Time integration of the discretized beam-with-stops problem.

One family of three-level schemes, parameterized by beta in [0, 1/2]
(beta = 1/2 is the unconditionally stable member, the Newmark average
with gamma = 1/2):

    (M + dt^2 beta S) u^{n+1} = (2M - dt^2 (1-2 beta) S) u^n
                                - (M + dt^2 beta S) u^{n-1} + dt^2 G^n

with G^n the beta-weighted combination of time-averaged loads.  Three
ways to close the step at the stops:

* ``signorini`` — the step minimizes the quadratic over the admissible
  box.  Numeric stops bound the tip displacement: unconstrained solve,
  and if the tip left its stops a scalar step along A^{-1} e_c back onto
  the violated stop.  Callable stops bound every node (a distributed
  obstacle) and take projected Gauss-Seidel;
* ``linear``    — the same tip step with the stops open, (-inf, +inf),
  so it is one banded solve;
* ``penalty``   — the stops are stiff one-sided springs of compliance
  eps, treated implicitly at level n+1 through an exact three-case
  analysis (the spring force is piecewise linear, so each case is one
  pre-factored banded solve).

:func:`run` is the one stepping path.  Every run that closes its steps at
the tip steps its load blocks in the compiled loop of
:mod:`beamstops.steploop`, which reads the tip closure's data from
:class:`~beamstops.linalg.PinnedDofSolver` (signorini and linear) or
:class:`~beamstops.linalg.PenaltyTipSolver`; callable stops step through
:func:`~beamstops.linalg.pgs_box`, in Python.  Penalty members that differ
only in inv_eps step together, as one block.  Runs are vetoed up front
when dt exceeds the stability limit for the chosen beta (overridable with
``force``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import INACTIVE, ContactAudit, active_sides, count_episodes, discrete_energy
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
from .linalg import BandedSpd, PenaltyTipSolver, PinnedDofSolver, pgs_box
from .stability import StabilityReport, UnstableTimeStepError, check_matrices
from .steploop import Loop, csv_rows


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
    Raw vectors must have shape (2J,).  u0 must be finite and satisfy the
    stops, v0 must be finite; u1 = u0 + dt v0 is projected onto them.
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
            if data.shape != (dofs.ndof,):
                raise ValueError(f"an initial DOF vector must have shape ({dofs.ndof},)")
            return np.asarray(data, dtype=float).copy()
        value_fn, slope_fn = data
        return interpolate_profile(mesh, value_fn, slope_fn)

    vec_u0 = as_vector(u0, float(model.phi.value(0.0)))
    if not np.isfinite(vec_u0).all():
        raise ValueError("initial displacement is not finite")
    if not box.contains(vec_u0):
        raise ValueError("initial displacement violates the stops")
    vec_v0 = as_vector(v0, float(model.phi.d1(0.0)))
    if not np.isfinite(vec_v0).all():
        raise ValueError("initial velocity is not finite")
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

    ``records`` holds the ``CSV_HEADER`` columns as the rows of one (6, n)
    array, read one by one as ``t`` .. ``violation``.  The recorded
    velocity is the backward difference (u^n - u^{n-1})/dt at the tip;
    ``reaction`` is the scheme-native dt^2-scaled contact force at the
    tip DOF ((A u - F) for the stops, dt^2 times the spring force for
    the penalty scheme) and ``reaction_physical`` rescales it by 1/dt^2.
    ``max_violation``, ``tip_min``/``tip_max`` (and so ``max_abs_tip``)
    and ``contact_episodes`` are tracked at every
    step, not just the recorded ones, from defaults that hold before any
    state; the extrema turn NaN once a step does.
    ``stability`` is the report the run's stability check produced, and
    ``stats`` the counts of the run's work (see :func:`run`).
    The rows of a blown-up run end at its first record with a non-finite
    value, which :meth:`require_finite` names, short of ``n_steps``, and so
    do its extrema.
    """

    records: np.ndarray
    scheme: str
    beta: float
    dt: float
    tip_lower: float
    tip_upper: float
    n_steps: int
    record_stride: int
    audit: ContactAudit | None
    stability: StabilityReport
    max_violation: float = 0.0
    tip_min: float = math.inf
    tip_max: float = -math.inf
    contact_episodes: int = 0
    wall_time: float = 0.0
    stats: dict = field(default_factory=dict)

    CSV_HEADER = "t,u_tip,v_tip,energy,reaction,violation"

    t = property(lambda self: self.records[0])
    u_tip = property(lambda self: self.records[1])
    v_tip = property(lambda self: self.records[2])
    energy = property(lambda self: self.records[3])
    reaction = property(lambda self: self.records[4])
    violation = property(lambda self: self.records[5])
    max_abs_tip = property(lambda self: float(np.maximum(abs(self.tip_min), abs(self.tip_max))))

    @property
    def reaction_physical(self) -> np.ndarray:
        return self.reaction / self.dt**2

    def require_finite(self) -> None:
        """Raise :class:`NonFiniteRecordError` naming the first record with a non-finite value."""
        bad = np.flatnonzero(~np.isfinite(self.records).all(axis=0))
        if bad.size:
            raise NonFiniteRecordError(int(bad[0]), float(self.t[bad[0]]))

    def to_csv(self) -> str:
        """The header, then one line per record, each cell the text of
        ``'%.17g' % x``, written by the compiled library
        (:func:`~beamstops.steploop.csv_rows`)."""
        return f"{self.CSV_HEADER}\n{csv_rows(self.records)}"


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
    ``force`` is set.  The stops pick the contact path: numeric stops act
    on the tip, and signorini runs with them step through the pinned tip
    solver and audit the complementarity conditions of every step
    (``Trajectory.audit``); callable stops step through projected
    Gauss-Seidel on the whole box, without an audit.  Linear runs step
    through the pinned tip solver with open stops, whatever the model's
    stops, and measure violations and contact episodes against them.
    Loads are built a block of time windows at a time (at least 64 rows
    from J=128 up, see :data:`~beamstops.fem.LOAD_BLOCK_SAMPLES`), one
    :meth:`~beamstops.fem.LoadAssembler.time_averaged` call per block.
    Signorini and linear runs without ``f_tilde`` take the windows'
    averages of phi'' and phi from it (``separable``): the compiled loop
    combines each step's two coefficients with
    :attr:`~beamstops.fem.LoadAssembler.basis` as it forms F^n, and PGS runs
    write their rows with one rank-2 product per block into one buffer for
    the run.  Penalty runs and a callable ``f_tilde`` sample and scatter the
    load density of every window.  Every step is banded: it fills a load
    block's buffers with u^{n+1} and A u^{n+1} and the run's one F row with
    F^n, makes two banded products, B u^n and A u^{n+1}, carries A u with
    the state, and closes the step at the tip.  The steps of every tip
    closure are the compiled loop's (:class:`~beamstops.steploop.Loop`, a
    context over the run's buffers built once per run), which steps a whole
    load block in one call and, for a signorini run, writes per step the
    reaction A u - F at the tip and the largest |A u - F| off it, the
    figures that the audit reduces; PGS steps are made in Python, one
    ``pgs_box`` call each.  Each member's Trajectory is made before the
    first step, and one fold writes into it (``records``, extrema, contact
    episodes) and into the audit, from one contact code per tip, and ends
    members: it folds the starting pair (u^0, u^1) as the first pair of
    states, then each load block's states, the recorded rows in one
    vectorized pass.  It reads evenly spaced records' pairs as strided
    views of the buffers, and their energies make S u for every pair in
    one call of the loop's product kernel.
    A member's rows end at its first record with a non-finite value, and
    its extrema, episodes and the audit at that record's step.  A penalty
    member with no consistent contact case ends alike: its state turns NaN.
    A member that ends steps on in its block, unrecorded, until every
    member has ended or the run does.  No step of the compiled loop
    raises.  A PGS step that raises ends the run: the block is folded up
    to that step, and the error propagates unless the member has already
    ended.  Each Trajectory's ``stats`` count the run's work: its banded
    steps, its block solves (one per tip step) and banded products (two per
    banded step), and the member's own bumped solves.

    ``params`` may also be a list of penalty members that differ only in
    ``inv_eps``.  They share A, B, the loads and the starting pair, and
    step as one (k x 2J) block, member j in entries [j 2J, (j + 1) 2J) of
    each row: per step the loop makes B U and A U member by member and one
    in-place multi-RHS solve serves all of them, and only a member with a
    tip past a stop gets per-member tip work.  The result is then a list
    with each member's Trajectory; each member's rows are bit-identical to
    its own run, and its ``wall_time`` is the block's divided by k.  One
    ``params`` gives its Trajectory.
    """
    t_begin = time.perf_counter()
    members = list(params) if isinstance(params, (list, tuple)) else [params]
    if kind not in ("signorini", "linear", "penalty"):
        raise ValueError(f"unknown scheme kind {kind!r}")
    if kind == "penalty" and not all(isinstance(p, PenaltyParams) for p in members):
        raise ValueError("penalty runs need PenaltyParams")
    if not members:
        raise ValueError("a list of params needs at least one member")
    shared = {(p.beta, p.dt, p.T) for p in members}
    if len(members) > 1 and (kind != "penalty" or len(shared) > 1):
        raise ValueError("only penalty members that differ in inv_eps alone step together")
    scheme = members[0]
    n_total = scheme.n_steps
    stride = record_stride
    if stride is None:
        stride = max(1, math.ceil(n_total / 20000)) if n_total else 1
    if stride < 1:
        raise ValueError("record_stride must be >= 1")
    if kind == "penalty" and not model.tip_only:
        raise ValueError("penalty stops act on the tip only")
    start_pair = init_states(model, mesh, scheme, u0=u0, v0=v0)

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

    # Block layout: member j's state is entries [j ndof, (j + 1) ndof) of a row.
    k = len(members)
    ndof = dofs.ndof

    # The tip closure, whose data the compiled loop reads: signorini runs
    # step against the tip stops, linear runs against open ones, penalty
    # runs against their springs; callable stops take projected Gauss-Seidel.
    # Violations and contact episodes measure against the model's stops
    # either way.
    distributed = not model.tip_only
    pgs = kind == "signorini" and distributed
    lo, hi = (tip_lo, tip_hi) if kind == "signorini" else (-math.inf, math.inf)
    contact_audit = solver = None
    if kind == "penalty":
        solver = PenaltyTipSolver(a_mat, tip, tip_lo, tip_hi, members)
    elif not pgs:
        solver = PinnedDofSolver(a_mat, tip, lo, hi)
        contact_audit = ContactAudit() if kind == "signorini" else None

    if distributed:
        lo_b, hi_b = box.lower, box.upper

        def violations(states):
            """Violation of (..., ndof) states of the one member, over every DOF."""
            excess = np.maximum(np.maximum(states - hi_b, lo_b - states), 0.0)
            return excess.max(axis=-1, keepdims=True)

    else:

        def violations(states):
            """Violation of (..., k ndof) states at each member's tip, shape (..., k)."""
            u = states[..., tip::ndof]
            return np.maximum(np.maximum(u - tip_hi, tip_lo - u), 0.0)

    loads = LoadAssembler(mesh, model)
    horizon = scheme.T
    beta = scheme.beta

    # Block buffers.  Row r of u_buf and au_buf holds u^{t0+r} and A u^{t0+r}
    # (formed once per state and carried: F two steps later, the energy);
    # a signorini run's row r of figures the reaction and (but for PGS) the
    # largest off-contact residual of the step that gave u^{t0+r}.  Rows 0
    # and 1 carry the last two states of the block before, or the starting
    # pair; rows 2 .. are the block's steps.  Every step reuses one F row.
    # The steps write nothing else.
    block_steps = min(loads.block_rows, max(n_total - 1, 0))
    u_buf = np.zeros((block_steps + 2, k * ndof))
    au_buf = np.empty_like(u_buf)
    f_buf = np.empty((1, k * ndof))
    figures = np.empty((block_steps + 2, 2)) if kind == "signorini" else None
    for r, u in enumerate(start_pair):
        u_buf[r].reshape(k, ndof)[:] = u
        au_buf[r].reshape(k, ndof)[:] = a_mat.matvec(u)

    # fold writes into these and keeps, per member, its record count, contact carry and end
    results = [
        Trajectory(np.empty((6, n_total // stride + 3)), scheme=kind, beta=beta, dt=dt,
                   tip_lower=tip_lo, tip_upper=tip_hi, n_steps=n_total, record_stride=stride,
                   audit=contact_audit, stability=report) for _ in members]
    counts, carried, done = [0] * k, [False] * k, [False] * k

    def fold(t0, first, last):
        """Fold buffer rows ``first`` .. ``last`` (times t0 + row) into the members not done.

        Writes their records, extrema and contact episodes into their
        Trajectories, and the audit, both from one :func:`active_sides`
        code per tip, and marks done the members that end here.  Time t is
        recorded if t <= n_total and t is a multiple of the stride or
        n_total; the record of row r takes its velocity and energy from
        rows max(r, 1) - 1 and max(r, 1), so u^0 takes those of the
        starting pair.  Only step rows (r >= 2) have the figures of
        A u - F that the reaction and the audit read.  A member's rows end at
        its first record with a non-finite value (the columns that
        ``Trajectory.require_finite`` reads), and its extrema and episodes
        at the last row that record reads.
        """
        if last < first:
            return
        states = u_buf[first : last + 1]
        tips, viols = states[:, tip::ndof], violations(states)
        sides = active_sides(tips, tip_lo, tip_hi)
        times = t0 + np.arange(first, last + 1)
        at = np.flatnonzero((times <= n_total) & ((times % stride == 0) | (times == n_total)))
        m = at.size
        figs = figures[first : last + 1] if figures is not None and first >= 2 else None
        rows = np.zeros((m, k, 6))  # t, u_tip, v_tip, energy, reaction, violation
        if m:
            pair = np.maximum(at + first, 1)
            gap = int(pair[-1] - pair[0]) // max(m - 1, 1)
            if gap and np.array_equal(pair, pair[0] + gap * np.arange(m)):  # evenly spaced: views
                pick = [slice(pair[0] - d, pair[-1] + 1 - d, gap) for d in (1, 0)]
            else:
                pick = [pair - 1, pair]
            u0, u1, au0, au1 = (buf[i] for buf in (u_buf, au_buf) for i in pick)
            pairs = [x.reshape(m * k, ndof) for x in (u0, u1, au0, au1)]
            rows[:, :, 0] = (times[at] * dt)[:, None]
            rows[:, :, 1] = tips[at]
            rows[:, :, 2] = (u1[:, tip::ndof] - u0[:, tip::ndof]) / dt
            rows[:, :, 3] = discrete_energy(pairs[:2], pairs[2:], gm.stiffness, dt).reshape(m, k)
            if kind == "penalty":
                rows[:, :, 4] = dt2 * solver.springs(tips[at])
            elif figs is not None:
                rows[:, 0, 4] = figs[at, 0]
            rows[:, :, 5] = viols[at]
        finite = np.isfinite(rows).all(axis=2)
        for j, traj in enumerate(results):
            if done[j]:
                continue
            bad = np.flatnonzero(~finite[:, j])
            count = int(bad[0]) + 1 if bad.size else m
            traj.records[:, counts[j] : counts[j] + count] = rows[:count, j].T
            counts[j] += count
            end = int(at[bad[0]]) + first if bad.size else None  # its first non-finite record's row
            # its states here run to the last row that its first non-finite record reads
            n = last - first + 1 if end is None else max(end, 1) - first + 1
            traj.max_violation = float(np.maximum(traj.max_violation, viols[:n, j].max()))
            traj.tip_min = float(np.minimum(traj.tip_min, tips[:n, j].min()))
            traj.tip_max = float(np.maximum(traj.tip_max, tips[:n, j].max()))
            on = sides[:n, j] != INACTIVE  # an episode that goes on from the last fold is not new
            traj.contact_episodes += count_episodes(on, carried[j])
            carried[j] = bool(on[-1])
            if contact_audit is not None and figs is not None:  # one member
                contact_audit.update(sides[:n, 0], figs[:n, 0], figs[:n, 1])
            done[j] = end is not None

    # Without f_tilde a window's load is two coefficients times two fixed
    # vectors.  Penalty runs keep the sampled loads, whose last bits their
    # reference check still tracks, until that check measures accuracy
    # instead (ROADMAP item 12).
    separable = model.f_tilde is None and kind != "penalty"

    def load_blocks():
        """dt^2 G^n for n = 1 .. n_total-1, one block of load windows at a time.

        G^n reads the time-averaged loads of windows n-1, n and n+1, so
        each block carries the last two windows of the one before; memory
        stays at one block whatever the horizon.  Separable loads carry
        and combine the windows' (phi'', phi) coefficients, rows of two
        that the compiled loop takes; for PGS one rank-2 product per block
        writes dt^2 G^n into one buffer for the run.  Every member of a
        block adds the same (2J,) row.
        """
        if n_total < 2:
            return
        g_buf = np.zeros((block_steps, ndof)) if separable and pgs else None
        f = np.empty((0, 2 if separable else ndof))
        for w0 in range(0, n_total + 1, loads.block_rows):
            w1 = min(w0 + loads.block_rows, n_total + 1)
            ns = np.arange(w0, w1)
            f = np.concatenate((f[-2:], loads.time_averaged(ns, dt, horizon, separable=separable)))
            g = dt2 * (beta * (f[2:] + f[:-2]) + (1.0 - 2.0 * beta) * f[1:-1])
            if separable and pgs:
                g = loads.from_coefficients(g, out=g_buf[: len(g)])
            yield g

    # the compiled loop's context, over the run's buffers; it counts its work
    loop = None if pgs else Loop(a_mat, b_mat, solver, u_buf, au_buf, f_buf, figures)
    work = np.zeros(3 + k, dtype=np.int64) if loop is None else loop.counts

    def kernel(g_block, t0):
        """Steps the rows of a load block in the compiled loop, in one call, and
        returns (rows stepped, None)."""
        loop.load(g_block, loads if separable else None)
        loop.step(2, len(g_block) + 2)
        return len(g_block), None

    def pgs_kernel(g_block, t0):
        """Steps the rows of a load block with projected Gauss-Seidel: B u^n,
        - A u^{n-1} + dt^2 G^n, :func:`pgs_box`, then A u^{n+1} and the
        reaction A u^{n+1} - F^n at the tip.  Returns
        (rows stepped, the error a step raised or None)."""
        f = f_buf[0]
        for r in range(2, len(g_block) + 2):
            b_mat.matvec(u_buf[r - 1], out=f)
            f -= au_buf[r - 2]
            f += g_block[r - 2]
            try:
                # warm start from u^n; step 1 starts cold (PGS stops at a tolerance, so
                # the starting point shows in the last bits of every later step)
                u_buf[r] = pgs_box(a_mat, f, box, x0=u_buf[r - 1] if t0 + r > 2 else None)
            except Exception as exc:  # noqa: BLE001 - raised by run() unless the member has ended
                return r - 2, exc
            a_mat.matvec(u_buf[r], out=au_buf[r])
            figures[r, 0] = au_buf[r, tip] - f[tip]
            work[0] += 1
            work[2] += 2
        return len(g_block), None

    # a blown-up run overflows on its last record, which already reports the failure
    with np.errstate(over="ignore", invalid="ignore"):
        fold(0, 0, 1)  # the starting pair, shared by the members
        t0 = 0
        for g_block in () if all(done) else load_blocks():
            # a member whose state turns non-finite steps on in place: its
            # products and solves read only its own entries, and the fold ends it
            steps, raised = (pgs_kernel if pgs else kernel)(g_block, t0)
            fold(t0, 2, steps + 1)
            if all(done):
                break
            if raised is not None:
                raise raised
            t0 += steps
            # the last two states carry into the next block
            u_buf[:2], au_buf[:2] = u_buf[steps : steps + 2], au_buf[steps : steps + 2]

    wall = (time.perf_counter() - t_begin) / len(members)
    for j, (traj, count) in enumerate(zip(results, counts)):
        traj.records = traj.records[:, :count].copy()
        traj.wall_time = wall
        traj.stats = {"banded_steps": int(work[0]), "solves": int(work[1]),
                      "products": int(work[2]), "bumped_solves": int(work[3 + j])}
    return results if isinstance(params, (list, tuple)) else results[0]
