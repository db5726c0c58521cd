"""Time integration: parameter validation, starting procedure, the step
solvers that the run loop calls and the full run loop, checked against
dense re-implementations.

The heavyweight oracle here is ``dense_trajectory_oracle``: the complete
scheme re-run in plain dense numpy, with each constrained step solved by
the brute-force box-QP enumeration from conftest.
"""

import dataclasses
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from beamstops import fem, stability, steppers
from beamstops.diagnostics import (
    INACTIVE,
    ContactAudit,
    active_sides,
    count_episodes,
    discrete_energy,
)
from beamstops.fem import (
    BeamModel,
    DofMap,
    LoadAssembler,
    Mesh,
    SupportMotion,
    assemble,
    interpolate_profile,
    lifting,
    lifting_slope,
)
from beamstops.linalg import PgsConvergenceError, PinnedDofSolver
from beamstops.steploop import Loop
from beamstops.steppers import (
    NonFiniteRecordError,
    PenaltyParams,
    PenaltyTipSolver,
    SchemeParams,
    Trajectory,
    effective_matrix,
    init_states,
    run,
    transfer_matrix,
)
from conftest import box_qp_oracle
from faults import failing_pgs, overbumped, wrong_branch_init
from oracles import (at_time, audit_figures, checked_loop, oracle_rows, penalty_step, pinned_step,
                     spring)

SMALL = dict(L=1.0, k2=1.0)


def small_model(g=np.inf, amp=0.3, omega=3.0):
    phi = SupportMotion.sine(amp, omega)
    if np.isinf(g):
        return BeamModel(k2=SMALL["k2"], L=SMALL["L"], phi=phi)
    return BeamModel.symmetric_stops(SMALL["k2"], SMALL["L"], g, phi)


# ------------------------------------------------------------------ parameters

def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(beta=0.6, dt=0.1, T=1.0)
    with pytest.raises(ValueError):
        SchemeParams(beta=-0.1, dt=0.1, T=1.0)
    with pytest.raises(ValueError):
        SchemeParams(beta=0.5, dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        SchemeParams(beta=0.5, dt=0.1, T=-1.0)
    assert SchemeParams(beta=0.5, dt=0.1, T=1.04).n_steps == 10
    assert SchemeParams(beta=0.5, dt=0.1, T=0.0).n_steps == 0
    for dt, T in ((np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)):
        with pytest.raises(ValueError):
            SchemeParams(beta=0.5, dt=dt, T=T)


def test_penalty_params_validation():
    for inv_eps in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            PenaltyParams(inv_eps=inv_eps, dt=0.1, T=1.0)
    assert PenaltyParams(inv_eps=0.0, dt=0.1, T=1.0).inv_eps == 0.0
    assert PenaltyParams(inv_eps=1e8, dt=0.1, T=1.0, beta=0.25).beta == 0.25


# -------------------------------------------------------------- initialization

def test_init_states_defaults_follow_support():
    """With phi = a sin(w t) the beam starts at rest in the lab frame:
    u0 = 0 (phi(0) = 0) and v0 = -a w h(x)."""
    mesh = Mesh(SMALL["L"], 4)
    model = small_model(g=np.inf, amp=0.2, omega=10.0)
    params = SchemeParams(beta=0.5, dt=1e-3, T=1.0)
    u0, u1 = init_states(model, mesh, params)
    np.testing.assert_array_equal(u0, np.zeros(8))
    expect_v = interpolate_profile(
        mesh,
        lambda x: -2.0 * np.array([lifting(xi, SMALL["L"])[0] for xi in np.atleast_1d(x)]),
        lambda x: -2.0 * np.array([lifting_slope(xi, SMALL["L"]) for xi in np.atleast_1d(x)]),
    )
    np.testing.assert_allclose(u1, params.dt * expect_v, rtol=1e-12, atol=1e-15)


def test_init_states_accepts_profiles_and_vectors():
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.5)
    params = SchemeParams(beta=0.5, dt=0.01, T=1.0)
    by_fn = init_states(
        model, mesh, params,
        u0=(lambda x: 0.1 * x**2, lambda x: 0.2 * x),
        v0=(lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)),
    )
    raw = interpolate_profile(mesh, lambda x: 0.1 * x**2, lambda x: 0.2 * x)
    by_vec = init_states(model, mesh, params, u0=raw, v0=np.zeros(6))
    np.testing.assert_array_equal(by_fn[0], by_vec[0])
    np.testing.assert_array_equal(by_fn[1], by_fn[0])  # zero velocity


def test_init_states_projects_first_iterate_onto_stops():
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.05)
    params = SchemeParams(beta=0.5, dt=1.0, T=2.0)  # huge dt exaggerates the kick
    big_v = interpolate_profile(mesh, lambda x: x, lambda x: np.ones_like(x))
    u0, u1 = init_states(model, mesh, params, v0=big_v)
    tip = DofMap(3).tip_disp
    assert u1[tip] == 0.05  # clamped to the upper stop
    assert u0[tip] == 0.0


def test_init_states_rejects_infeasible_start():
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.01)
    params = SchemeParams(beta=0.5, dt=0.01, T=1.0)
    bad = interpolate_profile(mesh, lambda x: x, lambda x: np.ones_like(x))
    with pytest.raises(ValueError):
        init_states(model, mesh, params, u0=bad)
    ndof = DofMap(3).ndof
    cases = {
        "wrong length": (dict(u0=np.zeros(3)), "must have shape"),
        "u0 matrix": (dict(u0=np.zeros((ndof, 2))), "must have shape"),
        "v0 matrix": (dict(v0=np.zeros((ndof, 2))), "must have shape"),
        "NaN u0": (dict(u0=np.full(ndof, np.nan)), "initial displacement is not finite"),
        "NaN v0": (dict(v0=np.full(ndof, np.nan)), "initial velocity is not finite"),
    }
    for name, (kwargs, message) in cases.items():
        with pytest.raises(ValueError, match=message):
            init_states(model, mesh, params, **kwargs)
        with pytest.raises(ValueError, match=message):  # the same without stops
            init_states(small_model(), mesh, params, **kwargs)


# ------------------------------------------------------------ scheme matrices

def test_effective_and_transfer_matrices_formulas():
    mesh = Mesh(SMALL["L"], 3)
    gm = assemble(mesh, small_model())
    params = SchemeParams(beta=0.3, dt=0.02, T=1.0)
    m, s = gm.mass.to_dense(), gm.stiffness.to_dense()
    dt2 = params.dt**2
    np.testing.assert_allclose(
        effective_matrix(gm.mass, gm.stiffness, params).to_dense(),
        m + dt2 * 0.3 * s,
        rtol=1e-13,
        atol=1e-16,
    )
    np.testing.assert_allclose(
        transfer_matrix(gm.mass, gm.stiffness, params).to_dense(),
        2.0 * m - dt2 * 0.4 * s,
        rtol=1e-13,
        atol=1e-16,
    )


# ------------------------------------------------- dense whole-loop oracle

def dense_trajectory_oracle(model, mesh, params, kind="signorini"):
    """The entire run re-implemented densely; constrained steps go through
    the enumeration QP oracle."""
    dofs = DofMap(mesh.J)
    gm = assemble(mesh, model)
    m, s = gm.mass.to_dense(), gm.stiffness.to_dense()
    dt, beta = params.dt, params.beta
    dt2 = dt * dt
    a = m + dt2 * beta * s
    b = 2.0 * m - dt2 * (1.0 - 2.0 * beta) * s

    box = model.box(dofs, mesh)
    lo, hi = box.lower, box.upper

    phi0 = float(model.phi.value(0.0))
    dphi0 = float(model.phi.d1(0.0))
    u0 = interpolate_profile(
        mesh,
        lambda x: -phi0 * np.array([lifting(xi, model.L)[0] for xi in np.atleast_1d(x)]),
        lambda x: -phi0 * np.array([lifting_slope(xi, model.L) for xi in np.atleast_1d(x)]),
    )
    v0 = interpolate_profile(
        mesh,
        lambda x: -dphi0 * np.array([lifting(xi, model.L)[0] for xi in np.atleast_1d(x)]),
        lambda x: -dphi0 * np.array([lifting_slope(xi, model.L) for xi in np.atleast_1d(x)]),
    )
    u1 = np.clip(u0 + dt * v0, lo, hi)

    loads = LoadAssembler(mesh, model)
    f_bar = lambda k: loads.time_averaged(k, dt, params.T)  # noqa: E731
    hist = [u0.copy(), u1.copy()]
    for n in range(1, params.n_steps):
        g_n = beta * (f_bar(n + 1) + f_bar(n - 1)) + (1.0 - 2.0 * beta) * f_bar(n)
        f_vec = b @ hist[-1] - a @ hist[-2] + dt2 * g_n
        if kind == "linear":
            u_next = np.linalg.solve(a, f_vec)
        else:
            u_next = box_qp_oracle(a, f_vec, lo, hi)
        hist.append(u_next)
    return np.array(hist)


@pytest.mark.parametrize("beta,dt", [(0.5, 0.01), (0.3, 0.001)])
def test_run_matches_dense_oracle_with_contact(beta, dt):
    mesh = Mesh(SMALL["L"], 2)
    model = small_model(g=0.02)
    n = 120 if dt == 0.01 else 60
    params = SchemeParams(beta=beta, dt=dt, T=n * dt)
    traj = run(model, mesh, params, record_stride=1)
    ref = dense_trajectory_oracle(model, mesh, params)
    tip = DofMap(2).tip_disp
    # records are (t=0 row from u^0, then u^1, ..., u^N)
    assert traj.t.size == n + 1
    np.testing.assert_allclose(traj.u_tip, ref[:, tip], rtol=0, atol=1e-10)
    if beta == 0.5:
        assert traj.max_abs_tip <= 0.02 + 1e-14  # QP keeps the tip admissible


def test_linear_run_matches_dense_oracle():
    mesh = Mesh(SMALL["L"], 2)
    model = small_model(g=np.inf)
    params = SchemeParams(beta=0.5, dt=0.01, T=0.8)
    traj = run(model, mesh, params, kind="linear", record_stride=1)
    ref = dense_trajectory_oracle(model, mesh, params, kind="linear")
    tip = DofMap(2).tip_disp
    np.testing.assert_allclose(traj.u_tip, ref[:, tip], rtol=0, atol=1e-11)


def test_signorini_reduces_to_linear_without_stops():
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=np.inf)
    params = SchemeParams(beta=0.5, dt=0.005, T=0.5)
    a = run(model, mesh, params, kind="signorini", record_stride=1)
    b = run(model, mesh, params, kind="linear", record_stride=1)
    np.testing.assert_array_equal(a.u_tip, b.u_tip)


# -------------------------------------------------------------- penalty scheme

def dense_penalty_step(a, f_vec, c, lo, hi, dt2, beta, inv_eps, hist_force):
    """One implicit penalty step solved as a scalar root-finding problem."""

    def spring(uc):
        if uc > hi:
            return -inv_eps * (uc - hi)
        if uc < lo:
            return -inv_eps * (uc - lo)
        return 0.0

    def mismatch(uc):
        rhs_v = f_vec.copy()
        rhs_v[c] += dt2 * (beta * spring(uc) + hist_force)
        return np.linalg.solve(a, rhs_v)[c] - uc

    span = 10.0 * (abs(hi) + abs(lo) + np.abs(f_vec).max() + 1.0)
    root = brentq(mismatch, lo - span, hi + span, xtol=1e-15)
    rhs_v = f_vec.copy()
    rhs_v[c] += dt2 * (beta * spring(root) + hist_force)
    return np.linalg.solve(a, rhs_v)


def step_loop(solver, a, b, k):
    """A compiled loop over three rows of k members' flat blocks, for one
    step from crafted states: fill rows 0 and 1 of ``u`` (u^{n-1}, u^n),
    row 0 of ``au`` (A u^{n-1}) and row 0 of ``g`` (dt^2 G^n, which every
    member adds); ``step(2, 3)`` then writes F^n into ``f`` and u^{n+1} into
    row 2 of ``u``."""
    n = k * a.n
    loop = Loop(a, b, solver, np.zeros((3, n)), np.zeros((3, n)), np.zeros((1, n)))
    loop.load(np.zeros((1, a.n)))
    return loop


@pytest.mark.parametrize("push", [40.0, -40.0, 0.3])
def test_penalty_solver_matches_root_finding_oracle(push):
    """Three pushes: hard onto the upper stop, the lower stop, and none.  The
    compiled loop steps from crafted states, and its u^{n+1} solves the
    penalty step for the F^n it formed."""
    mesh = Mesh(SMALL["L"], 2)
    model = small_model(g=0.02)
    params = PenaltyParams(inv_eps=1e4, dt=0.01, T=1.0, beta=0.25)
    gm = assemble(mesh, model)
    a = effective_matrix(gm.mass, gm.stiffness, params)
    dofs = DofMap(2)
    c = dofs.tip_disp
    solver = PenaltyTipSolver(a, c, -0.02, 0.02, params)
    loop = step_loop(solver, a, transfer_matrix(gm.mass, gm.stiffness, params), 1)
    rng = np.random.default_rng(9)
    u_prev, u_curr = 0.001 * rng.standard_normal(4), 0.001 * rng.standard_normal(4)
    loop.u[0], loop.u[1], loop.au[0] = u_prev, u_curr, a.matvec(u_prev)
    loop.g[0] = 0.01 * rng.standard_normal(4)
    loop.g[0, c] += push * params.dt**2
    loop.step(2, 3)
    hist = (1.0 - 2.0 * params.beta) * spring(solver, u_curr[c]) + params.beta * spring(
        solver, u_prev[c]
    )
    ref = dense_penalty_step(
        a.to_dense(), loop.f[0], c, -0.02, 0.02, params.dt**2, params.beta, 1e4, hist
    )
    np.testing.assert_allclose(loop.u[2], ref, rtol=1e-9, atol=1e-13)


@pytest.mark.parametrize("J", [1, 19, 320])
def test_penalty_consistency_check_never_fires_on_finite_states(J):
    """The reduced tip equation is strictly increasing, so one contact
    branch is always consistent.  A seeded probe of the compiled loop's
    step over finite blocks of four members (random stops, stiffnesses 1e-5
    to 1e303, states up to 1 and loads up to 1e200 in size) never poisons a
    member: every entry of u^{n+1} is finite.  More than half of the member
    steps take the bumped branch."""
    rng = np.random.default_rng(J)
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
    gm = assemble(Mesh(1.501, J), model)
    c, ndof, k = DofMap(J).tip_disp, 2 * J, 4
    calls = contacts = 0
    for beta, dt in [(0.25, 1.5e-5), (0.5, 1e-3), (0.1, 1e-4), (0.5, 1e-6)] * 3:
        lo, hi = -(10.0 ** rng.uniform(-5, 0)), 10.0 ** rng.uniform(-5, 0)
        members = [PenaltyParams(inv_eps=v, beta=beta, dt=dt, T=1.0)
                   for v in 10.0 ** rng.uniform(-5, 303, size=k)]
        a = effective_matrix(gm.mass, gm.stiffness, members[0])
        solver = PenaltyTipSolver(a, c, lo, hi, members)
        loop = step_loop(solver, a, transfer_matrix(gm.mass, gm.stiffness, members[0]), k)
        for _ in range(100):
            loop.g[0] = 10.0 ** rng.uniform(-12, 200) * rng.standard_normal(ndof)
            for x in (loop.u[0], loop.u[1]):
                x.reshape(k, ndof)[:] = (10.0 ** rng.uniform(-12, 0, size=(k, 1))
                                         * rng.standard_normal((k, ndof)))
            loop.step(2, 3)
            u = loop.u[2].reshape(k, ndof)
            assert np.isfinite(u).all()
            calls += k
            contacts += int(((u[:, c] > hi * (1 - 1e-9)) | (u[:, c] < lo * (1 - 1e-9))).sum())
    assert calls == 4800 and contacts > calls // 2


def test_penalty_spring_sign_convention():
    mesh = Mesh(SMALL["L"], 2)
    params = PenaltyParams(inv_eps=100.0, dt=0.01, T=1.0)
    gm = assemble(mesh, small_model(g=0.1))
    a = effective_matrix(gm.mass, gm.stiffness, params)
    solver = PenaltyTipSolver(a, DofMap(2).tip_disp, -0.1, 0.1, params)
    down, up, free = solver.springs(np.array([[0.12], [-0.12], [0.05]]))[:, 0]
    assert down == pytest.approx(-2.0)  # pushes back down
    assert up == pytest.approx(2.0)  # pushes back up
    assert free == 0.0


def test_penalty_step_adds_the_zero_history_term_with_its_sign():
    """With every tip at rest the springs' explicit part is +0.0, and adding
    it to an F^n tip entry of -0.0 turns it into +0.0: the solve then gives
    the bits of A^{-1}(F + 0.0 e_c), whose signs alternate, not those of
    A^{-1} F.  The step adds nothing at a free tip, which gives the same
    bits, since the F^n that the loop forms is never -0.0: B u^n is a sum
    from +0.0, and even from states and loads of -0.0 every entry of
    (B u^n - A u^{n-1}) + dt^2 G^n is +0.0.  So, alone and in a block of
    three, each member's u^{n+1} is A^{-1}(F + 0.0 e_c), bit for bit, as is
    the oracle's step from that F^n."""
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
    gm = assemble(Mesh(1.501, 19), model)
    members = [PenaltyParams(inv_eps=v, beta=0.25, dt=1.5e-5, T=0.1) for v in (1e6, 1e7, 1e9)]
    a = effective_matrix(gm.mass, gm.stiffness, members[0])
    b = transfer_matrix(gm.mass, gm.stiffness, members[0])
    c, ndof, factor = DofMap(19).tip_disp, a.n, a.cholesky()
    f = np.full(ndof, -0.0)
    rhs = f.copy()
    rhs[c] += 0.0
    want = np.signbit(factor.solve(rhs))
    assert not np.array_equal(want, np.signbit(factor.solve(f)))
    for k in (1, 3):
        solver = PenaltyTipSolver(a, c, -0.002, 0.002, members[:k])
        loop = step_loop(solver, a, b, k)
        for x in (loop.g[0], loop.u[0], loop.u[1], loop.au[0]):
            x[:] = -0.0
        loop.step(2, 3)
        assert np.array_equal(loop.f[0].view(np.int64), np.zeros(k * ndof).view(np.int64))
        rhs = loop.f[0].reshape(k, ndof).copy()
        rhs[:, c] += 0.0
        solved = factor.solve(rhs.T).T.ravel()
        oracle = penalty_step(solver, loop.f[0].copy(), loop.u[0], loop.u[1], np.empty(k * ndof))
        for got in (loop.u[2], oracle):
            assert np.array_equal(got.view(np.int64), solved.view(np.int64))


def test_penalty_springs_are_evaluated_only_for_tips_at_a_stop(monkeypatch):
    """Off the stops a member makes no spring history: a block of four that
    ends before the first contact (t = 0.0068 s) makes none in the oracle
    loop, whose every step the loop's equals (``checked_loop``).  A member
    whose state turned NaN counts as off the stops, so once the 1e300
    member has ended (step 543) it makes no more, and the histories of the
    members beside it are those they make without it."""
    seen = checked_loop(monkeypatch)
    run(*penalty_members(0.25, 1.5e-5, 0.0065, [1e6, 1e7, 1e8, 1e9]), kind="penalty")
    assert seen["banded_steps"] > 400 and seen["histories"] == seen["pressing"] == []
    counts = {}
    for T, values in ((0.03, [1e6, 1e300, 1e9]), (0.0077, [1e300]), (0.03, [1e6, 1e9])):
        seen["histories"].clear()
        run(*penalty_members(0.2, 1.4e-5, T, values), kind="penalty")
        members = [m for _, m in seen["histories"]]
        counts[T, len(values)] = {v: members.count(j) for j, v in enumerate(values)}
    block = counts[0.03, 3]
    assert block[1e300] == counts[0.0077, 1][1e300] > 0
    assert {v: block[v] for v in (1e6, 1e9)} == counts[0.03, 2]
    assert min(counts[0.03, 2].values()) > 0


def test_penalty_steps_make_one_solve_and_one_per_member_pressing_a_stop(monkeypatch):
    """On the penalty-sweep configuration (four members, 1e6 to 1e9, beta =
    1/4, dt = 1.5e-5, T = 0.1) each step makes one multi-RHS solve and one
    bumped solve for each member whose tip that solve puts past a stop;
    every member has a spring, so every such member gets one.  The run's
    counters say so, they are the oracle loop's, and every step is the
    oracle's, bit for bit."""
    model = blow_up_model()
    members = [PenaltyParams(inv_eps=v, beta=0.25, dt=1.5e-5, T=0.1) for v in (1e6, 1e7, 1e8, 1e9)]
    plain = run(model, Mesh(1.501, 19), members, kind="penalty", record_stride=7)
    seen = checked_loop(monkeypatch)
    checked = run(model, Mesh(1.501, 19), members, kind="penalty", record_stride=7)
    stats = plain[0].stats
    assert stats["banded_steps"] == stats["solves"] == seen["solves"] == 6666
    assert stats["products"] == seen["products"] == 2 * 6666
    bumped = [traj.stats["bumped_solves"] for traj in plain]
    assert bumped == [seen["bumped_solves"][j] for j in range(4)]
    assert 100 < sum(bumped) < 666  # so more than 6000 steps make no bumped solve
    for p, c in zip(plain, checked):
        assert np.array_equal(p.records.view(np.int64), c.records.view(np.int64))


def test_a_pressing_member_makes_its_history_once_per_step(monkeypatch):
    """On the penalty-sweep configuration a member with a tip of u^{n-1} or
    u^n past a stop makes its spring history once per step, for its tip
    entry of F and for its bumped solve alike, in the oracle loop that every
    step of the loop equals (``checked_loop``); a member that presses no
    stop makes one only for a bumped solve.  Hundreds of pressing
    member-steps make a bumped solve."""
    model = blow_up_model()
    members = [PenaltyParams(inv_eps=v, beta=0.25, dt=1.5e-5, T=0.1) for v in (1e6, 1e7, 1e8, 1e9)]
    seen = checked_loop(monkeypatch)
    run(model, Mesh(1.501, 19), members, kind="penalty", record_stride=7)
    assert seen["banded_steps"] == 6666
    histories, pressing, bumped = Counter(seen["histories"]), set(seen["pressing"]), seen["bumped"]
    assert set(histories.values()) == {1}
    assert pressing <= set(histories) and set(histories) - pressing <= set(bumped)
    assert sum(pair in pressing for pair in bumped) > 100


def penalty_states():
    """A four-member penalty block between stops at +-2 mm, the states of a
    step for a contact pattern, and a check of the compiled loop against the
    oracle.

    Member j's tips of u^{n-1} and u^n sit at 3 mm where bit j of the
    pattern is set, and at 0 where not.  The 1e9 member's bumped factor is
    that of A + 100 bump e_c e_c^T (``overbumped``), so a step that presses
    it ends it.  ``loop(rows)`` gives a loop over ``rows`` fresh rows;
    ``check(loop, r, end)`` steps rows r .. end - 1 in one call and asserts
    that every u, A u and F row equals the oracle's, bit for bit, on copies
    of the same rows."""
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
    members = [PenaltyParams(inv_eps=v, beta=0.25, dt=1.5e-5, T=0.1) for v in (1e6, 1e7, 1e8, 1e9)]
    gm = assemble(Mesh(1.501, 19), model)
    a = effective_matrix(gm.mass, gm.stiffness, members[0])
    b = transfer_matrix(gm.mass, gm.stiffness, members[0])
    c, ndof = DofMap(19).tip_disp, a.n
    rng = np.random.default_rng(24)

    def loop(rows):
        solver = PenaltyTipSolver(a, c, -0.002, 0.002, members)
        value, bump, _ = solver.members[3]
        solver.members[3] = value, bump, overbumped(a, c, bump)
        fresh = Loop(a, b, solver, np.zeros((rows, 4 * ndof)), np.zeros((rows, 4 * ndof)),
                     np.zeros((1, 4 * ndof)))
        fresh.load(np.zeros((rows - 2, ndof)))
        return fresh

    def state(pattern):
        """dt^2 G^n, which the members share, and u^{n-1}, u^n and A u^{n-1}
        as flat rows"""
        rows = 1e-9 * rng.standard_normal((3, 4, ndof))
        for j in range(4):
            rows[:2, j, c] = 0.003 if pattern >> j & 1 else 0.0
        return 1e-9 * rng.standard_normal(ndof), *rows.reshape(3, 4 * ndof)

    def check(one, r, end):
        before = [x.copy() for x in (one.u, one.au, one.f)]
        oracle_rows(one, r, end)
        want = [x.copy() for x in (one.u, one.au, one.f)]
        for x, saved in zip((one.u, one.au, one.f), before):
            x[...] = saved
        one.step(r, end)
        for got, rows in zip((one.u, one.au, one.f), want):
            assert np.array_equal(got.view(np.int64), rows.view(np.int64))

    return loop, state, check


@pytest.mark.parametrize("reuse", [False, True])
def test_direct_penalty_steps_read_their_own_states(reuse):
    """The loop classifies the tips of the states it is given: steps of
    consecutive calls that alternate contact and free states equal the
    oracle's, whether each call gets a fresh loop or the same loop's rows
    refilled.  The 1e9 member ends exactly where its tip presses."""
    loop, state, check = penalty_states()
    one = loop(3)
    for pattern in [0b1011, 0, 0b0100, 0, 0, 0b1111, 0b0001, 0]:
        if not reuse:
            one = loop(3)
        one.g[0], one.u[0], one.u[1], one.au[0] = state(pattern)
        check(one, 2, 3)
        assert np.isnan(one.u[2].reshape(4, -1)[3]).any() == bool(pattern & 0b1000)


def test_rows_stepped_in_one_call_classify_their_own_states():
    """A call that steps rows 2, 3 and 4 from a pattern's pair, whose
    contact state can change from row to row, equals the oracle row by row;
    so does the next call from a new pair written into rows 0 and 1, as
    ``run()`` starts a load block."""
    loop, state, check = penalty_states()
    one = loop(5)
    for pattern in (0b0110, 0, 0b1001, 0b1111, 0, 0b0010, 0b1000):
        for bits in (pattern, pattern ^ 0b1111):
            g, one.u[0], one.u[1], one.au[0] = state(bits)
            one.g[:] = g
            check(one, 2, 5)


def test_penalty_zero_stiffness_is_linear_run():
    """Bit for bit the banded linear run: the penalty scheme steps banded."""
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.02)
    free = small_model(g=np.inf)
    pp = PenaltyParams(inv_eps=0.0, dt=0.005, T=0.4, beta=0.25)
    lp = SchemeParams(beta=0.25, dt=0.005, T=0.4)
    a = run(model, mesh, pp, kind="penalty", record_stride=1)
    b = run(free, mesh, lp, kind="linear", record_stride=1)
    np.testing.assert_array_equal(a.u_tip, b.u_tip)


def test_penalty_violation_shrinks_with_stiffness():
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.02)
    viols = []
    for inv_eps in (1e2, 1e4, 1e6):
        pp = PenaltyParams(inv_eps=inv_eps, dt=0.002, T=1.0, beta=0.5)
        traj = run(model, mesh, pp, kind="penalty")
        viols.append(traj.max_violation)
    assert viols[0] > viols[1] > viols[2] > 0.0


def test_penalty_requires_penalty_params():
    mesh = Mesh(SMALL["L"], 2)
    model = small_model(g=0.02)
    with pytest.raises(ValueError):
        run(model, mesh, SchemeParams(beta=0.25, dt=0.01, T=0.1), kind="penalty")


# ------------------------------------------------------------------- full runs

def test_run_rejects_unknown_kind():
    mesh = Mesh(SMALL["L"], 2)
    with pytest.raises(ValueError):
        run(small_model(), mesh, SchemeParams(beta=0.5, dt=0.01, T=0.1), kind="magic")


@pytest.mark.parametrize("case", ["stride", "penalty band", "infeasible start"])
def test_run_checks_its_arguments_before_the_set_up(monkeypatch, case):
    """dt = 1e-3 at beta = 0 is far above the stability limit and no run
    forces it, yet each bad argument raises its own ValueError: run()
    checks its arguments before it assembles the matrices or computes
    kappa."""

    def never(*args, **kwargs):
        raise AssertionError("run() began its set-up")

    monkeypatch.setattr(steppers, "assemble", never)
    monkeypatch.setattr(stability, "max_generalized_eig", never)
    mesh, scheme = Mesh(1.501, 19), SchemeParams(0.0, 1e-3, 0.01)
    band = lambda x: 0.02 + 0.06 * np.asarray(x, dtype=float)  # noqa: E731
    far_off = np.zeros(DofMap(19).ndof)
    far_off[DofMap(19).tip_disp] = 0.5
    cases = {
        "stride": (
            lambda: run(blow_up_model(), mesh, scheme, kind="linear", record_stride=0),
            "record_stride must be >= 1",
        ),
        "penalty band": (
            lambda: run(BeamModel(k2=282.84, L=1.501, g_lower=lambda x: -band(x), g_upper=band),
                        mesh, PenaltyParams(inv_eps=1e6, beta=0.0, dt=1e-3, T=0.01), kind="penalty"),
            "penalty stops act on the tip only",
        ),
        "infeasible start": (
            lambda: run(blow_up_model(), mesh, scheme, u0=far_off),
            "initial displacement violates the stops",
        ),
    }
    call, message = cases[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_zero_horizon_gives_single_record():
    mesh = Mesh(SMALL["L"], 3)
    traj = run(small_model(g=0.1), mesh, SchemeParams(beta=0.5, dt=0.01, T=0.0))
    assert traj.t.shape == (1,)
    assert traj.t[0] == 0.0 and traj.u_tip[0] == 0.0
    assert traj.n_steps == 0


@pytest.mark.parametrize("stride", [1, 5])
@pytest.mark.parametrize("kind", ["signorini", "linear", "penalty", "penalty block"])
def test_one_step_runs_record_the_starting_pair(kind, stride):
    """A run of one step records u^0 and u^1 at any stride, alone and for
    each member of a block, and the two rows equal the first two rows of
    a longer run at stride 1."""
    dt = 1.5e-5
    model, mesh, members = penalty_members(0.25, dt, dt, [1e6, 1e9])

    def csv_rows(T, stride):
        if kind.startswith("penalty"):
            params = [dataclasses.replace(p, T=T) for p in members]
            out = run(model, mesh, params if kind == "penalty block" else params[0],
                      kind="penalty", record_stride=stride)
        else:
            out = run(model, mesh, SchemeParams(0.5, dt, T), kind=kind, record_stride=stride)
        return [r.to_csv().splitlines() for r in (out if isinstance(out, list) else [out])]

    one = csv_rows(dt, stride)
    assert len(one) == (2 if kind == "penalty block" else 1)
    for short, longer in zip(one, csv_rows(20 * dt, 1), strict=True):
        assert len(short) == 3  # the header and two rows
        assert short == longer[:3]


def start_run(kind, T, dt, v0=None):
    """A run of the penalty test model with the starting pair of ``v0``; for
    "penalty block" the list of the two members' results, else one."""
    model, mesh, members = penalty_members(0.25, dt, T, [1e6, 1e9])
    if kind == "penalty block":
        return run(model, mesh, members, kind="penalty", v0=v0)
    if kind == "penalty":
        return [run(model, mesh, members[0], kind="penalty", v0=v0)]
    return [run(model, mesh, SchemeParams(0.5, dt, T), kind=kind, v0=v0)]


@pytest.mark.parametrize("kind", ["signorini", "linear", "penalty", "penalty block"])
def test_zero_horizon_extrema_include_the_second_state(kind):
    """T = 0 records u^0 alone, but the extrema cover the whole starting
    pair: u^1 = dt v^0 moves the tip off its rest position u^0 = 0."""
    dt = 1.5e-5
    model, mesh, members = penalty_members(0.25, dt, 0.0, [1e6])
    u1_tip = init_states(model, mesh, members[0])[1][DofMap(mesh.J).tip_disp]
    for traj in start_run(kind, 0.0, dt):
        assert traj.t.tolist() == [0.0] and traj.u_tip[0] == 0.0
        assert traj.max_abs_tip == abs(u1_tip) > 0.0


@pytest.mark.parametrize("kind", ["signorini", "linear", "penalty", "penalty block"])
def test_a_non_finite_starting_pair_ends_at_record_0(monkeypatch, kind):
    """v^0 = 1e305 overflows the energy of the starting pair: the run gives
    the one row of u^0, ``require_finite`` names record 0, the extrema
    cover u^1 (its tip projected onto the upper stop), and no load block
    is built."""

    def never(*args, **kwargs):
        raise AssertionError("a load block was built")

    monkeypatch.setattr(LoadAssembler, "time_averaged", never)
    v0 = np.full(DofMap(19).ndof, 1e305)
    for traj in start_run(kind, 0.1, 1.5e-5, v0=v0):
        assert traj.t.tolist() == [0.0]
        with pytest.raises(NonFiniteRecordError, match=re.escape("record 0 (t = 0 s)")):
            traj.require_finite()
        assert traj.max_abs_tip == traj.tip_upper == 0.002


def test_record_stride_timestamps():
    mesh = Mesh(SMALL["L"], 3)
    params = SchemeParams(beta=0.5, dt=0.01, T=0.12)
    traj = run(small_model(g=0.1), mesh, params, record_stride=3)
    np.testing.assert_allclose(np.diff(traj.t), 0.03, rtol=1e-12)
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(0.12)
    assert traj.record_stride == 3


def test_record_stride_auto_caps_output_length():
    mesh = Mesh(SMALL["L"], 2)
    params = SchemeParams(beta=0.5, dt=1e-4, T=4.2)  # 42000 steps
    traj = run(small_model(g=np.inf), mesh, params, kind="linear")
    assert traj.record_stride == math.ceil(42000 / 20000)
    assert traj.t.size <= 20002


def test_per_step_extrema_independent_of_stride():
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.02)
    params = SchemeParams(beta=0.5, dt=0.004, T=1.0)
    fine = run(model, mesh, params, record_stride=1)
    coarse = run(model, mesh, params, record_stride=50)
    assert coarse.max_abs_tip == fine.max_abs_tip
    assert coarse.max_violation == fine.max_violation
    assert coarse.t.size < fine.t.size


def test_extrema_are_floats_and_episodes_an_int():
    """The run stores its extrema as Python floats and its contact episodes
    as an int, for a solo signorini run, a member of a penalty block and a
    member of that block that blows up."""
    model, mesh, members = penalty_members(0.2, 1.4e-5, 0.01, [1e6, 1e300])
    solo = run(model, mesh, SchemeParams(0.5, 1.4e-5, 0.01))
    member, blown = run(model, mesh, members, kind="penalty", record_stride=7)
    with pytest.raises(NonFiniteRecordError):
        blown.require_finite()
    for traj in (solo, member, blown):
        extrema = (traj.max_abs_tip, traj.max_violation, traj.tip_min, traj.tip_max)
        assert [type(x) for x in extrema] == [float] * 4
        assert type(traj.contact_episodes) is int and traj.contact_episodes > 0


def test_contact_episodes_count_a_start_on_a_stop():
    """A run that starts at rest on its upper stop, its tip leaving at
    10 m/s, counts the contact of u^0, which has no residual to audit:
    ``contact_episodes`` is the count over every state of the stride-1 run."""
    mesh = Mesh(1.501, 19)
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
    dofs = DofMap(mesh.J)
    u0, v0 = np.zeros(dofs.ndof), np.zeros(dofs.ndof)
    u0[dofs.tip_disp], v0[dofs.tip_disp] = 0.002, -10.0
    traj = run(model, mesh, SchemeParams(0.5, 1.5e-5, 0.01), u0=u0, v0=v0, record_stride=1)
    flags = active_sides(traj.u_tip, traj.tip_lower, traj.tip_upper) != INACTIVE
    assert flags[0] and not flags[1]
    assert traj.contact_episodes == count_episodes(flags) == 7


def first_differing_row(a, b):
    """Index of the first row where two CSV row lists differ, None if equal
    (a plain ``==`` on thousands of rows makes pytest's failure diff crawl)."""
    if len(a) != len(b):
        return min(len(a), len(b))
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def test_blocked_loads_match_shorter_runs_and_smaller_blocks(monkeypatch):
    """A run over three load blocks is byte-identical to the same run built
    with the smallest blocks, and to the run cut short at and around the
    block boundaries up to the last two steps of the shorter run, whose
    load windows are clipped at its horizon."""
    mesh = Mesh(1.501, 19)
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
    dt = 5e-5
    rows = LoadAssembler(mesh, model).block_rows
    n_long = 2 * rows + 40
    long_run = run(model, mesh, SchemeParams(0.5, dt, n_long * dt), record_stride=1)
    long_rows = long_run.to_csv().splitlines()
    assert len(long_rows) == n_long + 2
    for n_short in (rows - 2, rows, rows + 1, 2 * rows + 2):
        short = run(model, mesh, SchemeParams(0.5, dt, n_short * dt), record_stride=1)
        short_rows = short.to_csv().splitlines()
        assert len(short_rows) == n_short + 2
        assert first_differing_row(short_rows[:n_short], long_rows[:n_short]) is None
    monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", 1)
    assert LoadAssembler(mesh, model).block_rows == 16
    small_blocks = run(model, mesh, SchemeParams(0.5, dt, n_long * dt), record_stride=1)
    assert first_differing_row(small_blocks.to_csv().splitlines(), long_rows) is None


def test_block_size_and_record_spacing_move_no_bit_at_large_j(monkeypatch):
    """At J=160 the default load blocks hold 64 rows.  421 steps end off
    strides 2 and 7, so a run's last fold reads unevenly spaced pairs, the
    others evenly spaced ones.  At strides 1, 2 and 7, and at the default
    and 16-row blocks, a run's records are the stride-1 run's at its times,
    bit for bit, and its extrema, contact episodes and audit are the
    stride-1 run's; the 16-row blocks give the default blocks' CSV."""
    mesh = Mesh(1.501, 160)
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
    params = SchemeParams(0.5, 5e-5, 421 * 5e-5)
    assert params.n_steps == 421 and LoadAssembler(mesh, model).block_rows == 64

    def runs():
        return {stride: run(model, mesh, params, record_stride=stride) for stride in (1, 2, 7)}

    def summary(traj):
        return (traj.max_violation, traj.tip_min, traj.tip_max, traj.contact_episodes,
                repr(traj.audit))

    default = runs()
    monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", 1)
    small = runs()
    every = default[1]
    assert every.audit.contact_steps > 0 and every.contact_episodes > 1
    steps = np.arange(params.n_steps + 1)
    for stride in (1, 2, 7):
        kept = every.records[:, (steps % stride == 0) | (steps == params.n_steps)]
        for traj in (default[stride], small[stride]):
            assert np.array_equal(traj.records.view(np.int64), kept.view(np.int64)), stride
            assert summary(traj) == summary(every)
        assert small[stride].to_csv() == default[stride].to_csv()


def test_a_fine_mesh_run_keeps_its_memory_bounded():
    """The fine-mesh benchmark's run (J=320, stride 2) cut to 1 000 steps.
    Its tracemalloc peak measured 1.34 MB (numpy 2.4, scipy 1.17): the
    buffers of its 64-row load blocks and one fold's temporaries.  The
    bound leaves 0.66 MB (49 %).  A
    separable run that made the sampled route's (2, 64, 1284) buffer
    (1.3 MB) would exceed it."""
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.1, SupportMotion.sine(0.2, 10.0))
    mesh = Mesh(1.501, 320)
    assert LoadAssembler(mesh, model).block_rows == 64
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(model, mesh, SchemeParams(0.5, 5e-5, 0.05), record_stride=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.0e6, peak


#: (block_samples, id suffix): the default load blocks keep a case's plain
#: id; ``fem.LOAD_BLOCK_SAMPLES = 1`` cuts 16-row blocks, so that a member
#: that ended rides through many later blocks.
LOAD_BLOCKS = ((None, ""), (1, "-16-row-blocks"))


def blow_up_model():
    """The pipe model with stops at +-0.1 m; beta = 0 at dt = 1e-3 blows it up."""
    return BeamModel.symmetric_stops(282.84, 1.501, 0.1, SupportMotion.sine(0.2, 10.0))


@pytest.mark.parametrize("stride", [1, 5])
def test_run_stops_at_first_non_finite_record(stride):
    """beta = 0 far above the stability limit blows up: the run stops at
    the first recorded row with a non-finite value and returns the rows up
    to it, which ``require_finite`` names.  The overflow on that row raises
    no numpy warning (a RuntimeWarning fails the test)."""
    params = SchemeParams(beta=0.0, dt=1e-3, T=0.5)
    traj = run(blow_up_model(), Mesh(1.501, 19), params, kind="linear", force=True,
               record_stride=stride)
    columns = (traj.t, traj.u_tip, traj.v_tip, traj.energy, traj.reaction, traj.violation)
    finite = np.isfinite(np.column_stack(columns)).all(axis=1)
    assert not finite[-1] and finite[:-1].all()
    assert traj.t[-1] < params.T
    np.testing.assert_allclose(np.diff(traj.t), stride * params.dt, rtol=1e-9)
    with pytest.raises(NonFiniteRecordError) as info:
        traj.require_finite()
    assert info.value.record == traj.t.size - 1


@pytest.mark.parametrize("kind", ["linear", "signorini"])
@pytest.mark.parametrize(
    "stride,message",
    [(1, "record 38 (t = 0.038 s)"), (5, "record 8 (t = 0.04 s)")],
)
def test_blow_up_mid_block_ends_at_the_same_record(monkeypatch, kind, stride, message):
    """run() writes its records once per load block.  With 16-row blocks
    the first non-finite record (step 37 or 39) falls mid-block; the rows,
    extrema, contact audit and message equal those of the 431-row blocks,
    which end the run in their first block."""
    params = SchemeParams(beta=0.0, dt=1e-3, T=0.5)

    def blow_up():
        return run(blow_up_model(), Mesh(1.501, 19), params, kind=kind, force=True,
                   record_stride=stride)

    big = blow_up()
    monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", 1)
    assert LoadAssembler(Mesh(1.501, 19), blow_up_model()).block_rows == 16
    small = blow_up()
    steps = int(round(small.t[-1] / params.dt)) - 1
    assert steps % 16 not in (0, 15)  # neither the first nor the last step of a block
    assert small.to_csv() == big.to_csv()
    assert np.array_equal((small.max_abs_tip, small.max_violation),
                          (big.max_abs_tip, big.max_violation), equal_nan=True)
    assert repr(small.audit) == repr(big.audit)
    with pytest.raises(NonFiniteRecordError, match=re.escape(message)):
        small.require_finite()


def subsampled(rows, n_steps, stride):
    """The CSV lines of the records at times t with t % stride == 0 or t == n_steps."""
    return [row for t, row in enumerate(rows) if t % stride == 0 or t == n_steps]


@pytest.mark.parametrize("stride", [20, 40])
@pytest.mark.parametrize("kind", ["signorini", "linear", "penalty", "penalty block"])
def test_blocks_without_a_record_fold_their_states(monkeypatch, kind, stride):
    """With 16-row load blocks one block in five at stride 20 and three in
    five at stride 40 hold no record; their states still reach the
    extrema, the episodes and the audit.  Rows, extrema, episodes and audit equal the stride-1 run's,
    its rows subsampled."""
    monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", 1)
    dt, T = 1.5e-5, 0.01
    model, mesh, members = penalty_members(0.25, dt, T, [1e6, 1e9])
    assert LoadAssembler(mesh, model).block_rows == 16

    def results(stride):
        if kind == "penalty block":
            return run(model, mesh, members, kind="penalty", record_stride=stride)
        if kind == "penalty":
            return [run(model, mesh, members[1], kind="penalty", record_stride=stride)]
        return [run(model, mesh, SchemeParams(0.5, dt, T), kind=kind, record_stride=stride)]

    for every, sparse in zip(results(1), results(stride), strict=True):
        rows = every.to_csv().splitlines()[1:]
        assert sparse.to_csv().splitlines()[1:] == subsampled(rows, every.n_steps, stride)
        assert (sparse.max_abs_tip, sparse.max_violation) == (every.max_abs_tip, every.max_violation)
        assert sparse.contact_episodes == every.contact_episodes > 0
        assert repr(sparse.audit) == repr(every.audit)


@pytest.mark.parametrize("stride", [20, 40])
@pytest.mark.parametrize("kind", ["linear", "signorini"])
def test_a_blow_up_in_a_block_without_a_record_ends_at_the_next_record(monkeypatch, kind, stride):
    """beta = 0 at dt = 1e-4 turns the first record non-finite at step 68
    (linear) or 71 (signorini), inside the 16-row load block of states
    64 .. 79, which holds no record at strides 20 and 40.  The run ends
    at the next recorded time, 80, with the rows of the stride-1 run
    before it and the same rows as with the default blocks."""
    params = SchemeParams(beta=0.0, dt=1e-4, T=0.5)

    def blow_up(stride):
        return run(blow_up_model(), Mesh(1.501, 19), params, kind=kind, force=True,
                   record_stride=stride)

    big = blow_up(stride)
    monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", 1)
    every, sparse = blow_up(1), blow_up(stride)
    assert every.t.size - 1 == {"linear": 68, "signorini": 71}[kind]
    assert not any(t % stride == 0 for t in range(64, 80))
    assert round(sparse.t[-1] / params.dt) == 80
    rows = sparse.to_csv().splitlines()
    assert rows[1:-1] == subsampled(every.to_csv().splitlines()[1:], params.n_steps, stride)
    assert sparse.to_csv() == big.to_csv()
    assert repr(sparse.audit) == repr(big.audit)
    with pytest.raises(NonFiniteRecordError) as info:
        sparse.require_finite()
    assert info.value.record == sparse.t.size - 1


def pgs_obstacle_run(stride):
    """A run that steps through projected Gauss-Seidel: a per-node band at J=8, 500 steps."""
    band = lambda x: 0.02 + 0.06 * np.asarray(x, dtype=float)  # noqa: E731
    model = BeamModel(k2=282.84, L=1.501, g_lower=lambda x: -band(x), g_upper=band,
                      phi=SupportMotion.sine(0.2, 10.0))
    return run(model, Mesh(1.501, 8), SchemeParams(0.5, 1e-3, 0.5), record_stride=stride)


@pytest.mark.parametrize("block_samples", [None, 1])
def test_a_step_error_counts_only_before_a_non_finite_record(monkeypatch, block_samples):
    """A PGS state that turns NaN at step 60 fails the next step, whose
    projected Gauss-Seidel cannot converge from it.  At stride 1 the record
    of the NaN state came first: the run ends there, with the rows of the
    run without the fault before it.  At stride 5 no record has seen it
    yet, and the error propagates."""
    if block_samples is not None:
        monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", block_samples)
    plain = pgs_obstacle_run(1)
    monkeypatch.setattr(steppers, "pgs_box", failing_pgs(nan_at=60))
    ended = pgs_obstacle_run(1)
    assert ended.t.size == 62
    assert ended.to_csv().splitlines()[:62] == plain.to_csv().splitlines()[:62]
    with pytest.raises(NonFiniteRecordError, match=re.escape("record 61 (t = 0.061 s)")):
        ended.require_finite()
    monkeypatch.setattr(steppers, "pgs_box", failing_pgs(nan_at=60))
    with pytest.raises(PgsConvergenceError, match=re.escape("(natural residual nan)")):
        pgs_obstacle_run(5)


@pytest.mark.parametrize(
    "stride,message",
    [(1, "record 543 (t = 0.007602 s)"), (7, "record 78 (t = 0.007644 s)")],
)
def test_penalty_blow_up_ends_at_the_same_record_alone_and_in_a_block(
    monkeypatch, stride, message
):
    """inv_eps = 1e300 at beta = 0.2 turns the tip NaN after the first
    impact; its rows end at the first non-finite record, the one that
    ``require_finite`` names (at stride 1 its reaction is -inf while its
    tip is still finite), alone, in a block of three members, and in a
    block of three stepped in 16-row load blocks."""
    model, mesh, members = penalty_members(0.2, 1.4e-5, 0.03, [1e6, 1e300, 1e9])
    solo = run(model, mesh, members[1], kind="penalty", record_stride=stride)
    with pytest.raises(NonFiniteRecordError, match=re.escape(message)) as info:
        solo.require_finite()
    assert info.value.record == solo.t.size - 1
    blocks = [run(model, mesh, members, kind="penalty", record_stride=stride)[1]]
    monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", 1)
    blocks.append(run(model, mesh, members, kind="penalty", record_stride=stride)[1])
    for member in blocks:
        assert member.to_csv() == solo.to_csv()
        assert np.array_equal((member.max_abs_tip, member.max_violation),
                              (solo.max_abs_tip, solo.max_violation), equal_nan=True)


@pytest.mark.parametrize(
    "stride,block_samples",
    [pytest.param(stride, samples, id=f"{stride}{suffix}")
     for samples, suffix in LOAD_BLOCKS for stride in (2, 3, 5)],
)
def test_an_inconsistent_penalty_branch_ends_only_its_member(monkeypatch, stride, block_samples):
    """The 1e6 member's bumped factor is that of A + 100 bump e_c e_c^T
    (``wrong_branch_init``).  Its first bumped solve, at step 478, returns
    its tip on the free side of the stop it presses: no contact case is
    consistent, and its state u^479 turns NaN.  Its rows end at its first
    record at or after t = 479 dt, the one ``require_finite`` names, and the
    rows before it are those of its run without the fault; the same holds
    in a block of three, where the 1e300 member blows up at step 543 and
    the other members' rows are their own runs', byte for byte."""
    model, mesh, members = penalty_members(0.2, 1.4e-5, 0.03, [1e6, 1e300, 1e9])
    solos = [run(model, mesh, p, kind="penalty", record_stride=stride) for p in members]
    if block_samples is not None:
        monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", block_samples)
    monkeypatch.setattr(PenaltyTipSolver, "__init__", wrong_branch_init(1e6))
    alone = run(model, mesh, members[0], kind="penalty", record_stride=stride)
    record = -(-479 // stride)  # the first record at or after state 479
    with pytest.raises(NonFiniteRecordError,
                       match=re.escape(f"record {record} (t = {record * stride * 1.4e-5:.6g} s)")):
        alone.require_finite()
    assert alone.t.size == record + 1
    lines = alone.to_csv().splitlines()
    assert lines[:-1] == solos[0].to_csv().splitlines()[: record + 1]
    block = run(model, mesh, members, kind="penalty", record_stride=stride)
    assert all(isinstance(member, Trajectory) for member in block)
    for member, own in zip(block, [alone, *solos[1:]]):
        assert member.to_csv() == own.to_csv()
        assert np.array_equal(
            (member.max_abs_tip, member.max_violation, member.tip_min, member.tip_max),
            (own.max_abs_tip, own.max_violation, own.tip_min, own.tip_max), equal_nan=True)
        assert member.contact_episodes == own.contact_episodes


@pytest.mark.parametrize("block_samples", [None, 1])
def test_a_step_that_raises_ends_a_block_run(monkeypatch, block_samples):
    """A step that raises ends the run; PGS steps are the ones that can.
    While the member has not ended, run() raises the error: a raise at step
    100, and at stride 7 the convergence error of step 61 after a NaN state
    at step 60.  Once the member has ended, a later raise is not reached or
    not raised: at stride 1 the record of the NaN state ends it, and the
    rows equal those of the run with the NaN state alone."""
    if block_samples is not None:
        monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", block_samples)
    monkeypatch.setattr(steppers, "pgs_box", failing_pgs(raise_at=100))
    with pytest.raises(ArithmeticError, match="step 100 raised"):
        pgs_obstacle_run(7)
    monkeypatch.setattr(steppers, "pgs_box", failing_pgs(raise_at=100, nan_at=60))
    with pytest.raises(PgsConvergenceError):
        pgs_obstacle_run(7)
    monkeypatch.setattr(steppers, "pgs_box", failing_pgs(nan_at=60))
    solo = pgs_obstacle_run(1)
    monkeypatch.setattr(steppers, "pgs_box", failing_pgs(raise_at=100, nan_at=60))
    ended = pgs_obstacle_run(1)
    assert ended.to_csv() == solo.to_csv()
    assert np.array_equal((ended.max_abs_tip, ended.max_violation),
                          (solo.max_abs_tip, solo.max_violation), equal_nan=True)


@pytest.mark.parametrize("stride", [1, 5])
def test_forced_pgs_obstacle_raises_the_convergence_error(stride):
    """beta = 0 far above the limit on a per-node band: projected
    Gauss-Seidel runs out of sweeps before any record turns non-finite,
    and the run raises its error."""
    band = lambda x: 0.02 + 0.06 * np.asarray(x, dtype=float)  # noqa: E731
    model = BeamModel(k2=282.84, L=1.501, g_lower=lambda x: -band(x), g_upper=band,
                      phi=SupportMotion.sine(0.2, 10.0))
    with pytest.raises(PgsConvergenceError,
                       match=re.escape("did not converge in 800 sweeps (natural residual 9.537e-07)")):
        run(model, Mesh(1.501, 8), SchemeParams(beta=0.0, dt=1e-3, T=0.5), force=True,
            record_stride=stride)


def test_recorded_velocity_is_backward_difference():
    mesh = Mesh(SMALL["L"], 3)
    params = SchemeParams(beta=0.5, dt=0.01, T=0.1)
    traj = run(small_model(g=0.1), mesh, params, record_stride=1)
    assert traj.v_tip[1] == pytest.approx(
        (traj.u_tip[1] - traj.u_tip[0]) / params.dt, abs=1e-15
    )


def test_signorini_reaction_sign_at_contact():
    """dt^2-scaled reaction is <= 0 while the tip presses the upper stop,
    >= 0 at the lower stop, and 0 when free."""
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.02)
    params = SchemeParams(beta=0.5, dt=0.004, T=2.0)
    traj = run(model, mesh, params, record_stride=1)
    upper = np.isclose(traj.u_tip, 0.02)
    lower = np.isclose(traj.u_tip, -0.02)
    free = ~(upper | lower)
    assert upper.any() and lower.any()
    assert np.all(traj.reaction[upper] <= 1e-9)
    assert np.all(traj.reaction[lower] >= -1e-9)
    np.testing.assert_allclose(traj.reaction[free], 0.0, atol=1e-9)
    np.testing.assert_array_equal(
        traj.reaction_physical, traj.reaction / params.dt**2
    )


def fresh_products_oracle(model, mesh, params, kind):
    """Tip rows of run() at record stride 1, stepped with every product
    formed fresh: F^n = B u^n - A u^{n-1} + dt^2 G^n from two new matvecs,
    and the Signorini reaction from a new A u^{n+1}.  The solvers are the
    ones run() calls.  The loads are formed over the whole horizon at once:
    from the windows' (phi'', phi) coefficients for signorini and linear,
    sampled for penalty.  Also returns each row's energy, from
    ``discrete_energy`` on that row's one pair with fresh products, and the
    Signorini contact audit, folded one step at a time (None for the other
    kinds)."""
    c = DofMap(mesh.J).tip_disp
    lo, hi = float(model.g_lower), float(model.g_upper)
    gm = assemble(mesh, model)
    a = effective_matrix(gm.mass, gm.stiffness, params)
    b = transfer_matrix(gm.mass, gm.stiffness, params)
    dt, beta, n_total = params.dt, params.beta, params.n_steps
    dt2 = dt * dt
    loads = LoadAssembler(mesh, model)
    windows = np.arange(n_total + 1)
    f_bar = loads.time_averaged(windows, dt, params.T, separable=kind != "penalty")
    g = dt2 * (beta * (f_bar[2:] + f_bar[:-2]) + (1.0 - 2.0 * beta) * f_bar[1:-1])
    if kind != "penalty":
        g = loads.from_coefficients(g)
    if kind == "linear":
        factor = a.cholesky()

        def step(f, up, uc, n):
            return factor.solve(f), 0.0

    elif kind == "penalty":
        solver = PenaltyTipSolver(a, c, lo, hi, params)

        def step(f, up, uc, n):
            u = penalty_step(solver, f, up, uc, np.zeros(f.size))
            return u, dt2 * spring(solver, u[c])

    else:
        pinned = PinnedDofSolver(a, c, lo, hi)
        audit = ContactAudit()

        def step(f, up, uc, n):
            u, _ = pinned_step(pinned, f, np.empty(f.size))
            residual = a.matvec(u) - f
            audit.update(active_sides(u[c], lo, hi), *audit_figures(residual, c))
            return u, float(residual[c])

    def start_reaction(u):
        return dt2 * spring(solver, u[c]) if kind == "penalty" else 0.0

    def energy(u0, u1):
        return discrete_energy((u0, u1), (a.matvec(u0), a.matvec(u1)), gm.stiffness, dt)

    up, uc = init_states(model, mesh, params)
    tips = [up[c], uc[c]]
    vels = [(uc[c] - up[c]) / dt] * 2
    energies = [energy(up, uc)] * 2
    reactions = [start_reaction(up), start_reaction(uc)]
    for n in range(1, n_total):
        u, reaction = step(b.matvec(uc) - a.matvec(up) + g[n - 1], up, uc, n)
        tips.append(u[c])
        vels.append((u[c] - uc[c]) / dt)
        energies.append(energy(uc, u))
        reactions.append(reaction)
        up, uc = uc, u
    tips = np.array(tips)
    violation = np.maximum(np.maximum(tips - hi, lo - tips), 0.0)
    audit = audit if kind == "signorini" else None
    return tips, np.array(vels), np.array(energies), np.array(reactions), violation, audit


@pytest.mark.parametrize(
    "kind,params",
    [
        ("signorini", SchemeParams(beta=0.5, dt=5e-5, T=0.03)),
        ("penalty", PenaltyParams(inv_eps=1e9, dt=5e-6, T=0.012, beta=0.25)),
        ("linear", SchemeParams(beta=0.3, dt=1e-5, T=0.01)),
    ],
)
def test_carried_products_are_bit_identical_to_fresh_ones(kind, params):
    """run()'s banded step carries A u with the state (F two steps later,
    the audit, the energy) and forms B u^n once per step; the rows are
    exactly those of the oracle's steps in a loop that forms each product
    anew.  Each horizon runs past the tip's
    first arrival at a stop (t = 0.0068 s with g = 0.002).  The energies,
    which run() computes for a whole load block at a time, equal the
    pairwise ones, and the Signorini audit, which run() folds once per load
    block, equals one folded step by step; its 600 steps span two blocks
    of 431 windows."""
    mesh = Mesh(1.501, 19)
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
    traj = run(model, mesh, params, kind=kind, record_stride=1)
    tips, vels, energies, reactions, violation, audit = fresh_products_oracle(
        model, mesh, params, kind
    )
    assert np.max(np.abs(tips)) >= 0.002
    assert np.array_equal(traj.u_tip, tips)
    assert np.array_equal(traj.v_tip, vels)
    assert np.array_equal(traj.energy, energies)
    assert np.array_equal(traj.reaction, reactions)
    assert np.array_equal(traj.violation, violation)
    assert traj.audit == audit
    if audit is not None:
        assert traj.contact_episodes >= 2 and audit.contact_steps > 0


def penalty_members(beta, dt, T, values):
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
    return model, Mesh(1.501, 19), [PenaltyParams(inv_eps=v, beta=beta, dt=dt, T=T) for v in values]


MEMBER_OUTCOMES = [
    # all members reach a stop (first arrival t = 0.0068 s) and none fails
    (0.25, 1.5e-5, {1e6: "ok", 1e7: "ok", 1e8: "ok", 1e9: "ok"}),
    # 1e300 turns NaN between two records: its rows end at the first non-finite one
    (0.2, 1.4e-5, {1e6: "ok", 1e300: "blown up", 1e9: "ok"}),
    # 1e9 blows up at beta = 0.1 (t = 0.0279 s; 0.0228 s under the Haswell and
    # Sandybridge kernels): its rows end at the first non-finite one, and 1e8 and
    # 1e6 stay finite under every kernel set
    (0.1, 1.2e-5, {1e8: "ok", 1e9: "blown up", 1e6: "ok"}),
]


@pytest.mark.parametrize(
    "beta,dt,outcomes,block_samples",
    [
        pytest.param(beta, dt, outcomes, samples, id=f"{beta}-{dt}-outcomes{i}{suffix}")
        for samples, suffix in LOAD_BLOCKS
        for i, (beta, dt, outcomes) in enumerate(MEMBER_OUTCOMES)
    ],
)
def test_members_stepped_as_one_block_match_their_own_runs(
    monkeypatch, beta, dt, outcomes, block_samples
):
    """Penalty members that differ in inv_eps alone step as one block, and
    each member's rows and extrema equal its own run's, also when another
    member blows up on the way and steps on in the block."""
    if block_samples is not None:
        monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", block_samples)
    model, mesh, members = penalty_members(beta, dt, 0.03, list(outcomes))
    results = run(model, mesh, members, kind="penalty", record_stride=7)
    assert len(results) == len(members)
    for params, result, outcome in zip(members, results, outcomes.values()):
        solo = run(model, mesh, params, kind="penalty", record_stride=7)
        assert result.to_csv() == solo.to_csv()
        extrema = [(r.max_abs_tip, r.max_violation) for r in (result, solo)]
        assert np.array_equal(*extrema, equal_nan=True)
        if outcome == "blown up":
            with pytest.raises(NonFiniteRecordError):
                result.require_finite()
        else:
            result.require_finite()


def test_block_run_accepts_only_penalty_members_differing_in_inv_eps():
    model, mesh, members = penalty_members(0.25, 1.5e-5, 0.001, [1e6, 1e7])
    with pytest.raises(ValueError, match="differ in inv_eps"):
        run(model, mesh, [members[0], PenaltyParams(inv_eps=1e7, beta=0.25, dt=1e-5, T=0.001)],
            kind="penalty")
    with pytest.raises(ValueError, match="differ in inv_eps"):
        run(model, mesh, [SchemeParams(0.5, 1e-5, 0.001)] * 2)
    with pytest.raises(ValueError, match="needs at least one member"):
        run(model, mesh, [], kind="penalty")
    with pytest.raises(ValueError, match="needs at least one member"):
        run(model, mesh, [])
    single = run(model, mesh, [members[0]], kind="penalty")
    assert single[0].to_csv() == run(model, mesh, members[0], kind="penalty").to_csv()


def test_free_energy_conservation_any_beta():
    """The unforced scheme conserves the discrete energy exactly for every
    beta, not only 1/2; roundoff is the only drift."""
    mesh = Mesh(SMALL["L"], 4)
    model = BeamModel(k2=SMALL["k2"], L=SMALL["L"])
    v_profile = (lambda x: 0.1 * x * x, lambda x: 0.2 * x)
    for beta in (0.0, 0.17, 0.25, 0.5):
        params = SchemeParams(beta=beta, dt=2e-4, T=0.2)
        traj = run(
            model, mesh, params, kind="linear", v0=v_profile, record_stride=100,
        )
        e = traj.energy
        assert np.max(np.abs(e - e[0])) <= 1e-9 * e[0]


def test_time_reversal_of_midpoint_scheme():
    """beta = 1/2, no forcing: swapping the last pair and marching N steps
    returns the initial pair to machine precision."""
    mesh = Mesh(SMALL["L"], 3)
    model = BeamModel(k2=SMALL["k2"], L=SMALL["L"])
    gm = assemble(mesh, model)
    params = SchemeParams(beta=0.5, dt=1e-3, T=1.0)
    a = effective_matrix(gm.mass, gm.stiffness, params)
    b = transfer_matrix(gm.mass, gm.stiffness, params)
    factor = a.cholesky()
    rng = np.random.default_rng(3)
    u0 = 0.01 * rng.standard_normal(6)
    u1 = u0 + params.dt * 0.01 * rng.standard_normal(6)

    def march(up, uc):
        for _ in range(200):
            up, uc = uc, factor.solve(b.matvec(uc) - a.matvec(up))
        return up, uc

    up, uc = march(u0.copy(), u1.copy())
    back_prev, back_curr = march(uc.copy(), up.copy())
    np.testing.assert_allclose(back_curr, u0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(back_prev, u1, rtol=0, atol=1e-12)


def test_distributed_obstacle_runs_with_pgs():
    """Per-node bounds (not just the tip) route the step through PGS and
    keep every displacement DOF inside its band."""
    mesh = Mesh(SMALL["L"], 4)
    model = BeamModel(
        k2=SMALL["k2"],
        L=SMALL["L"],
        g_lower=lambda x: -0.01 - 0.05 * x,
        g_upper=lambda x: 0.01 + 0.05 * x,
        phi=SupportMotion.sine(0.3, 3.0),
    )
    params = SchemeParams(beta=0.5, dt=0.005, T=1.0)
    traj = run(model, mesh, params, record_stride=1)
    dofs = DofMap(4)
    box = model.box(dofs, mesh)
    assert np.isfinite(box.lower[dofs.disp_index(2)])
    assert traj.max_violation == 0.0
    assert traj.max_abs_tip <= 0.01 + 0.05 * SMALL["L"] + 1e-12


def test_trajectory_csv_round_trip():
    mesh = Mesh(SMALL["L"], 3)
    params = SchemeParams(beta=0.5, dt=0.004, T=0.4)
    traj = run(small_model(g=0.02), mesh, params, record_stride=10)
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == Trajectory.CSV_HEADER == "t,u_tip,v_tip,energy,reaction,violation"
    data = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)
    assert data.shape == (traj.t.size, 6)
    np.testing.assert_array_equal(data[:, 0], traj.t)       # %.17g round-trips
    np.testing.assert_array_equal(data[:, 1], traj.u_tip)
    np.testing.assert_array_equal(data[:, 3], traj.energy)


def test_trajectory_csv_matches_per_cell_formatting():
    """to_csv formats a chunk of columns at once; the text is that of
    formatting each numpy cell with ``:.17g``, also for zeros of both signs,
    subnormals, infinities and NaN, and across chunks (601 rows)."""
    traj = run(small_model(g=0.02), Mesh(SMALL["L"], 3), SchemeParams(0.5, 0.004, 2.4))
    assert traj.t.size == 601
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.inf, -np.inf, np.nan, 1e300]
    cols = rng.standard_normal((6, traj.t.size)) * 10.0 ** rng.integers(-12, 12, (6, traj.t.size))
    cols[:, : len(special)] = special
    odd = dataclasses.replace(traj, records=cols)
    for tr in (traj, odd):
        names = ("t", "u_tip", "v_tip", "energy", "reaction", "violation")
        rows = zip(*(getattr(tr, name) for name in names))
        expected = [Trajectory.CSV_HEADER] + [",".join(f"{x:.17g}" for x in row) for row in rows]
        assert tr.to_csv() == "\n".join(expected) + "\n"


def test_run_energy_column_matches_pairwise_formula():
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.05)
    params = SchemeParams(beta=0.5, dt=0.01, T=0.05)
    gm = assemble(mesh, model)
    traj = run(model, mesh, params, record_stride=1)
    # recompute E at the second record from the first two states, by the
    # M/S formula the run's carried A-products stand in for
    u0, u1 = init_states(model, mesh, params)
    v = (u1 - u0) / params.dt
    m, s, beta = gm.mass, gm.stiffness, params.beta
    e1 = (
        v @ m.matvec(v)
        + (1.0 - 2.0 * beta) * (u0 @ s.matvec(u1))
        + beta * (u1 @ s.matvec(u1))
        + beta * (u0 @ s.matvec(u0))
    )
    assert traj.energy[0] == pytest.approx(e1, rel=1e-12)


def test_linear_run_matches_modal_superposition():
    """Absolute-dynamics check against a closed-form oracle: the forced
    linear semi-discrete system M u'' + S u = F0 sin(w t), u(0) = 0,
    u'(0) = v0 is solved exactly by generalized eigendecomposition and
    per-mode Duhamel formulas.  The time stepper must track the tip of
    that exact solution; the residual error is first order in dt because
    the load enters through forward time-average windows (an inherent
    dt/2 forcing lag), measured at 1.9e-4 for dt = 1e-5."""
    L, J, k2, w = 1.501, 19, 282.84, 10.0
    model = BeamModel(k2=k2, L=L, phi=SupportMotion.sine(0.2, w))
    mesh = Mesh(L, J)
    gm = assemble(mesh, model)
    m_dense, s_dense = gm.mass.to_dense(), gm.stiffness.to_dense()
    f0 = at_time(LoadAssembler(mesh, model), np.pi / 2.0 / w)  # sin(w t) = 1
    lam, modes = scipy.linalg.eigh(s_dense, m_dense)          # modes^T M modes = I
    v0 = interpolate_profile(mesh, lambda x: -2.0 * lifting(x, L)[0],
                             lambda x: -2.0 * lifting_slope(x, L))
    part = (modes.T @ f0) / (lam - w * w)
    qd0 = modes.T @ (m_dense @ v0)
    om = np.sqrt(lam)

    traj = run(model, mesh, SchemeParams(beta=0.5, dt=1e-5, T=0.2),
               kind="linear", record_stride=5)
    t = traj.t[:, None]
    q = part * np.sin(w * t) + ((qd0 - w * part) / om) * np.sin(om * t)
    tip_exact = q @ modes[-2]
    assert np.max(np.abs(traj.u_tip - tip_exact)) <= 3e-4

    # both routes agree on when the tip would first reach the stop gap
    cross_num = traj.t[np.argmax(np.abs(traj.u_tip) >= 0.1)]
    cross_exact = traj.t[np.argmax(np.abs(tip_exact) >= 0.1)]
    assert abs(cross_num - cross_exact) <= 1e-4


# ------------------------------------------------- every tip step is the loop's

def refuse_eigendecompositions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigendecomposition was computed")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)


def test_a_linear_run_steps_through_the_pinned_solver_with_open_stops(monkeypatch):
    """A linear run is the signorini step with its stops open.  Between the
    +-2 mm stops its tip passes them (first at t = 0.0068 s), yet the pinned
    solver, which takes every step of the run, finds each one free (the
    oracle loop's cases, on the loop's own steps); violations and contact
    episodes still measure against the model's stops, and there is no
    audit."""
    cases = checked_loop(monkeypatch)["cases"]
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
    params = SchemeParams(0.5, 1.5e-5, 0.01)
    traj = run(model, Mesh(1.501, 19), params, kind="linear", record_stride=1)
    assert cases == [0] * (params.n_steps - 1)
    assert traj.max_abs_tip > 0.002 and traj.violation.max() > 0.0 and traj.max_violation > 0.0
    assert traj.contact_episodes >= 1 and traj.audit is None


def test_a_linear_run_on_a_callable_obstacle_takes_no_pgs(monkeypatch):
    """The obstacle's kind does not matter to a linear run: on per-node
    bounds it steps through the pinned solver with open stops, never through
    projected Gauss-Seidel, bit for bit as without stops, and its violation
    column measures over every node."""

    def never(*args, **kwargs):
        raise AssertionError("pgs_box was called")

    monkeypatch.setattr(steppers, "pgs_box", never)
    mesh, params = Mesh(SMALL["L"], 4), SchemeParams(beta=0.5, dt=0.005, T=1.0)
    obstacle = dataclasses.replace(small_model(), g_lower=lambda x: -0.01 - 0.05 * x,
                                   g_upper=lambda x: 0.01 + 0.05 * x)
    traj = run(obstacle, mesh, params, kind="linear", record_stride=1)
    free = run(small_model(), mesh, params, kind="linear", record_stride=1)
    assert np.array_equal(traj.u_tip, free.u_tip)
    assert traj.max_violation > 0.0


@pytest.mark.parametrize(
    "block_samples",
    [pytest.param(samples, id=suffix.lstrip("-") or "default-blocks") for samples, suffix in LOAD_BLOCKS],
)
def test_the_pinned_solver_takes_every_step_of_a_long_run(monkeypatch, block_samples):
    """The README run at J=19 to T=0.6 makes all of its 11 999 steps in the
    compiled loop, each of them the oracle's, whatever the load block
    (``fem.LOAD_BLOCK_SAMPLES = 1`` cuts 16-row blocks).  The pinned solver
    finds 666 of them a contact case (the oracle loop's cases, on the loop's
    own steps): the steps that end on a stop, which the audit counts, in 103
    contact episodes."""
    if block_samples is not None:
        monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", block_samples)
    seen = checked_loop(monkeypatch)
    params = SchemeParams(0.5, 5e-5, 0.6)
    traj = run(blow_up_model(), Mesh(1.501, 19), params, record_stride=1)
    cases = seen["cases"]
    contact = sum(case != 0 for case in cases)
    assert len(cases) == seen["banded_steps"] == params.n_steps - 1
    assert (len(cases), contact, traj.contact_episodes) == (11999, 666, 103)
    assert np.count_nonzero(np.abs(traj.u_tip) == 0.1) == contact == traj.audit.contact_steps


@pytest.mark.parametrize("kind", ["signorini", "linear"])
@pytest.mark.parametrize("J,T", [(19, 0.15), (320, 0.02), (19, 5e-5)],
                         ids=["readme", "fine-mesh", "one-step"])
def test_no_tip_run_computes_an_eigendecomposition(monkeypatch, kind, J, T):
    """Every step of a tip run is banded, in the compiled loop, and no run
    computes an eigendecomposition: not the README run at J=19 cut to
    T=0.15 (N = 3000 >= (2J)^2 = 1444), not a run at J=320, and not a
    one-step run.  The run's ``stats`` count banded steps alone."""
    refuse_eigendecompositions(monkeypatch)
    params = SchemeParams(0.5, 5e-5, T)
    traj = run(blow_up_model(), Mesh(1.501, J), params, kind=kind)
    assert traj.t.size == params.n_steps + 1
    assert traj.stats["banded_steps"] == params.n_steps - 1
    assert sorted(traj.stats) == ["banded_steps", "bumped_solves", "products", "solves"]


def test_penalty_springs_match_spring_bit_for_bit():
    """The recorded penalty reactions take every member's springs at once;
    they equal the step's ``spring`` member by member, signed zeros included: +0.0
    inside the stops and for a NaN tip, -0.0 * excess at inv_eps = 0."""
    mesh = Mesh(SMALL["L"], 2)
    gm = assemble(mesh, small_model(g=0.1))
    members = [PenaltyParams(inv_eps=v, dt=0.01, T=1.0) for v in (0.0, 1e8, 3.0)]
    a = effective_matrix(gm.mass, gm.stiffness, members[0])
    solver = PenaltyTipSolver(a, DofMap(2).tip_disp, -0.1, 0.1, members)
    values = [0.0, 0.05, -0.1, 0.1, 0.1 + 1e-17, 0.12, -0.12, -0.3, np.nan, np.inf, -np.inf]
    tips = np.array([[x] * len(members) for x in values])
    got = solver.springs(tips)
    want = np.array([[spring(solver, x, j) for j in range(len(members))] for x in values])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(got[5, 0]) and not np.signbit(got[6, 0]) and not np.signbit(got[8]).any()
