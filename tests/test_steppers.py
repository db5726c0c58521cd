"""Time integration: parameter validation, starting procedure, one-step
solvers and the full run loop, checked against dense re-implementations.

The heavyweight oracle here is ``dense_trajectory_oracle``: the complete
scheme re-run in plain dense numpy, with each constrained step solved by
the brute-force box-QP enumeration from conftest.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from beamstops import fem
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
from beamstops.steppers import (
    NonFiniteRecordError,
    PenaltyConsistencyError,
    PenaltyParams,
    PenaltyTipSolver,
    SchemeParams,
    SchemeState,
    Trajectory,
    effective_matrix,
    init_states,
    newmark_linear_step,
    penalty_step,
    rhs,
    run,
    transfer_matrix,
)
from beamstops.diagnostics import discrete_energy
from conftest import box_qp_oracle

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


def test_penalty_params_validation():
    with pytest.raises(ValueError):
        PenaltyParams(inv_eps=-1.0, dt=0.1, T=1.0)
    assert PenaltyParams(inv_eps=0.0, dt=0.1, T=1.0).inv_eps == 0.0
    assert PenaltyParams(inv_eps=1e8, dt=0.1, T=1.0, beta=0.25).beta == 0.25


# -------------------------------------------------------------- initialization

def test_init_states_defaults_follow_support():
    """With phi = a sin(w t) the beam starts at rest in the lab frame:
    u0 = 0 (phi(0) = 0) and v0 = -a w h(x)."""
    mesh = Mesh(SMALL["L"], 4)
    model = small_model(g=np.inf, amp=0.2, omega=10.0)
    params = SchemeParams(beta=0.5, dt=1e-3, T=1.0)
    st = init_states(model, mesh, params)
    np.testing.assert_array_equal(st.u_prev, np.zeros(8))
    expect_v = interpolate_profile(
        mesh,
        lambda x: -2.0 * np.array([lifting(xi, SMALL["L"])[0] for xi in np.atleast_1d(x)]),
        lambda x: -2.0 * np.array([lifting_slope(xi, SMALL["L"]) for xi in np.atleast_1d(x)]),
    )
    np.testing.assert_allclose(st.u_curr, params.dt * expect_v, rtol=1e-12, atol=1e-15)
    assert st.n == 1


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
    np.testing.assert_array_equal(by_fn.u_prev, by_vec.u_prev)
    np.testing.assert_array_equal(by_fn.u_curr, by_fn.u_prev)  # zero velocity


def test_init_states_projects_first_iterate_onto_stops():
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.05)
    params = SchemeParams(beta=0.5, dt=1.0, T=2.0)  # huge dt exaggerates the kick
    big_v = interpolate_profile(mesh, lambda x: x, lambda x: np.ones_like(x))
    st = init_states(model, mesh, params, v0=big_v)
    tip = DofMap(3).tip_disp
    assert st.u_curr[tip] == 0.05  # clamped to the upper stop
    assert st.u_prev[tip] == 0.0


def test_init_states_rejects_infeasible_start():
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.01)
    params = SchemeParams(beta=0.5, dt=0.01, T=1.0)
    bad = interpolate_profile(mesh, lambda x: x, lambda x: np.ones_like(x))
    with pytest.raises(ValueError):
        init_states(model, mesh, params, u0=bad)
    with pytest.raises(ValueError):
        init_states(model, mesh, params, u0=np.zeros(3))  # wrong length


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


def test_rhs_equals_transfer_minus_effective_form():
    mesh = Mesh(SMALL["L"], 3)
    gm = assemble(mesh, small_model())
    params = SchemeParams(beta=0.3, dt=0.02, T=1.0)
    rng = np.random.default_rng(5)
    st = SchemeState(rng.standard_normal(6), rng.standard_normal(6), 4)
    g_n = rng.standard_normal(6)
    a = effective_matrix(gm.mass, gm.stiffness, params)
    b = transfer_matrix(gm.mass, gm.stiffness, params)
    expect = b.matvec(st.u_curr) - a.matvec(st.u_prev) + params.dt**2 * g_n
    np.testing.assert_allclose(
        rhs(gm.mass, gm.stiffness, st, g_n, params), expect, rtol=1e-12, atol=1e-14
    )


def test_newmark_linear_step_solves_effective_system():
    mesh = Mesh(SMALL["L"], 3)
    gm = assemble(mesh, small_model())
    params = SchemeParams(beta=0.5, dt=0.01, T=1.0)
    a = effective_matrix(gm.mass, gm.stiffness, params)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(6)
    st = SchemeState(np.zeros(6), np.zeros(6), 1)
    out = newmark_linear_step(st, f, a.cholesky())
    np.testing.assert_allclose(
        a.to_dense() @ out.u_curr, f, rtol=1e-11, atol=1e-13
    )
    assert out.n == 2


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


@pytest.mark.parametrize("push", [40.0, -40.0, 0.3])
def test_penalty_solver_matches_root_finding_oracle(push):
    """Three pushes: hard onto the upper stop, the lower stop, and none."""
    mesh = Mesh(SMALL["L"], 2)
    model = small_model(g=0.02)
    params = PenaltyParams(inv_eps=1e4, dt=0.01, T=1.0, beta=0.25)
    gm = assemble(mesh, model)
    a = effective_matrix(gm.mass, gm.stiffness, params)
    dofs = DofMap(2)
    c = dofs.tip_disp
    solver = PenaltyTipSolver(a, c, -0.02, 0.02, params)
    rng = np.random.default_rng(9)
    st = SchemeState(0.001 * rng.standard_normal(4), 0.001 * rng.standard_normal(4), 3)
    f_vec = 0.01 * rng.standard_normal(4)
    f_vec[c] += push * params.dt**2
    hist = (1.0 - 2.0 * params.beta) * solver.spring(st.u_curr[c]) + params.beta * solver.spring(
        st.u_prev[c]
    )
    got = solver.advance(st, f_vec)
    ref = dense_penalty_step(
        a.to_dense(), f_vec, c, -0.02, 0.02, params.dt**2, params.beta, 1e4, hist
    )
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-13)
    out = penalty_step(st, f_vec, solver)
    np.testing.assert_array_equal(out.u_curr, got)
    assert out.n == 4


def test_penalty_spring_sign_convention():
    mesh = Mesh(SMALL["L"], 2)
    params = PenaltyParams(inv_eps=100.0, dt=0.01, T=1.0)
    gm = assemble(mesh, small_model(g=0.1))
    a = effective_matrix(gm.mass, gm.stiffness, params)
    solver = PenaltyTipSolver(a, DofMap(2).tip_disp, -0.1, 0.1, params)
    assert solver.spring(0.12) == pytest.approx(-2.0)  # pushes back down
    assert solver.spring(-0.12) == pytest.approx(2.0)  # pushes back up
    assert solver.spring(0.05) == 0.0


def test_penalty_zero_stiffness_is_linear_run():
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


def test_zero_horizon_gives_single_record():
    mesh = Mesh(SMALL["L"], 3)
    traj = run(small_model(g=0.1), mesh, SchemeParams(beta=0.5, dt=0.01, T=0.0))
    assert traj.t.shape == (1,)
    assert traj.t[0] == 0.0 and traj.u_tip[0] == 0.0
    assert traj.n_steps == 0


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
@pytest.mark.parametrize("stride", [1, 5])
def test_run_stops_at_first_non_finite_record(stride):
    """beta = 0 far above the stability limit blows up: the run stops at
    the first recorded row whose tip or energy is not finite and returns
    the rows up to it, which ``require_finite`` names."""
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.1, SupportMotion.sine(0.2, 10.0))
    params = SchemeParams(beta=0.0, dt=1e-3, T=0.5)
    traj = run(model, Mesh(1.501, 19), params, kind="linear", force=True, record_stride=stride)
    finite = np.isfinite(traj.u_tip) & np.isfinite(traj.energy)
    assert not finite[-1] and finite[:-1].all()
    assert traj.t[-1] < params.T
    np.testing.assert_allclose(np.diff(traj.t), stride * params.dt, rtol=1e-9)
    with pytest.raises(NonFiniteRecordError) as info:
        traj.require_finite()
    assert info.value.record == traj.t.size - 1


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
    st = SchemeState(u0.copy(), u1.copy(), 1)
    for _ in range(200):
        st = newmark_linear_step(st, b.matvec(st.u_curr) - a.matvec(st.u_prev), factor)
    back = SchemeState(st.u_curr.copy(), st.u_prev.copy(), 1)
    for _ in range(200):
        back = newmark_linear_step(back, b.matvec(back.u_curr) - a.matvec(back.u_prev), factor)
    np.testing.assert_allclose(back.u_curr, u0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(back.u_prev, u1, rtol=0, atol=1e-12)


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


def test_run_energy_column_matches_pairwise_formula():
    mesh = Mesh(SMALL["L"], 3)
    model = small_model(g=0.05)
    params = SchemeParams(beta=0.5, dt=0.01, T=0.05)
    gm = assemble(mesh, model)
    traj = run(model, mesh, params, record_stride=1)
    # recompute E at the second record from the first two states
    st = init_states(model, mesh, params)
    e1 = discrete_energy(st, gm.mass, gm.stiffness, params.beta, params.dt)
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
    f0 = LoadAssembler(mesh, model).at_time(np.pi / 2.0 / w)  # sin(w t) = 1
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
