"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test pins the tolerances it must meet and, where a published figure
is involved, brackets it rather than tuning to it.  The vibrating-pipe
scenario (L = 1.501 m, J = 19 elements, k2 = 282.84, stops at +-0.1 m,
support motion 0.2 sin(10 t)) is shared by the expensive criteria via a
module-scoped fixture.  Runtime budgets are asserted on process CPU time
(everything here is single-threaded) so concurrent machine load cannot
flake them.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from beamstops.fem import (
    BeamModel,
    Mesh,
    SupportMotion,
    assemble,
    elemental_mass,
    elemental_stiffness,
)
from beamstops.linalg import BoxConstraint, pgs_box
from beamstops.stability import kappa_bound, kappa_exact
from beamstops.steppers import PenaltyParams, SchemeParams, run
from conftest import box_qp_oracle, random_banded_spd
from oracles import solve_single_box

L, J, K2, GAP = 1.501, 19, 282.84, 0.1


def pipe_model():
    return BeamModel.symmetric_stops(K2, L, GAP, SupportMotion.sine(0.2, 10.0))


@pytest.fixture(scope="module")
def pipe_run():
    """The pipe scenario at beta = 1/2, dt = 5e-5, T = 2, fully recorded."""
    t0 = time.process_time()
    traj = run(pipe_model(), Mesh(L, J), SchemeParams(beta=0.5, dt=5e-5, T=2.0),
               record_stride=1)
    return traj, time.process_time() - t0


def test_criterion_01_elemental_matrices_golden():
    """Mass and stiffness of one element match the printed rational forms
    entrywise exactly, at h = 1 and at a random dyadic h (dyadic so every
    float product below is exact and equality is legitimate)."""
    t0 = time.process_time()
    m_num = [[156, 22, 54, -13], [22, 4, 13, -3], [54, 13, 156, -22], [-13, -3, -22, 4]]
    s_num = [[12, 6, -12, 6], [6, 4, -6, 2], [-12, -6, 12, -6], [6, 2, -6, 4]]
    slope = (1, 3)  # rows/columns carrying an extra power of h
    rng = np.random.default_rng(202)
    h_rand = int(rng.integers(1, 2049)) / 1024.0
    k2_rand = int(rng.integers(1, 513)) / 256.0
    for h, k2 in ((1.0, 1.0), (h_rand, k2_rand)):
        hf = Fraction(h)
        k2f = Fraction(k2)
        m = elemental_mass(h)
        s = elemental_stiffness(h, k2)
        for i in range(4):
            for j in range(4):
                p = 1 + (i in slope) + (j in slope)
                expect_m = float(Fraction(m_num[i][j], 420) * hf**p)
                assert m[i, j] == expect_m, (i, j, h)
                q = (i in slope) + (j in slope)
                expect_s = float(Fraction(s_num[i][j]) * k2f * hf**q / hf**3)
                assert s[i, j] == expect_s, (i, j, h, k2)
    assert time.process_time() - t0 < 1.0


def test_criterion_02_box_solvers_match_enumeration_oracle():
    """200 single-constraint systems solved by the pin-and-resolve lemma
    agree with brute-force active-set enumeration to 1e-10; 200 fully
    box-constrained systems solved by PGS agree to 1e-8."""
    t0 = time.process_time()
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a, dense = random_banded_spd(rng, n, int(rng.integers(0, min(n, 4))))
        f = 3.0 * rng.standard_normal(n)
        c = int(rng.integers(0, n))
        g = float(rng.uniform(0.05, 1.5))
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
        lower[c], upper[c] = -g, g
        u = solve_single_box(a, f, c, g)
        ref = box_qp_oracle(dense, f, lower, upper)
        assert np.max(np.abs(u - ref)) <= 1e-10
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a, dense = random_banded_spd(rng, n, int(rng.integers(0, min(n, 4))))
        f = 3.0 * rng.standard_normal(n)
        lower = -rng.uniform(0.05, 1.5, size=n)
        upper = rng.uniform(0.05, 1.5, size=n)
        u = pgs_box(a, f, BoxConstraint(lower=lower, upper=upper), tol=1e-12)
        ref = box_qp_oracle(dense, f, lower, upper)
        assert np.max(np.abs(u - ref)) <= 1e-8
    assert time.process_time() - t0 < 5.0


def test_criterion_03_pipe_run_stable_and_admissible(pipe_run):
    """beta = 1/2 on the pipe scenario: the discrete energy stays within
    10x its early forced-response scale and the tip never leaves the
    stops, over the whole 40000-step run, in under a minute."""
    traj, cpu = pipe_run
    assert cpu < 60.0
    assert traj.max_abs_tip <= GAP + 1e-12
    e = traj.energy
    assert np.all(np.isfinite(e))
    early = np.max(e[traj.t <= 0.2])  # two forcing periods
    assert np.max(e) <= 10.0 * early
    assert np.max(e) / np.min(e) < np.inf


def test_criterion_04_free_energy_drift():
    """Unforced, unconstrained, beta = 1/2: relative energy drift stays
    below 1e-9 across 10^4 steps."""
    t0 = time.process_time()
    model = BeamModel(k2=K2, L=L)
    params = SchemeParams(beta=0.5, dt=5e-5, T=0.5)  # 10^4 steps
    traj = run(
        model, Mesh(L, J), params, kind="linear",
        v0=(lambda x: 0.1 * x * x, lambda x: 0.2 * x),
        record_stride=10,
    )
    e = traj.energy
    assert np.max(np.abs(e - e[0])) <= 1e-9 * e[0]
    assert time.process_time() - t0 < 10.0


def test_criterion_05_unconstrained_reduction():
    """With the stops removed the contact scheme reproduces the plain
    linear scheme to 1e-12 over 10^3 steps."""
    model = BeamModel(k2=K2, L=L, phi=SupportMotion.sine(0.2, 10.0))
    mesh = Mesh(L, J)
    params = SchemeParams(beta=0.5, dt=5e-5, T=0.05)
    a = run(model, mesh, params, kind="signorini", record_stride=1)
    b = run(model, mesh, params, kind="linear", record_stride=1)
    assert a.n_steps == 1000
    assert np.max(np.abs(a.u_tip - b.u_tip)) <= 1e-12


def test_criterion_06_spectral_bound_dominates():
    """The closed-form spectral bound dominates the true largest
    eigenvalue on meshes from 1 to 19 elements; the one-element value
    matches its quadratic closed form to 1e-10; the bound-based time-step
    limit for beta = 1/4 lands in the expected order of magnitude."""
    for j in (1, 2, 5, 10, 19):
        mesh = Mesh(L, j)
        gm = assemble(mesh, BeamModel(k2=K2, L=L))
        assert kappa_exact(gm.mass, gm.stiffness) <= kappa_bound(K2, mesh.h)
    mesh1 = Mesh(L, 1)
    gm1 = assemble(mesh1, BeamModel(k2=K2, L=L))
    nu = (204.0 + np.sqrt(204.0**2 - 4.0 * 140.0 * 3.0)) / 280.0
    closed = 840.0 * nu * K2 / mesh1.h**4
    assert kappa_exact(gm1.mass, gm1.stiffness) == pytest.approx(closed, rel=1e-10)
    dt_bound = 2.0 * np.sqrt(2.0 / kappa_bound(K2, Mesh(L, 19).h))
    assert 1e-6 < dt_bound < 1e-5  # order of magnitude of 3.3469e-6 s


def test_criterion_07_conditional_instability_witness():
    """beta = 0 on a 5-element mesh: stepping at 4x the exact limit blows
    the energy up by more than 10^3 within 2000 steps, while 0.5x the
    limit stays bounded over 10^4 steps."""
    mesh = Mesh(L, 5)
    model = BeamModel(k2=K2, L=L)
    gm = assemble(mesh, model)
    kappa = kappa_exact(gm.mass, gm.stiffness)
    v0 = 0.01 * np.sin(np.linspace(1.0, 10.0, 10))

    dt_hot = 4.0 * 2.0 / np.sqrt(kappa)
    hot = run(
        model, mesh, SchemeParams(beta=0.0, dt=dt_hot, T=2000 * dt_hot),
        kind="linear", v0=v0, record_stride=1, force=True,
    )
    e = np.abs(hot.energy)
    grew = np.flatnonzero(~np.isfinite(e) | (e > 1e3 * e[0]))
    assert grew.size > 0 and grew[0] <= 2000

    alpha = 0.01
    dt_cool = 0.5 * 2.0 * np.sqrt((1.0 - alpha) / kappa)
    cool = run(
        model, mesh, SchemeParams(beta=0.0, dt=dt_cool, T=10000 * dt_cool),
        kind="linear", v0=v0, record_stride=10, alpha=alpha,
    )
    e = cool.energy
    assert np.all(np.isfinite(e))
    assert np.max(np.abs(e)) <= 10.0 * abs(e[0])


@pytest.mark.slow
def test_criterion_08_penalty_violation_bracket():
    """The stiff-spring run (1/eps = 1e8, beta = 1/4, dt = 5e-7) penetrates
    the stops by between 1e-5 and 1e-3 meters over the full horizon --
    a coarse approximation where the exact-constraint scheme penetrates
    not at all."""
    t0 = time.process_time()
    params = PenaltyParams(inv_eps=1e8, dt=5e-7, T=2.0, beta=0.25)
    traj = run(pipe_model(), Mesh(L, J), params, kind="penalty")
    assert 1e-5 <= traj.max_violation <= 1e-3
    assert time.process_time() - t0 < 600.0


def test_criterion_08b_exact_scheme_has_zero_violation(pipe_run):
    traj, _ = pipe_run
    assert traj.max_violation == 0.0


def test_criterion_09_complementarity_certified(pipe_run):
    """Every step of the pipe run satisfies the contact sign conditions to
    1e-9 (equations hold off the tip, reaction only during contact and
    pushing away from the stop), and impacts actually happen."""
    traj, _ = pipe_run
    audit = traj.audit
    assert audit is not None
    assert traj.contact_episodes >= 1
    audit.check(1e-9)
    assert audit.max_offband_residual <= 1e-9
    assert audit.max_inactive_reaction <= 1e-9
    assert audit.max_upper_reaction <= 1e-9  # <= 0 up to tolerance
    assert audit.min_lower_reaction >= -1e-9


def test_criterion_10_early_time_step_robustness():
    """Tip trajectories at dt = 5e-5 and 1e-5 agree within 5e-3 m on the
    first 0.2 s (later impact details are allowed to differ).

    Known honest failure: this implementation measures 8.7e-3.  The gap
    opens only after the first impact (t = 0.08785 s, confirmed against
    a closed-form modal oracle); before it the runs agree to 4e-4.  The
    sup-distance between ANY adjacent time-step pair down to 5e-6 vs
    1e-6 plateaus at 5e-3..9e-3 here, because O(dt) impact-time
    quantization is amplified (Lipschitz-stably, ~400x over the window)
    through later impacts.  The pinned 5e-3 sits inside that intrinsic
    spread, so it selects for one implementation's impact details rather
    than correctness.  See README "Acceptance results" for the full
    analysis; the tolerance is kept as pinned rather than widened."""
    model = pipe_model()
    mesh = Mesh(L, J)
    coarse = run(model, mesh, SchemeParams(beta=0.5, dt=5e-5, T=0.2), record_stride=1)
    fine = run(model, mesh, SchemeParams(beta=0.5, dt=1e-5, T=0.2), record_stride=1)
    idx = 5 * np.arange(coarse.t.size)
    np.testing.assert_allclose(fine.t[idx], coarse.t, rtol=0, atol=1e-12)
    assert np.max(np.abs(fine.u_tip[idx] - coarse.u_tip)) <= 5e-3
