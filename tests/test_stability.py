"""Spectral bound, exact largest eigenvalue, and time-step verdicts."""

import numpy as np
import pytest
import scipy.linalg
from conftest import from_dense

from beamstops.fem import BeamModel, Mesh, assemble
from beamstops.linalg import BandedCholesky, BandedSpd, max_generalized_eig
from beamstops.stability import (
    StabilityReport,
    check,
    check_matrices,
    kappa_bound,
    kappa_exact,
    max_stable_dt,
)
from beamstops.steppers import PenaltyParams, SchemeParams

PIPE = dict(L=1.501, J=19, k2=282.84)


def pipe_matrices(J):
    mesh = Mesh(PIPE["L"], J)
    model = BeamModel(k2=PIPE["k2"], L=PIPE["L"])
    gm = assemble(mesh, model)
    return mesh, gm


# ------------------------------------------------------------------ kappa_exact

@pytest.mark.parametrize("J", [1, 2, 5, 10, 19, 80, 320])
def test_kappa_exact_matches_dense_eigensolver(J):
    _, gm = pipe_matrices(J)
    got = kappa_exact(gm.mass, gm.stiffness)
    ref = scipy.linalg.eigh(
        gm.stiffness.to_dense(), gm.mass.to_dense(), eigvals_only=True
    )[-1]
    assert got == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("J, solves, products", [(19, 22, 30), (320, 30, 40)])
def test_kappa_exact_work_is_bounded(monkeypatch, J, solves, products):
    """The seeded start makes the counts repeat exactly: 20 solves and 23
    products at J=19, 28 and 33 at J=320 (a power iteration took 49 and 100,
    61 and 124)."""
    _, gm = pipe_matrices(J)
    counts = {"solve": 0, "matvec": 0}

    def counting(cls, name):
        inner = getattr(cls, name)

        def spy(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(cls, name, spy)

    counting(BandedCholesky, "solve")
    counting(BandedSpd, "matvec")
    kappa_exact(gm.mass, gm.stiffness)
    assert counts["solve"] <= solves
    assert counts["matvec"] <= products


def test_kappa_exact_finds_a_doubled_top_eigenvalue():
    """Two uncoupled copies of the J=19 pencil, one block-diagonal pencil:
    kappa is a double eigenvalue, the clustered case that a Krylov method
    could resolve wrongly."""
    _, gm = pipe_matrices(19)
    mass, stiffness = (from_dense(np.kron(np.eye(2), m.to_dense()), m.bw) for m in (gm.mass, gm.stiffness))
    ref = scipy.linalg.eigh(stiffness.to_dense(), mass.to_dense(), eigvals_only=True)
    assert ref[-2] == pytest.approx(ref[-1], rel=1e-12)
    # max_generalized_eig raises unless its residual certificate holds
    got = max_generalized_eig(stiffness, mass)
    assert got == pytest.approx(ref[-1], rel=1e-9)
    assert got == pytest.approx(kappa_exact(gm.mass, gm.stiffness), rel=1e-12)


def test_kappa_exact_single_element_closed_form():
    """For one element the 2x2 pencil reduces to a quadratic in nu with
    kappa = 840 nu k2 / h^4, nu the larger root of 140 nu^2 - 204 nu + 3."""
    mesh, gm = pipe_matrices(1)
    nu = (204.0 + np.sqrt(204.0**2 - 4.0 * 140.0 * 3.0)) / (2.0 * 140.0)
    expect = 840.0 * nu * PIPE["k2"] / mesh.h**4
    assert kappa_exact(gm.mass, gm.stiffness) == pytest.approx(expect, rel=1e-12)


def test_kappa_exact_scales_like_inverse_fourth_power():
    # finer mesh -> stiffer pencil; ratio approaches (h1/h2)^-4
    _, g5 = pipe_matrices(5)
    _, g10 = pipe_matrices(10)
    r = kappa_exact(g10.mass, g10.stiffness) / kappa_exact(g5.mass, g5.stiffness)
    assert r == pytest.approx(2.0**4, rel=0.05)


# ------------------------------------------------------------------ kappa_bound

@pytest.mark.parametrize("J", [1, 2, 5, 10, 19])
def test_bound_dominates_exact_value(J):
    mesh, gm = pipe_matrices(J)
    assert kappa_exact(gm.mass, gm.stiffness) <= kappa_bound(PIPE["k2"], mesh.h)


def test_bound_formula_value():
    # kappa_bound = coef * k2 / dx^4 with coef = 24 * 420 * 19^2 / 37
    coef = 24.0 * 420.0 * 19.0**2 / 37.0
    assert kappa_bound(2.0, 0.5) == pytest.approx(coef * 2.0 / 0.5**4, rel=1e-15)


def test_bound_reproduces_published_time_step_figure():
    """With beta = 1/4 and the pipe discretization the bound-based limit
    2 sqrt(2 / kappa) evaluates to 3.3469e-6 s."""
    mesh, _ = pipe_matrices(19)
    kb = kappa_bound(PIPE["k2"], mesh.h)
    dt_bound = 2.0 * np.sqrt(2.0 / kb)  # beta = 1/4: 1 - 2 beta = 1/2
    assert dt_bound == pytest.approx(3.3469e-6, rel=1e-4)


# ---------------------------------------------------------------- max_stable_dt

def test_max_stable_dt_unconditional_at_half():
    assert max_stable_dt(1e12, 0.5, 0.01) == np.inf


def test_max_stable_dt_sqrt_branch():
    kappa, beta, alpha = 4e8, 0.25, 0.01
    expect = 2.0 * np.sqrt((1.0 - alpha) / (kappa * (1.0 - 2.0 * beta)))
    assert max_stable_dt(kappa, beta, alpha) == pytest.approx(expect, rel=1e-14)


def test_max_stable_dt_alpha_branch_binds():
    # huge alpha never binds; tiny kappa makes the sqrt term huge instead
    assert max_stable_dt(1.0, 0.0, 0.5) == 0.5


def test_max_stable_dt_tiny_alpha_caps_at_alpha():
    # the admissible-step condition also requires dt < alpha itself, so a
    # vanishing alpha wins the min even though the sqrt factor tends to the
    # pure CFL value 2 sqrt(2/kappa)
    kappa = 1e10
    assert max_stable_dt(kappa, 0.25, 1e-12) == 1e-12
    sqrt_term = max_stable_dt(kappa, 0.25, 1e-3)  # alpha far from binding
    assert sqrt_term == pytest.approx(2.0 * np.sqrt(2.0 / kappa), rel=1e-3)


# --------------------------------------------------------------------- verdicts

def test_check_unconditional_for_beta_half():
    mesh = Mesh(PIPE["L"], 19)
    model = BeamModel(k2=PIPE["k2"], L=PIPE["L"])
    rep = check(mesh, model, SchemeParams(beta=0.5, dt=1.0, T=1.0))
    assert rep.verdict == "unconditional"
    assert rep.dt_max_exact == np.inf


def test_check_verdicts_straddle_exact_limit():
    mesh = Mesh(PIPE["L"], 19)
    model = BeamModel(k2=PIPE["k2"], L=PIPE["L"])
    rep = check(mesh, model, SchemeParams(beta=0.25, dt=5e-5, T=1.0))
    assert rep.verdict == "violated"
    assert rep.dt_max_bound < rep.dt_max_exact < 5e-5
    ok = check(mesh, model, SchemeParams(beta=0.25, dt=5e-6, T=1.0))
    assert ok.verdict == "stable"


def test_check_accepts_penalty_params():
    mesh = Mesh(PIPE["L"], 19)
    model = BeamModel(k2=PIPE["k2"], L=PIPE["L"])
    rep = check(mesh, model, PenaltyParams(inv_eps=1e8, dt=5e-7, T=0.1, beta=0.25))
    assert rep.verdict == "stable"


def test_coarser_mesh_allows_larger_steps():
    mesh5, g5 = pipe_matrices(5)
    mesh19, g19 = pipe_matrices(19)
    lim5 = max_stable_dt(kappa_exact(g5.mass, g5.stiffness), 0.25, 0.01)
    lim19 = max_stable_dt(kappa_exact(g19.mass, g19.stiffness), 0.25, 0.01)
    assert lim5 > lim19


def test_report_format_mentions_all_quantities():
    _, gm = pipe_matrices(5)
    rep = check_matrices(gm.mass, gm.stiffness, PIPE["L"] / 5, PIPE["k2"], 0.25, 1e-6)
    text = rep.format()
    for needle in ("beta", "dt_max (bound)", "dt_max (exact)", "verdict", "stable"):
        assert needle in text
    assert isinstance(rep, StabilityReport)


def test_report_exact_below_bound_limit():
    _, gm = pipe_matrices(19)
    rep = check_matrices(gm.mass, gm.stiffness, PIPE["L"] / 19, PIPE["k2"], 0.25, 1e-6)
    # bound overestimates kappa, hence underestimates the usable step
    assert rep.kappa_exact < rep.kappa_bound
    assert rep.dt_max_bound < rep.dt_max_exact
