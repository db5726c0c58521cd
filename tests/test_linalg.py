"""Banded SPD kernels, the single-DOF box solver, PGS, and power iteration,
all cross-checked against dense numpy/scipy routes or brute-force oracles."""

import numpy as np
import pytest
import scipy.linalg

from beamstops.linalg import (
    BandedSpd,
    BoxConstraint,
    NotPositiveDefiniteError,
    PgsConvergenceError,
    PinnedDofSolver,
    PowerIterationError,
    cholesky,
    max_generalized_eig,
    pgs_box,
    solve_single_box,
)
from conftest import box_qp_oracle, random_banded_spd


# ---------------------------------------------------------------- BoxConstraint

def test_box_requires_straddling_bounds():
    with pytest.raises(ValueError):
        BoxConstraint(lower=np.array([0.5]), upper=np.array([1.0]))
    with pytest.raises(ValueError):
        BoxConstraint(lower=np.array([-1.0]), upper=np.array([-0.2]))
    BoxConstraint(lower=np.array([-1.0]), upper=np.array([2.0]))  # fine


def test_box_project_and_contains():
    box = BoxConstraint(lower=np.array([-1.0, -np.inf]), upper=np.array([0.5, np.inf]))
    u = np.array([2.0, -7.0])
    p = box.project(u)
    assert np.array_equal(p, [0.5, -7.0])
    assert box.contains(p)
    assert not box.contains(u)
    assert np.array_equal(box.finite_mask(), [True, False])


def test_box_single_classmethod_reports_dof():
    box = BoxConstraint.single(5, 3, -0.1, 0.1)
    assert box.single_bounded_dof() == (3, -0.1, 0.1)
    assert BoxConstraint.unbounded(4).single_bounded_dof() is None
    two = BoxConstraint(
        lower=np.array([-1.0, -1.0, -np.inf]), upper=np.array([1.0, 1.0, np.inf])
    )
    assert two.single_bounded_dof() is None


# ------------------------------------------------------------------- BandedSpd

def test_from_dense_to_dense_round_trip():
    rng = np.random.default_rng(11)
    for n, bw in [(1, 0), (2, 1), (7, 3), (12, 2)]:
        a, dense = random_banded_spd(rng, n, bw)
        assert a.n == n and a.bw == bw
        np.testing.assert_array_equal(a.to_dense(), dense)


def test_from_dense_rejects_entries_outside_band():
    dense = np.eye(4)
    dense[0, 3] = dense[3, 0] = 1e-3
    with pytest.raises(ValueError):
        BandedSpd.from_dense(dense, 1)


def test_matvec_matches_dense():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = rng.integers(1, 15)
        bw = int(rng.integers(0, min(n, 4)))
        a, dense = random_banded_spd(rng, n, bw)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(a.matvec(x), dense @ x, rtol=1e-13, atol=1e-13)


def test_add_block_scatters_like_dense():
    rng = np.random.default_rng(13)
    a = BandedSpd.zeros(8, 3)
    dense = np.zeros((8, 8))
    for _ in range(10):
        i = int(rng.integers(0, 5))
        idx = np.arange(i, i + 4)
        blk = rng.standard_normal((4, 4))
        blk = blk + blk.T
        a.add_block(idx, blk)
        dense[np.ix_(idx, idx)] += blk
    np.testing.assert_allclose(a.to_dense(), dense, rtol=1e-14, atol=1e-14)


def test_lincomb_bump_delete_column_diagonal():
    rng = np.random.default_rng(14)
    a, da = random_banded_spd(rng, 9, 3)
    b, db = random_banded_spd(rng, 9, 3)
    c = BandedSpd.lincomb(2.0, a, -0.5, b)
    np.testing.assert_allclose(c.to_dense(), 2.0 * da - 0.5 * db, atol=1e-13)
    np.testing.assert_array_equal(a.diagonal(), np.diag(da))
    bumped = a.with_diagonal_bump(4, 3.25)
    expect = da.copy()
    expect[4, 4] += 3.25
    np.testing.assert_array_equal(bumped.to_dense(), expect)


# -------------------------------------------------------------------- Cholesky

def test_banded_solve_matches_dense_solve():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 20))
        bw = int(rng.integers(0, min(n, 4)))
        a, dense = random_banded_spd(rng, n, bw)
        f = rng.standard_normal(n)
        u = a.cholesky().solve(f)
        np.testing.assert_allclose(u, np.linalg.solve(dense, f), rtol=1e-10, atol=1e-12)


def test_solve_accepts_matrix_rhs():
    rng = np.random.default_rng(22)
    a, dense = random_banded_spd(rng, 6, 2)
    rhs = rng.standard_normal((6, 3))
    np.testing.assert_allclose(
        a.cholesky().solve(rhs), np.linalg.solve(dense, rhs), rtol=1e-11, atol=1e-12
    )


def test_not_positive_definite_reports_first_bad_pivot():
    # leading 2x2 block is fine, third pivot goes negative
    dense = np.diag([2.0, 3.0, 1.0, 1.0])
    dense[2, 2] = -5.0
    a = BandedSpd.from_dense(dense, 1)
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky(a)
    assert info.value.pivot_index == 2


def test_indefinite_from_rank_one_update():
    rng = np.random.default_rng(23)
    a, dense = random_banded_spd(rng, 5, 2)
    bad = a.with_diagonal_bump(3, -(dense[3, 3] + 10.0))
    with pytest.raises(NotPositiveDefiniteError) as info:
        bad.cholesky()
    assert 0 <= info.value.pivot_index <= 3


# ------------------------------------------------------- single-DOF box solver

def test_pinned_solver_needs_straddling_bounds():
    rng = np.random.default_rng(31)
    a, _ = random_banded_spd(rng, 4, 1)
    with pytest.raises(ValueError):
        PinnedDofSolver(a, 2, 0.1, 0.5)


def test_solve_single_box_infinite_gap_is_plain_solve():
    rng = np.random.default_rng(32)
    a, dense = random_banded_spd(rng, 7, 3)
    f = rng.standard_normal(7)
    np.testing.assert_array_equal(
        solve_single_box(a, f, 3, np.inf), a.cholesky().solve(f)
    )


def test_solve_single_box_against_enumeration_oracle():
    rng = np.random.default_rng(33)
    hit = {-1: 0, 0: 0, 1: 0}
    for _ in range(120):
        n = int(rng.integers(1, 7))
        bw = int(rng.integers(0, min(n, 3)))
        a, dense = random_banded_spd(rng, n, bw)
        f = rng.standard_normal(n) * 3.0
        c = int(rng.integers(0, n))
        g = float(rng.uniform(0.05, 1.0))
        u = solve_single_box(a, f, c, g)
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
        lower[c], upper[c] = -g, g
        expect = box_qp_oracle(dense, f, lower, upper)
        np.testing.assert_allclose(u, expect, rtol=0, atol=1e-10)
        side = 0 if abs(u[c]) < g else int(np.sign(u[c]))
        hit[side] += 1
    # the draw must exercise interior, lower and upper cases
    assert min(hit.values()) > 5, hit


def test_pinned_solver_multiplier_sign():
    """When the bound is active the residual (Au-f)_c has the KKT sign."""
    rng = np.random.default_rng(34)
    seen = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        a, dense = random_banded_spd(rng, n, min(3, n - 1))
        f = rng.standard_normal(n) * 5.0
        c = int(rng.integers(0, n))
        solver = PinnedDofSolver(a, c, -0.2, 0.2)
        u, case = solver.solve_with_case(f)
        grad_c = (dense @ u - f)[c]
        if case == 1:
            assert u[c] == 0.2 and grad_c <= 1e-10
            seen += 1
        elif case == -1:
            assert u[c] == -0.2 and grad_c >= -1e-10
            seen += 1
        else:
            assert abs(grad_c) <= 1e-9 * max(1.0, np.abs(f).max())
    assert seen > 10


def test_single_dof_n_equals_one():
    a = BandedSpd.from_dense(np.array([[4.0]]), 0)
    u = solve_single_box(a, np.array([10.0]), 0, 0.5)
    assert u[0] == 0.5  # unconstrained 2.5, clamped to the stop
    u = solve_single_box(a, np.array([1.0]), 0, 0.5)
    assert abs(u[0] - 0.25) < 1e-15


# ------------------------------------------------------------------------- PGS

def test_pgs_matches_oracle_on_full_boxes():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        bw = int(rng.integers(0, min(n, 3)))
        a, dense = random_banded_spd(rng, n, bw)
        f = rng.standard_normal(n) * 3.0
        lower = -rng.uniform(0.05, 1.0, size=n)
        upper = rng.uniform(0.05, 1.0, size=n)
        box = BoxConstraint(lower=lower, upper=upper)
        u = pgs_box(a, f, box, tol=1e-12)
        expect = box_qp_oracle(dense, f, lower, upper)
        np.testing.assert_allclose(u, expect, rtol=0, atol=1e-8)


def test_pgs_unbounded_equals_linear_solve():
    rng = np.random.default_rng(42)
    a, dense = random_banded_spd(rng, 8, 3)
    f = rng.standard_normal(8)
    u = pgs_box(a, f, BoxConstraint.unbounded(8), tol=1e-13)
    np.testing.assert_allclose(u, np.linalg.solve(dense, f), rtol=0, atol=1e-9)


def test_pgs_warm_start_converges_fast():
    rng = np.random.default_rng(43)
    a, dense = random_banded_spd(rng, 10, 3)
    f = rng.standard_normal(10)
    box = BoxConstraint(lower=np.full(10, -0.3), upper=np.full(10, 0.3))
    u = pgs_box(a, f, box, tol=1e-12)
    sweeps = []
    pgs_box(a, f, box, x0=u, tol=1e-12, callback=sweeps.append)
    assert len(sweeps) <= 2  # already converged, at most a confirming sweep


def test_pgs_raises_on_sweep_budget():
    rng = np.random.default_rng(44)
    a, _ = random_banded_spd(rng, 12, 3)
    f = np.full(12, 7.0)
    box = BoxConstraint(lower=np.full(12, -1.0), upper=np.full(12, 1.0))
    with pytest.raises(PgsConvergenceError) as info:
        pgs_box(a, f, box, tol=1e-15, max_iter=1)
    assert info.value.sweeps == 1
    assert info.value.residual > 0.0


def test_pgs_iterates_stay_in_box():
    rng = np.random.default_rng(45)
    a, _ = random_banded_spd(rng, 9, 3)
    f = rng.standard_normal(9) * 4.0
    lo, hi = np.full(9, -0.4), np.full(9, 0.6)
    box = BoxConstraint(lower=lo, upper=hi)
    u = pgs_box(a, f, box, tol=1e-11)
    assert np.all(u >= lo) and np.all(u <= hi)


# -------------------------------------------------------------- power iteration

def test_power_iteration_matches_dense_eigenvalue():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        bw = int(rng.integers(1, min(n, 4)))
        s, ds = random_banded_spd(rng, n, bw)
        m, dm = random_banded_spd(rng, n, bw)
        lam = max_generalized_eig(s, m, tol=1e-12)
        expect = scipy.linalg.eigh(ds, dm, eigvals_only=True)[-1]
        assert abs(lam - expect) <= 1e-8 * expect


def test_power_iteration_certificate_failure():
    rng = np.random.default_rng(52)
    s, _ = random_banded_spd(rng, 8, 2)
    m, _ = random_banded_spd(rng, 8, 2)
    with pytest.raises(PowerIterationError):
        max_generalized_eig(s, m, tol=1e-14, max_iter=2)


def test_power_iteration_deterministic_given_seed():
    rng = np.random.default_rng(53)
    s, _ = random_banded_spd(rng, 10, 3)
    m, _ = random_banded_spd(rng, 10, 3)
    a = max_generalized_eig(s, m, seed=7)
    b = max_generalized_eig(s, m, seed=7)
    assert a == b
