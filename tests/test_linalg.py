"""Banded SPD kernels, the single-DOF box solver, PGS, and the largest
generalized eigenvalue, all cross-checked against dense numpy/scipy routes
or brute-force oracles."""

import numpy as np
import pytest
import scipy.linalg

from beamstops.fem import BeamModel, DofMap, Mesh, SupportMotion, assemble
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
)
from beamstops.steppers import SchemeParams, effective_matrix, transfer_matrix
from conftest import box_qp_oracle, from_dense, random_banded_spd
from oracles import loop_solve, pinned_step, solve_single_box


def unbounded_box(n):
    return BoxConstraint(np.full(n, -np.inf), np.full(n, np.inf))


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


def test_box_single_classmethod_reports_dof():
    box = BoxConstraint.single(5, 3, -0.1, 0.1)
    assert box.lower.tolist() == [-np.inf] * 3 + [-0.1, -np.inf]
    assert box.upper.tolist() == [np.inf] * 3 + [0.1, np.inf]
    free = BoxConstraint.single(4, 1, -np.inf, np.inf)  # no stops: the unbounded box
    unbounded = unbounded_box(4)
    assert np.array_equal(free.lower, unbounded.lower)
    assert np.array_equal(free.upper, unbounded.upper)


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
        from_dense(dense, 1)


def test_matvec_matches_dense():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = rng.integers(1, 15)
        bw = int(rng.integers(0, min(n, 4)))
        a, dense = random_banded_spd(rng, n, bw)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(a.matvec(x), dense @ x, rtol=1e-13, atol=1e-13)


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


def beam_matrices(J):
    """A, B and S of the reference beam at beta = 1/4, dt = 1.5e-5 (J elements)."""
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.1, SupportMotion.sine(0.2, 10.0))
    gm = assemble(Mesh(1.501, J), model)
    params = SchemeParams(0.25, 1.5e-5, 0.1)
    return (effective_matrix(gm.mass, gm.stiffness, params),
            transfer_matrix(gm.mass, gm.stiffness, params), gm.stiffness)


@pytest.mark.parametrize("J", [1, 2, 19, 320])
def test_batched_calls_are_bit_identical_to_single_member_calls(J):
    """The block stepping of run() rests on this: one multi-RHS solve gives
    each member exactly the bits of its own solve, also in place on the
    (k x n) member block seen as the F-ordered (n x k) one, and on one
    plain vector.  Members of widely different scales, as in a sweep.  A
    product writes in place into a row of a buffer that is a column slice
    of a wider one.  A block with fewer or more than n rows, or one that is
    not F-ordered, is rejected."""
    rng = np.random.default_rng(J)
    a, b, s = beam_matrices(J)
    factor = a.cholesky()
    n = a.n
    for k in (1, 2, 4, 64):
        members = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-8, 3, size=(k, 1))
        solved = factor.solve(members.T).T
        assert np.array_equal(solved, np.array([factor.solve(u) for u in members]))
        in_place = members.copy()
        view = in_place.T
        assert factor.solve(view, True) is view
        assert np.array_equal(in_place, solved)
        row = members[0].copy()
        assert factor.solve(row, True) is row and np.array_equal(row, solved[0])
        for mat in (a, b, s):
            rows = np.full((3, n + 7), np.nan)[:, :n]
            mat.matvec(members[-1], out=rows[1])
            assert np.array_equal(rows[1], mat.matvec(members[-1]))
    for rows in (n - 1, n + 1):
        with pytest.raises(ValueError, match="does not match"):
            factor.solve(np.zeros((rows, 2), order="F"), True)
    with pytest.raises(ValueError, match="F-ordered"):
        factor.solve(np.zeros((n, 2)), True)


def test_not_positive_definite_reports_first_bad_pivot():
    # leading 2x2 block is fine, third pivot goes negative
    dense = np.diag([2.0, 3.0, 1.0, 1.0])
    dense[2, 2] = -5.0
    a = from_dense(dense, 1)
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
    """When the bound is active the residual (Au-f)_c has the KKT sign.  The
    compiled loop's pinned solve, as ``loop_solve`` makes it, puts the tip
    exactly on the bound it passed, and solves the system where free."""
    rng = np.random.default_rng(34)
    seen = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        a, dense = random_banded_spd(rng, n, min(3, n - 1))
        f = rng.standard_normal(n) * 5.0
        c = int(rng.integers(0, n))
        u = loop_solve(a, PinnedDofSolver(a, c, -0.2, 0.2), f)
        grad_c = (dense @ u - f)[c]
        if u[c] == 0.2:
            assert grad_c <= 1e-10
            seen += 1
        elif u[c] == -0.2:
            assert grad_c >= -1e-10
            seen += 1
        else:
            assert abs(grad_c) <= 1e-9 * max(1.0, np.abs(f).max())
    assert seen > 10


def test_pinned_solver_counts_a_nan_tip_as_free():
    """A NaN tip is free, as in the penalty step: the compiled loop's J=19
    README solve of an F with NaN at the tip keeps it NaN (the run's record
    check names the blow-up), not on a stop, and so does the oracle's, in
    case 0.  With open stops, the linear step, a tip of +-inf is free too."""
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.1, SupportMotion.sine(0.2, 10.0))
    gm = assemble(Mesh(1.501, 19), model)
    a = effective_matrix(gm.mass, gm.stiffness, SchemeParams(0.5, 5e-5, 0.15))
    c = DofMap(19).tip_disp
    f = np.zeros(a.n)
    f[c] = np.nan
    stops = PinnedDofSolver(a, c, -0.1, 0.1)
    assert np.isnan(loop_solve(a, stops, f)[c])
    assert pinned_step(stops, f, np.zeros(a.n))[1] == 0
    open_stops = PinnedDofSolver(a, c, -np.inf, np.inf)
    for tip in (np.inf, -np.inf):
        f[c] = tip
        assert loop_solve(a, open_stops, f)[c] == tip
        with np.errstate(invalid="ignore"):
            u, case = pinned_step(open_stops, f, np.zeros(a.n))
        assert u[c] == tip and case == 0


def test_single_dof_n_equals_one():
    a = from_dense(np.array([[4.0]]), 0)
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
    u = pgs_box(a, f, unbounded_box(8), tol=1e-13)
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


# ------------------------------------------------ largest generalized eigenvalue

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


def test_power_iteration_finds_the_largest_eigenvalue_from_an_eigenvector_start():
    """The ones vector is an eigenvector of [[2, -1], [-1, 2]] (eigenvalue 1),
    which the certificate accepts; the largest eigenvalue is 3."""
    s = BandedSpd(np.array([[0.0, -1.0], [2.0, 2.0]]))
    m = BandedSpd(np.array([[1.0, 1.0]]))
    assert max_generalized_eig(s, m) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("diagonal", [[1.64, 1.67, 3.3, 3.3], [1.0, 1.0, 1.000001]])
def test_lanczos_survives_a_repeated_or_clustered_top_eigenvalue(diagonal):
    """S = diag(...), M = I: the Krylov space turns invariant before n steps,
    so beta_k falls to rounding level.  That is a breakdown, not a vector to
    normalize: the top eigenvalue still matches dense ``eigh`` to 1e-12."""
    s = BandedSpd(np.array([diagonal]))
    m = BandedSpd(np.ones((1, len(diagonal))))
    expect = scipy.linalg.eigh(np.diag(diagonal), eigvals_only=True)[-1]
    assert max_generalized_eig(s, m) == pytest.approx(expect, rel=1e-12)


def test_power_iteration_certificate_failure():
    rng = np.random.default_rng(52)
    s, _ = random_banded_spd(rng, 8, 2)
    m, _ = random_banded_spd(rng, 8, 2)
    with pytest.raises(PowerIterationError):
        max_generalized_eig(s, m, tol=1e-14, max_iter=2)


def test_power_iteration_deterministic():
    rng = np.random.default_rng(53)
    s, _ = random_banded_spd(rng, 10, 3)
    m, _ = random_banded_spd(rng, 10, 3)
    a = max_generalized_eig(s, m)
    b = max_generalized_eig(s, m)
    assert a == b
