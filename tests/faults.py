"""Fault injectors that the tests and ``tools/output_digests.py`` share.

Each stands in for a solver method, to be patched over it (for instance
with ``monkeypatch.setattr``), and calls the method it replaced on every
call that it does not break.  The wrappers pass on any arguments past the
ones they read (an ``out`` row, an in-place flag), so that they run on
checkouts whose step and solve take more or fewer.
"""

import numpy as np

from beamstops.linalg import BandedCholesky, PenaltyTipSolver


class FreeTipFactor:
    """A bumped factor whose solve puts the tip at 0, on the free side of any stop."""

    def __init__(self, factor, index):
        self.factor, self.index = factor, index

    def solve(self, rhs, *rest):
        u = self.factor.solve(rhs, *rest)
        u[self.index] = 0.0
        return u


def wrong_branch_advance(inv_eps, step):
    """A ``PenaltyTipSolver.advance`` whose bumped solve, for the member of
    stiffness ``inv_eps`` at step ``step`` alone, returns a finite tip on
    the wrong side of the stop it presses: that member has no consistent
    contact case there, and every other call is the real one."""
    advance = PenaltyTipSolver.advance

    def wrong_branch(self, f_n, u_prev, u_curr, n, *rest):
        if n != step:
            return advance(self, f_n, u_prev, u_curr, n, *rest)
        saved = list(self.members)
        self.members[:] = [(value, bump, FreeTipFactor(bumped, self.index) if value == inv_eps
                            else bumped) for value, bump, bumped in saved]
        try:
            return advance(self, f_n, u_prev, u_curr, n, *rest)
        finally:
            self.members[:] = saved

    return wrong_branch


def raising_advance(step):
    """A ``PenaltyTipSolver.advance`` that raises ``ArithmeticError("step
    <n> raised")`` at step ``step`` and is the real one at every other."""
    advance = PenaltyTipSolver.advance

    def raising(self, f_n, u_prev, u_curr, n, *rest):
        if n == step:
            raise ArithmeticError(f"step {n} raised")
        return advance(self, f_n, u_prev, u_curr, n, *rest)

    return raising


def picky_solve(limit):
    """A ``BandedCholesky.solve`` that raises ``ArithmeticError`` on a
    right-hand side whose largest magnitude reaches ``limit`` (or is NaN)."""
    solve = BandedCholesky.solve

    def picky(self, rhs, *rest):
        if not np.abs(rhs).max() < limit:
            raise ArithmeticError("right-hand side too large")
        return solve(self, rhs, *rest)

    return picky
