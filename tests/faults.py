"""Fault injectors that the tests and ``tools/output_digests.py`` share.

The tip steps run in the compiled loop, so the injectors there change the
data that the loop reads: each stands in for a solver's ``__init__``, to be
patched over it (for instance with ``monkeypatch.setattr``), calls the one
it replaced and then alters what it built.  The projected Gauss-Seidel
steps run in Python; their injector stands in for ``pgs_box`` as
``run()`` binds it (``steppers.pgs_box``) and calls the real one.  The
penalty injector alters only the solver's ``members``, so that it also
runs on checkouts that step the tips in Python.
"""

import numpy as np

from beamstops import linalg
from beamstops.linalg import PenaltyTipSolver, PinnedDofSolver


def overbumped(a, index, bump):
    """The factor of A + 100 bump e_c e_c^T.  As a member's bumped factor it
    pulls a pressing tip to near a hundredth of its stop, on the free side
    of a stop at +-2 mm wherever the consistent branch leaves the tip near
    the stop, as it does at a member's first bumped solve."""
    return a.with_diagonal_bump(index, 100.0 * bump).cholesky()


def wrong_branch_init(inv_eps):
    """A ``PenaltyTipSolver.__init__`` that gives the member of stiffness
    ``inv_eps`` the bumped factor of :func:`overbumped`: at its first
    bumped solve, the re-solved tip lands on the free side of the stop, no
    contact case is consistent and its state turns NaN.  Every other
    member is as built."""
    init = PenaltyTipSolver.__init__

    def wrong_branch(self, a, index, *rest):
        init(self, a, index, *rest)
        self.members[:] = [(value, bump, overbumped(a, index, bump) if value == inv_eps else bumped)
                           for value, bump, bumped in self.members]

    return wrong_branch


def clamp_only_init():
    """A ``PinnedDofSolver.__init__`` whose w = A^{-1} e_c is e_c: a contact
    step clamps the tip onto its stop without moving any other entry, which
    leaves the equations off the tip broken."""
    init = PinnedDofSolver.__init__

    def clamp_only(self, a, index, *rest):
        init(self, a, index, *rest)
        self.w = np.zeros(a.n)
        self.w[index] = 1.0

    return clamp_only


def failing_pgs(raise_at=None, nan_at=None):
    """A ``pgs_box`` that fails at its calls for steps ``raise_at`` and
    ``nan_at`` (its calls of those numbers, as ``run()`` makes one per
    step): the first raises ``ArithmeticError("step <raise_at> raised")``,
    the second returns a state of NaN, from which the next step's real
    ``pgs_box`` cannot converge.  Every other call is the real one.  Patch
    it over ``steppers.pgs_box``."""
    calls = []

    def failing(a, f, *rest, **kwargs):
        calls.append(None)
        if len(calls) == raise_at:
            raise ArithmeticError(f"step {raise_at} raised")
        if len(calls) == nan_at:
            return np.full(a.n, np.nan)
        return linalg.pgs_box(a, f, *rest, **kwargs)

    return failing
