"""Reference routes that several test files share: a load vector at one
time through the production quadrature scatter, and the single-DOF box
solve built on the pinned solver."""

import numpy as np

from beamstops.linalg import PinnedDofSolver


def at_time(loads, t):
    """Load vector (f(., t), basis_i) at one time, through ``loads``'s scatter."""
    return loads._scatter(np.full((1, 1), t))[0, 0].ravel()


def solve_single_box(a, f, c, g):
    """Minimize 0.5 u'Au - f'u subject to -g <= u_c <= g (g may be inf)."""
    if not np.isfinite(g):
        return a.cholesky().solve(np.asarray(f, dtype=float))
    return PinnedDofSolver(a, c, -g, g).solve_with_case(f, np.empty(a.n))[0]
