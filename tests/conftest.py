"""Shared helpers for the test suite: dense-to-banded conversion, random
SPD builders, a brute-force box-QP oracle used to cross-check the
production solvers.  The fault injectors are in ``faults``."""

import itertools

import numpy as np

from beamstops.linalg import BandedSpd


def from_dense(a, bw=None):
    """The upper band of a symmetric dense matrix as a BandedSpd.

    ``bw`` defaults to the farthest occupied diagonal; a non-zero entry
    outside a given ``bw`` is an error.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix must be symmetric")
    nz = np.nonzero(a)
    occupied = int(np.max(np.abs(nz[0] - nz[1]))) if nz[0].size else 0
    if bw is None:
        bw = occupied
    elif occupied > bw:
        raise ValueError(
            f"matrix has entries {occupied} off the diagonal, outside bandwidth {bw}"
        )
    bw = min(bw, n - 1)
    ab = np.zeros((bw + 1, n))
    for j in range(n):
        i0 = max(0, j - bw)
        ab[bw + i0 - j : bw + 1, j] = a[i0 : j + 1, j]
    return BandedSpd(ab)


def random_banded_spd(rng, n, bw):
    """Random SPD matrix with half-bandwidth ``bw``; returns (BandedSpd, dense).

    Diagonal dominance (off-band magnitudes plus a positive slack on the
    diagonal) guarantees positive definiteness without widening the band.
    """
    dense = np.zeros((n, n))
    for d in range(1, min(bw, n - 1) + 1):
        off = rng.standard_normal(n - d)
        dense += np.diag(off, d) + np.diag(off, -d)
    dense += np.diag(np.abs(dense).sum(axis=1) + rng.uniform(0.5, 2.0, size=n))
    return from_dense(dense, bw), dense


def box_qp_oracle(a, f, lower, upper, tol=1e-9):
    """Minimize 0.5 u'Au - f'u over the box by enumerating pin patterns.

    Every coordinate is tried pinned-low / free / pinned-high (infinite
    bounds cannot pin); each pattern yields a candidate by solving the
    free block, and the feasible candidate with the smallest objective is
    the QP solution.  Dense and exponential on purpose — an independent
    oracle, not a solver.
    """
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    n = f.size
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
    scale = max(1.0, np.max(np.abs(lower[np.isfinite(lower)]), initial=0.0),
                np.max(np.abs(upper[np.isfinite(upper)]), initial=0.0))
    best_u, best_obj = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        if any(s == -1 and not np.isfinite(lower[i]) for i, s in enumerate(pattern)):
            continue
        if any(s == 1 and not np.isfinite(upper[i]) for i, s in enumerate(pattern)):
            continue
        u = np.where([s == -1 for s in pattern], lower, 0.0)
        u = np.where([s == 1 for s in pattern], upper, u)
        free = [i for i, s in enumerate(pattern) if s == 0]
        if free:
            pinned = [i for i in range(n) if i not in free]
            rhs = f[free]
            if pinned:
                rhs = rhs - a[np.ix_(free, pinned)] @ u[pinned]
            u[free] = np.linalg.solve(a[np.ix_(free, free)], rhs)
            if np.any(u[free] < lower[free] - tol * scale):
                continue
            if np.any(u[free] > upper[free] + tol * scale):
                continue
        obj = 0.5 * u @ a @ u - f @ u
        if obj < best_obj:
            best_u, best_obj = u, obj
    assert best_u is not None, "no feasible pattern (bounds inconsistent?)"
    return best_u
