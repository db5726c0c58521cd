"""Banded symmetric-positive-definite linear algebra.

All matrices arising from the beam discretization are SPD with a small,
fixed half-bandwidth, so the whole solver stack is built on symmetric
banded storage: Cholesky factorization (LAPACK ``pbtrf``/``pbtrs``),
banded matrix-vector products (BLAS ``sbmv``), a direct solver for
systems with a box constraint on a single coordinate (solve, then move
along the precomputed column A^{-1} e_c onto a violated bound), a projected
Gauss-Seidel iteration for general box constraints, and a power
iteration for the largest generalized eigenvalue of a banded pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs


class NotPositiveDefiniteError(Exception):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(
            f"matrix is not positive definite (pivot {pivot_index} <= 0)"
        )


class PgsConvergenceError(Exception):
    """Projected Gauss-Seidel ran out of sweeps."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = residual
        self.sweeps = sweeps
        super().__init__(
            f"projected Gauss-Seidel did not converge in {sweeps} sweeps "
            f"(natural residual {residual:.3e})"
        )


class PowerIterationError(Exception):
    """Generalized eigenvalue power iteration did not meet its certificate."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"power iteration did not converge in {iterations} iterations "
            f"(residual {residual:.3e})"
        )


# ---------------------------------------------------------------------------
# box constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxConstraint:
    """Per-DOF bounds, +-inf for unconstrained coordinates.

    Every finitely-constrained coordinate must straddle zero
    (lower < 0 < upper): the stops sit on either side of the beam's rest
    position.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower/upper must be 1-d arrays of equal length")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        finite = np.isfinite(lower) | np.isfinite(upper)
        if np.any(lower[finite] >= 0.0) or np.any(upper[finite] <= 0.0):
            raise ValueError(
                "constrained coordinates must satisfy lower < 0 < upper"
            )

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @classmethod
    def unbounded(cls, n: int) -> "BoxConstraint":
        return cls(np.full(n, -np.inf), np.full(n, np.inf))

    @classmethod
    def single(cls, n: int, index: int, lower: float, upper: float) -> "BoxConstraint":
        """Bounds on one coordinate only (the tip-displacement case)."""
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
        lo[index] = lower
        hi[index] = upper
        return cls(lo, hi)

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.lower) | np.isfinite(self.upper)

    def single_bounded_dof(self):
        """(index, lower, upper) if exactly one coordinate is constrained, else None."""
        idx = np.flatnonzero(self.finite_mask())
        if idx.size != 1:
            return None
        c = int(idx[0])
        return c, float(self.lower[c]), float(self.upper[c])

    def project(self, u: np.ndarray) -> np.ndarray:
        return np.clip(u, self.lower, self.upper)

    def contains(self, u: np.ndarray, tol: float = 0.0) -> bool:
        return bool(
            np.all(u >= self.lower - tol) and np.all(u <= self.upper + tol)
        )


# ---------------------------------------------------------------------------
# banded SPD matrices
# ---------------------------------------------------------------------------

_sbmv = get_blas_funcs("sbmv", dtype=np.float64)
_pbtrs = get_lapack_funcs("pbtrs", dtype=np.float64)


class BandedSpd:
    """Symmetric positive-(semi)definite matrix in upper banded storage.

    ``ab[bw + i - j, j] == A[i, j]`` for ``max(0, j - bw) <= i <= j``
    (the scipy/LAPACK upper-triangular banded convention).  Only the
    upper triangle is stored, so assembled matrices are symmetric by
    construction.
    """

    def __init__(self, ab: np.ndarray, copy: bool = True):
        ab = np.array(ab, dtype=float, copy=copy, order="F")
        if ab.ndim != 2 or ab.shape[0] < 1:
            raise ValueError("banded storage must be a (bw+1, n) array")
        self.ab = ab
        self.bw = ab.shape[0] - 1
        self.n = ab.shape[1]
        self._factor: BandedCholesky | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, n: int, bw: int) -> "BandedSpd":
        bw = min(bw, max(n - 1, 0))
        return cls(np.zeros((bw + 1, n), order="F"), copy=False)

    @classmethod
    def from_dense(cls, a: np.ndarray, bw: int | None = None) -> "BandedSpd":
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
        out = cls.zeros(n, bw)
        for j in range(n):
            i0 = max(0, j - bw)
            out.ab[bw + i0 - j : bw + 1, j] = a[i0 : j + 1, j]
        return out

    def add_block(self, indices: np.ndarray, block: np.ndarray) -> None:
        """Accumulate a small symmetric block at the given global indices."""
        self._factor = None
        k = len(indices)
        for a in range(k):
            ia = indices[a]
            for b in range(k):
                jb = indices[b]
                if ia <= jb:
                    self.ab[self.bw + ia - jb, jb] += block[a, b]

    # -- conversions and access --------------------------------------------

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for j in range(self.n):
            i0 = max(0, j - self.bw)
            col = self.ab[self.bw + i0 - j : self.bw + 1, j]
            a[i0 : j + 1, j] = col
            a[j, i0 : j + 1] = col
        return a

    def diagonal(self) -> np.ndarray:
        return self.ab[self.bw]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self.bw == 0:
            return self.ab[0] * x
        return _sbmv(self.bw, 1.0, self.ab, x)

    # -- algebra ------------------------------------------------------------

    def copy(self) -> "BandedSpd":
        return BandedSpd(self.ab, copy=True)

    @staticmethod
    def lincomb(alpha: float, a: "BandedSpd", beta: float, b: "BandedSpd") -> "BandedSpd":
        """alpha*A + beta*B for matrices of equal size (bandwidths may differ)."""
        if a.n != b.n:
            raise ValueError("size mismatch")
        if a.bw < b.bw:
            a, b, alpha, beta = b, a, beta, alpha
        out = alpha * a.ab
        out[a.bw - b.bw :, :] += beta * b.ab
        return BandedSpd(out, copy=False)

    def with_diagonal_bump(self, index: int, value: float) -> "BandedSpd":
        """Copy with ``value`` added at diagonal entry ``index`` (rank-one e_c e_c^T)."""
        out = self.copy()
        out.ab[out.bw, index] += value
        return out

    def cholesky(self) -> "BandedCholesky":
        """Factorize once and cache; see :func:`cholesky`."""
        if self._factor is None:
            self._factor = cholesky(self)
        return self._factor


class BandedCholesky:
    """Upper-banded Cholesky factor; solves via LAPACK ``pbtrs``."""

    def __init__(self, cb: np.ndarray, n: int, bw: int):
        self.cb = cb
        self.n = n
        self.bw = bw

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.shape[0] != self.n:
            raise ValueError(
                f"rhs length {rhs.shape[0]} does not match system size {self.n}"
            )
        x, info = _pbtrs(self.cb, rhs, lower=0)
        if info != 0:  # pragma: no cover - pbtrs only fails on bad inputs
            raise RuntimeError(f"pbtrs failed with info={info}")
        return x


def _first_bad_pivot(ab: np.ndarray) -> int:
    """Index of the first non-positive pivot of a banded Cholesky (pure python)."""
    bw = ab.shape[0] - 1
    n = ab.shape[1]
    a = ab.copy()
    for j in range(n):
        i0 = max(0, j - bw)
        d = a[bw, j]
        for i in range(i0, j):
            d -= a[bw + i - j, j] ** 2
        if d <= 0.0:
            return j
        d = np.sqrt(d)
        a[bw, j] = d
        for k in range(j + 1, min(n, j + bw + 1)):
            s = a[bw + j - k, k]
            for i in range(max(0, k - bw), j):
                s -= a[bw + i - j, j] * a[bw + i - k, k]
            a[bw + j - k, k] = s / d
    return -1


def cholesky(a: BandedSpd) -> BandedCholesky:
    """Banded Cholesky factorization of an SPD matrix.

    Raises :class:`NotPositiveDefiniteError` naming the first
    non-positive pivot if the matrix is not positive definite.
    """
    try:
        cb = cholesky_banded(a.ab, lower=False, check_finite=False)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(_first_bad_pivot(a.ab)) from None
    return BandedCholesky(np.asfortranarray(cb), a.n, a.bw)


# ---------------------------------------------------------------------------
# box-constrained solvers
# ---------------------------------------------------------------------------


class PinnedDofSolver:
    """Direct solver for A u = f with bounds on a single coordinate c.

    Solve the unconstrained system; if coordinate c lands inside
    [lower, upper] that is the solution.  Otherwise the multiplier of
    the violated bound is the scalar lam that moves u along
    w = A^{-1} e_c onto it, u + lam w, which satisfies every equation
    i != c (the Delassus form of a single contact).  The factor and w
    are computed once at construction.
    """

    def __init__(self, a: BandedSpd, index: int, lower: float, upper: float):
        if not (lower < 0.0 < upper):
            raise ValueError("bounds must straddle zero (lower < 0 < upper)")
        if not 0 <= index < a.n:
            raise ValueError("constrained index out of range")
        self.index = index
        self.lower = lower
        self.upper = upper
        self.full_factor = a.cholesky()
        e_c = np.zeros(a.n)
        e_c[index] = 1.0
        self._w = self.full_factor.solve(e_c)

    def solve(self, f: np.ndarray) -> np.ndarray:
        return self.solve_with_case(f)[0]

    def solve_with_case(self, f: np.ndarray):
        """Solution plus which case fired: -1 lower stop, 0 free, +1 upper."""
        u = self.full_factor.solve(f)
        uc = u[self.index]
        if self.lower <= uc <= self.upper:
            return u, 0
        case = 1 if uc > self.upper else -1
        bound = self.upper if case == 1 else self.lower
        u += ((bound - uc) / self._w[self.index]) * self._w
        u[self.index] = bound
        return u, case


def solve_single_box(a: BandedSpd, f: np.ndarray, c: int, g: float) -> np.ndarray:
    """Minimize 0.5 u'Au - f'u subject to -g <= u_c <= g (g may be inf)."""
    if not np.isfinite(g):
        return a.cholesky().solve(np.asarray(f, dtype=float))
    return PinnedDofSolver(a, c, -g, g).solve(np.asarray(f, dtype=float))


def pgs_box(
    a: BandedSpd,
    f: np.ndarray,
    box: BoxConstraint,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int | None = None,
    callback=None,
) -> np.ndarray:
    """Projected Gauss-Seidel for the box-constrained SPD system.

    Sweeps coordinates in order, each update being the exact
    box-projected coordinate minimizer.  Convergence is declared on the
    natural residual ``max|u - P(u - D^{-1}(Au - f))| <= tol``; raises
    :class:`PgsConvergenceError` carrying the last residual otherwise.
    Supports warm starts through ``x0``.
    """
    f = np.asarray(f, dtype=float)
    n = a.n
    if f.shape[0] != n or box.n != n:
        raise ValueError("dimension mismatch")
    dense = a.to_dense()
    diag = a.diagonal().copy()
    if np.any(diag <= 0.0):
        raise NotPositiveDefiniteError(int(np.argmax(diag <= 0.0)))
    if max_iter is None:
        max_iter = 50 * n
    lo, hi = box.lower, box.upper
    u = box.project(np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy())
    residual = np.inf
    for sweep in range(max_iter):
        for i in range(n):
            r = f[i] - dense[i] @ u + diag[i] * u[i]
            ui = r / diag[i]
            if ui < lo[i]:
                ui = lo[i]
            elif ui > hi[i]:
                ui = hi[i]
            u[i] = ui
        if callback is not None:
            callback(u.copy())
        grad = dense @ u - f
        residual = float(np.max(np.abs(u - np.clip(u - grad / diag, lo, hi))))
        if residual <= tol:
            return u
    raise PgsConvergenceError(residual, max_iter)


# ---------------------------------------------------------------------------
# largest generalized eigenvalue
# ---------------------------------------------------------------------------


def max_generalized_eig(
    s: BandedSpd,
    m: BandedSpd,
    tol: float = 1e-10,
    max_iter: int = 20000,
    seed: int = 0,
) -> float:
    """Largest kappa with S v = kappa M v, by power iteration on M^{-1}S.

    Each step multiplies by S and solves with M's Cholesky factor; the
    Rayleigh quotient is accepted once the residual certificate
    ``||Sv - kappa Mv|| <= tol * kappa * ||Mv||`` holds.  One random
    restart (deterministic ``seed``) is attempted if the iteration
    stagnates; raises :class:`PowerIterationError` on failure.
    """
    if s.n != m.n:
        raise ValueError("size mismatch")
    n = s.n
    mf = m.cholesky()
    v = np.ones(n) / np.sqrt(n)
    restarted = False
    best_resid = np.inf
    lam = 0.0
    for it in range(max_iter):
        sv = s.matvec(v)
        mv = m.matvec(v)
        lam = float(v @ sv) / float(v @ mv)
        resid = float(np.linalg.norm(sv - lam * mv))
        if resid <= tol * abs(lam) * float(np.linalg.norm(mv)):
            return lam
        best_resid = min(best_resid, resid)
        if not restarted and it == max_iter // 2:
            # stagnating: restart once from a seeded random direction
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            restarted = True
            continue
        y = mf.solve(sv)
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            raise PowerIterationError(best_resid, it + 1)
        v = y / nrm
    raise PowerIterationError(best_resid, max_iter)
