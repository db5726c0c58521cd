"""Banded symmetric-positive-definite linear algebra.

All matrices arising from the beam discretization are SPD with a small,
fixed half-bandwidth, so the whole solver stack is built on symmetric
banded storage: Cholesky factorization (LAPACK ``pbtrf``/``pbtrs``),
banded matrix-vector products (BLAS ``sbmv``), the data of the two tip
closures, which the compiled step loop of
:mod:`beamstops.steploop` reads (the factor and the column A^{-1} e_c of
the pinned solve; the bumps and bumped factors of the penalty springs), a
projected Gauss-Seidel iteration for general box constraints, and Lanczos
for the largest generalized eigenvalue of a banded pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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
    """The largest generalized eigenvalue did not meet its certificate.

    ``iterations`` counts the Lanczos steps made; ``residual`` is the best
    certificate residual seen.
    """

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"largest generalized eigenvalue did not meet its certificate in "
            f"{iterations} Lanczos steps (residual {residual:.3e})"
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
    def single(cls, n: int, index: int, lower: float, upper: float) -> "BoxConstraint":
        """Bounds on one coordinate only (the tip-displacement case)."""
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
        lo[index] = lower
        hi[index] = upper
        return cls(lo, hi)

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
_pbtrf = get_lapack_funcs("pbtrf", dtype=np.float64)
_pbtrs = get_lapack_funcs("pbtrs", dtype=np.float64)
_stemr = get_lapack_funcs("stemr", dtype=np.float64)


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

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A x; written into ``out``, a contiguous float vector, when given."""
        if self.bw == 0:
            return np.multiply(self.ab[0], x, out=out)
        if out is None:
            return _sbmv(self.bw, 1.0, self.ab, x)
        # positional: sbmv's keyword parsing costs more than the product at this size
        return _sbmv(self.bw, 1.0, self.ab, x, 1, 0, 0.0, out, 1, 0, 0, 1)

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
        """See :func:`cholesky`."""
        return cholesky(self)


class BandedCholesky:
    """Upper-banded Cholesky factor; solves via LAPACK ``pbtrs``.

    ``solve`` takes one right-hand side or an (n x k) matrix of them.  With
    the LAPACK that the tests check, each column of a multi-RHS solve is
    bit-identical to its own solve.
    """

    def __init__(self, cb: np.ndarray, n: int, bw: int):
        self.cb = cb
        self.n = n
        self.bw = bw

    def solve(self, rhs: np.ndarray, in_place: bool = False) -> np.ndarray:
        """A^{-1} rhs, one column per right-hand side.

        With ``in_place`` the solution overwrites ``rhs`` and ``rhs`` is
        returned.  It is then a contiguous float vector or an F-ordered
        (n x k) float block: the (k x n) member block of
        :func:`~beamstops.steppers.run`, seen as (n x k), is one.
        """
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs length {rhs.shape[0]} does not match system size {self.n}")
        # positional (lower, ldab, overwrite_b): keyword parsing costs a third of a solve
        x, info = _pbtrs(self.cb, rhs, 0, self.cb.shape[0], in_place)
        if info != 0:  # pragma: no cover - pbtrs only fails on bad inputs
            raise RuntimeError(f"pbtrs failed with info={info}")
        if in_place and x is not rhs:
            raise ValueError("an in-place solve needs an F-ordered float64 right-hand side")
        return x


def cholesky(a: BandedSpd) -> BandedCholesky:
    """Banded Cholesky factorization of an SPD matrix (LAPACK ``pbtrf``).

    Raises :class:`NotPositiveDefiniteError` naming the first
    non-positive pivot if the matrix is not positive definite.
    """
    cb, info = _pbtrf(a.ab, lower=0)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:  # pragma: no cover - pbtrf only rejects malformed arguments
        raise RuntimeError(f"pbtrf failed with info={info}")
    return BandedCholesky(cb, a.n, a.bw)


# ---------------------------------------------------------------------------
# box-constrained solvers
# ---------------------------------------------------------------------------


class PinnedDofSolver:
    """The data of the pinned tip closure: A u = f with bounds on one coordinate c.

    Solve the unconstrained system; if coordinate c lands inside
    [lower, upper] that is the solution.  Otherwise the multiplier of
    the violated bound is the scalar lam that moves u along
    w = A^{-1} e_c onto it, u + lam w, which satisfies every equation
    i != c (the Delassus form of a single contact).  A NaN at c is free,
    and so is every solution under open stops (-inf, +inf), a linear
    run's step.  The factor and ``w`` are computed once at construction;
    the compiled step loop (:mod:`beamstops.steploop`) reads them and
    makes the step.
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
        self.w = self.full_factor.solve(e_c)


class PenaltyTipSolver:
    """The data of the penalty tip closure: stiff springs at the stops of one DOF.

    The spring force p(u) = -(1/eps)[max(u - g_hi, 0) - max(g_lo - u, 0)]
    enters the step beta-weighted like the elastic force; the n+1 term
    makes the system piecewise linear in the constrained coordinate with
    three branches (free / pressing upper / pressing lower).  The
    reduced equation for that coordinate is strictly increasing, so
    exactly one branch is self-consistent; both branch matrices (A and
    the diagonal-bumped A + dt^2 beta/eps e_c e_c^T) are factored once.

    ``params`` is one :class:`~beamstops.steppers.PenaltyParams` or a list
    of members that differ only in ``inv_eps``: they share A's factor, and
    each member has its own spring and bumped factor, in ``members`` as
    (inv_eps, bump, bumped factor).  The compiled step loop
    (:mod:`beamstops.steploop`) reads them and steps the members as one
    block: where a tip of u^{n-1} or u^n is past a stop, the springs'
    explicit part dt^2 ((1 - 2 beta) p(u^n) + beta p(u^{n-1})) added to
    that member's tip entry of F^n; one solve with A for all members; and
    for each member whose new tip is past a stop, a solve with its bumped
    factor from its entries of F^n.  If that tip falls on the free side of
    its stop, no contact case is consistent: its 2J entries turn NaN, and
    the run's record check ends it.
    """

    def __init__(self, a: BandedSpd, index: int, lower: float, upper: float, params):
        if np.isfinite(lower) and lower >= 0.0 or np.isfinite(upper) and upper <= 0.0:
            raise ValueError("stops must straddle zero")
        members = params if isinstance(params, (list, tuple)) else [params]
        self.index = index
        self.lower = lower
        self.upper = upper
        self.dt2 = members[0].dt ** 2
        self.beta = members[0].beta
        self.full_factor = a.cholesky()
        self.inv_eps = np.array([p.inv_eps for p in members])
        self.members = []
        for p in members:
            bump = self.dt2 * self.beta * p.inv_eps
            bumped = a.with_diagonal_bump(index, bump).cholesky() if bump > 0.0 else self.full_factor
            self.members.append((p.inv_eps, bump, bumped))

    def springs(self, tips: np.ndarray) -> np.ndarray:
        """The springs' forces on (..., k) tips, member j in the last axis:
        -inv_eps (tip - stop) past a stop, +0.0 inside the stops and for a
        NaN tip, and -0.0 * excess at inv_eps = 0."""
        above, below = tips > self.upper, tips < self.lower
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN
            excess = np.where(above, tips - self.upper, tips - self.lower)
            return np.where(above | below, -self.inv_eps * excess, 0.0)


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

#: Lanczos steps between looks at T_k's top eigenpair (one LAPACK ``stemr``).
LANCZOS_CHECK = 4
#: A beta_k at most this times the largest |alpha_j| so far is a breakdown:
#: the Krylov space is invariant to rounding, so the next vector is noise.
LANCZOS_BREAKDOWN = 1e-12
#: Lanczos passes after the first, each from the best Ritz vector of the last.
LANCZOS_RESTARTS = 3


def max_generalized_eig(
    s: BandedSpd,
    m: BandedSpd,
    tol: float = 1e-10,
    max_iter: int = 20000,
) -> float:
    """Largest kappa with S v = kappa M v, by Lanczos on M^{-1}S.

    M^{-1}S is self-adjoint in the M inner product, so Lanczos in that inner
    product builds an M-orthonormal Krylov basis V_k and a tridiagonal T_k
    whose top eigenvalue approaches kappa from below.  Each step makes one
    product with S and one solve with M's Cholesky factor; M V_k follows
    from the three-term recurrence.  Every ``LANCZOS_CHECK`` steps the top
    eigenpair (theta, z) of T_k gives the estimate |beta_k z_k| of the Ritz
    residual; once that is at most ``tol * theta``, the Ritz vector
    y = V_k z is accepted on the certificate
    ``||Sy - kappa My|| <= tol * kappa * ||My||``, with fresh products S y
    and M y and kappa their Rayleigh quotient.  Any eigenpair meets the
    certificate, so it starts from a fixed pseudo-random direction (seed 0),
    not from one like the ones vector, which can be another eigenvector.
    The basis is not reorthogonalized: lost orthogonality only repeats
    converged eigenvalues, and the certificate guards the answer either
    way.  A pass ends at a breakdown (``LANCZOS_BREAKDOWN``), where a
    repeated or clustered top eigenvalue leaves the Krylov space invariant,
    or after n steps, where a full Krylov space would hold the answer but
    for rounding; either way it checks the certificate there, whatever the
    estimate.  A pass that ends without meeting it is followed by another
    from its best Ritz vector, up to ``LANCZOS_RESTARTS`` times and
    ``max_iter`` steps in all; then it raises :class:`PowerIterationError`.
    """
    if s.n != m.n:
        raise ValueError("size mismatch")
    mf = m.cholesky()
    start = np.random.default_rng(0).standard_normal(s.n)
    steps, best_resid = 0, np.inf
    for _ in range(LANCZOS_RESTARTS + 1):
        cap = min(max_iter - steps, s.n)
        if cap < 1:
            break
        mv = m.matvec(start)
        norm = math.sqrt(float(start @ mv))
        v, mv = start / norm, mv / norm
        v_prev = mv_prev = b = 0.0  # the previous Lanczos vector, M times it, beta
        basis, alpha, beta = [v], [], []
        scale, pass_resid = 0.0, np.inf  # the largest |alpha_j|, the pass's best residual
        for k in range(1, cap + 1):
            w = s.matvec(v)
            a = float(v @ w)
            mw = w - a * mv - b * mv_prev
            mf.solve(w, True)
            w -= a * v + b * v_prev
            b2 = float(w @ mw)
            b = math.sqrt(b2) if b2 > 0.0 else 0.0
            alpha.append(a)
            beta.append(b)
            scale = max(scale, abs(a))
            last = k == cap or b <= LANCZOS_BREAKDOWN * scale
            if k % LANCZOS_CHECK == 0 or last:
                # the top eigenpair of T_k; stemr overwrites its off-diagonal argument
                _, theta, z, info = _stemr(np.array(alpha), np.array(beta), 3, 0.0, 0.0, k, k)
                if info != 0:  # pragma: no cover - stemr only fails on bad inputs
                    raise RuntimeError(f"stemr failed with info={info}")
                if last or abs(b * z[-1, 0]) <= tol * abs(theta[0]):
                    y = z[:, 0] @ np.array(basis)
                    sy = s.matvec(y)
                    my = m.matvec(y)
                    lam = float(y @ sy) / float(y @ my)
                    resid = float(np.linalg.norm(sy - lam * my))
                    if resid <= tol * abs(lam) * float(np.linalg.norm(my)):
                        return lam
                    if resid < pass_resid:  # the next pass starts from it
                        pass_resid, start = resid, y
            if last:
                break
            v_prev, mv_prev = v, mv
            v, mv = w / b, mw / b
            basis.append(v)
        steps += k
        best_resid = min(best_resid, pass_resid)
    raise PowerIterationError(best_resid, steps)
