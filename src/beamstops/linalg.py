"""Banded symmetric-positive-definite linear algebra.

All matrices arising from the beam discretization are SPD with a small,
fixed half-bandwidth, so the whole solver stack is built on symmetric
banded storage: Cholesky factorization (LAPACK ``pbtrf``/``pbtrs``),
banded matrix-vector products (BLAS ``sbmv``), a direct solver for
systems with a box constraint on a single coordinate (solve, then move
along the precomputed column A^{-1} e_c onto a violated bound), its
penalty counterpart (stiff springs at the stops, one or two pre-factored
solves), a projected Gauss-Seidel iteration for general box constraints,
and Lanczos for the largest generalized eigenvalue of a banded pair.
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

    def stacked(self, k: int, pad: int) -> "BandedSpd":
        """Block-diagonal matrix of k copies, each followed by ``pad`` zero rows and columns.

        A product with it is k products at once: one flat vector holds the
        k member vectors, each followed by ``pad`` zeros.  With pad >= bw
        no stored entry couples two copies, so a NaN or an infinity in one
        member never reaches another (0 * inf is NaN).
        """
        if k == 1 and pad == 0:
            return self
        block = self.ab.copy(order="F")
        for j in range(min(self.bw, self.n)):
            block[: self.bw - j, j] = 0.0  # unused corner: would couple to the rows before
        # (k, width, bw + 1) in C order is the (bw + 1, k width) band in F order
        copies = np.zeros((k, self.n + pad, self.bw + 1))
        copies[:, : self.n] = block.T
        return BandedSpd(copies.reshape(-1, self.bw + 1).T, copy=False)

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
        (ldb x k) float block with ldb >= n, whose rows from n on are left
        as they are: the padded (k x width) member block of
        :func:`~beamstops.steppers.run`, seen as (width x k), is one.
        """
        rows = rhs.shape[0]
        if rows < self.n or rows > self.n and not in_place:
            raise ValueError(f"rhs length {rows} does not match system size {self.n}")
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
        self._step = np.empty(a.n)  # the contact case's move along w

    def solve_with_case(self, f: np.ndarray, out: np.ndarray):
        """Write the solution into ``out`` (a contiguous float vector); returns
        ``out`` and the case that fired: -1 lower stop, 0 free, +1 upper.
        A NaN at c is free, as in :class:`PenaltyTipSolver`; so is every
        solution under open stops (-inf, +inf), a linear run's step."""
        out[:] = f
        self.full_factor.solve(out, True)
        uc = out[self.index]
        if not (uc > self.upper or uc < self.lower):
            return out, 0
        case = 1 if uc > self.upper else -1
        bound = self.upper if case == 1 else self.lower
        np.multiply(self._w, (bound - uc) / self._w[self.index], out=self._step)
        out += self._step
        out[self.index] = bound
        return out, case


class PenaltyTipSolver:
    """Implicit solve of one penalty step with stops on a single DOF.

    The spring force p(u) = -(1/eps)[max(u - g_hi, 0) - max(g_lo - u, 0)]
    enters the step beta-weighted like the elastic force; the n+1 term
    makes the system piecewise linear in the constrained coordinate with
    three branches (free / pressing upper / pressing lower).  The
    reduced equation for that coordinate is strictly increasing, so
    exactly one branch is self-consistent; both branch matrices (A and
    the diagonal-bumped A + dt^2 beta/eps e_c e_c^T) are factored once.

    ``params`` is one :class:`~beamstops.steppers.PenaltyParams` or a list
    of members that differ only in ``inv_eps``: they share A's factor, and
    each member has its own spring and bumped factor.
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
        # per member: (inv_eps, bump, factor of the bumped matrix)
        self.members = []
        self.inv_eps = np.array([p.inv_eps for p in members])
        self._zeros = np.zeros(len(members))
        self._lent = {}  # id(row) -> _views(row), which holds the lent row: its id stays its own
        # (n, u^n, u^{n+1}, members past a stop in each) of the last step on lent rows
        self._carry = (None, None, None, [], [])
        for p in members:
            bump = self.dt2 * self.beta * p.inv_eps
            bumped = a.with_diagonal_bump(index, bump).cholesky() if bump > 0.0 else self.full_factor
            self.members.append((p.inv_eps, bump, bumped))

    def spring(self, tip: float, member: int = 0) -> float:
        """Penalty force of the stops on the tip (negative at the upper stop)."""
        inv_eps = self.members[member][0]
        if tip > self.upper:
            return -inv_eps * (tip - self.upper)
        if tip < self.lower:
            return -inv_eps * (tip - self.lower)
        return 0.0

    def springs(self, tips: np.ndarray) -> np.ndarray:
        """:meth:`spring` of every member at once: (..., k) tips, member j in
        the last axis, give their (..., k) forces, bit for bit (+0.0 inside
        the stops and for a NaN tip, -0.0 * excess at inv_eps = 0)."""
        above, below = tips > self.upper, tips < self.lower
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN, as in spring
            excess = np.where(above, tips - self.upper, tips - self.lower)
            return np.where(above | below, -self.inv_eps * excess, 0.0)

    def history(self, member: int, u_prev: np.ndarray, u_curr: np.ndarray) -> float:
        """dt^2 times the springs' explicit part of one member's step, from its
        tips in the flat blocks u^{n-1} and u^n; ``advance`` adds it to the
        member's tip entry of F^n."""
        tip_prev = self._views(u_prev)[2].item(member)
        tip_curr = self._views(u_curr)[2].item(member)
        return self.dt2 * (
            (1.0 - 2.0 * self.beta) * self.spring(tip_curr, member)
            + self.beta * self.spring(tip_prev, member)
        )

    def lend(self, rows) -> None:
        """Keep the views of flat block rows that :meth:`advance` will step in.

        :func:`~beamstops.steppers.run` lends its buffer rows once per run.
        A step on lent rows finds their member block, tips and (width x k)
        columns built, and carries the contact state (see :meth:`advance`).
        Between a step n and a step n + 1 that reads its u^n and u^{n+1},
        the lender must not write those two rows.
        """
        for row in rows:
            self._lent[id(row)] = self._views(row)

    def _views(self, x: np.ndarray) -> tuple:
        """(x, its (k, 2J) member block, its k tips, its (width, k) columns)."""
        lent = self._lent.get(id(x))
        if lent is not None:
            return lent
        k = len(self.members)
        block = x.reshape(k, x.shape[0] // k)
        return x, block[:, : self.full_factor.n], block[:, self.index], block.T

    def _past(self, tips: np.ndarray) -> list[int]:
        """The members whose tip is past a stop; a NaN tip is not."""
        lower, upper = self.lower, self.upper
        return [m for m, tip in enumerate(tips.tolist()) if tip > upper or tip < lower]

    def advance(self, f_n: np.ndarray, u_prev: np.ndarray, u_curr: np.ndarray, n: int,
                out: np.ndarray) -> np.ndarray:
        """Write u^{n+1} of step ``n`` into ``out`` from F^n and (u^{n-1}, u^n); returns ``out``.

        The float arrays are flat blocks of the k members: member j's
        vector is entries [j w, j w + 2J), w = len / k, and any rest of
        its w entries is zero padding (one member: its plain vectors).
        ``out``, a block of the same layout with zero pads, takes the
        members' entries of F^n plus the springs' explicit part at the
        tips, its pads stay zero, and one in-place multi-RHS solve with A
        serves every member.
        That part is +0.0, added to every tip at once (it turns a -0.0
        into +0.0), unless a tip of u^{n-1} or u^n is past a stop (a NaN
        tip is not): only then is the member's :meth:`history` made, once
        for its tip and its bumped solve.  A member whose new tip is past a
        stop is solved again with its bumped factor, from its entries of
        F^n.  If that tip falls on the free side of
        its stop, no contact case is consistent: its 2J entries turn NaN
        and its pad stays zero, so the run's record check ends it and no
        other member sees it.  Non-finite entries never make this method
        raise.

        A step's contact state is which members have a tip past a stop in
        u^{n-1} and in u^n.  The solver owns it: each call classifies the
        tips of u^{n+1} once, after any bumped solve or NaN ending, and
        keeps that with the state of u^n where ``u_curr`` and ``out`` are
        rows lent by :meth:`lend`.  The next call takes the pair as its own
        only if it is step n + 1 on lent rows and reads this call's
        ``u_curr`` and ``out`` as its u^{n-1} and u^n; any other call
        classifies the tips of its u^{n-1} and u^n itself.  So a free step
        on run()'s rows (no tip past a stop in u^{n-1}, u^n or u^{n+1}) only
        copies F^n, adds the zeros, solves and classifies the new tips.
        """
        c, lower, upper = self.index, self.lower, self.upper
        lent = self._lent.get(id(out))
        _, block, tips, columns = lent or self._views(out)
        f_block = self._views(f_n)[1]
        block[...] = f_block
        tips += self._zeros  # +0.0 at each tip
        last = self._carry
        if lent and last[0] == n - 1 and last[1] is u_prev and last[2] is u_curr:
            past_prev, past_curr = last[3:]
        else:
            past_prev = self._past(self._views(u_prev)[2])
            past_curr = self._past(self._views(u_curr)[2])
        history = {}  # of the members pressing a stop, for their tips and bumped solves
        if past_prev or past_curr:
            for m in sorted({*past_prev, *past_curr}):
                history[m] = self.history(m, u_prev, u_curr)
                tips[m] = f_block[m, c] + history[m]
        self.full_factor.solve(columns, True)
        new = self._past(tips)
        for m in new:
            # a NaN tip steps on: the run's record check names the blow-up
            _, bump, bumped = self.members[m]
            if bump == 0.0:
                continue
            tip = tips[m]
            bound = upper if tip > upper else lower
            u = block[m]
            u[:] = f_block[m]
            u[c] += history[m] if m in history else self.history(m, u_prev, u_curr)
            u[c] += bump * bound
            tip = bumped.solve(u, True)[c]
            tiny = 1e-12 * max(1.0, abs(bound))
            if not (bound == upper and tip >= bound - tiny or bound == lower and tip <= bound + tiny):
                u[:] = np.nan
        if new:  # classified again after the bumped solves and NaN endings
            new = self._past(tips)
        if lent and id(u_curr) in self._lent:
            self._carry = (n, u_curr, out, past_curr, new)
        return out


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
