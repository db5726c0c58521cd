"""Reference routes that several test files share: a load vector at one
time through the production quadrature scatter, the single-DOF box solve
through the compiled step loop (``beamstops.steploop``), the contact
audit's figures reduced from residual rows in numpy, and the Python tip
steps that the loop ports, as an oracle loop over the same buffers.

The tip steps are the pinned and penalty steps that ``run()`` made from
Python before the loop was compiled, in the same operations and order,
each classifying the tips of u^{n-1} and u^n itself.  They solve through
``BandedCholesky.solve`` and make each member's products through
``BandedSpd.matvec``, so spies on those see every solve and product of the
oracle loop, and form the loads of the loop's coefficients through
``LoadAssembler.from_coefficients``."""

import sys

import numpy as np

from beamstops import linalg, steploop
from beamstops.linalg import PinnedDofSolver


def at_time(loads, t):
    """Load vector (f(., t), basis_i) at one time, through ``loads``'s scatter."""
    return loads._scatter(np.full((1, 1), t))[0, 0].ravel()


def solve_single_box(a, f, c, g):
    """Minimize 0.5 u'Au - f'u subject to -g <= u_c <= g (g may be inf)."""
    if not np.isfinite(g):
        return a.cholesky().solve(np.asarray(f, dtype=float))
    return loop_solve(a, PinnedDofSolver(a, c, -g, g), f)


def loop_solve(a, solver, f):
    """The pinned solve of A u = f by the compiled loop: one step from the
    states u^{n-1} = u^n = 0 with loads f, whose F^n = B 0 - A 0 + f is f
    wherever f is not -0.0 (the loop's B is A)."""
    u, au, f_row = np.zeros((3, a.n)), np.zeros((3, a.n)), np.zeros((1, a.n))
    loop = steploop.Loop(a, a, solver, u, au, f_row)
    loop.load(np.array(f, dtype=float).reshape(1, a.n))
    loop.step(2, 3)
    return u[2]


def audit_figures(residuals, index):
    """The figures of residual rows A u - F (or of one residual vector) that
    ``ContactAudit.update`` takes, reduced in numpy: the reactions at
    ``index``, and the largest |residual| of each row with 0.0 put at
    ``index``, NaN where one is."""
    residuals = np.atleast_2d(residuals)
    off = np.abs(residuals)
    off[:, index] = 0.0
    return residuals[:, index], off.max(axis=1)


def pinned_step(solver, f, out):
    """Write the pinned solution of A u = f into ``out`` (a contiguous float
    vector); returns ``out`` and the case that fired: -1 lower stop, 0 free,
    +1 upper.  A NaN at c is free; so is every solution under open stops."""
    out[:] = f
    solver.full_factor.solve(out, True)
    uc = out[solver.index]
    if not (uc > solver.upper or uc < solver.lower):
        return out, 0
    case = 1 if uc > solver.upper else -1
    bound = solver.upper if case == 1 else solver.lower
    out += np.multiply(solver.w, (bound - uc) / solver.w[solver.index])
    out[solver.index] = bound
    return out, case


def spring(solver, tip, member=0):
    """Penalty force of the stops on the tip (negative at the upper stop)."""
    inv_eps = solver.members[member][0]
    if tip > solver.upper:
        return -inv_eps * (tip - solver.upper)
    if tip < solver.lower:
        return -inv_eps * (tip - solver.lower)
    return 0.0


def history(solver, member, tip_prev, tip_curr):
    """dt^2 times the springs' explicit part of one member's step, from its
    tips of u^{n-1} and u^n."""
    return solver.dt2 * ((1.0 - 2.0 * solver.beta) * spring(solver, tip_curr, member)
                         + solver.beta * spring(solver, tip_prev, member))


def past(solver, tips):
    """The members whose tip is past a stop; a NaN tip is not."""
    return [m for m, tip in enumerate(tips.tolist()) if tip > solver.upper or tip < solver.lower]


def penalty_step(solver, f_n, u_prev, u_curr, out):
    """Write u^{n+1} of the penalty members' step into ``out`` from F^n and
    (u^{n-1}, u^n), flat blocks of the k members (member j's vector is
    entries [j 2J, (j + 1) 2J)); returns ``out``.  F^n, plus the member's
    history at its tip where a tip of u^{n-1} or u^n is past a stop; one
    multi-RHS solve with A of the (2J x k) block; a bumped solve from F^n
    for each member whose new tip is past a stop, and NaN for one whose tip
    then falls on the free side of it."""
    c, k, n = solver.index, len(solver.members), solver.full_factor.n
    block, f_block = out.reshape(k, n), f_n.reshape(k, n)
    tips = block[:, c]
    block[:] = f_block
    tips_prev, tips_curr = u_prev.reshape(k, n)[:, c], u_curr.reshape(k, n)[:, c]
    pressing = {}
    for m in sorted({*past(solver, tips_prev), *past(solver, tips_curr)}):
        pressing[m] = history(solver, m, tips_prev[m], tips_curr[m])
        tips[m] = f_block[m, c] + pressing[m]
    solver.full_factor.solve(block.T, True)
    for m in past(solver, tips):
        _, bump, bumped = solver.members[m]
        if bump == 0.0:
            continue
        tip = tips[m]
        bound = solver.upper if tip > solver.upper else solver.lower
        u = block[m]
        u[:] = f_block[m]
        u[c] += pressing[m] if m in pressing else history(solver, m, tips_prev[m], tips_curr[m])
        u[c] += bump * bound
        tip = bumped.solve(u, True)[c]
        tiny = 1e-12 * max(1.0, abs(bound))
        if not (bound == solver.upper and tip >= bound - tiny
                or bound == solver.lower and tip <= bound + tiny):
            u[:] = np.nan
    return out


def member_products(band, x, out):
    """``out`` = the band times each member's entries of the flat block
    ``x``, one ``BandedSpd.matvec`` per member."""
    for xm, om in zip(x.reshape(-1, band.n), out.reshape(-1, band.n)):
        band.matvec(xm, out=om)


def oracle_step(loop, u, au, f_n, g_n):
    """One step of ``Loop.step`` in Python: from rows 0 and 1 of ``u`` and
    row 0 of ``au`` (u^{n-1}, u^n, A u^{n-1}) and the loads g_n = dt^2 G^n,
    which every member adds, writes F^n into ``f_n``, u^{n+1} into row 2 of
    ``u`` and A u^{n+1} into row 2 of ``au``.  Returns the pinned step's
    contact case, None for a penalty step."""
    member_products(loop.b_band, u[1], f_n)
    f_n -= au[0]
    members = f_n.reshape(-1, g_n.size)
    members += g_n
    case = None
    if isinstance(loop.solver, PinnedDofSolver):
        case = pinned_step(loop.solver, f_n, u[2])[1]
    else:
        penalty_step(loop.solver, f_n, u[0], u[1], u[2])
    member_products(loop.a_band, u[2], au[2])
    return case


def load_of(loop, q):
    """dt^2 G^n of the step of row q: the loop's load row, or the load of its
    coefficients by ``LoadAssembler.from_coefficients``."""
    g = loop.g[q - 2]
    return g if loop.loads is None else loop.loads.from_coefficients(g)


def oracle_rows(loop, r, rows):
    """``Loop.step`` in Python: steps rows r .. rows - 1 of ``loop``'s
    buffers from its loads."""
    for q in range(r, rows):
        oracle_step(loop, loop.u[q - 2 : q + 1], loop.au[q - 2 : q + 1], loop.f[0], load_of(loop, q))


def checked_loop(monkeypatch):
    """Check every step of the compiled loop against the oracle loop.

    Patches ``Loop.step`` so that each call steps its rows in C all at once,
    then again one row at a time from the same buffers, each row after the
    oracle steps it on copies of the rows it reads, its loads formed from
    the loop's coefficients where the loop takes those; the u and A u rows,
    the F row and a signorini run's audit figures must be equal in their
    int64 views.  Returns what the oracle counted: its banded steps, block
    solves and block products (each one :func:`member_products` call), per
    member its bumped solves, the pinned steps' contact cases, and as
    (banded step, member) pairs the penalty steps that press (a tip of
    u^{n-1} or u^n past a stop), that make a spring history and that make a
    bumped solve.  The loop's own counters see each row twice.
    """
    step = steploop.Loop.step
    seen = {"banded_steps": 0, "solves": 0, "products": 0, "bumped_solves": {}, "cases": [],
            "pressing": [], "histories": [], "bumped": []}
    solve, products, make_history = linalg.BandedCholesky.solve, member_products, history
    stepping = []  # the solver, while the oracle steps

    def counted_solve(self, rhs, *rest):
        if stepping and self is stepping[0].full_factor:
            seen["solves"] += 1
        elif stepping:
            m = [m for m, (_, _, b) in enumerate(stepping[0].members) if b is self][0]
            seen["bumped_solves"][m] = seen["bumped_solves"].get(m, 0) + 1
            seen["bumped"].append((seen["banded_steps"], m))
        return solve(self, rhs, *rest)

    def counted_history(solver, member, *tips):
        seen["histories"].append((seen["banded_steps"], member))
        return make_history(solver, member, *tips)

    def counted_products(*args):
        seen["products"] += bool(stepping)
        return products(*args)

    def checked(self, r, rows):
        buffers = (self.u, self.au, self.f) + (() if self.figures is None else (self.figures,))
        saved = [x.copy() for x in buffers]
        step(self, r, rows)
        whole = [x.copy() for x in buffers]
        for x, before in zip(buffers, saved):
            x[...] = before
        solver, ndof = self.solver, self.a_band.n
        tip = solver.index
        penalty = not isinstance(solver, PinnedDofSolver)
        for q in range(r, rows):
            # copies of u^{n-1}, u^n and A u^{n-1}, and of F's row: sbmv may
            # read what the row held before
            u, au, f_n = self.u[q - 2 : q + 1].copy(), self.au[q - 2 : q + 1].copy(), self.f[0].copy()
            if penalty:
                for m in range(len(solver.members)):
                    if past(solver, u[:2, m * ndof + tip]):
                        seen["pressing"].append((seen["banded_steps"], m))
            stepping.append(solver)
            try:
                case = oracle_step(self, u, au, f_n, load_of(self, q))
            finally:
                stepping.clear()
            if case is not None:
                seen["cases"].append(case)
            step(self, q, q + 1)
            pairs = [(self.u[q], u[2]), (self.au[q], au[2]), (self.f[0], f_n),
                     (self.u[q], whole[0][q]), (self.au[q], whole[1][q])]
            if self.figures is not None:
                want = np.concatenate(audit_figures(au[2] - f_n, tip))
                pairs += [(self.figures[q], want), (self.figures[q], whole[3][q])]
            for got, want in pairs:
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), q
            seen["banded_steps"] += 1
        assert np.array_equal(self.f.view(np.int64), whole[2].view(np.int64))

    monkeypatch.setattr(linalg.BandedCholesky, "solve", counted_solve)
    monkeypatch.setattr(steploop.Loop, "step", checked)
    for name, counted in (("history", counted_history), ("member_products", counted_products)):
        monkeypatch.setattr(sys.modules[__name__], name, counted)
    return seen
