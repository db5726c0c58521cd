"""The compiled step loop (``beamstops.steploop``): its banded product and
solve against scipy's OpenBLAS, every step against the Python oracle loop of
``oracles``, bit for bit, the run's counters against the oracle's, and the
build at first import."""

import ctypes
import dataclasses
import decimal
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from beamstops import fem, steploop
from beamstops.diagnostics import discrete_energy
from beamstops.fem import BeamModel, DofMap, LoadAssembler, Mesh, SupportMotion, assemble
from beamstops.linalg import BandedSpd, PenaltyTipSolver, PinnedDofSolver
from beamstops.steppers import (
    PenaltyParams,
    SchemeParams,
    Trajectory,
    effective_matrix,
    run,
    transfer_matrix,
)
from oracles import audit_figures, checked_loop

#: stops at +-2 mm, first reached at t = 0.0068 s
TIGHT = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
MESH = Mesh(1.501, 19)
#: the penalty block: 1e300 blows up at step 543, 0.0 has no spring
VALUES = [1e6, 1e300, 0.0, 1e9]
SRC = Path(steploop.__file__).resolve().parents[1]
#: +-0, +-inf and +-nan, each sign of NaN its own bits
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])


def same_bits(got, want):
    return np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def kernel(name, *argtypes):
    fn = getattr(steploop.library, name)
    fn.argtypes, fn.restype = argtypes, None
    return fn


SBMV = kernel("beamstops_sbmv", *[ctypes.c_int] * 4, *[ctypes.c_void_p] * 3)
PBTRS = kernel("beamstops_pbtrs", *[ctypes.c_int] * 3, *[ctypes.c_void_p] * 2, ctypes.c_int)
LOADS = kernel("beamstops_loads", *[ctypes.c_int] * 2, *[ctypes.c_void_p] * 3)
FIGURES = kernel("beamstops_figures", *[ctypes.c_int] * 3, *[ctypes.c_void_p] * 3)


def sprinkle(rng, v, share):
    """``v`` with about ``share`` of its entries replaced by SPECIAL values."""
    hit = rng.random(v.shape) < share
    v[hit] = rng.choice(SPECIAL, int(hit.sum()))
    return v


def band_case(rng, case):
    """A random SPD band in upper storage and its Cholesky factor, each with
    some entries zero and a few SPECIAL, and
    NaN in the corner that the storage leaves unused: n from 1 to 700, bw
    1 to 3, and every fifth case bw 0 to MAX_BW."""
    n = int(rng.integers(1, 701 if case % 2 else 13))
    bw = int(rng.integers(0, steploop.MAX_BW + 1) if case % 5 == 0 else rng.integers(1, 4))
    ab = rng.uniform(-1.0, 1.0, (bw + 1, n))
    ab[bw] = 2 * bw + rng.uniform(0.5, 2.0, n)  # diagonally dominant
    ab[:bw][rng.random((bw, n)) < 0.2] = 0.0
    cb, info = get_lapack_funcs("pbtrf", dtype=float)(ab)
    assert info == 0
    cb[:bw][rng.random((bw, n)) < 0.2] = 0.0
    ab[bw][rng.random(n) < 0.05] = 0.0
    ab, cb = sprinkle(rng, ab, 0.01), sprinkle(rng, cb, 0.01)
    for j in range(min(bw, n)):
        ab[: bw - j, j] = cb[: bw - j, j] = np.nan
    return np.asfortranarray(ab), np.asfortranarray(cb)


def test_the_kernels_round_as_scipys_openblas_bit_for_bit():
    """``beamstops_sbmv`` and ``beamstops_pbtrs`` give scipy's ``sbmv``
    (alpha 1, beta 0) and ``pbtrs``, in int64 views, on 3 000 random SPD
    bands and factors: +-0, +-inf and +-nan in x, b and the bands, where
    the operand roles of each instruction decide a NaN's sign, zero band
    entries, 1 to 3 vectors x of n entries, every third case's all of
    signed zeros, 1 to 4 right-hand sides of n entries, and a y that holds
    NaN before the product.  No product entry is -0.0: every row sum starts
    from +0.0."""
    rng = np.random.default_rng(28)
    sbmv, pbtrs = get_blas_funcs("sbmv", dtype=float), get_lapack_funcs("pbtrs", dtype=float)
    bad, cases, zeros = [], 1500, 0
    for case in range(cases):
        ab, cb = band_case(rng, case)
        bw, n = ab.shape[0] - 1, ab.shape[1]
        m = int(rng.integers(1, 4))
        if case % 3:
            x = sprinkle(rng, rng.standard_normal((m, n)), 0.1)
        else:
            x = rng.choice([0.0, -0.0], (m, n))
        y = np.full((m, n), np.nan)
        SBMV(steploop.FUSED, m, n, bw, ab.ctypes.data, x.ctypes.data, y.ctypes.data)
        if not all(same_bits(row, sbmv(bw, 1.0, ab, v)) for row, v in zip(y, x)):
            bad.append(("sbmv", m, n, bw))
        assert not np.signbit(y[y == 0.0]).any()
        zeros += int(np.count_nonzero(y == 0.0))
        k = int(rng.integers(1, 5))
        b = np.asfortranarray(sprinkle(rng, rng.standard_normal((n, k)), 0.02))
        want, info = pbtrs(cb, b)
        assert info == 0
        PBTRS(steploop.FUSED, n, bw, cb.ctypes.data, b.ctypes.data, k)
        if not np.array_equal(b.view(np.int64), want.view(np.int64)):
            bad.append(("pbtrs", n, bw, k))
    assert not bad, (f"{len(bad)} of {2 * cases} kernel calls differ from scipy's OpenBLAS, "
                     f"core {steploop.CORE}; the first: {bad[:5]}")
    assert zeros > 10_000


@pytest.mark.parametrize("J", [1, 2, 19, 320])
def test_the_loads_round_as_from_coefficients_bit_for_bit(J):
    """The loop's load of each row's two coefficients over the basis is
    ``LoadAssembler.from_coefficients``'s, in int64 views, whether numpy
    forms the rows as a block or one at a time: rows with one coefficient
    NaN, infinite or a signed zero, with both infinite, and with both NaN
    of one sign.  Two NaNs of opposite signs give the first operand's in
    numpy's vector loop and the second's in its tail (the last n mod 8
    entries with AVX-512), so there the loop matches numpy in the entries of
    that loop, the first 8 floor(n / 8): in the loads and in F^n, where a
    step adds a NaN load to a NaN B u^n - A u^{n-1}."""
    rng = np.random.default_rng(29 + J)
    mesh = Mesh(1.501, J)
    loads = LoadAssembler(mesh, TIGHT)
    n, body = 2 * J, 8 * (J // 4)
    coeffs = 10.0 ** rng.uniform(-300, 300, (400, 2)) * rng.standard_normal((400, 2))
    one = rng.random(400) < 0.5
    pick = rng.integers(0, 2, 400)
    coeffs[one, pick[one]] = rng.choice(SPECIAL, int(one.sum()))
    coeffs[:4] = [[np.inf, -np.inf], [-np.inf, -np.inf], [np.nan, np.nan], [-np.nan, -np.nan]]
    assert np.isnan(coeffs).any(axis=1).sum() > 50
    got = np.full((400, n), 7.0)
    LOADS(400, n, coeffs.ctypes.data, loads.basis.ctypes.data, got.ctypes.data)
    opposite = np.array([[np.nan, -np.nan], [-np.nan, np.nan]])
    LOADS(2, n, opposite.ctypes.data, loads.basis.ctypes.data, got[:2].ctypes.data)
    with np.errstate(all="ignore"):
        assert same_bits(got[2:], loads.from_coefficients(coeffs[2:]))
        assert all(same_bits(row, loads.from_coefficients(c)) for row, c in zip(got[2:], coeffs[2:]))
        assert same_bits(got[:2, :body], loads.from_coefficients(opposite)[:, :body])
        assert same_bits(got[:2, :body], [np.full(body, np.nan), np.full(body, -np.nan)])
        # F^n = (B u^n - A u^{n-1}) + g with B u^n = +nan and g = -nan
        gm = assemble(mesh, TIGHT)
        params = SchemeParams(0.5, 1.5e-5, 0.05)
        a, b = effective_matrix(gm.mass, gm.stiffness, params), transfer_matrix(gm.mass, gm.stiffness, params)
        loop = steploop.Loop(a, b, PinnedDofSolver(a, n - 2, -np.inf, np.inf), np.zeros((3, n)),
                             np.zeros((3, n)), np.zeros((1, n)))
        loop.u[1] = np.nan
        loop.load(opposite[1:], loads)
        loop.step(2, 3)
        want = b.matvec(loop.u[1]) - loop.au[0]
        want += loads.from_coefficients(opposite[1])
    assert same_bits(loop.f[0, :body], want[:body]) and same_bits(want[:body], np.full(body, np.nan))


@pytest.mark.parametrize("n", [2, 4, 38, 640])
def test_the_audit_figures_reduce_as_the_oracle_bit_for_bit(n):
    """The loop's two audit figures of rows of A u and F, the reaction at
    the tip and the largest |A u - F| off it, are those that the oracle
    reduces from the residual rows in numpy, in int64 views: rows with
    +-0, +-inf and +-nan entries in either operand, rows all of NaN or of
    infinities, and a row whose only NaN is at the tip."""
    rng = np.random.default_rng(n)
    tip = n - 2
    au = sprinkle(rng, rng.standard_normal((300, n)), min(0.1, 0.5 / n))
    f = sprinkle(rng, rng.standard_normal((300, n)), min(0.1, 0.5 / n))
    au[0], f[1] = np.nan, -np.inf
    au[2], f[2] = np.inf, np.inf
    au[3, tip] = -np.nan
    au[4, tip], f[4, tip] = np.nan, -np.nan
    got = np.full((300, 2), 7.0)
    FIGURES(300, n, tip, au.ctypes.data, f.ctypes.data, got.ctypes.data)
    with np.errstate(invalid="ignore"):
        reactions, off = audit_figures(au - f, tip)
    assert same_bits(got[:, 0], reactions) and same_bits(got[:, 1], off)
    assert np.isnan(got[3, 0]) and np.isfinite(got[3, 1])
    assert np.isnan(got[:, 1]).sum() > 10 and np.isinf(got[:, 1]).sum() > 10


@pytest.mark.parametrize("J", [1, 2, 19, 320])
def test_the_energy_product_rounds_as_scipys_product_bit_for_bit(J):
    """``steploop.sbmv`` on m rows gives each row ``BandedSpd.matvec``'s
    product, in int64 views, and ``discrete_energy`` through it gives the
    energies of the same numpy steps made on scipy's product, whether the
    pairs come as C-ordered rows or as strided views; an infinity in one
    pair stays in it, and every other pair's energy is the one it has
    alone."""
    rng = np.random.default_rng(J)
    stiffness = assemble(Mesh(1.501, J), TIGHT).stiffness
    n, m, dt = stiffness.n, 9, 1.5e-5
    u0, u1, au0, au1 = (1e-3 * rng.standard_normal((m, n)) for _ in range(4))
    u1[4, n // 2] = np.inf
    got = np.full((m, n), np.nan)
    with np.errstate(invalid="ignore"):
        steploop.sbmv(stiffness, u1, got)
        want = np.array([stiffness.matvec(row) for row in u1])
    assert same_bits(got, want)
    assert np.isfinite(np.delete(want, 4, axis=0)).all()
    strided = [np.repeat(x, 3, axis=0)[::3] for x in (u0, u1, au0, au1)]
    with np.errstate(invalid="ignore"):
        scipys = np.vecdot(u1 - u0, au1 - au0) / dt**2 + np.vecdot(u0, want)
        energies = discrete_energy((u0, u1), (au0, au1), stiffness, dt)
        assert same_bits(discrete_energy(strided[:2], strided[2:], stiffness, dt), scipys)
        alone = [discrete_energy((u0[j], u1[j]), (au0[j], au1[j]), stiffness, dt) for j in range(m)]
    assert same_bits(energies, scipys)
    assert not np.isfinite(energies[4]) and np.isfinite(np.delete(energies, 4)).all()
    assert same_bits(np.delete(energies, 4), np.delete(alone, 4))


def call(kind, stride, mesh=MESH, values=VALUES):
    """A run through the loop: 3 332 tip steps, or a block of penalty
    members, one for each of ``values``."""
    if kind == "penalty":
        members = [PenaltyParams(inv_eps=v, beta=0.2, dt=1.4e-5, T=0.03) for v in values]
        return run(TIGHT, mesh, members, kind="penalty", record_stride=stride)
    return [run(TIGHT, mesh, SchemeParams(0.5, 1.5e-5, 0.05), kind=kind, record_stride=stride)]


def checked_call(monkeypatch, kind, stride, mesh=MESH, values=VALUES):
    """The runs of :func:`call`, plain and then stepped under ``checked_loop``,
    whose records must be the plain runs' and whose ``stats`` must count the
    banded steps, block solves, products and bumped solves that the oracle
    makes; returns the plain runs and what the oracle saw."""
    plain = call(kind, stride, mesh, values)
    seen = checked_loop(monkeypatch)
    checked = call(kind, stride, mesh, values)
    for j, (p, c) in enumerate(zip(plain, checked, strict=True)):
        assert np.array_equal(p.records.view(np.int64), c.records.view(np.int64))
        stats = p.stats
        assert stats["banded_steps"] == seen["banded_steps"] == stats["solves"] == seen["solves"]
        assert stats["products"] == seen["products"] == 2 * stats["banded_steps"]
        assert stats["bumped_solves"] == seen["bumped_solves"].get(j, 0)
        assert stats["banded_steps"] == p.n_steps - 1
    return plain, seen


@pytest.mark.parametrize("stride", [1, 2, 7])
@pytest.mark.parametrize("block_samples", [None, 1], ids=["default-blocks", "16-row-blocks"])
#: the ids keep the ``-False`` ("no modal basis") of the names these cases
#: had when a run could also step in closed form; no run can now
@pytest.mark.parametrize("kind", ["signorini", "linear", "penalty"], ids=lambda kind: f"{kind}-False")
def test_the_loop_steps_as_the_oracle_bit_for_bit(monkeypatch, kind, block_samples, stride):
    """Every u, A u and F row that the loop writes equals the oracle's, in
    one call and row by row: signorini and linear runs, and a block of four
    penalty members that holds the 1e300 blow-up and a member with no
    spring, at the default and at 16-row load blocks
    (``fem.LOAD_BLOCK_SAMPLES = 1``), with the counts of
    :func:`checked_call`; and no penalty member makes its spring history
    twice in a step."""
    if block_samples is not None:
        monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", block_samples)
    plain, seen = checked_call(monkeypatch, kind, stride)
    if kind == "penalty":
        by_member = [p.stats["bumped_solves"] for p in plain]
        assert by_member[2] == 0 and min(by_member[:2] + by_member[3:]) > 0
        assert set(Counter(seen["histories"]).values()) == {1}
        assert not np.isfinite(plain[1].records).all() and all(np.isfinite(p.records).all() for p in plain[2:])
    if kind == "signorini":
        assert set(seen["cases"]) == {-1, 0, 1}


@pytest.mark.parametrize("kind, J, values", [
    ("signorini", 1, None), ("signorini", 2, None), ("penalty", 1, VALUES), ("penalty", 2, VALUES),
    ("penalty", 19, VALUES[:1]), ("penalty", 19, VALUES[:2])],
    ids=["signorini-J1", "signorini-J2", "penalty-J1", "penalty-J2", "penalty-k1", "penalty-k2"])
def test_edge_rows_and_small_blocks_step_as_the_oracle_bit_for_bit(monkeypatch, kind, J, values):
    """As above, on meshes of one and two elements, whose 2 and 4 rows are
    all edge rows of the band (J = 1 steps through the general copy of the
    kernels at bw 1, J = 2 through the unrolled copy at bw 3), and on
    penalty blocks of one member and of two, the second the 1e300 blow-up."""
    plain, seen = checked_call(monkeypatch, kind, 1, Mesh(1.501, J), values)
    if kind == "signorini":
        assert set(seen["cases"]) == {-1, 0, 1}
    else:
        assert [p.stats["bumped_solves"] > 0 for p in plain] == [v != 0.0 for v in values]
        assert [np.isfinite(p.records).all() for p in plain][:2] == [True, False][: len(plain)]
        assert set(Counter(seen["histories"]).values()) == {1}


def test_a_blown_up_member_leaves_the_others_as_their_own_loops_bit_for_bit():
    """A block of six penalty members, whose solve takes one group of four
    sides and then two single sides: the third member's rows of u^{n-1},
    u^n and A u^{n-1} hold +-inf and NaN, and the tips of the second, the
    fifth (which has no spring) and the sixth start past the upper stop, so
    that the second and the sixth make bumped solves.  Over three steps
    every other member's u, A u and F rows equal, in int64 views, those of
    its own loop of one member from its own rows, and the third member's
    are NaN.  So a member's products, solve and tip work read only its own
    entries."""
    gm = assemble(MESH, TIGHT)
    members = [PenaltyParams(inv_eps=v, beta=0.25, dt=1.5e-5, T=0.1)
               for v in (1e6, 1e7, 1e9, 1e8, 0.0, 1e9)]
    a = effective_matrix(gm.mass, gm.stiffness, members[0])
    b = transfer_matrix(gm.mass, gm.stiffness, members[0])
    c, ndof, k = DofMap(MESH.J).tip_disp, a.n, len(members)
    rng = np.random.default_rng(30)
    g = 1e-9 * rng.standard_normal((3, ndof))

    def loop(params):
        n = len(params) * ndof
        one = steploop.Loop(a, b, PenaltyTipSolver(a, c, -0.002, 0.002, params), np.zeros((5, n)),
                            np.zeros((5, n)), np.zeros((1, n)))
        one.load(g)
        return one

    start = 1e-9 * rng.standard_normal((3, k, ndof))  # u^{n-1}, u^n, A u^{n-1}
    start[:2, [1, 4, 5], c] = 0.003
    start[:, 2] = rng.choice([np.inf, -np.inf, np.nan], (3, ndof))
    block, solos = loop(members), [loop([p]) for p in members]
    block.u[0], block.u[1], block.au[0] = start.reshape(3, k * ndof)
    for solo, rows in zip(solos, start.transpose(1, 0, 2)):
        solo.u[0], solo.u[1], solo.au[0] = rows
    for r in range(2, 5):
        block.step(r, r + 1)
        for j, solo in enumerate(solos):
            solo.step(r, r + 1)
            pairs = [(block.u[r], solo.u[r]), (block.au[r], solo.au[r]), (block.f[0], solo.f[0])]
            assert j == 2 or all(same_bits(got.reshape(k, ndof)[j], want) for got, want in pairs)
    assert np.isnan(block.u[2:].reshape(3, k, ndof)[:, 2]).all()
    assert [solo.counts[3] > 0 for solo in solos] == [False, True, False, False, False, True]
    assert np.array_equal(block.counts[3:], [solo.counts[3] for solo in solos])


def csv_mismatches(records):
    """The lines where ``to_csv`` of a Trajectory holding ``records`` (6, n)
    differs from Python's ``'%.17g' % x`` of each cell, with the header and
    the final newline checked."""
    traj = dataclasses.replace(run(TIGHT, MESH, SchemeParams(0.5, 1.5e-5, 0.0)), records=records)
    text = traj.to_csv()
    assert text.startswith(Trajectory.CSV_HEADER + "\n") and text.endswith("\n")
    got = text[len(Trajectory.CSV_HEADER) + 1 : -1].split("\n") if records.shape[1] else []
    want = [",".join("%.17g" % x for x in row) for row in zip(*records.tolist())]
    assert len(got) == len(want)
    return [(g, w) for g, w in zip(got, want) if g != w]


def as_records(values):
    """``values`` as the rows of a (6, n) block, padded with zeros to a whole row."""
    values = np.asarray(values, dtype=np.float64).ravel()
    return np.concatenate([values, np.zeros(-len(values) % 6)]).reshape(6, -1)


def decimal_ties(rng, per_shift=100):
    """Doubles half way between two 17-digit decimals: m 2^-j, with m odd and
    below 2^53 and m 5^j of 18 digits, so that the exact expansion has 18
    significant digits ending in 5; j runs from 2 to 25, which spans 1e-8 to
    1e15, and m is drawn at random, so that the 17th digit is odd (the tie
    rounds up) about as often as even (it rounds down)."""
    ties = []
    for j in range(2, 26):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        ties += [int(m) / 2**j for m in 2 * rng.integers(lo // 2, hi // 2, per_shift) + 1]
    return np.array(ties)


def test_the_csv_cells_are_pythons_percent_17g_byte_for_byte():
    """``Trajectory.to_csv`` writes the bytes of Python's ``'%.17g' % x`` for
    every double: 1 000 002 random bit patterns (NaNs of either sign and any
    payload among them), normals spanning 1e-60 to 1e60, exact decimal ties
    of both signs rounding down and up (half to even), the ``nextafter``
    neighbours of 1e-5, 1e-4, 1e16, 1e17 and every 10^k from 1e-320 to 1e308
    (where the notation switches and the exponent takes three digits), random
    subnormals, the smallest normal and the largest double, +-0, +-inf and
    NaN of both signs."""
    rng = np.random.default_rng(31)
    patterns = rng.integers(-(2**63), 2**63, 1_000_002, dtype=np.int64).view(np.float64)
    normals = rng.standard_normal(60_000) * 10.0 ** rng.uniform(-60, 60, 60_000)
    ties = decimal_ties(rng)
    expansions = [decimal.Decimal(x).as_tuple().digits for x in ties]
    assert all(len(d) == 18 and d[-1] == 5 for d in expansions)
    up = sum(d[16] % 2 for d in expansions)
    assert 0.4 * len(ties) < up < 0.6 * len(ties)
    marks = [1e-5, 1e-4, 1e16, 1e17] + [float(f"1e{k}") for k in range(-320, 309)]
    neighbours = [np.nextafter(x, x * to) for x in marks for to in (-np.inf, np.inf)]
    neighbours = np.array(marks + neighbours + [np.nextafter(x, 0.0) for x in neighbours])
    subnormals = rng.integers(1, 2**52, 1_000, dtype=np.int64).view(np.float64)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                        2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                        0.5, 1.0, 123456789.0])
    flip = np.int64(-(2**63))  # the sign bit
    sets = [patterns] + [v for v in (normals, ties, neighbours, subnormals, special)
                         for v in (v, (v.view(np.int64) ^ flip).view(np.float64))]
    for signed in sets:
        bad = csv_mismatches(as_records(signed))
        assert not bad, f"{len(bad)} lines differ, the first: {bad[:3]}"


@pytest.mark.parametrize("rows", [0, 1, 601])
def test_a_trajectory_csv_of_0_1_and_601_rows_is_per_cell_formatting(rows):
    """Any record count, from records that are a strided view: the text is
    the header and one line per record, each ended by a newline."""
    rng = np.random.default_rng(rows)
    wide = rng.integers(-(2**63), 2**63, (6, 2 * rows), dtype=np.int64).view(np.float64)
    wide[:, ::5] = rng.standard_normal(wide[:, ::5].shape)
    records = wide[:, ::2]
    assert not records.flags.c_contiguous or rows < 2
    assert not csv_mismatches(records)


def test_the_csv_writer_refuses_records_that_are_not_a_2d_block():
    with pytest.raises(ValueError, match="needs \\(m, n\\) records"):
        steploop.csv_rows(np.zeros(6))


def test_the_loop_refuses_a_band_wider_than_its_kernels_hold():
    bw = steploop.MAX_BW + 1
    n = bw + 2
    a = BandedSpd(np.vstack([np.zeros((bw, n)), np.ones((1, n))]))
    with pytest.raises(ValueError, match=f"half-bandwidth at most {steploop.MAX_BW}"):
        steploop.Loop(a, a, PinnedDofSolver(a, 0, -1.0, 1.0), np.zeros((3, n)), np.zeros((3, n)),
                      np.zeros((1, n)))


def test_two_processes_build_into_an_empty_cache_and_load_one_file(tmp_path):
    """Two processes that import the package and build into one empty cache
    at once both succeed, and both load the file that is left there."""
    code = ("import ctypes, sys; from pathlib import Path; from beamstops import steploop; "
            "path = steploop.build(Path(sys.argv[1])); "
            "ctypes.CDLL(str(path)).beamstops_step_rows; print(path)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cache = tmp_path / "cache"
    children = [subprocess.Popen([sys.executable, "-c", code, str(cache)], env=env, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE) for _ in range(2)]
    outputs = [child.communicate(timeout=300) for child in children]
    assert [child.returncode for child in children] == [0, 0], outputs
    paths = {out.strip() for out, _ in outputs}
    assert len(paths) == 1
    built = Path(paths.pop())
    assert built.parent == cache and sorted(cache.iterdir()) == [built]


def test_a_build_removes_the_stale_builds_and_no_partial_file(tmp_path):
    """A build that compiles removes the shared objects of earlier sources
    from its cache, and leaves alone the partial file of a process that is
    still compiling; a build that finds its file compiles nothing and
    removes nothing."""
    stale = tmp_path / "steploop-0123456789abcdef.so"
    partial = tmp_path / "steploop-fedcba9876543210.so.4242.tmp"
    for planted in (stale, partial):
        planted.write_bytes(b"")
    built = steploop.build(tmp_path)
    assert sorted(tmp_path.iterdir()) == sorted([built, partial])
    stale.write_bytes(b"")
    assert steploop.build(tmp_path) == built and stale.exists()


def test_compiling_the_loop_peaks_under_60_mb(tmp_path):
    """A fresh checkout compiles the loop at its first import, inside the
    first run, and ``bench/run_bench.py``'s ``peak_rss_mb`` counts a run's
    children: the compiler's peak must stay below the workloads' own (the
    smallest, ``pipe``'s, is 62.8 MB on a 2-core x86-64 VM).  A fresh
    Python child that imports nothing else runs the build's compiler
    command into an empty cache, so that its children's peak is the
    compiler's (a child forked from a process that has imported numpy and
    scipy starts at that process's size, about 57 MB); it is under 60 MB
    (about 53.7 MB with this source)."""
    target = tmp_path / "steploop.so"
    code = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    command = [steploop.COMPILER, *steploop.FLAGS, "-o", str(target), str(steploop.SOURCE)]
    proc = subprocess.run([sys.executable, "-c", code, *command], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert ctypes.CDLL(str(target)).beamstops_step_rows
    assert 0 < int(proc.stdout) < 60 * 1024  # KiB


def test_without_the_compiler_the_build_raises_an_import_error_naming_it(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", "")
    with pytest.raises(ImportError, match="C compiler: 'gcc' could not be run"):
        steploop.build(tmp_path)
    assert not list(tmp_path.rglob("*.so"))


def test_importing_the_package_loads_no_build_tools():
    """With the loop built, ``import beamstops`` loads it and brings in no
    setuptools, distutils or cffi module."""
    code = ("import sys, beamstops; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('setuptools', 'distutils', 'cffi')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_cpu_without_fma_raises_an_import_error_naming_it():
    """The import checks that the CPU runs the kernels' FMA instructions
    (here it is told that it does not) and raises rather than dying on an
    illegal instruction."""
    code = ("import ctypes\n"
            "class NoFma(ctypes.CDLL):\n"
            "    def beamstops_has_fma(self):\n"
            "        return 0\n"
            "ctypes.CDLL = NoFma\n"
            "import beamstops\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert "ImportError: beamstops' step loop needs an x86-64 CPU with FMA" in proc.stderr


def under_core(core, *args):
    """A child process of this Python with scipy's OpenBLAS made to run the
    kernel set ``core`` (``OPENBLAS_CORETYPE``), from the repository's root."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=str(SRC)),
                          cwd=SRC.parent, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_under_scipys_unfused_kernel_sets_the_kernel_and_oracle_tests_pass(core):
    """The kernel sets of scipy's OpenBLAS for CPUs with FMA but without
    AVX-512 round each multiply-add in ddot and daxpy as a product and then
    a sum; with one of them forced, the loop takes it up, and this file's
    kernel tests (the banded product and solve, the loads, the audit
    figures and the energy's product), every oracle-loop case, the block
    of six with a blown-up member, and the block-isolation tests of
    ``test_steppers`` and ``test_cli`` pass in a child process."""
    proc = under_core(core, "-c", "from beamstops import steploop; print(steploop.CORE, steploop.FUSED)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [core, "False"]
    here = Path(__file__).parent
    proc = under_core(core, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
                      str(here / "test_steppers.py"), str(here / "test_cli.py"), "-k",
                      "round_as_scipys_openblas or as_the_oracle_bit_for_bit or "
                      "round_as_from_coefficients or as_scipys_product or as_their_own_loops or "
                      "test_members_stepped_as_one_block_match_their_own_runs or "
                      "test_sweep_member_failure_leaves_the_others_byte_identical")
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert re.search(r"^46 passed", proc.stdout, re.M), proc.stdout[-4000:]


def test_a_scipy_on_kernels_the_loop_does_not_round_as_raises_an_import_error_naming_them():
    proc = under_core("Nehalem", "-c", "import beamstops")
    assert proc.returncode != 0
    assert ("ImportError: beamstops' step loop rounds as scipy's OpenBLAS does with its "
            "SkylakeX, Haswell, Sandybridge kernels; scipy here runs Nehalem") in proc.stderr


def test_a_cache_that_cannot_be_written_raises_an_import_error_naming_it(tmp_path):
    """A build into a cache that cannot be made (here under a file) raises
    ImportError, not the OSError of the file system, and names the cache."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(ImportError, match=re.escape(f"into {blocker / 'cache'}, which could not be written")):
        steploop.build(blocker / "cache")
