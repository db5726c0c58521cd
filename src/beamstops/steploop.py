"""The compiled step loop of :func:`beamstops.steppers.run`.

``steploop.c`` steps the rows of a load block for every run that closes its
steps at the tip (signorini runs with numeric stops, linear runs, and
penalty blocks of k members): per step the banded products B u^n, the
right-hand sides F^n, the tip closure and the banded products A u^{n+1},
in C, the products one member at a time.
The loads of signorini and linear runs without f_tilde come as each row's
two coefficients over :attr:`~beamstops.fem.LoadAssembler.basis`, which the
loop combines inside the right-hand side's pass; a signorini run also gets
the two figures per row that its :class:`~beamstops.diagnostics.ContactAudit`
reduces.  Its banded product and Cholesky solve are its own kernels,
``beamstops_sbmv`` and ``beamstops_pbtrs`` of :data:`library`, which make
the roundings of the OpenBLAS ``dsbmv`` and the LAPACK ``dpbtrs`` that
:meth:`~beamstops.linalg.BandedSpd.matvec` and
:meth:`~beamstops.linalg.BandedCholesky.solve` call through scipy, in a
faster order, and the rest makes numpy's roundings, so its rows are those
of the same steps made from Python, bit for bit.  The fold's energies take
the product kernel too, row by row (:func:`sbmv`).  Those roundings depend
on the kernels that scipy's OpenBLAS picks for the CPU (:data:`CORE`); the
loop makes those of each kernel set in :data:`FUSED_TAILS`.  The set-up
(the factors, the bands) still goes through scipy.

The kernels are x86-64 code with FMA instructions.  The first import
compiles the source with ``gcc`` in a child process, into ``_build/``
beside this file, under a name keyed by the SHA-256 of the source, the
flags and the Python ABI tag; later imports load that file.  A build
removes the shared objects that earlier sources left there.  Without the
compiler, on another architecture, on a CPU without FMA or with a scipy
whose BLAS runs other kernels the import raises :class:`ImportError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import sysconfig
from pathlib import Path

import numpy as np

from .linalg import BandedSpd, PinnedDofSolver

SOURCE = Path(__file__).with_name("steploop.c")
CACHE = Path(__file__).with_name("_build")
COMPILER = "gcc"
#: No -ffast-math and no -march=native: the loop must round as numpy does.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: The kernels round as OpenBLAS's while each band column is shorter than the
#: 16 entries from which its ddot and daxpy take their vector paths.
MAX_BW = 14


def build(cache: Path = CACHE) -> Path:
    """The shared object of ``steploop.c`` in ``cache``, compiled first if it is not there.

    The compiler writes to a name of this process's own, which is then
    renamed into place, so that processes that build at once all succeed;
    then every other ``steploop-*.so`` in ``cache``, built from an earlier
    source, is removed.  A cache that cannot be written raises
    :class:`ImportError` naming it.
    """
    tag = sysconfig.get_config_var("SOABI") or ""
    key = hashlib.sha256(b"\0".join([SOURCE.read_bytes(), " ".join(FLAGS).encode(), tag.encode()]))
    target = Path(cache) / f"steploop-{key.hexdigest()[:16]}.so"
    if target.exists():
        return target
    import subprocess

    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            proc = subprocess.run([COMPILER, *FLAGS, "-o", str(partial), str(SOURCE)],
                                  capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(f"beamstops compiles its step loop at first import and needs a C "
                              f"compiler: {COMPILER!r} could not be run ({exc})") from exc
        if proc.returncode != 0:
            partial.unlink(missing_ok=True)
            raise ImportError(f"{COMPILER} could not compile {SOURCE} into {target.parent}:\n"
                              f"{proc.stderr}")
        os.replace(partial, target)
        for stale in target.parent.glob("steploop-*.so"):
            if stale != target:
                stale.unlink(missing_ok=True)
    except OSError as exc:
        raise ImportError(f"beamstops compiles its step loop at first import into "
                          f"{target.parent}, which could not be written ({exc})") from exc
    return target


def blas_core() -> str:
    """The kernel set of scipy's OpenBLAS, as its ``scipy_openblas_get_corename``
    names it (``"SkylakeX"``, ``"Haswell"``, ...), which fixes its roundings.
    OpenBLAS picks it for the CPU, or as ``OPENBLAS_CORETYPE`` names it."""
    import scipy.linalg

    try:
        get = ctypes.CDLL(scipy.linalg._fblas.__file__).scipy_openblas_get_corename
    except (AttributeError, OSError):
        return "a BLAS other than scipy-openblas"
    get.restype = ctypes.c_char_p
    return get().decode()


#: Per kernel set of scipy's OpenBLAS that the loop rounds as, whether its
#: ``ddot`` and ``daxpy`` fuse each multiply-add into one rounding (SkylakeX,
#: built for AVX-512) or round the product and then the sum (Haswell and
#: Sandybridge, which the other CPUs with FMA run, AMD's among them).
FUSED_TAILS = {"SkylakeX": True, "Haswell": False, "Sandybridge": False}

#: The loaded shared object; besides the loop it exports its kernels for the
#: tests: ``beamstops_sbmv(fused, k, n, bw, a, x, y)``,
#: ``beamstops_pbtrs(fused, n, bw, u, b, k, ldb)``,
#: ``beamstops_loads(rows, n, c, basis, g)`` and
#: ``beamstops_figures(rows, n, tip, au, f, out)``.
library = ctypes.CDLL(str(build()))
if not library.beamstops_has_fma():
    raise ImportError("beamstops' step loop needs an x86-64 CPU with FMA instructions, "
                      "which this CPU does not report")
#: The kernel set of scipy's OpenBLAS, one of :data:`FUSED_TAILS`.
CORE = blas_core()
if CORE not in FUSED_TAILS:
    raise ImportError(f"beamstops' step loop rounds as scipy's OpenBLAS does with its "
                      f"{', '.join(FUSED_TAILS)} kernels; scipy here runs {CORE}")
FUSED = FUSED_TAILS[CORE]
_step_rows = library.beamstops_step_rows
_step_rows.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_int)
_step_rows.restype = None
_sbmv = library.beamstops_sbmv
_sbmv.argtypes = (ctypes.c_int,) * 4 + (ctypes.c_void_p,) * 3
_sbmv.restype = None


def sbmv(band: BandedSpd, x: np.ndarray, out: np.ndarray) -> None:
    """Each row of ``out`` = A times that row of ``x``, by the loop's product
    kernel, which rounds each as ``band.matvec`` does; ``x`` and ``out`` are
    C-contiguous float64 (m, ``band.n``) arrays."""
    if not (band.bw <= MAX_BW and band.ab.flags.f_contiguous and x.ndim == 2
            and x.shape == out.shape and x.shape[1] == band.n
            and all(v.dtype == np.float64 and v.flags.c_contiguous for v in (x, out))):
        raise ValueError(f"the product kernel needs contiguous float64 rows of the band's "
                         f"size and a half-bandwidth at most {MAX_BW}")
    _sbmv(FUSED, len(x), band.n, band.bw, band.ab.ctypes.data, x.ctypes.data, out.ctypes.data)


class _Context(ctypes.Structure):
    """``loop_t`` of ``steploop.c``."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "u", "au", "f", "g", "basis", "figures",
        "a_band", "b_band", "factor", "w", "inv_eps", "bump", "bumped", "counts")] + [
        (name, ctypes.c_double) for name in ("lower", "upper", "dt2", "beta")] + [
        (name, ctypes.c_int32) for name in ("n", "ndof", "k", "bw", "tip", "fused")]


class Loop:
    """One run's context of the compiled loop, built once per run.

    ``u`` and ``au`` are the run's (rows, k 2J) block buffers, whose rows
    hold the k members' states one after another, and ``f`` its one
    (1, k 2J) F row, which every step reuses.  ``a_band`` and ``b_band`` are
    A and B, which every member's products take; ``solver`` is the run's
    :class:`~beamstops.linalg.PinnedDofSolver` or
    :class:`~beamstops.linalg.PenaltyTipSolver`, whose factors and vectors
    the loop reads.  With ``figures``, a (rows, 2) buffer, a pinned step
    writes into its row the two figures of its residual A u^{n+1} - F^n that
    :meth:`~beamstops.diagnostics.ContactAudit.update` takes: the reaction
    at the tip and the largest |residual| off it.  ``counts`` holds the
    banded steps, block solves and banded products made so far, then each
    member's bumped solves.
    """

    def __init__(self, a_band: BandedSpd, b_band: BandedSpd, solver, u: np.ndarray,
                 au: np.ndarray, f: np.ndarray, figures: np.ndarray | None = None):
        pinned = isinstance(solver, PinnedDofSolver)
        k = 1 if pinned else len(solver.members)
        rows, n = u.shape
        factor = solver.full_factor
        buffers = [u, au, f] + ([] if figures is None else [figures])
        if not (au.shape == u.shape and f.shape == (1, n)
                and (figures is None or pinned and figures.shape == (rows, 2))
                and a_band.n == b_band.n == factor.n and n == k * factor.n
                and a_band.bw == b_band.bw == factor.bw <= MAX_BW
                and all(x.flags.f_contiguous for x in (a_band.ab, b_band.ab, factor.cb))
                and all(x.dtype == np.float64 and x.flags.c_contiguous for x in buffers)):
            raise ValueError(f"the step loop needs matching float64 buffers and bands "
                             f"of half-bandwidth at most {MAX_BW}")
        self.a_band, self.b_band, self.solver = a_band, b_band, solver
        self.u, self.au, self.f, self.figures = u, au, f, figures
        # every array that the loop reads by address, kept with the loop should
        # the solver's or the bands' attributes be replaced
        self._held = [a_band.ab, b_band.ab, factor.cb]
        self.g = self.loads = None
        self.counts = np.zeros(3 + k, dtype=np.int64)
        ctx = _Context(u=u.ctypes.data, au=au.ctypes.data, f=f.ctypes.data,
                       figures=None if figures is None else figures.ctypes.data,
                       a_band=a_band.ab.ctypes.data, b_band=b_band.ab.ctypes.data,
                       factor=factor.cb.ctypes.data, counts=self.counts.ctypes.data,
                       lower=solver.lower, upper=solver.upper, n=n, ndof=factor.n,
                       k=k, bw=a_band.bw, tip=solver.index, fused=FUSED)
        if pinned:
            w = np.ascontiguousarray(solver.w, dtype=np.float64)
            self._held.append(w)
            ctx.w = w.ctypes.data
        else:
            inv_eps = np.array([value for value, _, _ in solver.members])
            bump = np.array([bump for _, bump, _ in solver.members])
            bumped = [b.cb for _, _, b in solver.members]
            if not all(b.flags.f_contiguous and b.shape == factor.cb.shape for b in bumped):
                raise ValueError("the step loop needs bumped factors shaped as A's")
            table = (ctypes.c_void_p * k)(*(b.ctypes.data for b in bumped))
            self._held += [inv_eps, bump, *bumped, table]
            ctx.inv_eps, ctx.bump, ctx.bumped = inv_eps.ctypes.data, bump.ctypes.data, ctypes.addressof(table)
            ctx.dt2, ctx.beta = solver.dt2, solver.beta
        self._ctx, self._address = ctx, ctypes.addressof(ctx)

    def load(self, g: np.ndarray, loads=None) -> None:
        """Take a load block's rows dt^2 G^n, of 2J entries that every member
        adds: row r - 2 serves the step of row r.

        With ``loads``, the run's :class:`~beamstops.fem.LoadAssembler`, ``g``
        holds each row's (rows, 2) coefficients over ``loads.basis``, and each
        step forms its row as
        :meth:`~beamstops.fem.LoadAssembler.from_coefficients` does, in the
        pass that forms F^n.
        """
        ndof = self.a_band.n
        basis = None if loads is None else loads.basis
        if not (g.dtype == np.float64 and g.flags.c_contiguous and g.ndim == 2
                and g.shape[1] == (ndof if basis is None else 2)
                and (basis is None or basis.shape == (2, ndof) and basis.dtype == np.float64
                     and basis.flags.c_contiguous)):
            raise ValueError("the step loop needs the loads as float64 rows of 2J entries, "
                             "or as rows of two coefficients over a basis of 2J entries")
        self.g, self.loads = g, loads
        self._ctx.g = g.ctypes.data
        self._ctx.basis = None if basis is None else basis.ctypes.data

    def step(self, r: int, rows: int) -> None:
        """Step rows r .. rows - 1 (r >= 2) of the buffers from the loads of :meth:`load`."""
        if not 2 <= r < rows <= min(len(self.u), len(self.g) + 2):
            raise ValueError(f"rows {r} .. {rows - 1} are not in the block")
        _step_rows(self._address, r, rows)
