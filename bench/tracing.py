"""Traced runs: timing wrappers around each beamstops module's public functions.

The wrappers are installed from outside the program.  Each call becomes
a span ``(name, start, end, parent, run id)`` kept in flat in-memory
arrays; after the run they are written out and reduced to per-layer
counts and self times (a span's duration minus the time its child spans
cover).  Where a module imported a wrapped function under its own name,
that binding is replaced too, or its calls would not be seen.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("config", "fem", "linalg", "stability", "steppers", "diagnostics", "cli")

#: (span name, module, attribute) of every wrapped function.  A missing
#: attribute is skipped, so its metrics read 0 once the program drops it.
TARGETS = (
    ("config.parse", "beamstops.config", "parse_config"),
    ("config.override", "beamstops.config", "override"),
    ("config.build_model", "beamstops.config", "build_model"),
    ("config.build_params", "beamstops.config", "build_params"),
    ("config.run_kwargs", "beamstops.config", "run_kwargs"),
    ("fem.assemble", "beamstops.fem", "assemble"),
    ("fem.box", "beamstops.fem", "BeamModel.box"),
    ("fem.interpolate", "beamstops.fem", "interpolate_profile"),
    ("fem.loads.init", "beamstops.fem", "LoadAssembler.__init__"),
    ("fem.loads", "beamstops.fem", "LoadAssembler.time_averaged"),
    ("linalg.lincomb", "beamstops.linalg", "BandedSpd.lincomb"),
    ("linalg.matvec", "beamstops.linalg", "BandedSpd.matvec"),
    ("linalg.deleted", "beamstops.linalg", "BandedSpd.deleted"),
    ("linalg.bump", "beamstops.linalg", "BandedSpd.with_diagonal_bump"),
    ("linalg.cholesky", "beamstops.linalg", "cholesky"),
    ("linalg.solve", "beamstops.linalg", "BandedCholesky.solve"),
    ("linalg.pinned.init", "beamstops.linalg", "PinnedDofSolver.__init__"),
    ("linalg.pinned", "beamstops.linalg", "PinnedDofSolver.solve_with_case"),
    ("linalg.pgs", "beamstops.linalg", "pgs_box"),
    ("linalg.eig", "beamstops.linalg", "max_generalized_eig"),
    ("stability.check_model", "beamstops.stability", "check"),
    ("stability.check", "beamstops.stability", "check_matrices"),
    ("steppers.run", "beamstops.steppers", "run"),
    ("steppers.init_states", "beamstops.steppers", "init_states"),
    ("steppers.penalty.init", "beamstops.steppers", "PenaltyTipSolver.__init__"),
    ("steppers.penalty", "beamstops.steppers", "PenaltyTipSolver.advance"),
    ("diagnostics.energy", "beamstops.diagnostics", "discrete_energy"),
    ("diagnostics.audit", "beamstops.diagnostics", "ContactAudit.update"),
    ("diagnostics.compare", "beamstops.diagnostics", "compare_runs"),
    ("diagnostics.summary_csv", "beamstops.diagnostics", "RunComparison.to_csv"),
    ("cli.main", "beamstops.cli", "main"),
    ("cli.run", "beamstops.cli", "cmd_run"),
    ("cli.sweep", "beamstops.cli", "cmd_sweep"),
    ("cli.sweep_child", "beamstops.cli", "_sweep_child"),
    # trajectory CSV output, written by the cli commands
    ("cli.to_csv", "beamstops.steppers", "Trajectory.to_csv"),
)

#: Zero-length spans that count events inside a call rather than calls.
PGS_SWEEP = "linalg.pgs.sweep"
#: Spans whose descendants are set-up work, not steps.
SETUP_SPANS = ("linalg.eig", "stability.check_model", "stability.check")


def program_modules():
    """The loaded beamstops modules, whose imported names may need rebinding."""
    return [m for n, m in list(sys.modules.items()) if n == "beamstops" or n.startswith("beamstops.")]


class Tracer:
    """Installs the wrappers on enter, restores the program on exit.

    Spans accumulate over repeated ``with`` blocks.  Set :attr:`run_id`
    before each invocation; spans record it.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter
        open_span = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def _wrap_pgs(self, fn, name: str):
        """pgs_box, with its ``callback`` hook counting sweeps as zero-length spans."""
        sweep = self._name_id(PGS_SWEEP)
        clock = time.perf_counter

        def count_sweep(_u):
            idx = self._open(sweep)
            self.start[idx] = self.end[idx] = clock()
            self._stack.pop()

        def with_counter(*args, **kwargs):
            if len(args) < 7 and kwargs.get("callback") is None:
                kwargs["callback"] = count_sweep
            return fn(*args, **kwargs)

        return self._wrap(functools.wraps(fn)(with_counter), name)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.missing = []
        for name, modname, qual in TARGETS:
            module = importlib.import_module(modname)
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            wrap = self._wrap_pgs if name == "linalg.pgs" else self._wrap
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(wrap(raw.__func__, name)))
                continue
            wrapped = wrap(raw, name)
            self._patch(owner, attr, wrapped)
            if owner is module:
                for other in program_modules():
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            self._patch(other, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def save(self, path: Path, **meta) -> None:
        """Write the spans (and ``meta``, e.g. seed and environment) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name),
            parent=np.array(self.parent),
            run=np.array(self.run),
            start=np.array(self.start),
            end=np.array(self.end),
            meta=np.array(repr(meta)),
        )

    def metrics(self, steps_by_run: dict[int, int]) -> list[dict[str, float]]:
        """Per-layer metrics of each traced run, in ``steps_by_run`` order.

        Besides the named metrics, every layer gets ``<layer>.calls`` and
        ``<layer>.self_s``.  Units are declared in BENCHMARK.json.
        """
        name, parent, run = np.array(self.name), np.array(self.parent), np.array(self.run)
        dur = np.array(self.end) - np.array(self.start)
        n, k = name.size, len(self.names)
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=n)
        solve = self.names.index("linalg.solve") if "linalg.solve" in self.names else -1
        is_solve = child & (name == solve)
        solves_inside = np.bincount(parent[is_solve], minlength=n)
        # Solves and matvecs of the power iteration and stability check are
        # set-up work; the per-step ratios count only the stepping loop's.
        setup_ids = [i for i, nm in enumerate(self.names) if nm in SETUP_SPANS]
        in_setup = np.isin(name, setup_ids)
        ancestor = parent.copy()
        while np.any(ancestor >= 0):
            up = ancestor >= 0
            in_setup[up] |= np.isin(name[ancestor[up]], setup_ids)
            ancestor[up] = parent[ancestor[up]]

        out = []
        for r, steps in steps_by_run.items():
            mine = run == r
            calls = np.bincount(name[mine], minlength=k)
            selfs = np.bincount(name[mine], weights=self_time[mine], minlength=k)

            stepping = np.bincount(name[mine & ~in_setup], minlength=k)

            def c(span, counts=calls):
                return int(counts[self.names.index(span)]) if span in self.names else 0

            def s(span):
                return float(selfs[self.names.index(span)]) if span in self.names else 0.0

            def two_solve_share(span):
                if span not in self.names:
                    return 0.0
                spans = mine & (name == self.names.index(span))
                return float(np.mean(solves_inside[spans] >= 2)) if spans.any() else 0.0

            m = {}
            for layer in LAYERS:
                ids = [i for i, nm in enumerate(self.names)
                       if nm.split(".")[0] == layer and nm != PGS_SWEEP]
                m[f"{layer}.calls"] = int(calls[ids].sum())
                m[f"{layer}.self_s"] = float(selfs[ids].sum())
            per_step = 1.0 / steps
            pgs_calls = c("linalg.pgs")
            m.update({
                "fem.loads.calls": c("fem.loads"),
                "fem.loads.self_s": s("fem.loads"),
                "fem.loads.us_per_step": 1e6 * s("fem.loads") * per_step,
                "fem.assemble.self_s": s("fem.assemble"),
                "linalg.solves_per_step": c("linalg.solve", stepping) * per_step,
                "linalg.matvecs_per_step": c("linalg.matvec", stepping) * per_step,
                "linalg.pinned.self_s": s("linalg.pinned"),
                # a pinned solve whose tip left the box makes a second solve
                "linalg.pinned.contact_ratio": two_solve_share("linalg.pinned"),
                "linalg.factorizations": c("linalg.cholesky"),
                "linalg.deleted.self_s": s("linalg.deleted"),
                "linalg.eig.self_s": s("linalg.eig"),
                "linalg.pgs.calls": pgs_calls,
                "linalg.pgs.self_s": s("linalg.pgs"),
                "linalg.pgs.sweeps_per_call": c(PGS_SWEEP) / pgs_calls if pgs_calls else 0.0,
                "stability.check.calls": c("stability.check"),
                "steppers.run.self_us_per_step": 1e6 * s("steppers.run") * per_step,
                "steppers.penalty.self_s": s("steppers.penalty"),
                "steppers.penalty.bumped_ratio": two_solve_share("steppers.penalty"),
                "diagnostics.audit.self_s": s("diagnostics.audit"),
                "diagnostics.energy.calls": c("diagnostics.energy"),
                "diagnostics.energy.self_s": s("diagnostics.energy"),
                "cli.to_csv.self_s": s("cli.to_csv"),
            })
            out.append(m)
        return out
