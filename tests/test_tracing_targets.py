"""The benchmark tracer (bench/tracing.py) wraps program functions by name.

A target that no longer resolves is skipped silently and its per-layer
metrics read 0, so a rename in the program would zero a metric without
any failure.  These tests pin which targets resolve, that short runs
through each step closure make their steps (the tip closures in the
compiled loop, which the tracer cannot see into and which counts its own
work; PGS through the wrapped ``pgs_box``), and how many banded products a
run makes.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from beamstops import fem, linalg, steppers
from beamstops.fem import BeamModel, LoadAssembler, Mesh, SupportMotion
from beamstops.steppers import PenaltyParams, SchemeParams, run

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_except_the_removed_ones(tracing):
    """The removed ``BandedSpd.deleted``, and the Python tip steps, whose
    work the compiled loop now does, are missing."""
    def bound():
        return steppers.run, steppers.pgs_box, linalg.pgs_box, steppers.PenaltyTipSolver.__init__

    originals = bound()
    with tracing.Tracer() as tracer:
        assert steppers.pgs_box is linalg.pgs_box is not originals[1]
        assert steppers.PenaltyTipSolver.__init__ is not originals[3]
    assert tracer.missing == ["linalg.deleted", "linalg.pinned", "steppers.penalty"]
    assert bound() == originals


def test_step_closures_call_the_wrapped_solvers(tracing):
    """Each step closure of run() makes one step per step: PGS through the
    traced ``pgs_box``, the tip closures in the compiled loop, whose own
    counters the run reports as one banded step, one block solve and two
    products per step."""
    mesh = Mesh(1.0, 3)
    phi = SupportMotion.sine(0.3, 3.0)
    tip_stops = BeamModel.symmetric_stops(1.0, 1.0, 0.02, phi)
    band = BeamModel(k2=1.0, L=1.0, g_lower=lambda x: -0.01 - 0.05 * x,
                     g_upper=lambda x: 0.01 + 0.05 * x, phi=phi)
    n, dt = 20, 0.002
    runs = {
        "penalty": lambda: run(
            tip_stops, mesh, PenaltyParams(inv_eps=1e4, dt=dt, T=n * dt), kind="penalty"),
        "signorini": lambda: run(tip_stops, mesh, SchemeParams(0.5, dt, n * dt)),
        "pgs": lambda: run(band, mesh, SchemeParams(0.5, dt, n * dt)),
        "linear": lambda: run(
            BeamModel(k2=1.0, L=1.0, phi=phi), mesh, SchemeParams(0.5, dt, n * dt), kind="linear"),
        # four members stepped as one block: one solve per step for all of
        # them, and the energies of all their records in the same two calls
        "penalty block": lambda: run(tip_stops, mesh, [PenaltyParams(inv_eps=e, dt=dt, T=n * dt)
                                                       for e in (1e2, 1e3, 1e4, 1e5)], kind="penalty"),
    }

    # the n - 1 steps fit one load block: one energy call for the start
    # rows and one for the block's records
    assert LoadAssembler(mesh, tip_stops).block_rows >= n - 1
    for name, fn in runs.items():
        tracer = tracing.Tracer()
        with tracer:
            out = fn()
        count = dict(zip(tracer.names, np.bincount(np.array(tracer.name), minlength=len(tracer.names))))
        assert count["steppers.init_states"] == 1
        assert count["diagnostics.energy"] == 2
        stats = (out[0] if isinstance(out, list) else out).stats
        assert stats["banded_steps"] == n - 1, name
        assert stats["products"] == 2 * (n - 1)
        if name == "pgs":
            assert count["linalg.pgs"] == n - 1 and stats["solves"] == 0
        else:
            assert stats["solves"] == n - 1 and count.get("linalg.pgs", 0) == 0


def test_callable_stops_step_through_pgs(tracing):
    """Callable stops take PGS however many of their bounds are finite: an
    obstacle on node 10 of 19 alone makes one ``linalg.pgs`` span a step,
    never touches the pinned tip solver, and gives no audit."""
    mesh, n, dt = Mesh(1.501, 19), 20, 5e-5
    node = mesh.nodes[10]

    def stop(x):
        return 0.01 if x == node else np.inf

    model = BeamModel(k2=282.84, L=1.501, g_lower=lambda x: -stop(x), g_upper=stop,
                      phi=SupportMotion.sine(0.2, 10.0))
    tracer = tracing.Tracer()
    with tracer:
        traj = run(model, mesh, SchemeParams(0.5, dt, n * dt))
    count = dict(zip(tracer.names, np.bincount(np.array(tracer.name), minlength=len(tracer.names))))
    assert count["linalg.pgs"] == n - 1
    assert count.get("linalg.pinned", 0) == count.get("linalg.pinned.init", 0) == 0
    assert traj.audit is None


def test_loads_take_the_route_of_their_run(tracing, monkeypatch):
    """Every run makes one ``LoadAssembler.time_averaged`` call, one
    ``fem.loads`` span, per load block: for the window coefficients of
    signorini and linear runs without f_tilde, and for the sampled loads
    of penalty runs and of a callable f_tilde."""
    monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", 1)
    mesh = Mesh(1.0, 3)
    phi = SupportMotion.sine(0.3, 3.0)
    n, dt = 40, 0.002
    scheme = SchemeParams(0.5, dt, n * dt)

    def external(x, t):
        return 0.5 * np.cos(3.0 * x) * (1.0 + t)

    def models(f_tilde):
        tip = BeamModel.symmetric_stops(1.0, 1.0, 0.02, phi, f_tilde=f_tilde)
        band = BeamModel(k2=1.0, L=1.0, g_lower=lambda x: -0.01 - 0.05 * x,
                         g_upper=lambda x: 0.01 + 0.05 * x, phi=phi, f_tilde=f_tilde)
        free = BeamModel(k2=1.0, L=1.0, phi=phi, f_tilde=f_tilde)
        return tip, band, free

    def load_calls(fn):
        tracer = tracing.Tracer()
        with tracer:
            fn()
        return int(np.count_nonzero(np.array(tracer.name) == tracer.names.index("fem.loads")))

    def separable_calls(fn):
        seen = []
        time_averaged = LoadAssembler.time_averaged

        def spy(self, *args, separable=False, **kwargs):
            seen.append(separable)
            return time_averaged(self, *args, separable=separable, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(LoadAssembler, "time_averaged", spy)
            fn()
        return seen

    blocks = math.ceil((n + 1) / LoadAssembler(mesh, models(None)[0]).block_rows)
    assert blocks == 3
    tip, band, free = models(None)
    for fn in (lambda: run(tip, mesh, scheme), lambda: run(band, mesh, scheme),
               lambda: run(free, mesh, scheme, kind="linear")):
        assert load_calls(fn) == blocks
        assert separable_calls(fn) == [True] * blocks
    penalty = PenaltyParams(inv_eps=1e4, dt=dt, T=n * dt)
    ext_tip, ext_band, ext_free = models(external)
    sampled = (lambda: run(tip, mesh, penalty, kind="penalty"),
               lambda: run(ext_tip, mesh, scheme), lambda: run(ext_band, mesh, scheme),
               lambda: run(ext_free, mesh, scheme, kind="linear"))
    for fn in sampled:
        assert load_calls(fn) == blocks
        assert separable_calls(fn) == [False] * blocks


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("kind", ["signorini", "linear", "penalty"])
def test_run_makes_two_products_per_step_and_one_per_record(tracing, kind, stride):
    """A step forms B u^n and A u^{n+1}, and A u is carried with the state;
    the recorded energies of a load block add one product with S, stacked
    over the block's records, so a run makes at most one product per block
    and member on top of two per step.  The steps' products are made in the
    compiled loop, which counts them in the run's ``stats``; the tracer sees
    the others.  Products inside the stability check are set-up and not
    counted, as in the benchmark's ``linalg.matvecs_per_step``."""
    mesh = Mesh(1.0, 3)
    model = BeamModel.symmetric_stops(1.0, 1.0, 0.02, SupportMotion.sine(0.3, 3.0))
    n, dt = 40, 0.002
    if kind == "penalty":
        params = PenaltyParams(inv_eps=1e4, dt=dt, T=n * dt)
    else:
        params = SchemeParams(0.5, dt, n * dt)
    tracer = tracing.Tracer()
    with tracer:
        traj = run(model, mesh, params, kind=kind, record_stride=stride)
    # per-step ratio over one "step" is the count of stepping products
    traced = tracer.metrics({tracer.run_id: 1})[0]["linalg.matvecs_per_step"]
    blocks = math.ceil((n - 1) / LoadAssembler(mesh, model).block_rows)
    assert traj.t.size == math.ceil(n / stride) + 1
    assert traj.stats["products"] == 2 * traj.stats["banded_steps"]
    assert 0 < traced + traj.stats["products"] <= 2 * n + blocks + 4
