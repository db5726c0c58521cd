"""The compiled step loop (``beamstops.steploop``): every step against the
Python oracle loop of ``oracles``, bit for bit, the run's counters against
the oracle's, and the build at first import."""

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from beamstops import fem, steploop
from beamstops.fem import BeamModel, Mesh, SupportMotion
from beamstops.steppers import PenaltyParams, SchemeParams, run
from oracles import checked_loop

#: stops at +-2 mm, first reached at t = 0.0068 s
TIGHT = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
MESH = Mesh(1.501, 19)
#: the penalty block: 1e300 blows up at step 543, 0.0 has no spring
VALUES = [1e6, 1e300, 0.0, 1e9]
SRC = Path(steploop.__file__).resolve().parents[1]


def call(kind, stride):
    """A run through the loop: 3 332 tip steps at J=19, or a block of four
    penalty members."""
    if kind == "penalty":
        members = [PenaltyParams(inv_eps=v, beta=0.2, dt=1.4e-5, T=0.03) for v in VALUES]
        return run(TIGHT, MESH, members, kind="penalty", record_stride=stride)
    return [run(TIGHT, MESH, SchemeParams(0.5, 1.5e-5, 0.05), kind=kind, record_stride=stride)]


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
    (``fem.LOAD_BLOCK_SAMPLES = 1``).  The run's ``stats`` count the banded
    steps, block solves, products and bumped solves that the oracle makes,
    the records of the checked run are the plain run's, and no penalty
    member makes its spring history twice in a step."""
    if block_samples is not None:
        monkeypatch.setattr(fem, "LOAD_BLOCK_SAMPLES", block_samples)
    plain = call(kind, stride)
    seen = checked_loop(monkeypatch)
    checked = call(kind, stride)
    for j, (p, c) in enumerate(zip(plain, checked, strict=True)):
        assert np.array_equal(p.records.view(np.int64), c.records.view(np.int64))
        stats = p.stats
        assert stats["banded_steps"] == seen["banded_steps"] == stats["solves"] == seen["solves"]
        assert stats["products"] == seen["products"] == 2 * stats["banded_steps"]
        assert stats["bumped_solves"] == seen["bumped_solves"].get(j, 0)
        assert stats["banded_steps"] == p.n_steps - 1
    if kind == "penalty":
        by_member = [p.stats["bumped_solves"] for p in plain]
        assert by_member[2] == 0 and min(by_member[:2] + by_member[3:]) > 0
        assert set(Counter(seen["histories"]).values()) == {1}
        assert not np.isfinite(plain[1].records).all() and all(np.isfinite(p.records).all() for p in plain[2:])
    if kind == "signorini":
        assert set(seen["cases"]) == {-1, 0, 1}


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


def test_a_cache_that_cannot_be_written_raises_an_import_error_naming_it(tmp_path):
    """A build into a cache that cannot be made (here under a file) raises
    ImportError, not the OSError of the file system, and names the cache."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(ImportError, match=re.escape(f"into {blocker / 'cache'}, which could not be written")):
        steploop.build(blocker / "cache")
