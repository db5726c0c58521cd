"""Print one digest line for each run of a fixed list of beamstops cases.

    python3 tools/output_digests.py SRC_DIR > digests.txt

SRC_DIR is the ``src`` directory of the checkout to run; it prints 475
lines in about 14 s.  Running it on two checkouts and diffing the outputs
shows whether a change kept every trajectory bit for bit.  A line names
the case and then gives the SHA-256 of ``to_csv()``, the row count, the
extrema, the tip's range, the contact episodes, ``repr(audit)`` and the
stability verdict, or the type and text of the error the run raised.
There is no golden file: the step loop and the fold's energies (through
the loop's product kernel) round as the kernels that scipy's OpenBLAS
picks for the CPU (or as ``OPENBLAS_CORETYPE`` names), and the set-up goes
through scipy's BLAS and LAPACK, so the last bits depend on the BLAS build
and its kernel set, and only two checkouts on one machine, under one
kernel set, compare.

The cases cover signorini, linear and penalty runs, penalty members
stepped as one block (one of them holds a zero-stiffness member; a block of
six, whose solves go as a group of four sides and two single sides, has a
member that turns NaN inside the group of four),
blow-ups, a penalty member whose bumped factor gives the wrong contact
branch (alone and in a block), criterion 8's penalty run cut to T = 0.1
(200 000 steps whose long free stretches span hundreds of load blocks, and
thousands of 16-row ones), a raising PGS step, before and after a PGS
state turns NaN, the forced PGS obstacle,
a callable load, T = 0, one-step runs, a start at rest on a stop and a
non-finite starting pair, at strides 1 to 7, 20 and 40; and for the
contact path the stops pick, signorini without stops (g = inf), an
unforced PGS obstacle and a callable obstacle that bounds one node
alone; and long runs at J=19, over several load blocks: the README run
cut to T = 0.15, 0.05 s runs between the 2 mm stops with and without a
callable load, a start on a stop and a beta = 0.3 run; and the README run
at J=320 cut to T = 0.15 at stride 2, the benchmark's fine mesh, whose
default blocks (64 rows) differ from J=19's (431 rows).  Linear runs step
through the pinned tip solver with open stops, so they cover its free
case.  Each runs at the default load blocks and at 16-row blocks
(``fem.LOAD_BLOCK_SAMPLES = 1``).  The wrong branch and the failing PGS
steps are the fault injectors of ``tests/faults.py``, which the tests
share; they alter the solvers that the checkout builds and wrap its
``pgs_box``, so the tool also runs on another checkout's ``src``.  The last
line digests the CSV of records that hold no run's values: decimal ties
that round down and up, the neighbours of every power of ten, subnormals
and the special values, so that it pins the CSV formatter's bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
from pathlib import Path
from unittest.mock import patch

# the checkout to run comes first, so that the tests' fault injectors import it
sys.path[:0] = [str(Path(sys.argv[1]).resolve()), str(Path(__file__).resolve().parents[1] / "tests")]

import numpy as np  # noqa: E402
from faults import failing_pgs, wrong_branch_init  # noqa: E402

from beamstops import fem, steppers  # noqa: E402
from beamstops.fem import BeamModel, DofMap, Mesh, SupportMotion  # noqa: E402
from beamstops.steppers import PenaltyParams, PenaltyTipSolver, SchemeParams, run  # noqa: E402

MESH = Mesh(1.501, 19)
#: the README model: stops at +-0.1 m; beta = 0 at dt >= 1e-4 blows it up
PIPE = BeamModel.symmetric_stops(282.84, 1.501, 0.1, SupportMotion.sine(0.2, 10.0))
#: stops at +-2 mm, first reached at t = 0.0068 s
TIGHT = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
TIGHT_LOADED = dataclasses.replace(TIGHT, f_tilde=lambda x, t: 2.0 * np.cos(15.0 * t) * x / 1.501)

#: (beta, dt, inv_eps values) of the penalty blocks: none fails; 1e300 turns
#: NaN between two records; 1e9 blows up at beta = 0.1
OUTCOMES = [
    (0.25, 1.5e-5, [1e6, 1e7, 1e8, 1e9]),
    (0.2, 1.4e-5, [1e6, 1e300, 1e9]),
    (0.1, 1.2e-5, [1e12, 1e9, 1e6]),
]


def members(beta, dt, values, T=0.03):
    return [PenaltyParams(inv_eps=v, beta=beta, dt=dt, T=T) for v in values]


def describe(result) -> str:
    if isinstance(result, Exception):
        return f"error {type(result).__name__}: {result}"
    sha = hashlib.sha256(result.to_csv().encode()).hexdigest()
    return (f"{sha} rows={result.t.size} max_abs_tip={result.max_abs_tip!r} "
            f"max_violation={result.max_violation!r} tip_min={result.tip_min!r} "
            f"tip_max={result.tip_max!r} contact_episodes={result.contact_episodes} "
            f"audit={result.audit!r} stability={result.stability.verdict}")


def outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error is the case's output
        return exc


def emit(case: str, call) -> None:
    """Print the case's digest line, one per member of a penalty block."""
    out = outcome(call)
    if isinstance(out, list):
        for j, result in enumerate(out):
            print(f"{case}[{j}] {describe(result)}")
    else:
        print(f"{case} {describe(out)}")


def penalty_cases(blocks: str) -> None:
    for i, (beta, dt, values) in enumerate(OUTCOMES):
        params = members(beta, dt, values)
        for stride in (1, 2, 3, 5, 7) if i == 1 else (1, 7):
            for p in params:
                emit(f"{blocks} outcome{i} {p.inv_eps:g} stride={stride}",
                     lambda p=p: run(TIGHT, MESH, p, kind="penalty", record_stride=stride))
            emit(f"{blocks} outcome{i} block stride={stride}",
                 lambda: run(TIGHT, MESH, params, kind="penalty", record_stride=stride))
    params = members(*OUTCOMES[1])
    with patch.object(PenaltyTipSolver, "__init__", wrong_branch_init(1e6)):
        for stride in (2, 3, 5):
            emit(f"{blocks} wrong-branch 1e6 stride={stride}",
                 lambda: run(TIGHT, MESH, params[0], kind="penalty", record_stride=stride))
            emit(f"{blocks} wrong-branch block stride={stride}",
                 lambda: run(TIGHT, MESH, params, kind="penalty", record_stride=stride))
    # criterion 8's run cut to T = 0.1: free from the start to the first contacts near t = 0.088 s
    criterion_8 = PenaltyParams(inv_eps=1e8, beta=0.25, dt=5e-7, T=0.1)
    emit(f"{blocks} criterion-8 1e8", lambda: run(PIPE, MESH, criterion_8, kind="penalty"))
    # a zero spring is -0.0 * excess past a stop, which leaves a -0.0 entry of F as it is
    zero = members(0.25, 1.5e-5, [0.0, 1e7])
    six = members(0.2, 1.4e-5, [1e6, 1e7, 1e300, 1e9, 0.0, 1e8])
    for stride in (1, 7):
        emit(f"{blocks} zero-stiffness block stride={stride}",
             lambda: run(TIGHT, MESH, zero, kind="penalty", record_stride=stride))
        emit(f"{blocks} six-member block stride={stride}",
             lambda: run(TIGHT, MESH, six, kind="penalty", record_stride=stride))


def blow_up_cases(blocks: str) -> None:
    for kind in ("linear", "signorini"):
        # at dt = 1e-4 the first non-finite record at stride 1 (68 linear, 71
        # signorini) falls in a 16-row block without a record at strides 20 and 40
        for dt in (1e-3, 1e-4):
            for stride in (1, 5, 20, 40):
                emit(f"{blocks} blow-up {kind} dt={dt:g} stride={stride}",
                     lambda: run(PIPE, MESH, SchemeParams(0.0, dt, 0.5), kind=kind, force=True,
                                 record_stride=stride))
    band = lambda x: 0.02 + 0.06 * np.asarray(x, dtype=float)  # noqa: E731
    obstacle = BeamModel(k2=282.84, L=1.501, g_lower=lambda x: -band(x), g_upper=band,
                         phi=SupportMotion.sine(0.2, 10.0))
    pgs = SchemeParams(0.5, 1e-3, 0.5)
    # a step that raises; a NaN state at step 60, after which step 61 raises
    # unless a record has seen the NaN first (at stride 1, not at stride 5)
    with patch.object(steppers, "pgs_box", failing_pgs(raise_at=100)):
        emit(f"{blocks} raising pgs", lambda: run(obstacle, Mesh(1.501, 8), pgs))
    for stride in (1, 5):
        with patch.object(steppers, "pgs_box", failing_pgs(nan_at=60)):
            emit(f"{blocks} nan pgs stride={stride}",
                 lambda: run(obstacle, Mesh(1.501, 8), pgs, record_stride=stride))
    for stride in (1, 5):
        emit(f"{blocks} forced pgs stride={stride}",
             lambda: run(obstacle, Mesh(1.501, 8), SchemeParams(0.0, 1e-3, 0.5), force=True,
                         record_stride=stride))


def stride_cases(blocks: str) -> None:
    dt = 1.5e-5
    for stride in (1, 2, 3, 4, 5, 6, 7, 20, 40):
        for kind in ("signorini", "linear"):
            emit(f"{blocks} {kind} stride={stride}",
                 lambda: run(TIGHT, MESH, SchemeParams(0.5, dt, 0.01), kind=kind, record_stride=stride))
        pair = members(0.25, dt, [1e6, 1e9], T=0.01)
        emit(f"{blocks} penalty stride={stride}",
             lambda: run(TIGHT, MESH, pair[1], kind="penalty", record_stride=stride))
        emit(f"{blocks} penalty pair stride={stride}",
             lambda: run(TIGHT, MESH, pair, kind="penalty", record_stride=stride))


def start_cases(blocks: str) -> None:
    dt = 1.5e-5
    for T in (0.0, dt, 2 * dt, 3 * dt):
        for stride in (1, 2, 5):
            emit(f"{blocks} T={T:g} signorini stride={stride}",
                 lambda: run(TIGHT, MESH, SchemeParams(0.5, dt, T), record_stride=stride))
            emit(f"{blocks} T={T:g} penalty pair stride={stride}",
                 lambda: run(TIGHT, MESH, members(0.25, dt, [1e6, 1e9], T=T), kind="penalty",
                             record_stride=stride))
    dofs = DofMap(MESH.J)
    # at rest on the upper stop, the tip leaving it at 10 m/s: u^0 is in contact, u^1 is not
    on_stop, leaving = np.zeros(dofs.ndof), np.zeros(dofs.ndof)
    on_stop[dofs.tip_disp], leaving[dofs.tip_disp] = 0.002, -10.0
    for stride in (1, 7):
        emit(f"{blocks} start on stop signorini stride={stride}",
             lambda: run(TIGHT, MESH, SchemeParams(0.5, dt, 0.01), u0=on_stop, v0=leaving,
                         record_stride=stride))
        emit(f"{blocks} start on stop penalty pair stride={stride}",
             lambda: run(TIGHT, MESH, members(0.25, dt, [1e6, 1e9], T=0.01), kind="penalty",
                         u0=on_stop, v0=leaving, record_stride=stride))
    fast = np.full(dofs.ndof, 1e305)
    for kind in ("signorini", "linear"):
        emit(f"{blocks} non-finite start {kind}",
             lambda: run(TIGHT, MESH, SchemeParams(0.5, 1e-4, 0.1), kind=kind, v0=fast))
    emit(f"{blocks} non-finite start penalty pair",
         lambda: run(TIGHT, MESH, members(0.25, dt, [1e6, 1e9]), kind="penalty", v0=fast))


def load_cases(blocks: str) -> None:
    dt = 1.5e-5
    for model, name in ((TIGHT, "plain"), (TIGHT_LOADED, "f_tilde")):
        for stride in (1, 3, 5):
            for kind in ("signorini", "linear"):
                emit(f"{blocks} {name} {kind} stride={stride}",
                     lambda: run(model, MESH, SchemeParams(0.5, dt, 0.01), kind=kind,
                                 record_stride=stride))
            emit(f"{blocks} {name} penalty stride={stride}",
                 lambda: run(model, MESH, members(0.25, dt, [1e7], T=0.01)[0], kind="penalty",
                             record_stride=stride))


def contact_path_cases(blocks: str) -> None:
    free = BeamModel.symmetric_stops(282.84, 1.501, math.inf, SupportMotion.sine(0.2, 10.0))
    for stride in (1, 7):
        emit(f"{blocks} signorini g=inf stride={stride}",
             lambda: run(free, MESH, SchemeParams(0.5, 1.5e-5, 0.01), record_stride=stride))
    band = lambda x: 0.001 + 0.001 * np.asarray(x, dtype=float)  # noqa: E731
    obstacle = BeamModel(k2=282.84, L=1.501, g_lower=lambda x: -band(x), g_upper=band,
                         phi=SupportMotion.sine(0.2, 10.0))
    for stride in (1, 5):
        emit(f"{blocks} pgs obstacle stride={stride}",
             lambda: run(obstacle, MESH, SchemeParams(0.5, 5e-5, 0.01), record_stride=stride))
    node = MESH.nodes[10]
    one_node = BeamModel(k2=282.84, L=1.501, g_lower=lambda x: -0.01 if x == node else -math.inf,
                         g_upper=lambda x: 0.01 if x == node else math.inf,
                         phi=SupportMotion.sine(0.2, 10.0))
    emit(f"{blocks} one-node obstacle",
         lambda: run(one_node, MESH, SchemeParams(0.5, 5e-5, 0.05), record_stride=1))


def long_cases(blocks: str) -> None:
    # long runs at J=19, over several load blocks
    for stride in (1, 2):
        for kind in ("signorini", "linear"):
            emit(f"{blocks} pipe {kind} stride={stride}",
                 lambda: run(PIPE, MESH, SchemeParams(0.5, 5e-5, 0.15), kind=kind,
                             record_stride=stride))
    for model, name in ((TIGHT, "plain"), (TIGHT_LOADED, "f_tilde")):
        for stride in (1, 7):
            for kind in ("signorini", "linear"):
                emit(f"{blocks} {name} long {kind} stride={stride}",
                     lambda: run(model, MESH, SchemeParams(0.5, 1.5e-5, 0.05), kind=kind,
                                 record_stride=stride))
    dofs = DofMap(MESH.J)
    on_stop, leaving = np.zeros(dofs.ndof), np.zeros(dofs.ndof)
    on_stop[dofs.tip_disp], leaving[dofs.tip_disp] = 0.002, -10.0
    emit(f"{blocks} long start on stop signorini",
         lambda: run(TIGHT, MESH, SchemeParams(0.5, 1.5e-5, 0.05), u0=on_stop, v0=leaving,
                     record_stride=1))
    emit(f"{blocks} long beta=0.3 signorini",
         lambda: run(TIGHT, MESH, SchemeParams(0.3, 1e-5, 0.05), record_stride=3))


def fine_mesh_cases(blocks: str) -> None:
    emit(f"{blocks} fine mesh J=320 stride=2",
         lambda: run(PIPE, Mesh(1.501, 320), SchemeParams(0.5, 5e-5, 0.15), record_stride=2))


def formatter_case():
    """A short run's Trajectory with records of ties and special values, both signs."""
    ties = []
    for j in range(2, 26):  # m 2^-j, m odd and m 5^j of 18 digits, ending in 5
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        ties += [m / 2**j for m in range(lo | 1, hi, max(2, (hi - lo) // 14 * 2))]
    powers = [float(f"1e{k}") for k in range(-320, 309)] + [1e-5]
    neighbours = [np.nextafter(x, to) for x in powers for to in (0.0, np.inf)]
    special = [0.0, np.inf, np.nan, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308]
    values = np.array(ties + powers + neighbours + special)
    values = np.concatenate([values, (values.view(np.int64) ^ np.int64(-(2**63))).view(np.float64)])
    records = np.concatenate([values, np.zeros(-len(values) % 6)]).reshape(6, -1)
    traj = run(TIGHT, MESH, SchemeParams(0.5, 1.5e-5, 0.0))
    return dataclasses.replace(traj, records=records)


def main() -> None:
    for samples, blocks in ((fem.LOAD_BLOCK_SAMPLES, "default"), (1, "16-row")):
        with patch.object(fem, "LOAD_BLOCK_SAMPLES", samples), np.errstate(all="ignore"):
            for cases in (penalty_cases, blow_up_cases, stride_cases, start_cases, load_cases,
                          contact_path_cases, long_cases, fine_mesh_cases):
                cases(blocks)
    with np.errstate(all="ignore"):
        emit("formatter ties and special values", formatter_case)


if __name__ == "__main__":
    main()
