"""Energy functional, complementarity checks and run summaries."""

import numpy as np
import pytest

from beamstops.diagnostics import (
    INACTIVE,
    LOWER,
    UPPER,
    ComplementarityError,
    ContactAudit,
    active_sides,
    compare_runs,
    count_episodes,
    discrete_energy,
)
from beamstops.fem import BeamModel, Mesh, SupportMotion, assemble
from beamstops.linalg import BandedSpd
from beamstops.steppers import PenaltyParams, SchemeParams, run
from conftest import random_banded_spd
from oracles import audit_figures


# ------------------------------------------------------------- discrete energy

def test_discrete_energy_quadratic_form():
    rng = np.random.default_rng(61)
    m, dm = random_banded_spd(rng, 6, 2)
    s, ds = random_banded_spd(rng, 6, 2)
    u0 = rng.standard_normal(6)
    u1 = rng.standard_normal(6)
    beta, dt = 0.3, 0.01
    v = (u1 - u0) / dt
    expect = (
        v @ dm @ v
        + (1.0 - 2.0 * beta) * (u0 @ ds @ u1)
        + beta * (u1 @ ds @ u1)
        + beta * (u0 @ ds @ u0)
    )
    a = BandedSpd.lincomb(1.0, m, dt * dt * beta, s)
    got = discrete_energy((u0, u1), (a.matvec(u0), a.matvec(u1)), s, dt)
    assert got == pytest.approx(expect, rel=1e-12)


def test_discrete_energy_positive_for_beta_half():
    rng = np.random.default_rng(62)
    mesh = Mesh(1.0, 4)
    gm = assemble(mesh, BeamModel(k2=1.0, L=1.0))
    a = BandedSpd.lincomb(1.0, gm.mass, 0.5 * 0.01**2, gm.stiffness)
    for _ in range(20):
        u0 = rng.standard_normal(8)
        u1 = rng.standard_normal(8)
        energy = discrete_energy((u0, u1), (a.matvec(u0), a.matvec(u1)), gm.stiffness, 0.01)
        assert energy > 0.0


def test_discrete_energy_zero_at_rest():
    mesh = Mesh(1.0, 3)
    gm = assemble(mesh, BeamModel(k2=1.0, L=1.0))
    z = np.zeros(6)
    assert discrete_energy((z, z), (z, z), gm.stiffness, 0.1) == 0.0


# ------------------------------------------------ contact residual of one step

def tiny_system():
    a, dense = random_banded_spd(np.random.default_rng(63), 4, 2)
    return a, dense


def certify_step(a, u, f, tol=1e-9):
    """The audit of one step with stops [-0.1, 0.1] on DOF 2, checked at ``tol``."""
    audit = ContactAudit()
    audit.update(active_sides(u[2], -0.1, 0.1), *audit_figures(a.matvec(u) - f, 2))
    audit.check(tol)
    return audit


def test_contact_residual_accepts_clean_free_step():
    a, dense = tiny_system()
    u = np.array([0.01, -0.02, 0.005, 0.0])
    f = dense @ u  # exact equations, no reaction anywhere
    audit = certify_step(a, u, f)
    assert audit.contact_steps == 0
    assert audit.max_inactive_reaction == pytest.approx(0.0, abs=1e-15)


def test_contact_residual_accepts_upper_contact_with_negative_reaction():
    a, dense = tiny_system()
    u = np.array([0.01, -0.02, 0.1, 0.0])  # tip exactly on the upper stop
    f = dense @ u
    f[2] += 0.5  # load pressing up; reaction (A u - f)_2 = -0.5
    audit = certify_step(a, u, f)
    assert audit.contact_steps == 1
    assert audit.max_upper_reaction == pytest.approx(-0.5)
    assert audit.min_lower_reaction == np.inf


def test_contact_residual_rejects_wrong_sign():
    a, dense = tiny_system()
    u = np.array([0.01, -0.02, 0.1, 0.0])
    f = dense @ u
    f[2] -= 0.5  # would mean the stop pulls the beam toward itself
    with pytest.raises(ComplementarityError, match="pulls toward the upper stop"):
        certify_step(a, u, f)


def test_contact_residual_rejects_reaction_without_contact():
    a, dense = tiny_system()
    u = np.array([0.01, -0.02, 0.03, 0.0])  # tip well inside the band
    f = dense @ u
    f[2] += 0.5
    with pytest.raises(ComplementarityError, match="without contact"):
        certify_step(a, u, f)


def test_contact_residual_rejects_offband_violation():
    a, dense = tiny_system()
    u = np.array([0.01, -0.02, 0.03, 0.0])
    f = dense @ u
    f[0] += 1e-3  # equation error on an unconstrained DOF
    with pytest.raises(ComplementarityError, match="off-contact residual"):
        certify_step(a, u, f)
    audit = certify_step(a, u, f, tol=1e-2)
    assert audit.max_offband_residual == pytest.approx(1e-3)


def test_contact_residual_lower_stop_positive_reaction():
    a, dense = tiny_system()
    u = np.array([0.01, -0.02, -0.1, 0.0])
    f = dense @ u
    f[2] -= 0.25  # pressing down; reaction = +0.25 pushes back up
    audit = certify_step(a, u, f)
    assert audit.contact_steps == 1
    assert audit.min_lower_reaction == pytest.approx(0.25)
    assert audit.max_upper_reaction == -np.inf


def test_contact_residual_names_the_first_broken_condition():
    """Off-contact residual, reaction off contact, upper sign, lower sign."""
    audit = ContactAudit(
        max_offband_residual=1e-6, max_inactive_reaction=1e-6,
        max_upper_reaction=1e-6, min_lower_reaction=-1e-6,
    )
    for field, fixed, message in [
        ("max_offband_residual", 0.0, "off-contact residual 1.000e-06 exceeds 1.0e-09"),
        ("max_inactive_reaction", 0.0, "nonzero reaction 1.000e-06 without contact"),
        ("max_upper_reaction", -1.0, "reaction 1.000e-06 pulls toward the upper stop"),
        ("min_lower_reaction", 1.0, "reaction -1.000e-06 pulls toward the lower stop"),
    ]:
        with pytest.raises(ComplementarityError) as info:
            audit.check(1e-9)
        assert str(info.value) == message
        setattr(audit, field, fixed)
    audit.check(1e-9)


# ---------------------------------------------------------------------- audits

#: (tip, reaction, off-contact residual) of consecutive steps, stops [-0.1, 0.1]
#: on DOF 0 and the off-contact residual on DOF 1
AUDIT_STEPS = [
    (0.0, 0.0, 1e-14),
    (0.1, -0.3, 2e-14),
    (0.1, -0.6, -1e-15),
    (0.05, 1e-12, 5e-15),
    (-0.1, 0.2, 0.0),
    (0.1, -0.1, 0.0),
]


def fold(audit, steps):
    tips = np.array([s[0] for s in steps])
    residuals = np.array([[s[1], s[2]] for s in steps]).reshape(-1, 2)
    audit.update(active_sides(tips, -0.1, 0.1), *audit_figures(residuals, 0))
    return audit


def test_audit_accumulates_episodes_and_extremes():
    audit = ContactAudit()
    for step in AUDIT_STEPS:
        fold(audit, [step])
    assert audit.contact_steps == 4
    assert audit.max_offband_residual == 2e-14
    assert audit.max_upper_reaction == -0.1
    assert audit.min_lower_reaction == 0.2
    assert audit.max_inactive_reaction == 1e-12
    audit.check(1e-9)
    # two blocks give the same audit wherever the cut falls
    for cut in range(len(AUDIT_STEPS) + 1):
        assert fold(fold(ContactAudit(), AUDIT_STEPS[:cut]), AUDIT_STEPS[cut:]) == audit


def test_audit_flags_sign_violations():
    with pytest.raises(ComplementarityError, match="upper stop"):
        fold(ContactAudit(), [(0.1, +1e-6, 0.0)]).check(1e-9)  # wrong sign at the upper stop
    with pytest.raises(ComplementarityError, match="without contact"):
        fold(ContactAudit(), [(0.0, 1e-3, 0.0)]).check(1e-9)
    with pytest.raises(ComplementarityError, match="lower stop"):
        fold(ContactAudit(), [(-0.1, -1e-6, 0.0)]).check(1e-9)


def test_audit_skips_nan_figures():
    audit = fold(ContactAudit(), [(np.nan, np.nan, np.nan), (0.1, -0.2, 1e-15)])
    assert audit.contact_steps == 1
    assert audit.max_offband_residual == 1e-15
    assert audit.max_upper_reaction == -0.2
    assert audit.max_inactive_reaction == 0.0


def test_active_sides_codes():
    """A tip within 1e-12 (relative) of a finite stop rests on it, the upper
    one if it is within reach of both; a NaN tip and a missing stop give
    no contact."""
    tips = [0.1, 0.1 - 1e-13, 0.0999, -0.1 + 1e-13, -0.2, np.nan]
    sides = active_sides(tips, -0.1, 0.1)
    assert sides.dtype == np.int8
    assert sides.tolist() == [UPPER, UPPER, INACTIVE, LOWER, LOWER, INACTIVE]
    assert active_sides(tips, -np.inf, 0.1).tolist() == [UPPER, UPPER] + [INACTIVE] * 4
    assert active_sides([0.0], -1e-13, 1e-13).tolist() == [UPPER]
    assert active_sides(np.zeros((2, 3)), -np.inf, np.inf).shape == (2, 3)


def test_audit_empty_run_satisfies():
    ContactAudit().check(1e-12)
    audit = fold(ContactAudit(), [])
    assert audit == ContactAudit()


# ----------------------------------------------------------- trajectory-level

def test_count_episodes_patterns():
    assert count_episodes(np.array([], dtype=bool)) == 0
    assert count_episodes(np.array([False, False])) == 0
    assert count_episodes(np.array([True])) == 1
    assert count_episodes(np.array([True, True, False, True])) == 2
    assert count_episodes(np.array([False, True, False, True, True, False, True])) == 3
    # carried: the flags continue a run already counted, so a leading run is not new
    assert count_episodes(np.array([], dtype=bool), carried=True) == 0
    assert count_episodes(np.array([True]), carried=True) == 0
    assert count_episodes(np.array([False, True]), carried=True) == 1
    assert count_episodes(np.array([True, True, False, True]), carried=True) == 1
    assert count_episodes(np.array([False, True, False, True, True, False, True]), carried=True) == 3


def violation(traj, g: float) -> float:
    """Max recorded overshoot beyond the symmetric stops [-g, g]."""
    if not g > 0.0:
        raise ValueError("gap g must be positive")
    return float(np.max(np.maximum(np.abs(traj.u_tip) - g, 0.0)))


def test_violation_measures_overshoot():
    class Fake:
        u_tip = np.array([0.0, 0.09, 0.1003, -0.102, 0.05])

    assert violation(Fake(), 0.1) == pytest.approx(0.002)
    assert violation(Fake(), 0.2) == 0.0
    with pytest.raises(ValueError):
        violation(Fake(), 0.0)


@pytest.mark.parametrize("stride", [1, 2, 7, 20])
def test_summary_counts_the_contact_episodes_of_every_step(stride):
    """The summary's contact episodes do not depend on the record stride:
    the README scenario and a penalty member count, at every stride, the
    episodes of every state of their stride-1 runs."""
    phi = SupportMotion.sine(0.2, 10.0)
    model = BeamModel.symmetric_stops(282.84, 1.501, 0.1, phi)
    readme = SchemeParams(0.5, 5e-5, 0.6)
    traj = run(model, Mesh(1.501, 19), readme, record_stride=stride)
    every = run(model, Mesh(1.501, 19), readme, record_stride=1)
    flags = active_sides(every.u_tip, every.tip_lower, every.tip_upper) != INACTIVE
    assert compare_runs([("s", traj)]).rows[0].contact_episodes == count_episodes(flags) == 103
    tight = BeamModel.symmetric_stops(282.84, 1.501, 0.002, phi)
    params = PenaltyParams(inv_eps=1e9, beta=0.25, dt=1.5e-5, T=0.1)
    every = run(tight, Mesh(1.501, 19), params, kind="penalty", record_stride=1)
    sparse = run(tight, Mesh(1.501, 19), params, kind="penalty", record_stride=stride)
    flags = active_sides(every.u_tip, every.tip_lower, every.tip_upper) != INACTIVE
    assert compare_runs([("s", sparse)]).rows[0].contact_episodes == count_episodes(flags) == 82


def test_summary_tip_extremes_do_not_depend_on_the_record_stride():
    """The summary's tip_min and tip_max are tracked over every state: a
    penalty block gives each member the same extremes at strides 1, 7 and
    20, those of its stride-1 rows."""
    tight = BeamModel.symmetric_stops(282.84, 1.501, 0.002, SupportMotion.sine(0.2, 10.0))
    params = [PenaltyParams(inv_eps=e, beta=0.25, dt=1.5e-5, T=0.1) for e in (1e6, 1e9)]
    runs = {stride: run(tight, Mesh(1.501, 19), params, kind="penalty", record_stride=stride)
            for stride in (1, 7, 20)}
    for j, every in enumerate(runs[1]):
        expected = (every.u_tip.min(), every.u_tip.max())
        for stride, members in runs.items():
            row = compare_runs([("s", members[j])]).rows[0]
            assert (row.tip_min, row.tip_max) == expected, (j, stride)


def test_compare_runs_table():
    mesh = Mesh(1.0, 3)
    model = BeamModel.symmetric_stops(1.0, 1.0, 0.02, SupportMotion.sine(0.3, 3.0))
    params = SchemeParams(beta=0.5, dt=0.005, T=0.5)
    t1 = run(model, mesh, params, record_stride=1)
    t2 = run(model, mesh, params, record_stride=5)
    cmp = compare_runs([("fine", t1), ("coarse", t2)])
    assert [r.label for r in cmp.rows] == ["fine", "coarse"]
    csv = cmp.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "label,max_violation,tip_min,tip_max,contact_episodes,wall_seconds"
    assert len(lines) == 3
    assert lines[1].startswith("fine,0,")  # exact-constraint run: violation 0
    text = cmp.to_text()
    assert "label" in text and "coarse" in text
    # same dynamics, same recorded tip range
    row1, row2 = cmp.rows
    assert row1.tip_max == pytest.approx(row2.tip_max, abs=1e-12)
