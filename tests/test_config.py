"""Flat key=value config parsing, validation, round-trips and builders."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from beamstops.config import (
    KEYS,
    ConfigError,
    RunConfig,
    build_model,
    build_params,
    override,
    parse_config,
    run_kwargs,
    serialize_config,
)
from beamstops.steppers import PenaltyParams, SchemeParams

PIPE_TEXT = """\
# steel pipe between two stops
L = 1.501
J = 19
k2 = 282.84
g = 0.1
phi = sin
phi_amplitude = 0.2
phi_omega = 10
scheme = signorini
beta = 0.5
dt = 5e-5
T = 2
"""


def test_parse_pipe_experiment():
    cfg = parse_config(PIPE_TEXT)
    assert cfg.L == 1.501 and cfg.J == 19 and cfg.k2 == 282.84
    assert cfg.g == 0.1
    assert cfg.phi == "sin" and cfg.phi_amplitude == 0.2 and cfg.phi_omega == 10.0
    assert cfg.scheme == "signorini" and cfg.beta == 0.5
    assert cfg.dt == 5e-5 and cfg.T == 2.0
    # documented defaults
    assert cfg.f_tilde == 0.0
    assert cfg.alpha == 0.01
    assert cfg.record_stride == "auto"
    assert cfg.output == "trajectory.csv"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config(
        "L = 1.0  # length\n\n# standalone comment\nJ = 2\nk2 = 1\ng = inf\ndt = 0.1\nT = 1\n"
    )
    assert cfg.L == 1.0 and math.isinf(cfg.g)


def test_unknown_key_reports_line_number():
    text = "L = 1\nJ = 2\nwhoops = 3\n"
    with pytest.raises(ConfigError, match="line 3.*whoops"):
        parse_config(text)
    with pytest.raises(ConfigError, match="line 13: unknown key 'seed'"):
        parse_config(PIPE_TEXT + "seed = 0\n")  # the removed knob


def test_duplicate_key_rejected():
    text = "L = 1\nL = 2\nJ = 2\nk2 = 1\ng = 1\ndt = 0.1\nT = 1\n"
    with pytest.raises(ConfigError, match="line 2.*duplicate"):
        parse_config(text)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="dt"):
        parse_config("L = 1\nJ = 2\nk2 = 1\ng = 1\nT = 1\n")


def test_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_beta_out_of_range_rejected():
    with pytest.raises(ConfigError, match="beta"):
        parse_config(PIPE_TEXT.replace("beta = 0.5", "beta = 0.6"))


def test_penalty_requires_inv_eps():
    with pytest.raises(ConfigError, match="inv_eps"):
        parse_config(PIPE_TEXT.replace("scheme = signorini", "scheme = penalty"))
    cfg = parse_config(
        PIPE_TEXT.replace("scheme = signorini", "scheme = penalty\ninv_eps = 1e8")
    )
    assert cfg.inv_eps == 1e8


def test_inv_eps_outside_penalty_rejected():
    with pytest.raises(ConfigError, match="inv_eps"):
        parse_config(PIPE_TEXT + "inv_eps = 1e8\n")


def test_bad_numbers_name_the_key():
    with pytest.raises(ConfigError, match="'k2'"):
        parse_config(PIPE_TEXT.replace("k2 = 282.84", "k2 = lots"))
    with pytest.raises(ConfigError, match="'J'"):
        parse_config(PIPE_TEXT.replace("J = 19", "J = 19.5"))


def test_validation_catches_bad_geometry():
    with pytest.raises(ConfigError, match="'L'"):
        parse_config(PIPE_TEXT.replace("L = 1.501", "L = -1"))
    with pytest.raises(ConfigError, match="'g'"):
        parse_config(PIPE_TEXT.replace("g = 0.1", "g = 0"))
    with pytest.raises(ConfigError, match="'scheme'"):
        parse_config(PIPE_TEXT.replace("scheme = signorini", "scheme = runge"))


def test_phi_waveforms():
    cfg = parse_config(PIPE_TEXT.replace("phi = sin", "phi = 0.05").replace(
        "phi_amplitude = 0.2\nphi_omega = 10\n", ""))
    assert cfg.phi == 0.05
    cfg0 = parse_config(PIPE_TEXT.replace("phi = sin", "phi = zero").replace(
        "phi_amplitude = 0.2\nphi_omega = 10\n", ""))
    assert cfg0.phi == "zero"
    with pytest.raises(ConfigError, match="phi"):
        parse_config(PIPE_TEXT.replace("phi_amplitude = 0.2\n", ""))
    with pytest.raises(ConfigError, match="phi_amplitude"):
        parse_config(PIPE_TEXT.replace("phi = sin", "phi = zero"))


# Every key away from its default: a numeric phi, a constant load, an integer
# stride and no stops.  phi_amplitude/phi_omega are covered by PIPE_TEXT.
EVERY_KEY_TEXT = """\
L = 2.5
J = 7
k2 = 3.25
g = inf
dt = 1e-4
T = 0.3
phi = 0.05
scheme = penalty
beta = 0.25
f_tilde = -1.5
inv_eps = 1e6
alpha = 0.02
output = every.csv
record_stride = 9
"""


def test_round_trip_preserves_all_effective_values():
    for text in (
        PIPE_TEXT,
        PIPE_TEXT.replace("scheme = signorini", "scheme = penalty\ninv_eps = 1e6"),
        PIPE_TEXT + "record_stride = 7\noutput = out.csv\nf_tilde = 1.5\n",
        "L = 2\nJ = 3\nk2 = 1\ng = inf\ndt = 0.5\nT = 0\nphi = zero\nscheme = linear\n",
        EVERY_KEY_TEXT,
    ):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
    every = parse_config(EVERY_KEY_TEXT)
    assert (every.phi, every.f_tilde, every.record_stride, every.g) == (0.05, -1.5, 9, math.inf)
    for f in dataclasses.fields(RunConfig):
        if f.default is not dataclasses.MISSING and f.name not in ("phi_amplitude", "phi_omega"):
            assert getattr(every, f.name) != f.default, f.name


def test_key_table_is_runconfig_fields():
    assert list(KEYS) == [f.name for f in dataclasses.fields(RunConfig)]


def test_readme_reference_lists_exactly_the_keys():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Configuration reference", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("| `")]
    listed = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(listed) == sorted(KEYS)


def test_non_finite_numbers_rejected_except_g_inf():
    for key in ("L", "k2", "dt", "T", "beta", "alpha", "phi", "f_tilde"):
        for bad in ("nan", "inf", "-inf"):
            text = re.sub(rf"^{key} = .*$", f"{key} = {bad}", EVERY_KEY_TEXT, flags=re.M)
            with pytest.raises(ConfigError, match=f"'{key}'"):
                parse_config(text)
    for bad in ("nan", "inf"):
        with pytest.raises(ConfigError, match="'inv_eps'"):
            parse_config(EVERY_KEY_TEXT.replace("inv_eps = 1e6", f"inv_eps = {bad}"))
        with pytest.raises(ConfigError, match="'phi_omega'"):
            parse_config(PIPE_TEXT.replace("phi_omega = 10", f"phi_omega = {bad}"))
    with pytest.raises(ConfigError, match="'g'"):
        parse_config(EVERY_KEY_TEXT.replace("g = inf", "g = nan"))
    with pytest.raises(ConfigError, match="'T'"):
        RunConfig(L=1.0, J=2, k2=1.0, g=0.1, dt=0.1, T=math.inf)


def test_output_the_file_format_cannot_carry_is_rejected():
    """``#`` starts a comment and each line is stripped, so such an output
    name would serialize to text that parses back to another name."""
    base = dict(L=1.0, J=2, k2=1.0, g=0.1, dt=0.1, T=1.0)
    for bad in ("run#1.csv", "a\nb.csv", "a\rb.csv", " out.csv", "out.csv ", "out.csv\t", ""):
        with pytest.raises(ConfigError, match="'output'"):
            RunConfig(**base, output=bad)
    good = RunConfig(**base, output="runs/out 1=a.csv")
    assert parse_config(serialize_config(good)) == good


def test_override_replaces_single_field():
    cfg = parse_config(PIPE_TEXT)
    assert override(cfg, "dt", "1e-5").dt == 1e-5
    assert override(cfg, "J", "10").J == 10
    assert override(cfg, "beta", 0.25).beta == 0.25
    assert override(cfg, "record_stride", "5").record_stride == 5
    assert override(cfg, "f_tilde", "zero").f_tilde == 0.0
    zero = parse_config(PIPE_TEXT.replace("phi = sin", "phi = zero").replace(
        "phi_amplitude = 0.2\nphi_omega = 10\n", ""))
    assert override(zero, "phi", "0.05").phi == 0.05
    with pytest.raises(ConfigError):
        override(cfg, "nonsense", 1.0)
    with pytest.raises(ConfigError):
        override(cfg, "beta", 0.7)  # still validated
    with pytest.raises(ConfigError, match="'dt'"):
        override(cfg, "dt", "nan")
    with pytest.raises(ConfigError, match="'J'"):
        override(cfg, "J", "19.5")


def test_override_reads_values_like_a_file():
    """A sweep token and the same text in a config file give the same value."""
    for key, raw in (("dt", "2.5e-5"), ("J", "12"), ("record_stride", "3"),
                     ("f_tilde", "0.75"), ("alpha", "0.05"), ("g", "inf")):
        base = parse_config(PIPE_TEXT)
        text = re.sub(rf"^{key} = .*$\n?", "", PIPE_TEXT, flags=re.M) + f"{key} = {raw}\n"
        assert override(base, key, raw) == parse_config(text), key


def test_build_model_and_params():
    cfg = parse_config(PIPE_TEXT)
    model, mesh = build_model(cfg)
    assert mesh.J == 19 and mesh.L == 1.501
    assert model.g_lower == -0.1 and model.g_upper == 0.1
    assert float(model.phi.value(np.pi / 20.0)) == pytest.approx(0.2)
    params = build_params(cfg)
    assert isinstance(params, SchemeParams)
    assert params.beta == 0.5 and params.dt == 5e-5 and params.T == 2.0

    pcfg = parse_config(
        PIPE_TEXT.replace("scheme = signorini", "scheme = penalty\ninv_eps = 1e8")
        .replace("beta = 0.5", "beta = 0.25")
    )
    pparams = build_params(pcfg)
    assert isinstance(pparams, PenaltyParams)
    assert pparams.inv_eps == 1e8 and pparams.beta == 0.25


def test_build_model_without_stops_and_constant_load():
    cfg = parse_config(
        "L = 1\nJ = 4\nk2 = 2\ng = inf\ndt = 0.01\nT = 1\nphi = zero\nf_tilde = 2.5\n"
    )
    model, mesh = build_model(cfg)
    assert model.g_upper == np.inf and model.g_lower == -np.inf
    np.testing.assert_array_equal(model.f_tilde(np.array([0.0, 0.5]), 3.0), [2.5, 2.5])


def test_run_kwargs_mapping():
    cfg = parse_config(PIPE_TEXT + "record_stride = 4\nalpha = 0.02\n")
    kw = run_kwargs(cfg)
    assert kw == {"kind": "signorini", "record_stride": 4, "alpha": 0.02}
    auto = run_kwargs(parse_config(PIPE_TEXT))
    assert auto["record_stride"] is None


def test_runconfig_direct_construction_validates():
    with pytest.raises(ConfigError):
        RunConfig(L=1.0, J=0, k2=1.0, g=0.1, phi="zero", dt=0.1, T=1.0)
    with pytest.raises(ConfigError):
        RunConfig(L=1.0, J=2, k2=1.0, g=0.1, phi="wiggle", dt=0.1, T=1.0)
