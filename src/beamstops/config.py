"""Flat key=value run configuration: parsing, validation, serialization.

The whole experiment setup travels in a plain-text file, one ``key = value``
pair per line with ``#`` comments.  Waveforms are selected by name rather
than tabulated: ``phi`` is ``sin`` (with ``phi_amplitude``/``phi_omega``),
``zero``, or a bare number for a constant offset; ``f_tilde`` is ``zero``
or a constant.  Every number must be finite, except ``g = inf``, which
removes the stops.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import PurePath

from .fem import BeamModel, Mesh, SupportMotion
from .steppers import PenaltyParams, SchemeParams

SCHEMES = ("signorini", "penalty", "linear")


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run description, ready to build model/mesh/params from."""

    L: float
    J: int
    k2: float
    g: float
    dt: float
    T: float
    phi: str | float = "zero"
    scheme: str = "signorini"
    beta: float = 0.5
    phi_amplitude: float | None = None
    phi_omega: float | None = None
    f_tilde: float = 0.0
    inv_eps: float | None = None
    alpha: float = 0.01
    output: str = "trajectory.csv"
    record_stride: int | str = "auto"

    def __post_init__(self):
        _validate(self)


#: Every config key, with the one function that turns its text into a value.
#: ``parse_config`` (file values) and ``override`` (sweep values) both read it.
KEYS = {
    "L": float,
    "J": int,
    "k2": float,
    "g": float,
    "dt": float,
    "T": float,
    "phi": lambda raw: raw if raw in ("sin", "zero") else float(raw),
    "scheme": str,
    "beta": float,
    "phi_amplitude": float,
    "phi_omega": float,
    "f_tilde": lambda raw: 0.0 if raw == "zero" else float(raw),
    "inv_eps": float,
    "alpha": float,
    "output": str,
    "record_stride": lambda raw: raw if raw == "auto" else int(raw),
}


def _fail(key: str, why: str):
    raise ConfigError(f"config key {key!r}: {why}")


def _validate(cfg: RunConfig):
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name != "g" and isinstance(value, float) and not math.isfinite(value):
            _fail(f.name, "must be a finite number")
    if cfg.L <= 0.0:
        _fail("L", "beam length must be positive")
    if cfg.J < 1:
        _fail("J", "need at least one element")
    if cfg.k2 <= 0.0:
        _fail("k2", "stiffness coefficient must be positive")
    if not cfg.g > 0.0:
        _fail("g", "gap must be positive (inf disables the stops)")
    if cfg.scheme not in SCHEMES:
        _fail("scheme", f"must be one of {', '.join(SCHEMES)}")
    if not 0.0 <= cfg.beta <= 0.5:
        _fail("beta", "must lie in [0, 1/2]")
    if cfg.dt <= 0.0:
        _fail("dt", "time step must be positive")
    if cfg.T < 0.0:
        _fail("T", "horizon must be nonnegative")
    if not 0.0 < cfg.alpha < 1.0:
        _fail("alpha", "must lie in (0, 1)")
    if cfg.scheme == "penalty":
        if cfg.inv_eps is None:
            _fail("inv_eps", "required when scheme = penalty")
        if cfg.inv_eps < 0.0:
            _fail("inv_eps", "penalty stiffness must be nonnegative")
    elif cfg.inv_eps is not None:
        _fail("inv_eps", "only meaningful when scheme = penalty")
    if isinstance(cfg.phi, str):
        if cfg.phi == "sin":
            if cfg.phi_amplitude is None or cfg.phi_omega is None:
                _fail("phi", "phi = sin needs phi_amplitude and phi_omega")
        elif cfg.phi != "zero":
            _fail("phi", "must be sin, zero, or a number")
    if cfg.phi != "sin" and (cfg.phi_amplitude is not None or cfg.phi_omega is not None):
        _fail("phi_amplitude", "only meaningful when phi = sin")
    out = cfg.output
    if (not out or out != out.strip() or "#" in out or "".join(out.splitlines()) != out
            or PurePath(out).name in ("", "..")):  # pathlib gives "." no name
        _fail("output", "must be a file name without '#', line breaks or surrounding blanks")
    if cfg.record_stride != "auto":
        if not isinstance(cfg.record_stride, int) or cfg.record_stride < 1:
            _fail("record_stride", "must be 'auto' or a positive integer")


def _parse(key: str, raw: str):
    try:
        return KEYS[key](raw)
    except ValueError:
        _fail(key, f"cannot read {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse flat ``key = value`` text into a validated :class:`RunConfig`.

    Unknown or repeated keys are rejected with the offending line number;
    missing optional keys take their documented defaults.
    """
    seen: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        seen[key] = value
    for f in fields(RunConfig):
        if f.default is MISSING and f.name not in seen:
            raise ConfigError(f"missing required key {f.name!r}")
    return RunConfig(**{key: _parse(key, raw) for key, raw in seen.items()})


def serialize_config(cfg: RunConfig) -> str:
    """Emit text that parses back to ``cfg``, defaults included."""
    values = ((f.name, getattr(cfg, f.name)) for f in fields(cfg))
    return "".join(f"{key} = {value}\n" for key, value in values if value is not None)


def override(cfg: RunConfig, key: str, value) -> RunConfig:
    """Return a copy of ``cfg`` with one field replaced, ``value`` read as in a file."""
    if key not in KEYS:
        raise ConfigError(f"unknown key {key!r}")
    return replace(cfg, **{key: _parse(key, str(value))})


def build_support_motion(cfg: RunConfig) -> SupportMotion:
    if cfg.phi == "sin":
        return SupportMotion.sine(cfg.phi_amplitude, cfg.phi_omega)
    if cfg.phi == "zero":
        return SupportMotion.zero()
    return SupportMotion.constant(cfg.phi)


def build_model(cfg: RunConfig) -> tuple[BeamModel, Mesh]:
    """Materialize the beam model and mesh described by ``cfg``."""
    motion = build_support_motion(cfg)
    if cfg.f_tilde == 0.0:
        load = None
    else:
        const = cfg.f_tilde
        load = lambda x, t: const + 0.0 * x  # noqa: E731 - tiny closure
    if math.isinf(cfg.g):
        model = BeamModel(k2=cfg.k2, L=cfg.L, phi=motion, f_tilde=load)
    else:
        model = BeamModel.symmetric_stops(cfg.k2, cfg.L, cfg.g, phi=motion, f_tilde=load)
    return model, Mesh(cfg.L, cfg.J)


def build_params(cfg: RunConfig):
    """Scheme parameters for the configured time discretization."""
    if cfg.scheme == "penalty":
        return PenaltyParams(inv_eps=cfg.inv_eps, dt=cfg.dt, T=cfg.T, beta=cfg.beta)
    return SchemeParams(beta=cfg.beta, dt=cfg.dt, T=cfg.T)


def run_kwargs(cfg: RunConfig) -> dict:
    """Keyword arguments for :func:`beamstops.steppers.run` from ``cfg``."""
    stride = None if cfg.record_stride == "auto" else cfg.record_stride
    return {
        "kind": cfg.scheme,
        "record_stride": stride,
        "alpha": cfg.alpha,
    }
