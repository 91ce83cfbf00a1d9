"""Run configuration, model specification and the embedded figure presets.

A RunConfig pairs a ModelSpec (which physical model plus its parameters)
with the numerical parameters of an ensemble run.  Presets ``fig1`` ..
``fig12`` reproduce the published parameter sets at desk scale; their
physics parameters are fixed, while trajectory counts and time spans are
chosen for reasonable runtimes and may be overridden.
"""

from __future__ import annotations

import configparser
import re
import typing
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .models import (
    DetectorMeasurementModel,
    DetectorParams,
    DriveParams,
    FreeDecayModel,
    MeasuredDecayModel,
    RabiMeasuredModel,
    ReservoirSpec,
)

DEFAULT_MASTER_SEED = 20260809
MAX_OUTPUT_POINTS = 4000

# The one table of config-file sections, manifest ``config`` blocks and
# ModelSpec fields.  Each parameter section names its class and maps its keys
# onto the class's fields; the class supplies types and defaults.  [run]
# holds ``model``, the RunConfig fields of RUN_KEYS and the ModelSpec scalars
# the model takes.
RUN_KEYS = ("dt", "t_max", "n_trajectories", "master_seed", "integrator", "observables",
            "decimation")
SECTIONS = {
    "detector": (DetectorParams, {"gamma": "gamma", "lambda": "lam", "omega_d": "omega_d",
                                  "coupling_target": "coupling_target"}),
    "drive": (DriveParams, {"omega_r": "omega_r", "detuning": "detuning"}),
    "reservoir": (ReservoirSpec, {"n_modes": "n_modes", "half_width": "half_width",
                                  "g0": "g0", "a": "slope", "omega_a": "omega_a"}),
}
# model variant -> its class and the ModelSpec fields it takes, in the order
# of the class's arguments: parameter sections, and the detector model's
# frame frequency ``omega_a`` (a [run] key)
VARIANTS = {
    "detector": (DetectorMeasurementModel, ("detector", "omega_a")),
    "rabi": (RabiMeasuredModel, ("detector", "drive")),
    "freedecay": (FreeDecayModel, ("reservoir",)),
    "measureddecay": (MeasuredDecayModel, ("reservoir", "detector")),
}


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass(frozen=True)
class ModelSpec:
    """Which model to build, with its physical parameters.

    A variant takes exactly the fields VARIANTS lists for it; the others
    keep their defaults, so ``describe`` records everything that builds the
    model and nothing else.
    """

    variant: str
    detector: Optional[DetectorParams] = None
    drive: Optional[DriveParams] = None
    reservoir: Optional[ReservoirSpec] = None
    omega_a: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown model variant {self.variant!r}")
        uses = VARIANTS[self.variant][1]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in uses and value is None:
                raise ConfigError(f"model {self.variant!r} requires {f.name} parameters")
            if f.name not in uses and value != f.default:
                raise ConfigError(f"model {self.variant!r} does not use {f.name} parameters")


def build_model(spec: ModelSpec):
    """Instantiate the model object for a ModelSpec."""
    cls, uses = VARIANTS[spec.variant]
    return cls(*(getattr(spec, name) for name in uses))


@dataclass
class RunConfig:
    """Numerical parameters of a trajectory ensemble run."""

    model: ModelSpec
    dt: float = 0.1
    t_max: float = 30.0
    n_trajectories: int = 1000
    master_seed: int = DEFAULT_MASTER_SEED
    integrator: str = "euler"
    observables: Optional[tuple[str, ...]] = None
    decimation: Optional[int] = None
    initial_amplitudes: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be > 0")
        if self.t_max < self.dt:
            raise ConfigError("t_max must be >= dt")
        if self.n_trajectories < 1:
            raise ConfigError("n_trajectories must be >= 1")
        if self.integrator not in ("euler", "rk4"):
            raise ConfigError(f"integrator must be 'euler' or 'rk4', got {self.integrator!r}")
        if self.decimation is None:
            n_steps = int(round(self.t_max / self.dt))
            self.decimation = max(1, -(-(n_steps + 1) // MAX_OUTPUT_POINTS))
        if self.decimation < 1:
            raise ConfigError("decimation must be >= 1")
        if self.observables is not None:
            self.observables = tuple(self.observables)

    def with_overrides(self, **kw) -> "RunConfig":
        return replace(self, **kw)


def _presets() -> dict[str, RunConfig]:
    # The parameter classes' defaults are the published values.  Their 1001
    # modes give exactly the published spacing 0.001 across the half-width-0.5
    # band; the published mode count is self-consistent only to within one
    # mode and the spacing is what fixes the decay rate.
    det, flat, sloped = DetectorParams(), ReservoirSpec(), ReservoirSpec(slope=2.0)
    detector_spec = ModelSpec("detector", detector=det)
    rabi_res = ModelSpec("rabi", detector=det, drive=DriveParams(omega_r=0.1))
    rabi_det = ModelSpec("rabi", detector=det, drive=DriveParams(omega_r=0.1, detuning=0.2))
    free0 = ModelSpec("freedecay", reservoir=flat)
    free2 = ModelSpec("freedecay", reservoir=sloped)
    meas0 = ModelSpec("measureddecay", reservoir=flat, detector=det)
    meas0_exc = ModelSpec("measureddecay", reservoir=flat,
                          detector=DetectorParams(coupling_target="excited"))
    meas2 = ModelSpec("measureddecay", reservoir=sloped, detector=det)

    all4 = ("rho_aa", "rho_ee", "rho_gg", "rho_eg_re", "rho_eg_im")
    return {
        "fig1": RunConfig(detector_spec, dt=0.1, t_max=30.0, n_trajectories=1,
                          observables=all4),
        "fig2": RunConfig(detector_spec, dt=0.1, t_max=30.0, n_trajectories=1000,
                          observables=all4),
        "fig3": RunConfig(detector_spec, dt=0.1, t_max=30.0, n_trajectories=1000,
                          observables=("rho_eg_re", "rho_eg_im")),
        "fig4": RunConfig(rabi_res, dt=0.1, t_max=100.0, n_trajectories=1,
                          observables=("rho_gg", "rho_ee", "rho_aa")),
        "fig5": RunConfig(rabi_res, dt=0.1, t_max=300.0, n_trajectories=1000,
                          observables=("rho_gg", "rho_ee", "rho_aa")),
        "fig6": RunConfig(rabi_det, dt=0.001, t_max=200.0, n_trajectories=1000,
                          observables=("rho_gg", "rho_ee")),
        "fig7": RunConfig(free0, dt=0.1, t_max=300.0, n_trajectories=1),
        "fig8": RunConfig(free2, dt=0.1, t_max=300.0, n_trajectories=1),
        "fig9": RunConfig(meas0, dt=0.1, t_max=300.0, n_trajectories=1,
                          observables=("rho_ee", "rho_aa")),
        "fig10": RunConfig(meas0, dt=0.1, t_max=300.0, n_trajectories=1000,
                           observables=("rho_ee", "rho_aa")),
        "fig11": RunConfig(meas0_exc, dt=0.1, t_max=300.0, n_trajectories=1,
                           observables=("rho_ee", "rho_aa")),
        "fig12": RunConfig(meas2, dt=0.1, t_max=300.0, n_trajectories=1000,
                           observables=("rho_ee", "rho_aa")),
    }


def preset(name: str) -> RunConfig:
    """A fresh copy of one of the embedded presets fig1 .. fig12."""
    table = _presets()
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(table))}")
    return table[name]


def preset_names() -> tuple[str, ...]:
    return tuple(_presets().keys())


# ---------------------------------------------------------------------------
# flat key-value config files (INI sections, one per parameter group)

_PARSE = {int: int, float: float, str: str}


def parse_names(text: str) -> Optional[tuple[str, ...]]:
    """A comma-separated list of names, as in ``observables = rho_ee, rho_gg``;
    None (the model's defaults) when it is empty."""
    return tuple(s.strip() for s in text.split(",") if s.strip()) or None


def _read(section, cls, keys: dict) -> dict:
    """``{field: value}`` for the ``{key: field}`` entries present in a config
    section, each parsed as the type ``cls`` declares for its field."""
    hints = typing.get_type_hints(cls)
    out = {}
    for key, name in keys.items():
        if key in section:
            kinds = (hints[name], *typing.get_args(hints[name]))  # Optional[int] -> int
            parse = next((_PARSE[k] for k in kinds if k in _PARSE), parse_names)
            try:
                out[name] = parse(section[key])
            except ValueError as exc:
                raise ConfigError(f"[{section.name}] {key}: {exc}") from exc
    return out


def load_config_file(path: str) -> RunConfig:
    """Parse a sectioned key-value config file into a RunConfig.

    The file holds [run] and the parameter sections its model uses, with
    the keys of the table above; keys left out take the classes' defaults.
    Other sections or keys are rejected with the offending key and, when
    possible, its line number.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            text = fh.read()
        parser.read_string(text, source=path)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if "run" not in parser or "model" not in parser["run"]:
        raise ConfigError(f"{path}: missing [run] section with a 'model' key")
    variant = parser["run"]["model"]
    if variant not in VARIANTS:
        raise ConfigError(f"{path}: unknown model {variant!r}")

    uses = VARIANTS[variant][1]
    scalars = {name: name for name in uses if name not in SECTIONS}
    allowed = {"run": {"model", *RUN_KEYS, *scalars}}
    allowed.update((name, SECTIONS[name][1]) for name in uses if name in SECTIONS)
    for section in parser.sections():
        if section not in allowed:
            what = f"model {variant!r} does not use" if section in SECTIONS else "unknown"
            raise ConfigError(f"{path}: {what} section [{section}]")
        for key in parser[section]:
            if key not in allowed[section]:
                line = next((n for n, entry in enumerate(text.splitlines(), 1)
                             if re.match(rf"\s*{re.escape(key)}\s*[=:]", entry, re.I)), None)
                where = f"{path}:{line}" if line else path
                raise ConfigError(f"{where}: unknown key {key!r} in section [{section}] "
                                  f"of model {variant!r}")

    run = parser["run"]
    try:
        params = {name: cls(**_read(parser[name], cls, keys))
                  for name, (cls, keys) in SECTIONS.items() if name in parser}
        spec = ModelSpec(variant, **params, **_read(run, ModelSpec, scalars))
        return RunConfig(spec, **_read(run, RunConfig, dict(zip(RUN_KEYS, RUN_KEYS))))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def describe(config: RunConfig) -> dict:
    """JSON-serializable view of a fully resolved RunConfig.

    Top-level entries are the [run] keys and the other entries are the
    model's parameter sections, so the view written as a config file loads
    back to an equal RunConfig.
    """
    spec = config.model
    out = {"model": spec.variant, **{key: getattr(config, key) for key in RUN_KEYS}}
    out["observables"] = list(config.observables) if config.observables else None
    for name in VARIANTS[spec.variant][1]:
        value = getattr(spec, name)
        if name in SECTIONS:
            value = {key: getattr(value, f) for key, f in SECTIONS[name][1].items()}
        out[name] = value
    return out
