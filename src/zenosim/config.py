"""Run configuration, model specification and the embedded figure presets.

A RunConfig pairs a ModelSpec (which physical model plus its parameters)
with the numerical parameters of an ensemble run.  Presets ``fig1`` ..
``fig12`` reproduce the published parameter sets at desk scale; their
physics parameters are fixed, while trajectory counts and time spans are
chosen for reasonable runtimes and may be overridden.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
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

MODEL_VARIANTS = ("detector", "rabi", "freedecay", "measureddecay")


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass(frozen=True)
class ModelSpec:
    """Which model to build, with its physical parameters."""

    variant: str
    detector: Optional[DetectorParams] = None
    drive: Optional[DriveParams] = None
    reservoir: Optional[ReservoirSpec] = None
    omega_a: float = 1.0

    def __post_init__(self):
        if self.variant not in MODEL_VARIANTS:
            raise ConfigError(f"unknown model variant {self.variant!r}")
        needs = {
            "detector": ("detector",),
            "rabi": ("detector", "drive"),
            "freedecay": ("reservoir",),
            "measureddecay": ("reservoir", "detector"),
        }[self.variant]
        for name in needs:
            if getattr(self, name) is None:
                raise ConfigError(f"model {self.variant!r} requires {name} parameters")


def build_model(spec: ModelSpec):
    """Instantiate the model object for a ModelSpec."""
    if spec.variant == "detector":
        return DetectorMeasurementModel(spec.detector, omega_a=spec.omega_a)
    if spec.variant == "rabi":
        return RabiMeasuredModel(spec.detector, spec.drive)
    if spec.variant == "freedecay":
        return FreeDecayModel(spec.reservoir)
    return MeasuredDecayModel(spec.reservoir, spec.detector)


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


def _paper_reservoir(slope: float = 0.0) -> ReservoirSpec:
    # 1001 modes give exactly the published spacing 0.001 across the
    # half-width-0.5 band; the published mode count is self-consistent only
    # to within one mode and the spacing is what fixes the decay rate.
    return ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262, slope=slope, omega_a=1.0)


_DET = DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0)
_DET_EXC = DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0, coupling_target="excited")


def _presets() -> dict[str, RunConfig]:
    detector_spec = ModelSpec("detector", detector=_DET)
    rabi_res = ModelSpec("rabi", detector=_DET, drive=DriveParams(omega_r=0.1, detuning=0.0))
    rabi_det = ModelSpec("rabi", detector=_DET, drive=DriveParams(omega_r=0.1, detuning=0.2))
    free0 = ModelSpec("freedecay", reservoir=_paper_reservoir(0.0))
    free2 = ModelSpec("freedecay", reservoir=_paper_reservoir(2.0))
    meas0 = ModelSpec("measureddecay", reservoir=_paper_reservoir(0.0), detector=_DET)
    meas0_exc = ModelSpec("measureddecay", reservoir=_paper_reservoir(0.0), detector=_DET_EXC)
    meas2 = ModelSpec("measureddecay", reservoir=_paper_reservoir(2.0), detector=_DET)

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

_RUN_KEYS = {
    "model", "dt", "t_max", "n_trajectories", "master_seed", "integrator",
    "observables", "decimation",
}
_DETECTOR_KEYS = {"gamma", "lambda", "omega_d", "coupling_target"}
_DRIVE_KEYS = {"omega_r", "detuning"}
_RESERVOIR_KEYS = {"n_modes", "half_width", "g0", "a", "omega_a"}
_SECTION_KEYS = {
    "run": _RUN_KEYS,
    "detector": _DETECTOR_KEYS,
    "drive": _DRIVE_KEYS,
    "reservoir": _RESERVOIR_KEYS,
}


def _find_key_line(path: str, key: str) -> Optional[int]:
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.strip()
                if stripped.startswith(key) and (
                    stripped[len(key):].lstrip().startswith(("=", ":")) or stripped == key
                ):
                    return lineno
    except OSError:
        pass
    return None


def load_config_file(path: str) -> RunConfig:
    """Parse a sectioned key-value config file into a RunConfig.

    Unknown sections or keys are rejected with the offending key and, when
    possible, its line number.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                line = _find_key_line(path, key)
                where = f"{path}:{line}" if line else path
                raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]")

    if "run" not in parser or "model" not in parser["run"]:
        raise ConfigError(f"{path}: missing [run] section with a 'model' key")
    run = parser["run"]
    variant = run.get("model").strip()
    if variant not in MODEL_VARIANTS:
        raise ConfigError(f"{path}: unknown model {variant!r}")

    detector = drive = reservoir = None
    if "detector" in parser:
        d = parser["detector"]
        detector = DetectorParams(
            gamma=d.getfloat("gamma", 10.0),
            lam=d.getfloat("lambda", 1.0),
            omega_d=d.getfloat("omega_d", 1.0),
            coupling_target=d.get("coupling_target", "ground").strip(),
        )
    if "drive" in parser:
        d = parser["drive"]
        drive = DriveParams(omega_r=d.getfloat("omega_r", 0.0),
                            detuning=d.getfloat("detuning", 0.0))
    if "reservoir" in parser:
        r = parser["reservoir"]
        reservoir = ReservoirSpec(
            n_modes=r.getint("n_modes", 1001),
            half_width=r.getfloat("half_width", 0.5),
            g0=r.getfloat("g0", 0.001262),
            slope=r.getfloat("a", 0.0),
            omega_a=r.getfloat("omega_a", 1.0),
        )

    observables = None
    if "observables" in run:
        observables = tuple(s.strip() for s in run.get("observables").split(",") if s.strip())

    try:
        spec = ModelSpec(variant, detector=detector, drive=drive, reservoir=reservoir,
                         omega_a=reservoir.omega_a if reservoir else 1.0)
        return RunConfig(
            model=spec,
            dt=run.getfloat("dt", 0.1),
            t_max=run.getfloat("t_max", 30.0),
            n_trajectories=run.getint("n_trajectories", 1000),
            master_seed=run.getint("master_seed", DEFAULT_MASTER_SEED),
            integrator=run.get("integrator", "euler").strip(),
            observables=observables,
            decimation=run.getint("decimation", None) if "decimation" in run else None,
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def describe(config: RunConfig) -> dict:
    """JSON-serializable view of a fully resolved RunConfig."""
    spec = config.model
    out = {
        "model": spec.variant,
        "dt": config.dt,
        "t_max": config.t_max,
        "n_trajectories": config.n_trajectories,
        "master_seed": config.master_seed,
        "integrator": config.integrator,
        "observables": list(config.observables) if config.observables else None,
        "decimation": config.decimation,
    }
    if spec.variant == "detector":
        out["omega_a"] = spec.omega_a
    if spec.detector is not None:
        out["detector"] = {
            "gamma": spec.detector.gamma,
            "lambda": spec.detector.lam,
            "omega_d": spec.detector.omega_d,
            "coupling_target": spec.detector.coupling_target,
        }
    if spec.drive is not None:
        out["drive"] = {"omega_r": spec.drive.omega_r, "detuning": spec.drive.detuning}
    if spec.reservoir is not None:
        r = spec.reservoir
        out["reservoir"] = {
            "n_modes": r.n_modes,
            "half_width": r.half_width,
            "g0": r.g0,
            "a": r.slope,
            "omega_a": r.omega_a,
        }
    return out
