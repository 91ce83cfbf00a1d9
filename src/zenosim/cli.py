"""Command-line front end: simulate | oracle | validate.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 simulation failure.  The ZENOSIM_WORKERS environment variable sets the
default worker count; --workers overrides it per invocation.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, acceptance, oracles
from .config import (
    ConfigError,
    DEFAULT_MASTER_SEED,
    RUN_KEYS,
    RunConfig,
    load_config_file,
    parse_names,
    preset,
    preset_names,
)
from .ensemble import default_workers, run_ensemble
# benchmarks/tracing.py wraps ``build_model`` and ``run_trajectory`` here by
# name; ``run_trajectory`` stays importable from this module for it.
from .config import build_model
from .engine import run_trajectory  # noqa: F401
from .models import DriveParams, ReservoirSpec
from .output import write_ensemble_csv, write_manifest, write_trajectory_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_SIMULATION = 3


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="run a preset or config file and write CSV output")
    p.add_argument("target", help=f"preset name ({', '.join(preset_names())}) or config file path")
    p.add_argument("--dt", type=float)
    p.add_argument("--t-max", type=float)
    p.add_argument("--n-trajectories", type=int)
    p.add_argument("--seed", type=int, dest="master_seed")
    p.add_argument("--decimation", type=int)
    p.add_argument("--observables", type=parse_names, help="comma-separated observable names")
    p.add_argument("--output", default=None, help="output directory (default: out/<target>)")
    p.add_argument("--per-trajectory", action="store_true",
                   help="also write one CSV per trajectory")
    p.add_argument("--workers", type=int, default=None)
    return p


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_oracle(sub):
    p = sub.add_parser("oracle", help="print a closed-form rate prediction")
    p.add_argument("formula", choices=tuple(ORACLES))
    p.add_argument("--gamma", type=_finite, help="detector decay rate")
    p.add_argument("--lambda", type=_finite, metavar="LAM", help="detector coupling")
    p.add_argument("--tau-m", type=_finite, help="measurement time")
    p.add_argument("--t", type=_finite, help="time argument")
    p.add_argument("--omega-r", type=_finite, help="drive strength")
    p.add_argument("--detuning", type=_finite, default=DriveParams.detuning)
    p.add_argument("--lambda-band", type=_finite, default=ReservoirSpec.half_width,
                   help="reservoir half width")
    p.add_argument("--gamma0", type=_finite, help="flat-band golden-rule rate")
    p.add_argument("--g0", type=_finite, help="base mode coupling")
    p.add_argument("--n-modes", type=int, default=ReservoirSpec.n_modes)
    p.add_argument("--a", type=_finite, default=ReservoirSpec.slope,
                   help="coupling slope across the band")
    return p


def _add_validate(sub):
    p = sub.add_parser("validate", help="run an acceptance suite")
    p.add_argument("suite", choices=tuple(acceptance.SUITES.keys()))
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p.add_argument("--n-trajectories", type=int, default=None,
                   help="override ensemble sizes (tolerances rescale accordingly)")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zenosim",
                                 description="stochastic quantum-jump simulator of measured systems")
    ap.add_argument("--version", action="version", version=f"zenosim {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_oracle(sub)
    _add_validate(sub)
    return ap


def _resolve_config(args) -> RunConfig:
    target = args.target
    if target in preset_names():
        cfg = preset(target)
    elif Path(target).exists():
        cfg = load_config_file(target)
    else:
        raise ConfigError(f"{target!r} is neither a preset nor an existing config file")
    overrides = {key: getattr(args, key) for key in RUN_KEYS if getattr(args, key) is not None}
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    known = build_model(cfg.model).observables()
    unknown = [name for name in cfg.observables or () if name not in known]
    if unknown:
        raise ConfigError(f"model {cfg.model.variant!r} has no observable "
                          f"{', '.join(unknown)}; it has {', '.join(known)}")
    return cfg


def _workers(args) -> int:
    if args.workers is None:
        return default_workers()
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    return args.workers


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    workers = _workers(args)
    outdir = Path(args.output) if args.output else Path("out") / str(args.target).replace("/", "_")
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    outputs = []
    try:
        stats = run_ensemble(cfg, workers=workers, keep_curves=args.per_trajectory)
        ensemble_done = time.perf_counter()
        ens_path = outdir / "ensemble.csv"
        write_ensemble_csv(ens_path, stats)
        outputs.append(str(ens_path))
        if args.per_trajectory:
            for i in range(stats.n_trajectories):
                path = outdir / f"trajectory_{i:04d}.csv"
                write_trajectory_csv(path, stats.record(i))
                outputs.append(str(path))
        csv_done = time.perf_counter()
    except Exception as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION

    wall = time.perf_counter() - started
    manifest = outdir / "manifest.json"
    write_manifest(manifest, cfg, outputs, wall,
                   extra={"total_jumps": stats.total_jumps,
                          "max_jump_prob": stats.trajectories.max_jump_prob,
                          "phase_wall_s": {"ensemble": ensemble_done - started,
                                           "csv": csv_done - ensemble_done}})
    outputs.append(str(manifest))
    print(f"wrote {len(outputs)} files to {outdir} in {wall:.1f}s "
          f"({stats.n_trajectories} trajectories, {stats.total_jumps} jumps)")
    return EXIT_OK


def _reservoir_from_args(args) -> ReservoirSpec:
    res = ReservoirSpec(n_modes=args.n_modes, half_width=args.lambda_band, slope=args.a)
    if args.g0 is not None:
        return replace(res, g0=args.g0)
    if args.gamma0 is not None:
        if args.gamma0 < 0:
            raise ConfigError(f"--gamma0 must be >= 0, got {args.gamma0}")
        return replace(res, g0=float(np.sqrt(args.gamma0 * res.mode_spacing / (2.0 * np.pi))))
    raise ConfigError("provide --g0 or --gamma0")


class _MissingFlags(Exception):
    """An oracle formula lacks a flag it needs; the message names it."""


def _missing(args, flags) -> list[str]:
    return [f"--{f}" for f in flags if getattr(args, f.replace("-", "_")) is None]


def _prediction(pred):
    return [(pred.formula_id, pred.rate, pred.validity_note)]


def _rabi_rows(args, res):
    amp = oracles.rabi_amplitude(args.t, DriveParams(args.omega_r, args.detuning))
    return [("ground amplitude re", amp.real, ""), ("ground amplitude im", amp.imag, ""),
            ("ground population", abs(amp) ** 2, "")]


def _zeno_rows(args, res):
    tau = args.tau_m
    if tau is None:
        if _missing(args, ("gamma", "lambda")):
            raise _MissingFlags("provide --tau-m or --gamma/--lambda")
        tau = oracles.measurement_time(args.gamma, getattr(args, "lambda"))
    return _prediction(oracles.zeno_transition_rate(DriveParams(args.omega_r, args.detuning),
                                                    tau))


def _anti_zeno_rows(args, res):
    pred = oracles.anti_zeno_rate(res, args.tau_m)
    note = pred.validity_note or f"half_width*tau_m = {res.half_width * args.tau_m:g}"
    return [(pred.formula_id, pred.rate, note)]


# formula -> (required flags, needs a reservoir band, rows(args, band)), where
# a row is the printed (label, value, note)
ORACLES = {
    "tau_m": (("gamma", "lambda"), False, lambda args, res: [
        ("measurement time", oracles.measurement_time(args.gamma, getattr(args, "lambda")), "")]),
    "coherence": (("t", "tau-m"), False, lambda args, res: [
        ("coherence factor", oracles.coherence_factor(args.t, args.tau_m), "")]),
    "rabi": (("t", "omega-r"), False, _rabi_rows),
    "zeno-rate": (("omega-r",), False, _zeno_rows),
    "golden": ((), True, lambda args, res: _prediction(oracles.golden_rule_rate(res))),
    "corrected-free": ((), True,
                       lambda args, res: _prediction(oracles.corrected_free_decay_rate(res))),
    "measured-decay": (("tau-m",), True, lambda args, res: _prediction(
        oracles.measured_decay_rate(res, args.tau_m))),
    "anti-zeno": (("tau-m",), True, _anti_zeno_rows),
    "resolvent-root": ((), True, lambda args, res: [
        ("resolvent population rate", oracles.resolvent_decay_rate(res), "")]),
    "laplace-root": (("tau-m",), True, lambda args, res: [
        ("laplace-pole population rate", oracles.laplace_decay_rate(res, args.tau_m), "")]),
}


def _cmd_oracle(args) -> int:
    flags, band, rows = ORACLES[args.formula]
    try:
        # the band first: a missing --g0/--gamma0 is reported before other flags
        res = _reservoir_from_args(args) if band else None
        missing = _missing(args, flags)
        if missing:
            raise _MissingFlags(f"missing required parameters: {', '.join(missing)}")
        table = rows(args, res)
    except _MissingFlags as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError, ZeroDivisionError) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    for label, value, note in table:
        suffix = f"   [{note}]" if note else ""
        print(f"{label:32s} {value:.10g}{suffix}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    kwargs = {}
    if args.n_trajectories is not None:
        n = args.n_trajectories
        kwargs = dict(n_detector=n, n_zeno=n, n_detuned=n, n_decay=n, n_anti=n)
    runs = acceptance.AcceptanceRuns(workers=_workers(args), master_seed=args.seed, **kwargs)
    results = acceptance.run_suite(args.suite, runs)
    print(acceptance.format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"simulate": _cmd_simulate, "oracle": _cmd_oracle, "validate": _cmd_validate}
    try:
        return command[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
