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
    p.add_argument("--integrator", choices=("euler", "rk4"))
    p.add_argument("--decimation", type=int)
    p.add_argument("--observables", type=parse_names, help="comma-separated observable names")
    p.add_argument("--output", default=None, help="output directory (default: out/<target>)")
    p.add_argument("--per-trajectory", action="store_true",
                   help="also write one CSV per trajectory")
    p.add_argument("--workers", type=int, default=None)
    return p


def _add_oracle(sub):
    p = sub.add_parser("oracle", help="print a closed-form rate prediction")
    p.add_argument("formula", choices=(
        "tau_m", "coherence", "rabi", "zeno-rate", "golden", "corrected-free",
        "measured-decay", "anti-zeno", "resolvent-root", "laplace-root",
    ))
    p.add_argument("--gamma", type=float, help="detector decay rate")
    p.add_argument("--lambda", type=float, dest="lam", help="detector coupling")
    p.add_argument("--tau-m", type=float, help="measurement time")
    p.add_argument("--t", type=float, help="time argument")
    p.add_argument("--omega-r", type=float, help="drive strength")
    p.add_argument("--detuning", type=float, default=DriveParams.detuning)
    p.add_argument("--lambda-band", type=float, default=ReservoirSpec.half_width,
                   help="reservoir half width")
    p.add_argument("--gamma0", type=float, help="flat-band golden-rule rate")
    p.add_argument("--g0", type=float, help="base mode coupling")
    p.add_argument("--n-modes", type=int, default=ReservoirSpec.n_modes)
    p.add_argument("--a", type=float, default=ReservoirSpec.slope,
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
                          "phase_wall_s": {"ensemble": ensemble_done - started,
                                           "csv": csv_done - ensemble_done}})
    outputs.append(str(manifest))
    print(f"wrote {len(outputs)} files to {outdir} in {wall:.1f}s "
          f"({stats.n_trajectories} trajectories, {stats.total_jumps} jumps)")
    return EXIT_OK


_FLAG_DEST = {"lambda": "lam"}


def _require(args, names) -> bool:
    missing = []
    for n in names:
        dest = _FLAG_DEST.get(n, n.replace("-", "_"))
        if getattr(args, dest, None) is None:
            missing.append(n)
    if missing:
        print(f"oracle: missing required parameters: {', '.join('--' + n for n in missing)}",
              file=sys.stderr)
        return False
    return True


def _reservoir_from_args(args) -> ReservoirSpec:
    res = ReservoirSpec(n_modes=args.n_modes, half_width=args.lambda_band, slope=args.a)
    if args.g0 is not None:
        return replace(res, g0=args.g0)
    if args.gamma0 is not None:
        return replace(res, g0=float(np.sqrt(args.gamma0 * res.mode_spacing / (2.0 * np.pi))))
    raise ConfigError("provide --g0 or --gamma0")


def _cmd_oracle(args) -> int:
    rows = []
    try:
        if args.formula == "tau_m":
            if not _require(args, ("gamma", "lambda")):
                return EXIT_CONFIG
            rows.append(("measurement time", oracles.measurement_time(args.gamma, args.lam), ""))
        elif args.formula == "coherence":
            if not _require(args, ("t", "tau-m")):
                return EXIT_CONFIG
            rows.append(("coherence factor", oracles.coherence_factor(args.t, args.tau_m), ""))
        elif args.formula == "rabi":
            if not _require(args, ("t", "omega-r")):
                return EXIT_CONFIG
            amp = oracles.rabi_amplitude(args.t, DriveParams(args.omega_r, args.detuning))
            rows.append(("ground amplitude re", amp.real, ""))
            rows.append(("ground amplitude im", amp.imag, ""))
            rows.append(("ground population", abs(amp) ** 2, ""))
        elif args.formula == "zeno-rate":
            if not _require(args, ("omega-r",)):
                return EXIT_CONFIG
            tau = args.tau_m if args.tau_m is not None else (
                oracles.measurement_time(args.gamma, args.lam)
                if args.gamma is not None and args.lam is not None else None)
            if tau is None:
                print("oracle: provide --tau-m or --gamma/--lambda", file=sys.stderr)
                return EXIT_CONFIG
            pred = oracles.zeno_transition_rate(DriveParams(args.omega_r, args.detuning), tau)
            rows.append((pred.formula_id, pred.rate, pred.validity_note))
        else:
            res = _reservoir_from_args(args)
            if args.formula == "golden":
                pred = oracles.golden_rule_rate(res)
                rows.append((pred.formula_id, pred.rate, pred.validity_note))
            elif args.formula == "corrected-free":
                pred = oracles.corrected_free_decay_rate(res)
                rows.append((pred.formula_id, pred.rate, pred.validity_note))
            elif args.formula == "measured-decay":
                if not _require(args, ("tau-m",)):
                    return EXIT_CONFIG
                pred = oracles.measured_decay_rate(res, args.tau_m)
                rows.append((pred.formula_id, pred.rate, pred.validity_note))
            elif args.formula == "anti-zeno":
                if not _require(args, ("tau-m",)):
                    return EXIT_CONFIG
                pred = oracles.anti_zeno_rate(res, args.tau_m)
                note = pred.validity_note or f"half_width*tau_m = {res.half_width * args.tau_m:g}"
                rows.append((pred.formula_id, pred.rate, note))
            elif args.formula == "resolvent-root":
                rows.append(("resolvent population rate", oracles.resolvent_decay_rate(res), ""))
            elif args.formula == "laplace-root":
                if not _require(args, ("tau-m",)):
                    return EXIT_CONFIG
                rows.append(("laplace-pole population rate",
                             oracles.laplace_decay_rate(res, args.tau_m), ""))
    except (ConfigError, ValueError, ZeroDivisionError) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    for label, value, note in rows:
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
