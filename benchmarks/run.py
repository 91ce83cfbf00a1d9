"""zenosim benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload ensembles --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --smoke

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.  A run times the package's set-up in fresh
interpreters (``setup_s``), then repeats the workload's short bodies,
cycling over its inputs, until ``--seconds`` have passed, and reports its
median pass (see ``median_pass``).  With ``--trace 1`` it runs every
input untraced and then traced and reports per-layer figures instead.  The
outputs are checked outside the timed bodies; every trajectory, reference
call, written file and check counts as one operation.  The last
line of standard output is the result as JSON; the exit code is 0 only if
every operation and check succeeded.  Details of each run (environment,
checks, trace spans) are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy is first imported (here and, through the
# environment, in the set-up probes).  With two threads the dense
# density-matrix products of ``references`` time the scheduler of a few shared
# cores, and the threads keep spinning into the next body.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "traj_steps_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "engine.steps": "count", "engine.jumps": "count", "engine.jump_fraction": "ratio",
    "engine.max_jump_prob": "probability", "engine.rng_draws": "count", "engine.rng_s": "s",
    "engine.self_s": "s", "engine.us_per_step": "us",
    **{f"models.{m}.{k}": u for m in ("derivative", "excited_weight", "collapse", "observe")
       for k, u in (("calls", "count"), ("s", "s"), ("us_per_call", "us"))},
    "models.derivative.bytes": "B-computed",
    "ensemble.run_s": "s", "ensemble.merge_s": "s", "ensemble.pool_speedup": "ratio",
    "ensemble.pool_cpu_overhead_s": "s",
    "oracles.laplace_flat.s": "s", "oracles.laplace_sloped.s": "s",
    "oracles.residual.calls": "count", "oracles.quad.calls": "count",
    "dmref.master.s": "s", "dmref.master.us_per_step": "us",
    "dmref.band_dm.s": "s", "dmref.band_dm.us_per_step": "us",
    "output.trajectory_csv.calls": "count", "output.trajectory_csv.s": "s",
    "output.trajectory_csv.bytes": "B", "output.ensemble_csv.s": "s",
    "output.ensemble_csv.bytes": "B", "output.manifest.s": "s", "output.mb_per_s": "MB/s",
    "cli.simulate.s": "s", "cli.rerun_steps": "count", "cli.rerun_s": "s",
    "config.preset.s": "s", "config.build_model.s": "s",
    "check.band_ratio": "ratio", "check.ref_rel_err": "ratio",
    "check.decay_rate_rel_err": "ratio",
    "tracing_overhead": "ratio", "trace.wrapper_us": "us",
    "twolevel.us_per_step": "us", "banddecay.us_per_step": "us",
}


def import_program():
    """Import zenosim from this checkout's ``src/``, or exit with code 2."""
    if not (SRC / "zenosim" / "__init__.py").is_file():
        print(f"benchmark: no zenosim sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import zenosim

    if Path(zenosim.__file__).resolve().parent != (SRC / "zenosim").resolve():
        print(f"benchmark: imported zenosim from {zenosim.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return zenosim


def cpu_seconds() -> float:
    """User + system time of this process (all threads) and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import hashlib

    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "zenosim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def setup_times(presets, n: int) -> dict:
    """Median import / preset / build_model seconds over ``n`` fresh interpreters."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *presets],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    totals = [s["import_s"] + s["preset_s"] + s["build_model_s"] for s in samples]
    return {
        "setup_s": statistics.median(totals),
        "config.preset.s": statistics.median(s["preset_s"] for s in samples),
        "config.build_model.s": statistics.median(s["build_model_s"] for s in samples),
    }


def median_pass(values, workload):
    """The figure a run reports for its bodies: the median body of each
    group (see ``Workload.group``), summed over the groups.  Other tenants of
    a shared machine slow bodies down by 10-40% for seconds at a time; over
    the many bodies of a run the median of a group repeats between runs
    better than its fastest body, which depends on the luck of one quiet
    moment."""
    groups = {}
    for i, v in enumerate(values):
        groups.setdefault(workload.group(i % workload.inputs), []).append(v)
    return sum(statistics.median(g) for g in groups.values())


class Run:
    """Timed bodies of one workload, with operation accounting.

    Keeps the first output of every input for the checks; a later body of
    the same input must reproduce it exactly.
    """

    def __init__(self, workload):
        self.workload = workload
        self.outputs = {}
        self.attempted = 0
        self.failed = 0
        self.same = True
        self.compared = 0

    def rep(self, k, call=None):
        """Run body ``k`` once; returns (wall s, cpu s), or None if it raised."""
        wl = self.workload
        self.attempted += wl.operations(k)
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out = wl.body(k) if call is None else wl.body(k, call)
        except Exception:
            traceback.print_exc()
            self.failed += wl.operations(k)
            return None
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        if k not in self.outputs:
            self.outputs[k] = out
        else:
            self.same = self.same and wl.same(k, self.outputs[k], out)
            self.compared += 1
            wl.discard(k, out)
        return wall, cpu


def run_untraced(run: Run, seconds: float):
    """Bodies 0, 1, ..., cycling over the inputs, until ``seconds`` have
    passed and every input ran at least once."""
    walls, cpus = [], []
    inputs = run.workload.inputs
    start = time.perf_counter()
    while True:
        r = run.rep(len(walls) % inputs)
        if r is None:
            break
        walls.append(r[0])
        cpus.append(r[1])
        elapsed = time.perf_counter() - start
        if len(walls) >= inputs and elapsed + statistics.median(walls) > seconds:
            break
    return walls, cpus


def run_traced(run: Run, seconds: float):
    """Cycles over the inputs, each body untraced and then traced, until
    ``seconds`` have passed (at least one cycle).  Returns the untraced
    walls and CPU times, the traced walls, and (per-layer metrics, tracer)
    of every cycle."""
    import tracing

    walls, cpus, traced_walls, cycles = [], [], [], []
    wrapper_s = tracing.wrapper_cost()
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer(wrapper_s)
        for k in range(run.workload.inputs):
            r = run.rep(k)
            if r is None:
                return walls, cpus, traced_walls, cycles
            walls.append(r[0])
            cpus.append(r[1])
            tracing.install(tracer)
            try:
                r = run.rep(k, tracer.call)
            finally:
                tracer.restore()
            if r is None:
                return walls, cpus, traced_walls, cycles
            traced_walls.append(r[0])
        cycles.append((tracing.layer_metrics(tracer), tracer))
        cycle_s = (time.perf_counter() - start) / len(cycles)
        if time.perf_counter() - start + cycle_s > seconds:
            return walls, cpus, traced_walls, cycles


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: every workload at a few seconds, for smoke runs")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload tiny, traced and untraced, and check "
                         "that every metric in BENCHMARK.json is emitted")
    args = ap.parse_args(argv)
    if args.smoke:
        import smoke

        return smoke.main()

    import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    tiny = args.size == "tiny"
    workload = workloads.WORKLOADS[args.workload](args.seed, tiny)
    env = environment(args.seed)

    setup = setup_times(workload.presets, 1 if tiny else SETUP_PROBES)
    run = Run(workload)
    checks = workloads.Checks()
    metrics = {}
    cycles = []
    try:
        if args.trace:
            workload.traced()
            walls, cpus, traced_walls, cycles = run_traced(run, args.seconds)
        else:
            walls, cpus = run_untraced(run, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(run.outputs) == workload.inputs:
            workload.check([run.outputs[k] for k in range(workload.inputs)], checks)
            checks.add(f"repeated bodies give identical output ({run.compared} compared)",
                       run.same)
        if cycles:
            per_cycle = [m for m, _ in cycles]
            for key in per_cycle[0]:
                metrics[key] = statistics.median(m[key] for m in per_cycle)
            metrics["ensemble.pool_speedup"] = 0.0
            metrics["ensemble.pool_cpu_overhead_s"] = 0.0
            metrics.update(workload.pool_diagnostics(checks, cpu_seconds))
            metrics["config.preset.s"] = setup["config.preset.s"]
            metrics["config.build_model.s"] = setup["config.build_model.s"]
            metrics.update(checks.diag)
            metrics["tracing_overhead"] = (median_pass(traced_walls, workload)
                                           / median_pass(walls, workload))
            # untraced, per step of the median body of each ensemble slice
            for name in ("twolevel", "banddecay"):
                metrics[f"{name}.us_per_step"] = 0.0
            for i, part in enumerate(getattr(workload, "parts", [])):
                if part.name in ("twolevel", "banddecay"):
                    body = statistics.median(w for n, w in enumerate(walls)
                                             if workload.group(n % workload.inputs)[0] == i)
                    metrics[f"{part.name}.us_per_step"] = 1e6 * body / part.steps
            metrics["trace.wrapper_us"] = 1e6 * cycles[0][1].wrapper_s
        elif walls:
            wall = median_pass(walls, workload)
            metrics = {
                "wall_s": wall,
                "cpu_s": median_pass(cpus, workload),
                "traj_steps_per_s": workload.steps / wall,
                "setup_s": setup["setup_s"],
                "peak_rss_mb": peak_rss_mb,
            }
    finally:
        workload.cleanup()

    attempted = run.attempted + len(checks.lines)
    failed = run.failed + checks.failed
    correct = failed == 0 and bool(metrics)

    for name, ok, detail in checks.lines:
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    print(f"{workload.name}: {len(walls)} bodies, fail_ratio {failed / max(attempted, 1):.4g} "
          f"({failed}/{attempted})")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in metrics},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{args.size}"
    record = {"env": env, "walls_s": walls, "cpus_s": cpus, "setup": setup,
              "checks": checks.lines, **result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if cycles:
        (OUT / f"trace-{tag}.json").write_text(json.dumps(cycles[0][1].dump()) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
