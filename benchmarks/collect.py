"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmarks/collect.py --workloads twolevel banddecay --seeds 1-10 \
        [--seconds 16] [--trace-seed 1] [--out benchmarks/out/summary.json]

For every workload and end-to-end metric it prints the median of the runs
and the spread (third minus first quartile, from
``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from BENCHMARK.json.  With ``--trace-seed`` it also makes one
traced run per workload and keeps its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output; {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    for line in lines:
        if line.startswith("env "):
            result["env"] = json.loads(line[4:])
    return result


ROADMAP_ROWS = (
    # (row of the ROADMAP baseline table, workload, per-layer metric)
    ("no-jump step, 4-level model (fig2), us/step", "ensembles", "twolevel.us_per_step"),
    ("no-jump step, measured decay (dim 2004), us/step", "ensembles", "banddecay.us_per_step"),
    ("laplace_decay_rate flat, s", "tools", "oracles.laplace_flat.s"),
    ("laplace_decay_rate sloped, s", "tools", "oracles.laplace_sloped.s"),
    ("evolve_master_detector fig5, us/step", "tools", "dmref.master.us_per_step"),
    ("evolve_measured_decay_dm 201 modes, us/step", "tools", "dmref.band_dm.us_per_step"),
)


def roadmap_rows(workloads: dict) -> dict:
    """The rows of the ROADMAP baseline table these workloads cover, from
    the traced runs (us/step of the ensembles from their untraced bodies)."""
    rows = {}
    for row, workload, metric in ROADMAP_ROWS:
        traced = workloads.get(workload, {}).get("trace")
        if traced and metric in traced["metrics"]:
            rows[row] = traced["metrics"][metric]["value"]
    return rows


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            r = run(workload, seed, args.seconds, 0)
            results.append(r)
            print(f"{workload} seed {seed}: exit {r['exit_code']} correct {r['correct']} "
                  f"failed {r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                  flush=True)
        entry = {"runs": results, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "bound": bound}
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            worst += bool(flag)
            print(f"  {workload:12s} {name:18s} median {median:.5g}  spread {spread:.3f} "
                  f"(bound {bound}){flag}", flush=True)
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, args.seconds, 1)
            entry["trace"] = traced
            print(f"  {workload} traced: exit {traced['exit_code']} correct {traced['correct']}",
                  flush=True)
        summary["workloads"][workload] = entry
    summary["roadmap_baseline"] = roadmap_rows(summary["workloads"])
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
