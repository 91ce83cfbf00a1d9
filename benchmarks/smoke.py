"""Smoke mode: every workload at its tiny size, untraced and traced.

Asserts that each run exits 0, reports ``correct``, and emits exactly the
metrics BENCHMARK.json names for its mode, each finite and with its unit.
Run through ``python3 benchmarks/run.py --smoke``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 7


def problems(spec: dict, workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    for name in sorted(set(wanted) ^ set(metrics)):
        found.append(f"metric {name} {'missing' if name in wanted else 'not in BENCHMARK.json'}")
    for name, unit in wanted.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name} = {value!r} is not a finite number")
        if m.get("unit") != unit:
            found.append(f"{name} unit {m.get('unit')!r}, BENCHMARK.json says {unit!r}")
    return found


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = problems(spec, w["name"], trace)
            bad += bool(found)
            print(f"smoke {w['name']} trace={trace}: {'ok' if not found else 'FAIL'}")
            for line in found:
                print(f"    {line}")
    print(f"smoke: {'all ok' if not bad else f'{bad} failing runs'}")
    return 1 if bad else 0
