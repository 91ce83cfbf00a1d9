"""Set-up cost of zenosim in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <preset> [<preset> ...]

Times ``import zenosim``, resolving the presets and building their models,
and prints the three durations (seconds) as one JSON object.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import zenosim  # noqa: E402

t1 = time.perf_counter()
configs = [zenosim.preset(name) for name in sys.argv[2:]]
t2 = time.perf_counter()
models = [zenosim.build_model(cfg.model) for cfg in configs]
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "preset_s": t2 - t1, "build_model_s": t3 - t2}))
