"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON object: the seconds spent importing raftsim, in
parse_config and in build_initial_state, and their sum (setup_s).
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports raftsim and raftsim.harness)

t1 = time.perf_counter()
text = workloads.WORKLOADS[sys.argv[1]].CFG.format(seed=int(sys.argv[2]))
cfg = workloads.config.parse_config(text)
t2 = time.perf_counter()
cfg.build_initial_state()
t3 = time.perf_counter()
print(json.dumps({"setup_s": t3 - t0, "import_s": t1 - t0,
                  "parse_s": t2 - t1, "build_state_s": t3 - t2}))
