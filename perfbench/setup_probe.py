"""Fresh-interpreter start-up probe: import numpy, import bellsieve, load the
workload's circuits, then print one JSON line with the two import times.

Usage (from the repository root):
    python3 perfbench/setup_probe.py <workload> <seed>
run.py times this process from spawn to that line for `setup_s`.
"""
import os
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import bellsieve  # noqa: E402,F401

t2 = time.perf_counter()
import json  # noqa: E402
import random  # noqa: E402

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].load_circuits(random.Random(int(sys.argv[2])))
print(json.dumps({"import_numpy_s": t1 - t0, "import_bellsieve_s": t2 - t1}), flush=True)
