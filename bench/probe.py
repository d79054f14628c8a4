"""One fresh start: ``import quermass``, then build the workload's grids and inputs.

Usage: python bench/probe.py WORKLOAD SEED

Prints one JSON line {"import_s": ..., "inputs_s": ...} when ready; the
parent times the interval from spawning this process to reading that line.
"""

import json
import sys
import time

t0 = time.perf_counter()
import quermass  # noqa: E402,F401

t1 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)
