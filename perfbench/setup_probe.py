"""Time a fresh process's set-up for one workload and print it in seconds:
importing nonloc plus the lazy set-up (such as the cached vertex sets) that
the workload's first operation would otherwise pay.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

import run

if __name__ == "__main__":
    t0 = time.perf_counter()
    api = run.import_program()
    imported = time.perf_counter() - t0
    from workloads import WORKLOADS
    workload = WORKLOADS[sys.argv[1]](api)
    t1 = time.perf_counter()
    workload.setup()
    print(imported + time.perf_counter() - t1)
