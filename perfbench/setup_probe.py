"""Set-up probe: a fresh process imports the package and builds one
workload's inputs, then prints `ready <normalised s> <wall s> <package file>`:
normalised seconds of this process's CPU time, and wall seconds from the
spawn time passed in by run.py.

Usage: setup_probe.py WORKLOAD SEED SPAWN_EPOCH_SECONDS
"""
import time

EPOCH0, PERF0 = time.time(), time.perf_counter()

import sys  # noqa: E402

import speed  # noqa: E402  (imports numpy, as the package would)

clock = speed.SpeedClock()
clock.start()

import qftscat  # noqa: E402
import qftscat.cli  # noqa: E402,F401  (imports every library module)

import inputs  # noqa: E402

inputs.build(sys.argv[1], int(sys.argv[2]))
ready, ready_wall = speed.now(), time.perf_counter()
clock.stop()
# the CPU-time clock starts with the process: the part before the first
# calibration (interpreter start, numpy import) is scaled by that calibration
print("ready", clock.normalised(0.0, ready), EPOCH0 - float(sys.argv[3]) + ready_wall - PERF0,
      qftscat.__file__, flush=True)
