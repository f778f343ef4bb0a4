"""Time importing illposed and building problems in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py ROOT PROBLEM[,PROBLEM...] N
Prints the elapsed seconds.  The BLAS thread pin is inherited from the
environment of the benchmark process that starts this one.
"""

import sys
import time

root, problems, n = sys.argv[1], sys.argv[2].split(","), int(sys.argv[3])
sys.path.insert(0, f"{root}/src")
started = time.perf_counter()
import illposed  # noqa: E402  (the import is what is being timed)

for name in problems:
    illposed.build_problem(name, n)
print(time.perf_counter() - started)
