"""Set-up time in a fresh interpreter: import besselkit, then warm up.

Usage: ``setup_child.py WORKLOAD EVAL_FILE OUTPUT``.  Prints the seconds
spent importing the package and running the warm-up calls; importing the
benchmark's own module is not counted.
"""

import sys
import time

start = time.perf_counter()
import besselkit  # noqa: E402,F401
import besselkit.cli  # noqa: E402,F401

imported = time.perf_counter()
import workloads  # noqa: E402

resumed = time.perf_counter()
workloads.warm_up(workloads.WORKLOADS[sys.argv[1]], sys.argv[2], sys.argv[3])
print((imported - start) + (time.perf_counter() - resumed))
