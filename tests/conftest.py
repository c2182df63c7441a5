"""Session setup: BLAS runs one thread per process.

The slow demonstrations train their independent experiments on forked
workers through ``harness._map_units``, one per usable CPU. Each worker
inherits the BLAS thread pool, so a multi-threaded BLAS puts several threads
on every CPU: test_07 took 214 s that way on 2 vCPUs, against 110 s in one
process. pytest imports this file before any test module, so before numpy;
a value already in the environment wins.
"""

import os

for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(variable, "1")
