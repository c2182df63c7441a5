"""Session setup: BLAS runs one thread per process.

``harness._map_units`` sets each forked worker to one BLAS thread itself.
The pin here covers the tests that train in this process, so every test
trains with the BLAS threading the workers use. pytest imports this file
before any test module, so before numpy; a value already in the environment
wins.
"""

import os

for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(variable, "1")
