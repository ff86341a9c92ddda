"""Run the suite on one BLAS thread unless the caller sets a count.

This conftest loads before any test module imports numpy, so OpenBLAS (or
MKL, or an OpenMP runtime) reads these variables when it starts. One thread
keeps CPU time down on small machines and makes BLAS results independent of
the core count; a caller's own setting wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
