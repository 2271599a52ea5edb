"""Climate networks from gridded extreme-event series.

Pipeline: gridded daily data -> seasonal percentile events -> event
synchronization with a shuffle null -> network metrics -> surrogate
ensembles -> boundary corrections -> method comparison statistics. Each
name is imported from its own module, for example
``from gridsync.surrogate import ensemble_stats``.
"""

import os

# One BLAS thread per process, set before any submodule imports numpy (and
# so starts OpenBLAS). The only BLAS call is the ES product E @ E.T, where a
# thread pool cost more import time and CPU than it saved (BENCH_0.7.0.json;
# ROADMAP, "Where the time goes"). Parallel work goes to processes, which
# inherit the setting. A caller's own OPENBLAS_NUM_THREADS wins; no artifact
# byte depends on it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.10.0"
