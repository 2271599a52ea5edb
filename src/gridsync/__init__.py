"""Climate networks from gridded extreme-event series.

Pipeline: gridded daily data -> seasonal percentile events -> event
synchronization with a shuffle null -> network metrics -> surrogate
ensembles -> boundary corrections -> method comparison statistics.
"""

import os

# One BLAS thread per process, set before any submodule imports numpy (and
# so starts OpenBLAS). The only BLAS call is the ES product E @ E.T, where a
# thread pool cost more import time and CPU than it saved (BENCH_0.7.0.json;
# ROADMAP, "Where the time goes"). Parallel work goes to processes, which
# inherit the setting. A caller's own OPENBLAS_NUM_THREADS wins; no artifact
# byte depends on it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.8.0"

from .correction import CorrectedField, DegenerateFieldError, correct_divide, correct_subtract, paired_fields
from .events import ThresholdSpec, extract_events
from .grid_io import GriddedSeries, GridIOError, GridSpec, extract_season, load_gridded, write_gridded
from .netmetrics import (
    MetricField,
    Network,
    betweenness,
    clustering,
    compute_metric,
    degree,
    log_bc,
    mean_geo_distance,
)
from .stats import ComparisonReport, TestResult, compare_methods, ks_two_sample, paired_t_test
from .surrogate import DistanceProfile, SurrogateStats, ensemble_stats, estimate_profile
from .sync import SyncParams, build_network
from .synth import SynthNetSpec, gen_embedded_network
