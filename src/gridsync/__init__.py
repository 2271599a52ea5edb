"""Climate networks from gridded extreme-event series.

Pipeline: gridded daily data -> seasonal percentile events -> event
synchronization with a shuffle null -> network metrics -> surrogate
ensembles -> boundary corrections -> method comparison statistics.
"""

__version__ = "0.7.0"

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
