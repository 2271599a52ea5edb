"""Climate networks from gridded extreme-event series.

Pipeline: gridded daily data -> seasonal percentile events -> event
synchronization with a shuffle null -> network metrics -> surrogate
ensembles -> boundary corrections -> method comparison statistics.
"""

__version__ = "0.4.0"

from .correction import CorrectedField, DegenerateFieldError, correct_divide, correct_subtract, paired_fields
from .events import EventSeries, InsufficientSupportError, ThresholdSpec, compute_threshold, dedup_consecutive, extract_events, to_event_series
from .grid_io import GriddedSeries, GridIOError, GridSpec, extract_season, load_gridded, read_metric_field, write_gridded, write_metric_field
from .netmetrics import (
    MetricField,
    Network,
    betweenness,
    clustering,
    compute_metric,
    degree,
    haversine,
    log_bc,
    mean_geo_distance,
)
from .stats import ComparisonReport, TestResult, compare_methods, ks_two_sample, paired_t_test
from .surrogate import DistanceProfile, SurrogateStats, ensemble_stats, estimate_profile, sample_surrogate
from .sync import DelayPair, SyncParams, SyncResult, build_network, delay_pair, event_sync, local_tau, null_threshold, null_threshold_exact, pair_sync
from .synth import SynthEventSpec, SynthNetSpec, gen_divergence_fixture, gen_embedded_network, gen_event_field
