"""Boundary corrections: surrogate-mean subtraction and division.

Subtraction replaces a node's metric by its excess over the surrogate mean;
division replaces it by the ratio. Both corrected fields are min-max
normalized onto [0, 1] before comparison. Division is undefined wherever the
surrogate mean is zero; such nodes are excluded from the normalization
bounds and from downstream statistics rather than regularized away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_io import GridSpec, _flag, _node_cells, _read_nodes, _write_rows
from .netmetrics import MetricField
from .surrogate import SurrogateStats

CORRECTED_HEADER = "node_id,lat,lon,raw,surrogate_mean,corrected,normalized,defined"


class DegenerateFieldError(ValueError):
    """Corrected field is constant, so min-max normalization is undefined."""


@dataclass(frozen=True, eq=False)
class CorrectedField:
    raw: np.ndarray
    surrogate_mean: np.ndarray
    corrected: np.ndarray  # NaN at undefined nodes
    normalized: np.ndarray  # NaN at undefined nodes
    undefined: np.ndarray  # bool, True where the method is undefined

    @property
    def n(self) -> int:
        return int(self.raw.size)


def _check_alignment(raw: MetricField, sur: SurrogateStats) -> None:
    if raw.n != sur.n:
        raise ValueError(f"raw field has {raw.n} nodes, surrogate stats {sur.n}")
    if raw.metric != sur.metric:
        raise ValueError(f"metric mismatch: raw {raw.metric!r} vs surrogate {sur.metric!r}")


def _corrected_field(method: str, raw: MetricField, sur: SurrogateStats, corrected: np.ndarray,
                     defined: np.ndarray) -> CorrectedField:
    """The corrected field min-max normalized over its defined nodes."""
    vals = corrected[defined]
    lo = float(vals.min())
    hi = float(vals.max())
    if hi == lo:
        raise DegenerateFieldError(
            f"{method} correction of {raw.metric}: corrected field is constant "
            f"({lo!r}) over {vals.size} defined nodes; min-max normalization undefined"
        )
    normalized = np.full(corrected.size, np.nan)
    normalized[defined] = (vals - lo) / (hi - lo)
    return CorrectedField(raw=raw.values.copy(), surrogate_mean=sur.mean.copy(), corrected=corrected,
                          normalized=normalized, undefined=~defined)


def correct_subtract(raw: MetricField, sur: SurrogateStats) -> CorrectedField:
    """corrected = raw - surrogate mean, then min-max normalized over all nodes."""
    _check_alignment(raw, sur)
    return _corrected_field("subtract", raw, sur, raw.values - sur.mean, np.ones(raw.n, dtype=bool))


def correct_divide(raw: MetricField, sur: SurrogateStats) -> CorrectedField:
    """corrected = raw / surrogate mean where the mean is positive.

    Zero-mean nodes are undefined: excluded from the normalization bounds and
    from downstream statistics (their count is visible via the flags).
    """
    _check_alignment(raw, sur)
    defined = sur.mean > 0
    if not defined.any():
        raise ValueError("division correction undefined everywhere (all surrogate means zero)")
    corrected = np.full(raw.n, np.nan)
    corrected[defined] = raw.values[defined] / sur.mean[defined]
    return _corrected_field("divide", raw, sur, corrected, defined)


def paired_fields(sub: CorrectedField, div: CorrectedField) -> tuple[np.ndarray, np.ndarray]:
    """Aligned normalized values over the nodes defined under BOTH corrections."""
    if sub.n != div.n:
        raise ValueError("corrected fields cover different node counts")
    both = ~sub.undefined & ~div.undefined
    if not both.any():
        raise ValueError("no node is defined under both corrections")
    return sub.normalized[both].copy(), div.normalized[both].copy()


# ---------------------------------------------------------------------------
# on-disk format


def write_corrected_csv(cf: CorrectedField, grid, path) -> None:
    if grid.n != cf.n:
        raise ValueError("grid size does not match corrected field")
    with open(path, "w", newline="") as f:
        f.write(CORRECTED_HEADER + "\n")
        _write_rows(f, _node_cells(grid), cf.raw, cf.surrogate_mean, cf.corrected, cf.normalized,
                    (~cf.undefined).astype(np.int8))


def read_corrected_csv(path) -> tuple[CorrectedField, GridSpec]:
    grid, (raw, mean, corrected, normalized, defined) = _read_nodes(
        path, CORRECTED_HEADER, float, float, float, float, _flag
    )
    return CorrectedField(raw=raw, surrogate_mean=mean, corrected=corrected, normalized=normalized,
                          undefined=~defined), grid
