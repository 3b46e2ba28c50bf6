"""Core data model: experimental runs, input transforms, and fit reports.

A run is an :class:`ObservationSeries` of time-ordered samples holding a
concentration, a removal fraction, or both. Removal is always stored as a
fraction in [0, 1]; percent is a display concern only.
``ObservationSeries.removal_fractions`` is the one derivation of removal
from concentration: the exponential and GP fits and the ``fit-kinetics``
summary read removal through it.

Every check on the values of a series runs once, in the ``ObservationSeries``
constructor, whoever builds it; its messages name the 1-based data row.
The rule on times is written once, in ``_check_time``, which the
constructor and ``log_time_norm`` (times alone, before a series exists)
both call: each time is finite, in (1, ``MAX_TIME_MIN``] minutes and later
than the one before. Thickness is bounded above by ``MAX_THICKNESS_CM``
(the series-level ``barrier_thickness_cm`` too, whether or not a row falls
back on it) and pH lies in [0, ``MAX_PH``], so no value the models see, nor
one a report records, can overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InconsistentSample, InvalidInput, InvalidTime

# tolerance for agreement between a stored concentration and removal fraction
CONSISTENCY_TOL = 1e-9

# thickest barrier a sample may carry, in cm: a hundred metres is far beyond
# any permeable barrier, and keeps W, a * (b + W) and sums over W far from
# floating-point overflow in the models
MAX_THICKNESS_CM = 1e4

# latest sample time, in minutes: about 1,900 years is far beyond any
# breakthrough run, and keeps n * t^2 of the kinetic fit far inside the float range
MAX_TIME_MIN = 1e9

# the top of the aqueous pH scale; with pH in [0, 14] the squared pH
# differences of the GP kernel cannot overflow
MAX_PH = 14.0


def _check_time(i: int, t: float, before: float) -> None:
    """The rule on data row ``i``'s time ``t``, given the time ``before`` it."""
    if not (1.0 < t < math.inf):  # every model reads ln(t) / ln(t_max)
        raise InvalidTime(
            f"row {i}: time {t} min is {'<= 1' if t <= 1 else 'not finite'}; "
            "the log-time transform is undefined there"
        )
    if t > MAX_TIME_MIN:
        raise InvalidTime(f"row {i}: time {t} min is past the bound of {MAX_TIME_MIN:g} min")
    if t <= before:
        raise InvalidInput(f"row {i}: times must be strictly increasing ({t} after {before})")


class Contaminant(Enum):
    PB = "pb"
    METHYLENE_BLUE = "methylene_blue"


class ModelKind(Enum):
    FIRST_ORDER = "first_order"
    EXPONENTIAL = "exponential"
    GAUSSIAN_PROCESS = "gaussian_process"


@dataclass(frozen=True)
class Sample:
    """One effluent measurement.

    ``thickness_w`` may be left None and filled from the series-level
    barrier thickness; at least one of concentration / removal_fraction
    must be present.
    """

    t_raw: float
    concentration: float | None = None
    removal_fraction: float | None = None
    thickness_w: float | None = None
    ph: float | None = None


@dataclass(frozen=True)
class ObservationSeries:
    contaminant: Contaminant
    run_label: str
    c0: float
    samples: tuple[Sample, ...]
    barrier_thickness_cm: float | None = None

    def __post_init__(self):
        if not (self.c0 > 0 and math.isfinite(self.c0)):
            raise InvalidInput(f"c0 must be finite and positive, got {self.c0}")
        # checked when given, though every row may carry its own thickness
        if self.barrier_thickness_cm is not None and not (
            0.0 <= self.barrier_thickness_cm <= MAX_THICKNESS_CM
        ):
            raise InvalidInput(
                f"barrier thickness must lie in [0, {MAX_THICKNESS_CM:g}] cm, "
                f"got {self.barrier_thickness_cm}"
            )
        filled = []
        c_max = self.c0 * (1.0 + CONSISTENCY_TOL)
        for i, s in enumerate(self.samples, start=1):
            _check_time(i, s.t_raw, filled[-1].t_raw if filled else -math.inf)
            if s.concentration is None and s.removal_fraction is None:
                raise InvalidInput(f"row {i}: needs a concentration or a removal fraction")
            if s.concentration is not None and not (
                math.isfinite(s.concentration) and s.concentration >= 0
            ):
                raise InvalidInput(
                    f"row {i}: concentration must be finite and >= 0, got {s.concentration}"
                )
            if s.concentration is not None and s.concentration > c_max:
                raise InconsistentSample(
                    f"row {i}: concentration {s.concentration} exceeds c0 {self.c0}"
                )
            if s.removal_fraction is not None and not (0.0 <= s.removal_fraction <= 1.0):
                raise InvalidInput(
                    f"row {i}: removal fraction outside [0, 1]: {s.removal_fraction}"
                )
            if s.concentration is not None and s.removal_fraction is not None:
                implied = (self.c0 - s.concentration) / self.c0
                if abs(implied - s.removal_fraction) > CONSISTENCY_TOL:
                    raise InconsistentSample(
                        f"row {i}: removal {s.removal_fraction} disagrees with "
                        f"concentration {s.concentration} (implies {implied})"
                    )
            if s.ph is not None and not (0.0 <= s.ph <= MAX_PH):
                raise InvalidInput(f"row {i}: pH must lie in [0, {MAX_PH:g}], got {s.ph}")
            thickness = self.barrier_thickness_cm if s.thickness_w is None else s.thickness_w
            if thickness is None:
                raise InvalidInput(f"row {i}: no thickness and no series-level barrier thickness")
            if not (0.0 <= thickness <= MAX_THICKNESS_CM):
                raise InvalidInput(
                    f"row {i}: thickness must lie in [0, {MAX_THICKNESS_CM:g}] cm, got {thickness}"
                )
            filled.append(s if thickness == s.thickness_w else replace(s, thickness_w=thickness))
        # counted after the rows, so a short series still names its first bad row
        if len(filled) < 3:
            raise InvalidInput(f"a series needs at least 3 samples, got {len(filled)}")
        object.__setattr__(self, "samples", tuple(filled))

    def times(self) -> np.ndarray:
        return np.array([s.t_raw for s in self.samples])

    def concentrations(self) -> np.ndarray:
        """Concentrations in mg/L, derived from removal where not stored."""
        return np.array(
            [
                s.concentration
                if s.concentration is not None
                else self.c0 * (1.0 - s.removal_fraction)
                for s in self.samples
            ]
        )

    def removal_fractions(self) -> np.ndarray:
        """Removal (c0 - c)/c0 per sample, the stored fraction where there is one.

        The constructor keeps every concentration within [0, c0 * (1 + 1e-9)],
        so a fraction can fall below 0 only by that round-off, and is clamped
        to 0 there.
        """
        return np.array(
            [
                s.removal_fraction
                if s.removal_fraction is not None
                else max(0.0, (self.c0 - s.concentration) / self.c0)
                for s in self.samples
            ]
        )


@dataclass(frozen=True)
class TransformedInputs:
    """Times mapped to ln(t)/max(ln(t)), so the last sample sits at 1."""

    t_raw: np.ndarray
    t_norm: np.ndarray
    denominator: float


def log_time_norm(t_raw: Sequence[float] | np.ndarray) -> TransformedInputs:
    t = np.asarray(t_raw, dtype=float)
    if t.size == 0:
        raise InvalidTime("log-time normalization needs one or more times")
    times = t.tolist()
    for i, (before, ti) in enumerate(zip([-math.inf, *times], times), start=1):
        _check_time(i, ti, before)
    logs = np.log(t)
    denominator = float(logs.max())
    return TransformedInputs(t_raw=t, t_norm=logs / denominator, denominator=denominator)


def transform_time(series: ObservationSeries) -> TransformedInputs:
    """Normalized log-time inputs for the regression models."""
    return log_time_norm(series.times())


@dataclass
class PredictionRow:
    inputs: dict[str, float]
    predicted: float
    observed: float | None = None
    variance: float | None = None


@dataclass
class FitReport:
    """Serializable bundle of parameters, metrics, and prediction rows."""

    model_kind: ModelKind
    parameters: dict
    metrics: object | None  # FitMetrics or None for prediction-only runs
    predictions: list[PredictionRow] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
