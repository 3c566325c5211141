"""Residual risk quantification and acceptance checking.

Risk is a function of severity and occurrence, R = f(S, O).  f is kept
abstract in the underlying safety argument, so this module ships a fixed,
documented 4x4 matrix with a monotonicity contract (risk never decreases
along either axis, an S0 hazard is always negligible, and the S3/O4
corner is high):

    ==========  ====  ====  ======  ======
    severity      O1    O2      O3      O4
    ==========  ====  ====  ======  ======
    S0           neg   neg    neg     neg
    S1           neg   neg    low     low
    S2           neg   low    medium  medium
    S3           low   medium high    high
    ==========  ====  ====  ======  ======

Occurrence data (expected encounters of a condition per operating hour)
is always an input file, never computed here: exposure statistics are a
real-world data-availability problem, and this tool's job is propagation.
"""

from __future__ import annotations

import math
from enum import IntEnum
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import core
from .analysis import HAZARD_RATES, AnalysisRow, Severity
from .errors import (
    NUMBER,
    STR,
    IncompleteAnalysisError,
    IncompleteOccurrenceError,
    InvalidComparisonError,
    ParameterError,
    check_items,
    check_object,
    check_unique,
    fields_of,
    located,
    parse_json,
)
from .records import Record, set_field
from .simulator import SweepStats

__all__ = [
    "OccurrenceClass",
    "RiskLevel",
    "OccurrenceSpec",
    "RiskResult",
    "AcceptanceCriteria",
    "Violation",
    "AcceptanceVerdict",
    "risk_level",
    "occurrence_class",
    "hazard_rate",
    "hours_to_hazard",
    "acceptance_check",
    "evaluate_residual_risk",
    "load_occurrences",
    "load_criteria",
]


class OccurrenceClass(IntEnum):
    O1 = 1
    O2 = 2
    O3 = 3
    O4 = 4


class RiskLevel(IntEnum):
    NEGLIGIBLE = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @property
    def label(self) -> str:
        return self.name.lower()


_NEG, _LOW, _MED, _HIGH = RiskLevel
# Rows: S0..S3; columns: O1..O4.
RISK_MATRIX: tuple[tuple[RiskLevel, ...], ...] = (
    (_NEG, _NEG, _NEG, _NEG),
    (_NEG, _NEG, _LOW, _LOW),
    (_NEG, _LOW, _MED, _MED),
    (_LOW, _MED, _HIGH, _HIGH),
)


def risk_level(s: Severity, o: OccurrenceClass) -> RiskLevel:
    """Look up R = f(S, O) in the shipped matrix."""
    return RISK_MATRIX[int(s)][int(o) - 1]


class OccurrenceSpec(Record):
    """Expected encounters of one triggering condition per operating hour."""

    __slots__ = _fields = ("leaf_id", "exposure_rate", "source")

    def __init__(self, leaf_id: str, exposure_rate: float, source: str = "") -> None:
        exposure_rate = core._require_finite("exposure_rate", exposure_rate)
        if exposure_rate < 0:
            raise ParameterError(f"exposure_rate must be >= 0, got {exposure_rate}")
        set_field(self, "leaf_id", leaf_id)
        set_field(self, "exposure_rate", exposure_rate)
        set_field(self, "source", source)


_O1, _O2, _O3, _O4 = OccurrenceClass
#: The least exposure rate (encounters per hour) of O4, O3 and O2; anything
#: rarer is O1.  Shipped assumptions, not established data.
OCCURRENCE_BOUNDS = ((1e-1, _O4), (1e-3, _O3), (1e-5, _O2))


def occurrence_class(exposure_rate: float) -> OccurrenceClass:
    return next((o for bound, o in OCCURRENCE_BOUNDS if exposure_rate >= bound), _O1)


def hazard_rate(occ: OccurrenceSpec, conditional_hazard_prob: float) -> float:
    """Hazards per operating hour: exposure times P(hazard | condition)."""
    if not 0.0 <= conditional_hazard_prob <= 1.0:
        raise ParameterError(
            f"conditional_hazard_prob must be in [0, 1], got {conditional_hazard_prob}"
        )
    return occ.exposure_rate * conditional_hazard_prob


def hours_to_hazard(rate_per_hour: float) -> float:
    """1/rate; unbounded (infinity) when the rate is zero."""
    if rate_per_hour < 0:
        raise ParameterError(f"rate must be >= 0, got {rate_per_hour}")
    return math.inf if rate_per_hour == 0.0 else 1.0 / rate_per_hour


class RiskResult(NamedTuple):
    """Quantified residual risk of one (scenario, hazard) pair.

    hazard_id is None for scenarios whose sweep exhibited no hazard; they
    still appear in the risk table as negligible with unbounded hours.
    """

    scenario_id: str
    hazard_id: str | None
    severity: Severity
    occurrence_class: OccurrenceClass
    risk_level: RiskLevel
    hazard_rate_per_hour: float
    hours_to_hazard: float
    km_to_hazard: float


def _gap_degradation(nominal: SweepStats, stats: SweepStats) -> float | None:
    if nominal.gap_mean > 0.0:
        return (nominal.gap_mean - stats.gap_mean) / nominal.gap_mean
    return None


# Each acceptance clause as (name, measure, whether it is a ``min_``
# clause).  The clause's threshold is the criteria field of its name, and
# ``measure(nominal, stats)`` is a scenario's measured value (None: the
# clause does not apply).
_CLAUSES: tuple[tuple[str, Callable[[SweepStats, SweepStats], float | None], bool], ...] = (
    ("max_final_gap_degradation", _gap_degradation, False),
    ("max_collision_rate", lambda nominal, s: s.collision_rate, False),
    ("max_false_activation_rate", lambda nominal, s: s.false_activation_rate, False),
    ("min_ttc_at_trigger", lambda nominal, s: s.ttc_at_trigger_min, True),
)


class AcceptanceCriteria(Record):
    """Release thresholds for scenario KPIs relative to the nominal run.

    Each field is one clause, named by the field: a ``max_`` clause fails
    when its measured value exceeds the threshold, a ``min_`` clause when
    the value falls below it.
    """

    __slots__ = _fields = tuple(name for name, _, _ in _CLAUSES)

    def __init__(
        self,
        max_final_gap_degradation: float,
        max_collision_rate: float,
        max_false_activation_rate: float,
        min_ttc_at_trigger: float,
    ) -> None:
        given = (
            max_final_gap_degradation,
            max_collision_rate,
            max_false_activation_rate,
            min_ttc_at_trigger,
        )
        thresholds = dict(zip(self._fields, map(core._require_finite, self._fields, given)))
        for name in ("max_collision_rate", "max_false_activation_rate"):
            if not 0.0 <= thresholds[name] <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {thresholds[name]}")
        for name, threshold in thresholds.items():
            set_field(self, name, threshold)


class Violation(NamedTuple):
    clause: str
    measured: float
    threshold: float


class AcceptanceVerdict(NamedTuple):
    scenario_id: str
    passed: bool
    violations: tuple[Violation, ...]


def acceptance_check(
    nominal: SweepStats, scenario_stats: SweepStats, criteria: AcceptanceCriteria
) -> AcceptanceVerdict:
    """Compare one scenario's aggregates against the nominal baseline.

    Fails iff any clause is violated; every violated clause is listed with
    the measured value and its threshold.  Raises
    :class:`InvalidComparisonError` when the two sweeps come from
    different ODDs.
    """
    if nominal.odd_fingerprint != scenario_stats.odd_fingerprint:
        raise InvalidComparisonError(
            f"cannot compare '{scenario_stats.scenario_id}' against "
            f"'{nominal.scenario_id}': different ODDs "
            f"({scenario_stats.odd_fingerprint} vs {nominal.odd_fingerprint})"
        )
    violations = []
    for name, measure, is_min in _CLAUSES:
        measured = measure(nominal, scenario_stats)
        if measured is None:
            continue
        threshold = getattr(criteria, name)
        if measured < threshold if is_min else measured > threshold:
            violations.append(Violation(name, measured, threshold))
    return AcceptanceVerdict(
        scenario_id=scenario_stats.scenario_id,
        passed=not violations,
        violations=tuple(violations),
    )


def evaluate_residual_risk(
    sheet: Sequence[AnalysisRow],
    sweeps: Sequence[SweepStats],
    occurrences: Sequence[OccurrenceSpec],
    ego_speed_m_s: float,
) -> list[RiskResult]:
    """One RiskResult per (sheet row, linked hazard).

    Rows with no linked hazard emit a single negligible result so every
    analyzed scenario shows up in the risk table.  Missing occurrence data
    raises :class:`IncompleteOccurrenceError` naming the condition.
    """
    sweeps_by_id = {s.scenario_id: s for s in sweeps}
    occ_by_leaf = {o.leaf_id: o for o in occurrences}
    results = []
    for row in sheet:
        stats = sweeps_by_id.get(row.scenario_id)
        if stats is None:
            raise IncompleteAnalysisError(
                f"no sweep result for condition '{row.leaf_id}'"
            )
        occ = occ_by_leaf.get(row.leaf_id)
        if occ is None:
            raise IncompleteOccurrenceError(
                f"no occurrence (exposure) entry for condition '{row.leaf_id}'"
            )
        o_class = occurrence_class(occ.exposure_rate)
        if not row.linked_hazard_ids:
            results.append(
                RiskResult(
                    scenario_id=row.scenario_id,
                    hazard_id=None,
                    severity=row.severity,
                    occurrence_class=o_class,
                    risk_level=RiskLevel.NEGLIGIBLE,
                    hazard_rate_per_hour=0.0,
                    hours_to_hazard=math.inf,
                    km_to_hazard=math.inf,
                )
            )
            continue
        for hazard_id in row.linked_hazard_ids:
            rate_field = HAZARD_RATES.get(hazard_id)
            if rate_field is None:
                raise IncompleteAnalysisError(
                    f"no hazard rate for hazard '{hazard_id}' (condition '{row.leaf_id}')"
                )
            rate = hazard_rate(occ, getattr(stats, rate_field))
            hours = hours_to_hazard(rate)
            results.append(
                RiskResult(
                    scenario_id=row.scenario_id,
                    hazard_id=hazard_id,
                    severity=row.severity,
                    occurrence_class=o_class,
                    risk_level=risk_level(row.severity, o_class),
                    hazard_rate_per_hour=rate,
                    hours_to_hazard=hours,
                    km_to_hazard=hours * ego_speed_m_s * 3.6,
                )
            )
    return results


def load_occurrences(path: str | Path) -> list[OccurrenceSpec]:
    """Load occurrence specs from a JSON list."""
    with located(str(path)):
        data = parse_json(Path(path).read_text(encoding="utf-8"))
    check_items(data, str(path), {"leaf_id": STR, "exposure_rate": NUMBER}, {"source": STR})
    check_unique([item["leaf_id"] for item in data], str(path), "leaf_id")
    specs = []
    for i, item in enumerate(data):
        with located(f"{path}[{i}]"):
            specs.append(OccurrenceSpec(**item))
    return specs


def load_criteria(path: str | Path) -> AcceptanceCriteria:
    """Load acceptance criteria from JSON."""
    with located(str(path)):
        data = check_object(
            parse_json(Path(path).read_text(encoding="utf-8")),
            "",
            fields_of(AcceptanceCriteria, NUMBER),
        )
        return AcceptanceCriteria(**data)
