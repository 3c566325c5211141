"""Hazard rates and the qualitative triggering-conditions analysis sheet.

The function decomposes into perception sense, perception algo, decision,
and actuation.  Each analyzed scenario is mapped to the subsystems its
effects can degrade, rated for severity, and linked to the hazards its
sweep statistics actually exhibited.  Severity thresholds are
configuration with shipped defaults: in practice these ratings come from
expert discussion, and the defaults only keep the pipeline runnable end
to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple, Sequence

from . import core
from .errors import (
    NUMBER,
    ContractViolationError,
    IncompleteAnalysisError,
    ParameterError,
    check_object,
    fields_of,
    located,
    one_of,
    parse_json,
)
from .scenario import EffectModel, Scenario
from .simulator import Stage, SweepStats

__all__ = [
    "Severity",
    "Controllability",
    "HAZARD_COLLISION",
    "HAZARD_FALSE_ACTIVATION",
    "HAZARD_RATES",
    "SeverityRules",
    "load_severity_rules",
    "AnalysisRow",
    "classify_affected_subsystems",
    "link_hazards",
    "build_analysis_sheet",
]


class Severity(IntEnum):
    """Severity of a performance limitation: none / low / medium / high."""

    S0 = 0
    S1 = 1
    S2 = 2
    S3 = 3


class Controllability(IntEnum):
    C0 = 0
    C1 = 1
    C2 = 2
    C3 = 3


#: The function under test is a level-4 function with no backup operator,
#: so controllability is fixed at C3.
DEFAULT_CONTROLLABILITY = Controllability.C3

HAZARD_COLLISION = "H1"
HAZARD_FALSE_ACTIVATION = "H2"

#: The hazards of the emergency-brake function, each with the sweep
#: statistic that gives P(hazard | condition encountered):
#: H1, collision because the vehicle cannot brake to a stop before reaching
#: the obstacle; H2, the emergency brake activates on a falsely detected
#: object.  A sweep exhibits a hazard when that rate is above zero.
HAZARD_RATES = {
    HAZARD_COLLISION: "collision_rate",
    HAZARD_FALSE_ACTIVATION: "false_activation_rate",
}


@dataclass(frozen=True)
class SeverityRules:
    """Severity from sweep outcomes (defaults, expert-overridable).

    Collision severity steps on the worst impact speed; runs with false
    activations but no collision rate S1; everything else S0.
    """

    s3_impact_speed: float = 11.0
    s2_impact_speed: float = 5.0
    false_activation_severity: Severity = Severity.S1

    def __post_init__(self) -> None:
        core._store_floats(self, ("s3_impact_speed", "s2_impact_speed"))
        if not 0.0 < self.s2_impact_speed <= self.s3_impact_speed:
            raise ParameterError(
                "need 0 < s2_impact_speed <= s3_impact_speed, got "
                f"{self.s2_impact_speed}, {self.s3_impact_speed}"
            )

    def collision_severity(self, impact_speed_max: float) -> Severity:
        if impact_speed_max >= self.s3_impact_speed:
            return Severity.S3
        if impact_speed_max >= self.s2_impact_speed:
            return Severity.S2
        if impact_speed_max > 0.0:
            return Severity.S1
        return Severity.S0


def load_severity_rules(path: str | Path) -> SeverityRules:
    with located(str(path)):
        data = check_object(
            parse_json(Path(path).read_text(encoding="utf-8")),
            "",
            {},
            fields_of(
                SeverityRules, NUMBER, false_activation_severity=one_of(Severity.__members__)
            ),
        )
        if "false_activation_severity" in data:
            data["false_activation_severity"] = Severity[data["false_activation_severity"]]
        return SeverityRules(**data)


class AnalysisRow(NamedTuple):
    """One analysis-sheet row for a scenario with a triggering condition."""

    scenario_id: str
    leaf_id: str
    category_path: tuple[str, ...]
    affected_subsystems: frozenset[Stage]
    severity: Severity
    controllability: Controllability
    linked_hazard_ids: tuple[str, ...]
    rationale: str


def classify_affected_subsystems(effects: EffectModel) -> frozenset[Stage]:
    """Subsystems an effect model can degrade.

    Reduced range or ghost detections hit the raw sensing; extra latency
    hits the decision stage; reduced friction hits the actuation.  No
    effect maps to the perception algo.
    """
    subsystems = set()
    if effects.perception_range_factor < 1.0 or effects.ghost_rate > 0.0:
        subsystems.add(Stage.PERCEPTION_SENSE)
    if effects.rho_add > 0.0:
        subsystems.add(Stage.DECISION)
    if effects.mu_factor < 1.0:
        subsystems.add(Stage.ACTUATION)
    return frozenset(subsystems)


def link_hazards(stats: SweepStats) -> list[str]:
    """Hazard ids a sweep actually exhibited, in :data:`HAZARD_RATES` order."""
    return [h for h, rate in HAZARD_RATES.items() if getattr(stats, rate) > 0.0]


def _rationale(effects: EffectModel, stats: SweepStats, hazards: Sequence[str]) -> str:
    parts = []
    if effects.perception_range_factor < 1.0:
        parts.append(
            f"perception range reduced to {effects.perception_range_factor:.0%}"
        )
    if effects.ghost_rate > 0.0:
        parts.append(f"ghost detections at {effects.ghost_rate:.3f} per frame")
    if effects.rho_add > 0.0:
        parts.append(f"response latency increased by {effects.rho_add:.2f} s")
    if effects.mu_factor < 1.0:
        parts.append(f"friction reduced to {effects.mu_factor:.0%}")
    if not parts:
        parts.append("no physical effect mapped")
    if HAZARD_COLLISION in hazards:
        parts.append(
            f"collision in {stats.collision_rate:.0%} of runs "
            f"(max impact {stats.impact_speed_max:.2f} m/s)"
        )
    if HAZARD_FALSE_ACTIVATION in hazards:
        parts.append(
            f"false activation in {stats.false_activation_rate:.0%} of runs"
        )
    if not hazards:
        parts.append("no hazardous outcome observed")
    return "; ".join(parts)


def build_analysis_sheet(
    scenarios: Sequence[Scenario],
    sweep_results: Sequence[SweepStats],
    severity_rules: SeverityRules | None = None,
) -> list[AnalysisRow]:
    """One row per non-nominal scenario, in scenario order; its subsystems
    follow from its effects alone.  Raises :class:`IncompleteAnalysisError`
    when a scenario has no sweep result.
    """
    if severity_rules is None:
        severity_rules = SeverityRules()

    stats_by_id = {s.scenario_id: s for s in sweep_results}
    rows = []
    for scenario in scenarios:
        if scenario.is_nominal:
            continue
        stats = stats_by_id.get(scenario.id)
        if stats is None:
            raise IncompleteAnalysisError(
                f"no sweep result for scenario '{scenario.id}'"
            )
        condition = scenario.condition
        assert condition is not None
        subsystems = classify_affected_subsystems(scenario.effects)
        if not scenario.effects.is_neutral and not subsystems:
            raise ContractViolationError(
                f"scenario '{scenario.id}' has effects but no affected subsystem"
            )
        hazards = link_hazards(stats)
        severity = Severity.S0
        if HAZARD_COLLISION in hazards:
            severity = severity_rules.collision_severity(stats.impact_speed_max)
        if HAZARD_FALSE_ACTIVATION in hazards:
            severity = max(severity, severity_rules.false_activation_severity)
        rows.append(
            AnalysisRow(
                scenario_id=scenario.id,
                leaf_id=condition.leaf_id,
                category_path=condition.category_path,
                affected_subsystems=subsystems,
                severity=severity,
                controllability=DEFAULT_CONTROLLABILITY,
                linked_hazard_ids=tuple(hazards),
                rationale=_rationale(scenario.effects, stats, hazards),
            )
        )
    return rows
