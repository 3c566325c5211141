"""Scenario composition: ODD + one triggering condition -> executable scenario.

A scenario is the operational design domain combined with at most one
triggering condition.  The condition is resolved to a physical
:class:`EffectModel` through an editable mapping file, keeping effect
magnitudes data rather than code: the directions (ghost points, reduced
perception range, reduced friction) are domain knowledge, the numbers are
fixture assumptions that domain experts own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import core
from .core import VEHICLE_FIELDS, VehicleParams
from .errors import (
    NUMBER,
    OBJECT,
    STR,
    STRINGS,
    InvalidMitigationError,
    ParameterError,
    UnmappedConditionError,
    check_items,
    check_object,
    check_unique,
    fields_of,
    located,
    of_types,
    parse_json,
)
from .taxonomy import TriggeringCondition

__all__ = [
    "NOMINAL_ID",
    "OddDefinition",
    "EffectModel",
    "Scenario",
    "MitigationSpec",
    "EffectMapping",
    "derive_seed",
    "resolve_effects",
    "generate_scenarios",
    "apply_mitigation",
    "mitigation_applicable",
    "load_odd",
    "load_effect_mapping",
    "load_mitigations",
]

#: id of the scenario with no triggering condition applied.
NOMINAL_ID = "nominal"

_SEED_MASK = (1 << 64) - 1

# Effect fields whose value moving *up* is an improvement toward neutral.
_IMPROVES_UP = ("perception_range_factor", "mu_factor")
# Effect fields whose value moving *down* is an improvement toward neutral.
_IMPROVES_DOWN = ("ghost_rate", "rho_add")
EFFECT_FIELDS = _IMPROVES_UP + _IMPROVES_DOWN


def derive_seed(*parts: object) -> int:
    """Deterministic 64-bit seed from a tuple of labels.

    Hash-based (not Python's ``hash``) so seeds are stable across runs,
    platforms, and interpreter versions.  Adding a scenario or run never
    perturbs the randomness of the others.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK


@dataclass(frozen=True)
class OddDefinition:
    """Operational design domain: a straight one-way road with one static
    object ahead, clear weather and dry surface assumed nominally.

    d_object: initial gap to the static object, m.
    d_perception: nominal sensor range, m.
    mu: nominal normalized road friction in (0, 1].
    odd_tags: taxonomy relevance tags for condition filtering.
    vehicle: ego kinematic parameters.
    """

    d_object: float
    d_perception: float
    mu: float
    odd_tags: frozenset[str]
    vehicle: VehicleParams

    def __post_init__(self) -> None:
        core._store_floats(self, ("d_object", "d_perception", "mu"))
        # Stored frozen, so that an ODD given a set or list is hashable.
        if isinstance(self.odd_tags, str):
            raise ParameterError(f"odd_tags must be a collection of tags, got {self.odd_tags!r}")
        object.__setattr__(self, "odd_tags", frozenset(self.odd_tags))
        if not self.d_object > 0:
            raise ParameterError(f"d_object must be > 0, got {self.d_object}")
        if not self.d_perception > 0:
            raise ParameterError(f"d_perception must be > 0, got {self.d_perception}")
        if not 0.0 < self.mu <= 1.0:
            raise ParameterError(f"mu must be in (0, 1], got {self.mu}")

    @property
    def is_nominally_well_formed(self) -> bool:
        """Sensor range exceeds both the object distance and the safe
        distance.  Violations are permitted (triggering conditions
        deliberately break this) but are recorded in reports."""
        return (
            self.d_perception > self.d_object
            and self.d_perception > core.rss_min_distance(self.vehicle)
        )

    def fingerprint(self) -> str:
        """Digest of the road/world definition (vehicle excluded, so
        vehicle-upgrading mitigations stay comparable to the baseline)."""
        payload = json.dumps(
            {
                "d_object": self.d_object,
                "d_perception": self.d_perception,
                "mu": self.mu,
                "odd_tags": sorted(self.odd_tags),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class EffectModel:
    """Physical impact of a triggering condition on the function.

    perception_range_factor: multiplies the sensor range, (0, 1].
    ghost_rate: probability of a false detection per perception tick, [0, 1].
    mu_factor: multiplies the road friction, (0, 1].
    rho_add: extra response latency in s, >= 0.

    The neutral element (1, 0, 1, 0) leaves the ODD untouched.
    """

    perception_range_factor: float = 1.0
    ghost_rate: float = 0.0
    mu_factor: float = 1.0
    rho_add: float = 0.0

    def __post_init__(self) -> None:
        core._store_floats(self, EFFECT_FIELDS)
        if not 0.0 < self.perception_range_factor <= 1.0:
            raise ParameterError(
                f"perception_range_factor must be in (0, 1], got {self.perception_range_factor}"
            )
        if not 0.0 <= self.ghost_rate <= 1.0:
            raise ParameterError(f"ghost_rate must be in [0, 1], got {self.ghost_rate}")
        if not 0.0 < self.mu_factor <= 1.0:
            raise ParameterError(f"mu_factor must be in (0, 1], got {self.mu_factor}")
        if not self.rho_add >= 0.0:
            raise ParameterError(f"rho_add must be >= 0, got {self.rho_add}")

    @property
    def is_neutral(self) -> bool:
        return (
            self.perception_range_factor == 1.0
            and self.ghost_rate == 0.0
            and self.mu_factor == 1.0
            and self.rho_add == 0.0
        )


_EFFECT_KINDS = fields_of(EffectModel, NUMBER)
_VEHICLE_KINDS = fields_of(VehicleParams, NUMBER)


def _effect_from_partial(partial: Mapping[str, float], context: str) -> EffectModel:
    check_object(partial, context, {}, _EFFECT_KINDS)
    with located(context):
        return EffectModel(**partial)


@dataclass(frozen=True)
class Scenario:
    """The ODD plus at most one triggering condition, ready to simulate.

    A nominal scenario (condition is None) must have neutral effects.  The
    converse is not enforced: a condition may legitimately resolve to
    neutral effects (e.g. a mapped 'dry surface' leaf), and a mitigation
    may drive a condition scenario's effects back to neutral.
    """

    id: str
    odd: OddDefinition
    condition: TriggeringCondition | None
    effects: EffectModel
    seed: int

    def __post_init__(self) -> None:
        if not self.id:
            raise ParameterError("scenario id must be nonempty")
        if not 0 <= self.seed <= _SEED_MASK:
            raise ParameterError(f"seed must be a 64-bit unsigned int, got {self.seed}")
        if self.condition is None and not self.effects.is_neutral:
            raise ParameterError(
                f"scenario '{self.id}' has no triggering condition but non-neutral effects"
            )

    @property
    def is_nominal(self) -> bool:
        return self.condition is None


@dataclass(frozen=True)
class MitigationSpec:
    """A function modification that weakly improves effects toward neutral.

    effect_overrides: replacement values per effect field; each must be
    neutral-or-better than the value it replaces (checked at apply time).
    vehicle_overrides: optional replacement vehicle parameters (e.g. a
    stronger brake); validated against the vehicle invariants on apply.
    """

    id: str
    description: str
    effect_overrides: Mapping[str, float] = dataclasses.field(default_factory=dict)
    vehicle_overrides: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ParameterError("mitigation id must be nonempty")
        unknown = set(self.effect_overrides) - set(EFFECT_FIELDS)
        if unknown:
            raise ParameterError(
                f"mitigation '{self.id}': unknown effect fields {sorted(unknown)}"
            )
        if self.vehicle_overrides is not None:
            unknown = set(self.vehicle_overrides) - set(VEHICLE_FIELDS)
            if unknown:
                raise ParameterError(
                    f"mitigation '{self.id}': unknown vehicle fields {sorted(unknown)}"
                )


@dataclass(frozen=True)
class EffectMapping:
    """Condition -> effect resolution table, usually loaded from JSON.

    Lookup order: an exact ``by_leaf`` entry, then the deepest ancestor
    category with a ``by_category`` entry, then ``defaults`` if present.
    The chosen entry is overlaid on the neutral effect model; a condition
    that matches nothing raises :class:`UnmappedConditionError`.
    """

    by_leaf: Mapping[str, Mapping[str, float]] = dataclasses.field(default_factory=dict)
    by_category: Mapping[str, Mapping[str, float]] = dataclasses.field(default_factory=dict)
    defaults: Mapping[str, float] | None = None


def resolve_effects(condition: TriggeringCondition, mapping: EffectMapping) -> EffectModel:
    """Resolve one condition to its effect model (see EffectMapping)."""
    entry = mapping.by_leaf.get(condition.leaf_id)
    context = f"by_leaf[{condition.leaf_id}]"
    if entry is None:
        for category in reversed(condition.category_path):
            if category in mapping.by_category:
                entry = mapping.by_category[category]
                context = f"by_category[{category}]"
                break
    if entry is None:
        entry = mapping.defaults
        context = "defaults"
    if entry is None:
        raise UnmappedConditionError(condition.leaf_id)
    return _effect_from_partial(entry, context)


def generate_scenarios(
    odd: OddDefinition,
    conditions: Sequence[TriggeringCondition],
    mapping: EffectMapping,
    base_seed: int,
) -> list[Scenario]:
    """One nominal scenario plus one scenario per (already ODD-filtered)
    condition.  Deterministic: seeds are derived from (base_seed, id)."""
    scenarios = [
        Scenario(
            id=NOMINAL_ID,
            odd=odd,
            condition=None,
            effects=EffectModel(),
            seed=derive_seed(base_seed, NOMINAL_ID),
        )
    ]
    seen = {NOMINAL_ID}
    for condition in conditions:
        scenario_id = condition.leaf_id
        if scenario_id in seen:
            raise ValueError(f"duplicate scenario id '{scenario_id}'")
        seen.add(scenario_id)
        scenarios.append(
            Scenario(
                id=scenario_id,
                odd=odd,
                condition=condition,
                effects=resolve_effects(condition, mapping),
                seed=derive_seed(base_seed, scenario_id),
            )
        )
    return scenarios


def _worsens(field_name: str, old: float, new: float) -> bool:
    """True when moving the effect field from ``old`` to ``new`` moves it
    away from neutral."""
    return new < old if field_name in _IMPROVES_UP else new > old


def mitigation_applicable(scenario: Scenario, m: MitigationSpec) -> bool:
    """True when every override weakly improves this scenario's effects."""
    return not any(
        _worsens(field_name, getattr(scenario.effects, field_name), new)
        for field_name, new in m.effect_overrides.items()
    )


def apply_mitigation(scenario: Scenario, m: MitigationSpec) -> Scenario:
    """A copy of the scenario with the mitigation applied.

    The new id is the old one suffixed with the mitigation id; the seed is
    preserved so mitigated and unmitigated runs can be compared at matched
    randomness.  Raises :class:`InvalidMitigationError` if any override
    would move a field away from neutral.
    """
    for field_name, new in m.effect_overrides.items():
        old = getattr(scenario.effects, field_name)
        if _worsens(field_name, old, new):
            raise InvalidMitigationError(
                f"mitigation '{m.id}' worsens {field_name}: {old} -> {float(new)}"
            )
    effects = dataclasses.replace(scenario.effects, **m.effect_overrides)

    odd = scenario.odd
    if m.vehicle_overrides:
        odd = dataclasses.replace(
            odd, vehicle=dataclasses.replace(odd.vehicle, **m.vehicle_overrides)
        )

    return Scenario(
        id=f"{scenario.id}+{m.id}",
        odd=odd,
        condition=scenario.condition,
        effects=effects,
        seed=scenario.seed,
    )


def load_odd(path: str | Path) -> OddDefinition:
    """Load an ODD definition from JSON."""
    with located(str(path)):
        data = check_object(
            parse_json(Path(path).read_text(encoding="utf-8")),
            "",
            fields_of(OddDefinition, NUMBER, odd_tags=STRINGS, vehicle=OBJECT),
        )
        check_object(data["vehicle"], "vehicle", _VEHICLE_KINDS)
        with located("vehicle"):
            data["vehicle"] = VehicleParams(**data["vehicle"])
        return OddDefinition(**data)


def load_effect_mapping(path: str | Path) -> EffectMapping:
    """Load an effect-mapping table from JSON."""
    with located(str(path)):
        data = check_object(
            parse_json(Path(path).read_text(encoding="utf-8")),
            "",
            {},
            fields_of(
                EffectMapping, OBJECT, defaults=of_types("a JSON object or null", dict, type(None))
            ),
        )
        mapping = EffectMapping(**data)
        # Validate every entry eagerly so bad magnitudes fail at load time.
        for name in ("by_leaf", "by_category"):
            for key, entry in getattr(mapping, name).items():
                _effect_from_partial(entry, f"{name}[{key}]")
        if mapping.defaults is not None:
            _effect_from_partial(mapping.defaults, "defaults")
    return mapping


def load_mitigations(path: str | Path) -> list[MitigationSpec]:
    """Load a list of mitigation specs from JSON."""
    with located(str(path)):
        data = parse_json(Path(path).read_text(encoding="utf-8"))
    check_items(
        data,
        str(path),
        {"id": STR, "description": STR},
        {"effect_overrides": OBJECT, "vehicle_overrides": OBJECT},
    )
    # Mitigated scenarios are named "<scenario id>+<mitigation id>".
    check_unique([item["id"] for item in data], str(path), "id")
    mitigations = []
    for i, item in enumerate(data):
        with located(f"{path}[{i}]"):
            _effect_from_partial(item.get("effect_overrides", {}), "effect_overrides")
            vehicle = check_object(
                item.get("vehicle_overrides", {}), "vehicle_overrides", {}, _VEHICLE_KINDS
            )
            with located("vehicle_overrides"):
                for k, v in vehicle.items():
                    core.check_vehicle_field(k, v)
            mitigations.append(MitigationSpec(**item))
    return mitigations
