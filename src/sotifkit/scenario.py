"""Scenario composition: ODD + one triggering condition -> executable scenario.

A scenario is the operational design domain combined with at most one
triggering condition.  The condition is resolved to a physical
:class:`EffectModel` through an editable mapping file, keeping effect
magnitudes data rather than code: the directions (ghost points, reduced
perception range, reduced friction) are domain knowledge, the numbers are
fixture assumptions that domain experts own.
"""

from __future__ import annotations

import hashlib
import json
import operator
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
from .records import Record, set_field
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


class OddDefinition(Record):
    """Operational design domain: a straight one-way road with one static
    object ahead, clear weather and dry surface assumed nominally.

    d_object: initial gap to the static object, m.
    d_perception: nominal sensor range, m.
    mu: nominal normalized road friction in (0, 1].
    odd_tags: taxonomy relevance tags for condition filtering.
    vehicle: ego kinematic parameters.
    """

    __slots__ = _fields = ("d_object", "d_perception", "mu", "odd_tags", "vehicle")

    def __init__(
        self,
        d_object: float,
        d_perception: float,
        mu: float,
        odd_tags: frozenset[str],
        vehicle: VehicleParams,
    ) -> None:
        d_object = core._require_finite("d_object", d_object)
        d_perception = core._require_finite("d_perception", d_perception)
        mu = core._require_finite("mu", mu)
        # Stored frozen, so that an ODD given a set or list is hashable.
        if isinstance(odd_tags, str):
            raise ParameterError(f"odd_tags must be a collection of tags, got {odd_tags!r}")
        odd_tags = frozenset(odd_tags)
        if not d_object > 0:
            raise ParameterError(f"d_object must be > 0, got {d_object}")
        if not d_perception > 0:
            raise ParameterError(f"d_perception must be > 0, got {d_perception}")
        if not 0.0 < mu <= 1.0:
            raise ParameterError(f"mu must be in (0, 1], got {mu}")
        set_field(self, "d_object", d_object)
        set_field(self, "d_perception", d_perception)
        set_field(self, "mu", mu)
        set_field(self, "odd_tags", odd_tags)
        set_field(self, "vehicle", vehicle)

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


class EffectModel(Record):
    """Physical impact of a triggering condition on the function.

    perception_range_factor: multiplies the sensor range, (0, 1].
    ghost_rate: probability of a false detection per perception tick, [0, 1].
    mu_factor: multiplies the road friction, (0, 1].
    rho_add: extra response latency in s, >= 0.

    The neutral element (1, 0, 1, 0) leaves the ODD untouched.
    """

    __slots__ = _fields = ("perception_range_factor", "ghost_rate", "mu_factor", "rho_add")

    def __init__(
        self,
        perception_range_factor: float = 1.0,
        ghost_rate: float = 0.0,
        mu_factor: float = 1.0,
        rho_add: float = 0.0,
    ) -> None:
        perception_range_factor = core._require_finite(
            "perception_range_factor", perception_range_factor
        )
        mu_factor = core._require_finite("mu_factor", mu_factor)
        ghost_rate = core._require_finite("ghost_rate", ghost_rate)
        rho_add = core._require_finite("rho_add", rho_add)
        if not 0.0 < perception_range_factor <= 1.0:
            raise ParameterError(
                f"perception_range_factor must be in (0, 1], got {perception_range_factor}"
            )
        if not 0.0 <= ghost_rate <= 1.0:
            raise ParameterError(f"ghost_rate must be in [0, 1], got {ghost_rate}")
        if not 0.0 < mu_factor <= 1.0:
            raise ParameterError(f"mu_factor must be in (0, 1], got {mu_factor}")
        if not rho_add >= 0.0:
            raise ParameterError(f"rho_add must be >= 0, got {rho_add}")
        set_field(self, "perception_range_factor", perception_range_factor)
        set_field(self, "ghost_rate", ghost_rate)
        set_field(self, "mu_factor", mu_factor)
        set_field(self, "rho_add", rho_add)

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


class Scenario(Record):
    """The ODD plus at most one triggering condition, ready to simulate.

    A nominal scenario (condition is None) must have neutral effects.  The
    converse is not enforced: a condition may legitimately resolve to
    neutral effects (e.g. a mapped 'dry surface' leaf), and a mitigation
    may drive a condition scenario's effects back to neutral.
    """

    __slots__ = _fields = ("id", "odd", "condition", "effects", "seed")

    def __init__(
        self,
        id: str,
        odd: OddDefinition,
        condition: TriggeringCondition | None,
        effects: EffectModel,
        seed: int,
    ) -> None:
        if not id:
            raise ParameterError("scenario id must be nonempty")
        # Stored as a plain int: the seed is both a label that derive_seed
        # writes out and the key of the flag streams that every scenario of
        # a seed reads, and True, 1 and numpy's 1 must be one seed in both.
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ParameterError(f"seed must be a 64-bit unsigned int, got {seed!r}") from None
        if not 0 <= seed <= _SEED_MASK:
            raise ParameterError(f"seed must be a 64-bit unsigned int, got {seed}")
        if condition is None and not effects.is_neutral:
            raise ParameterError(
                f"scenario '{id}' has no triggering condition but non-neutral effects"
            )
        set_field(self, "id", id)
        set_field(self, "odd", odd)
        set_field(self, "condition", condition)
        set_field(self, "effects", effects)
        set_field(self, "seed", seed)

    @property
    def is_nominal(self) -> bool:
        return self.condition is None


class MitigationSpec(Record):
    """A function modification that weakly improves effects toward neutral.

    effect_overrides: replacement values per effect field; each must be
    neutral-or-better than the value it replaces (checked at apply time).
    vehicle_overrides: optional replacement vehicle parameters (e.g. a
    stronger brake); validated against the vehicle invariants on apply.
    """

    __slots__ = _fields = ("id", "description", "effect_overrides", "vehicle_overrides")

    def __init__(
        self,
        id: str,
        description: str,
        effect_overrides: Mapping[str, float] | None = None,  # None: {}
        vehicle_overrides: Mapping[str, float] | None = None,
    ) -> None:
        if effect_overrides is None:
            effect_overrides = {}
        if not id:
            raise ParameterError("mitigation id must be nonempty")
        unknown = set(effect_overrides) - set(EFFECT_FIELDS)
        if unknown:
            raise ParameterError(f"mitigation '{id}': unknown effect fields {sorted(unknown)}")
        if vehicle_overrides is not None:
            unknown = set(vehicle_overrides) - set(VEHICLE_FIELDS)
            if unknown:
                raise ParameterError(
                    f"mitigation '{id}': unknown vehicle fields {sorted(unknown)}"
                )
        set_field(self, "id", id)
        set_field(self, "description", description)
        set_field(self, "effect_overrides", effect_overrides)
        set_field(self, "vehicle_overrides", vehicle_overrides)


class EffectMapping(Record):
    """Condition -> effect resolution table, usually loaded from JSON.

    Lookup order: an exact ``by_leaf`` entry, then the deepest ancestor
    category with a ``by_category`` entry, then ``defaults`` if present.
    The chosen entry is overlaid on the neutral effect model; a condition
    that matches nothing raises :class:`UnmappedConditionError`.
    """

    __slots__ = _fields = ("by_leaf", "by_category", "defaults")

    def __init__(
        self,
        by_leaf: Mapping[str, Mapping[str, float]] | None = None,  # None: {}
        by_category: Mapping[str, Mapping[str, float]] | None = None,  # None: {}
        defaults: Mapping[str, float] | None = None,
    ) -> None:
        set_field(self, "by_leaf", {} if by_leaf is None else by_leaf)
        set_field(self, "by_category", {} if by_category is None else by_category)
        set_field(self, "defaults", defaults)


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
    condition.  Deterministic: seeds are derived from (base_seed, id), with
    ``base_seed`` a plain int, as :class:`Scenario` takes its seed (True is 1)."""
    try:
        base_seed = operator.index(base_seed)
    except TypeError:
        raise ParameterError(f"base_seed must be an integer, got {base_seed!r}") from None
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
    effects = scenario.effects._replace(**m.effect_overrides)

    odd = scenario.odd
    if m.vehicle_overrides:
        odd = odd._replace(vehicle=odd.vehicle._replace(**m.vehicle_overrides))

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
