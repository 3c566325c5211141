"""The contract of the frozen records (:class:`sotifkit.records.Record`).

Every input record and the report bundle is frozen, equal by value to a
record of its own type only, hashable when its values are, written with
the repr a dataclass would give it, and copied, pickled and ``_replace``d
through its checked constructor.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from sotifkit import (
    AcceptanceCriteria,
    EffectMapping,
    EffectModel,
    MitigationSpec,
    OccurrenceSpec,
    OddDefinition,
    ReportBundle,
    Scenario,
    SeverityRules,
    SimConfig,
    Taxonomy,
    TaxonomyNode,
    TriggeringCondition,
    VehicleParams,
)
from sotifkit.errors import ContractViolationError, ParameterError, TaxonomyError
from sotifkit.report import RunMeta

VEHICLE = VehicleParams(10, 1, 2, 5)
NODE = TaxonomyNode("fog", "Fog", frozenset({"weather"}), (), "light")
CONDITION = TriggeringCondition("fog", ["Weather"], "light", {"weather"})
ODD = OddDefinition(80, 120.5, 1, ["weather"], VEHICLE)
EFFECTS = EffectModel(0.5, 0.01)
CRITERIA = AcceptanceCriteria(0.1, 0, 0.05, 1.5)
META = RunMeta("sotifkit", "0.1.0", "", 7, 3, 0.01, 10.0, 0.05, {"odd": "ab12"}, True)
SUMMARY = {"total_leaves": 0, "relevant_leaves": 0, "leaves_by_root": {}}

# Per record type: a record, its repr as a dataclass wrote it, and a change
# that ``_replace`` must reject with the constructor's error (None: the type
# checks none of its fields).
CASES = {
    "VehicleParams": (
        VEHICLE,
        "VehicleParams(v_r=10.0, rho=1.0, a_max_accel=2.0, a_min_brake=5.0)",
        ({"rho": -1.0}, ParameterError),
    ),
    "TaxonomyNode": (
        NODE,
        "TaxonomyNode(id='fog', name='Fog', odd_tags=frozenset({'weather'}), children=(), "
        "intensity='light')",
        None,
    ),
    "Taxonomy": (
        Taxonomy((NODE,)),
        "Taxonomy(roots=(TaxonomyNode(id='fog', name='Fog', odd_tags=frozenset({'weather'}), "
        "children=(), intensity='light'),))",
        None,
    ),
    "TriggeringCondition": (
        CONDITION,
        "TriggeringCondition(leaf_id='fog', category_path=('Weather',), intensity='light', "
        "odd_tags=frozenset({'weather'}))",
        ({"category_path": ()}, TaxonomyError),
    ),
    "OddDefinition": (
        ODD,
        "OddDefinition(d_object=80.0, d_perception=120.5, mu=1.0, odd_tags=frozenset({'weather'}), "
        "vehicle=VehicleParams(v_r=10.0, rho=1.0, a_max_accel=2.0, a_min_brake=5.0))",
        ({"mu": 1.5}, ParameterError),
    ),
    "EffectModel": (
        EFFECTS,
        "EffectModel(perception_range_factor=0.5, ghost_rate=0.01, mu_factor=1.0, rho_add=0.0)",
        ({"ghost_rate": 2}, ParameterError),
    ),
    "Scenario": (
        Scenario("fog", ODD, CONDITION, EFFECTS, 3),
        "Scenario(id='fog', odd=OddDefinition(d_object=80.0, d_perception=120.5, mu=1.0, "
        "odd_tags=frozenset({'weather'}), vehicle=VehicleParams(v_r=10.0, rho=1.0, "
        "a_max_accel=2.0, a_min_brake=5.0)), condition=TriggeringCondition(leaf_id='fog', "
        "category_path=('Weather',), intensity='light', odd_tags=frozenset({'weather'})), "
        "effects=EffectModel(perception_range_factor=0.5, ghost_rate=0.01, mu_factor=1.0, "
        "rho_add=0.0), seed=3)",
        ({"seed": -1}, ParameterError),
    ),
    "MitigationSpec": (
        MitigationSpec("diversity", "a second sensor", {"ghost_rate": 0.0}),
        "MitigationSpec(id='diversity', description='a second sensor', "
        "effect_overrides={'ghost_rate': 0.0}, vehicle_overrides=None)",
        ({"effect_overrides": {"wind": 0.0}}, ParameterError),
    ),
    "EffectMapping": (
        EffectMapping(by_category={"Weather": {"mu_factor": 0.5}}),
        "EffectMapping(by_leaf={}, by_category={'Weather': {'mu_factor': 0.5}}, defaults=None)",
        None,
    ),
    "SimConfig": (
        SimConfig(0.01, 10),
        "SimConfig(dt=0.01, max_time=10.0)",
        ({"dt": 0.1}, ParameterError),
    ),
    "SeverityRules": (
        SeverityRules(12, 4),
        "SeverityRules(s3_impact_speed=12.0, s2_impact_speed=4.0, "
        "false_activation_severity=<Severity.S1: 1>)",
        ({"s2_impact_speed": 13.0}, ParameterError),
    ),
    "OccurrenceSpec": (
        OccurrenceSpec("fog", 1, "survey"),
        "OccurrenceSpec(leaf_id='fog', exposure_rate=1.0, source='survey')",
        ({"exposure_rate": -1.0}, ParameterError),
    ),
    "AcceptanceCriteria": (
        CRITERIA,
        "AcceptanceCriteria(max_final_gap_degradation=0.1, max_collision_rate=0.0, "
        "max_false_activation_rate=0.05, min_ttc_at_trigger=1.5)",
        ({"max_collision_rate": 1.5}, ParameterError),
    ),
    "RunMeta": (
        META,
        "RunMeta(tool='sotifkit', version='0.1.0', created_utc='', base_seed=7, "
        "runs_per_scenario=3, dt=0.01, max_time=10.0, perception_tick=0.05, "
        "input_digests={'odd': 'ab12'}, odd_well_formed=True)",
        None,
    ),
    "ReportBundle": (
        ReportBundle(META, SUMMARY, (), (), (), (), (), CRITERIA, ()),
        "ReportBundle(meta=RunMeta(tool='sotifkit', version='0.1.0', created_utc='', "
        "base_seed=7, runs_per_scenario=3, dt=0.01, max_time=10.0, perception_tick=0.05, "
        "input_digests={'odd': 'ab12'}, odd_well_formed=True), taxonomy_summary="
        "{'total_leaves': 0, 'relevant_leaves': 0, 'leaves_by_root': {}}, scenarios=(), "
        "kpi_table=(), analysis_sheet=(), risk_table=(), mitigation_table=(), "
        "criteria=AcceptanceCriteria(max_final_gap_degradation=0.1, max_collision_rate=0.0, "
        "max_false_activation_rate=0.05, min_ttc_at_trigger=1.5), acceptance=())",
        ({"taxonomy_summary": {**SUMMARY, "relevant_leaves": 1}}, ContractViolationError),
    ),
}

# The field order of each type, as the dataclass declared it.
FIELDS = {
    "VehicleParams": ("v_r", "rho", "a_max_accel", "a_min_brake"),
    "TaxonomyNode": ("id", "name", "odd_tags", "children", "intensity"),
    "Taxonomy": ("roots",),
    "TriggeringCondition": ("leaf_id", "category_path", "intensity", "odd_tags"),
    "OddDefinition": ("d_object", "d_perception", "mu", "odd_tags", "vehicle"),
    "EffectModel": ("perception_range_factor", "ghost_rate", "mu_factor", "rho_add"),
    "Scenario": ("id", "odd", "condition", "effects", "seed"),
    "MitigationSpec": ("id", "description", "effect_overrides", "vehicle_overrides"),
    "EffectMapping": ("by_leaf", "by_category", "defaults"),
    "SimConfig": ("dt", "max_time"),
    "SeverityRules": ("s3_impact_speed", "s2_impact_speed", "false_activation_severity"),
    "OccurrenceSpec": ("leaf_id", "exposure_rate", "source"),
    "AcceptanceCriteria": (
        "max_final_gap_degradation",
        "max_collision_rate",
        "max_false_activation_rate",
        "min_ttc_at_trigger",
    ),
    "RunMeta": (
        "tool",
        "version",
        "created_utc",
        "base_seed",
        "runs_per_scenario",
        "dt",
        "max_time",
        "perception_tick",
        "input_digests",
        "odd_well_formed",
    ),
    "ReportBundle": (
        "meta",
        "taxonomy_summary",
        "scenarios",
        "kpi_table",
        "analysis_sheet",
        "risk_table",
        "mitigation_table",
        "criteria",
        "acceptance",
    ),
}

# The types that hold a mapping, which, like a dict, has no hash.
UNHASHABLE = {"MitigationSpec", "EffectMapping", "RunMeta", "ReportBundle"}


@pytest.fixture(params=list(CASES))
def case(request):
    return request.param, *CASES[request.param]


def test_every_type_is_covered():
    assert CASES.keys() == FIELDS.keys()
    assert len(CASES) == 15


def test_fields_are_in_declaration_order(case):
    name, record, _, _ = case
    assert type(record).__name__ == name
    assert record._fields == FIELDS[name]
    assert list(record._asdict()) == list(FIELDS[name])
    assert record._asdict() == {field: getattr(record, field) for field in FIELDS[name]}


def test_assignment_and_deletion_raise(case):
    _, record, _, _ = case
    for field in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == case[1]


def test_repr_is_the_dataclass_repr(case):
    _, record, text, _ = case
    assert repr(record) == text


def test_equal_values_equal_records(case):
    name, record, _, _ = case
    twin = type(record)(*record._asdict().values())
    assert twin is not record
    assert twin == record and not twin != record
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    for other_name, (other, _, _) in CASES.items():
        if other_name != name:
            assert record != other and other != record
    assert record != tuple(record._asdict().values())


def test_replace_builds_through_the_constructor(case):
    _, record, _, bad = case
    assert record._replace() == record
    assert type(record._replace()) is type(record)
    if bad is not None:
        changes, error = bad
        with pytest.raises(error):
            record._replace(**changes)
    with pytest.raises(TypeError):
        record._replace(not_a_field=1)


def test_copy_deepcopy_and_pickle_round_trip(case):
    _, record, _, _ = case
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record)
        assert copied == record
        assert repr(copied) == repr(record)


def test_a_config_copy_keeps_its_step_counts():
    cfg = SimConfig(0.01, 10)
    for copied in (cfg._replace(), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert (copied.tick_steps, copied.max_steps) == (5, 1000)
    finer = cfg._replace(dt=0.001)
    assert (finer.tick_steps, finer.max_steps) == (50, 10000)
