from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest

from sotifkit import (
    NOMINAL_ID,
    EffectMapping,
    EffectModel,
    MitigationSpec,
    OddDefinition,
    Scenario,
    VehicleParams,
    apply_mitigation,
    derive_seed,
    generate_scenarios,
    load_effect_mapping,
    load_mitigations,
    resolve_effects,
)
from sotifkit.errors import (
    InvalidMitigationError,
    ParameterError,
    UnmappedConditionError,
)
from sotifkit.risk import load_criteria, load_occurrences
from sotifkit.scenario import mitigation_applicable
from sotifkit.simulator import compute_kpis, monte_carlo_sweep, simulate

from conftest import make_condition, make_scenario


@pytest.fixture
def snow_heavy():
    cond = make_condition("snow-heavy")
    return dataclasses.replace(
        cond, category_path=("Environmental conditions", "Weather", "Snow")
    )


class TestEffectModel:
    def test_neutral_element(self):
        assert EffectModel() == EffectModel(1.0, 0.0, 1.0, 0.0)
        assert EffectModel().is_neutral
        assert not EffectModel(ghost_rate=0.01).is_neutral

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(perception_range_factor=0.0),
            dict(perception_range_factor=1.5),
            dict(ghost_rate=-0.1),
            dict(ghost_rate=1.1),
            dict(mu_factor=0.0),
            dict(mu_factor=2.0),
            dict(rho_add=-0.5),
            dict(rho_add=math.inf),
            dict(rho_add=math.nan),
        ],
    )
    def test_range_validation(self, kwargs):
        with pytest.raises(ParameterError):
            EffectModel(**kwargs)


class TestOddDefinition:
    def test_well_formedness_flag(self, baseline_vehicle):
        good = OddDefinition(100.0, 120.0, 1.0, frozenset({"weather"}), baseline_vehicle)
        assert good.is_nominally_well_formed
        # Sensor range below the object distance: permitted but flagged.
        short = OddDefinition(100.0, 80.0, 1.0, frozenset({"weather"}), baseline_vehicle)
        assert not short.is_nominally_well_formed

    def test_fingerprint_ignores_vehicle(self, baseline_vehicle):
        a = OddDefinition(100.0, 120.0, 1.0, frozenset(), baseline_vehicle)
        upgraded = dataclasses.replace(
            a, vehicle=dataclasses.replace(baseline_vehicle, a_min_brake=6.5)
        )
        other_road = dataclasses.replace(a, d_object=90.0)
        assert a.fingerprint() == upgraded.fingerprint()
        assert a.fingerprint() != other_road.fingerprint()

    def test_domain(self, baseline_vehicle):
        with pytest.raises(ParameterError):
            OddDefinition(0.0, 80.0, 1.0, frozenset(), baseline_vehicle)
        with pytest.raises(ParameterError):
            OddDefinition(100.0, 80.0, 1.5, frozenset(), baseline_vehicle)
        with pytest.raises(ParameterError, match="d_object must be finite"):
            OddDefinition(math.inf, 80.0, 1.0, frozenset(), baseline_vehicle)
        with pytest.raises(ParameterError, match="d_perception must be finite"):
            OddDefinition(100.0, math.inf, 1.0, frozenset(), baseline_vehicle)

    def test_tags_are_stored_frozen(self, baseline_vehicle):
        frozen = OddDefinition(100.0, 120.0, 1.0, frozenset({"weather"}), baseline_vehicle)
        odd = OddDefinition(100.0, 120.0, 1.0, {"weather"}, baseline_vehicle)
        assert odd == frozen and hash(odd) == hash(frozen)
        assert type(odd.odd_tags) is frozenset
        # The ghost-free run is cached by scenario, and the sweep keys its
        # fingerprints by ODD: both hash the ODD.
        ghosts = EffectModel(ghost_rate=0.05)
        scenarios = [make_scenario(odd), make_scenario(odd, ghosts, "ghosts")]
        expected = [make_scenario(frozen), make_scenario(frozen, ghosts, "ghosts")]
        assert compute_kpis(simulate(scenarios[0]), scenarios[0]) == compute_kpis(
            simulate(expected[0]), expected[0]
        )
        assert monte_carlo_sweep(scenarios, runs_per_scenario=5) == monte_carlo_sweep(
            expected, runs_per_scenario=5
        )

    def test_tags_are_not_a_string(self, baseline_vehicle):
        with pytest.raises(ParameterError, match="odd_tags"):
            OddDefinition(100.0, 120.0, 1.0, "weather", baseline_vehicle)


class TestCheckNumber:
    """The number kind shared by every numeric input field, seen through a
    loader: a finite JSON number, stored as a float."""

    @staticmethod
    def _criteria_file(tmp_path, value):
        path = tmp_path / "criteria.json"
        document = {
            "max_final_gap_degradation": value,
            "max_collision_rate": 0.0,
            "max_false_activation_rate": 0.0,
            "min_ttc_at_trigger": 0.0,
        }
        path.write_text(json.dumps(document))
        return path

    @pytest.mark.parametrize("value, expected", [(3, 3.0), (0, 0.0), (-2.5, -2.5), (1e300, 1e300)])
    def test_numbers_become_floats(self, value, expected, tmp_path):
        number = load_criteria(self._criteria_file(tmp_path, value)).max_final_gap_degradation
        assert number == expected and type(number) is float

    @pytest.mark.parametrize(
        "value", [True, False, None, "1", [1], {"x": 1}, math.inf, -math.inf, math.nan, 10**400]
    )
    def test_other_values_name_file_and_field(self, value, tmp_path):
        path = self._criteria_file(tmp_path, value)
        with pytest.raises(
            ValueError,
            match=rf"^{re.escape(str(path))}: max_final_gap_degradation: expected a finite number",
        ):
            load_criteria(path)


class TestLoaderRepeatedIds:
    """An id that names one item of a list file may not name a second one:
    the error names the file, the later item and the id."""

    def test_mitigation_id(self, tmp_path):
        path = tmp_path / "mitigations.json"
        path.write_text(
            '[{"id": "m", "description": "d"}, {"id": "n", "description": "d"}, '
            '{"id": "m", "description": "e"}]'
        )
        with pytest.raises(ValueError, match=rf"^{path}\[2\]\.id: 'm' repeats {path}\[0\]$"):
            load_mitigations(path)

    def test_occurrence_leaf_id(self, tmp_path):
        path = tmp_path / "occurrence.json"
        path.write_text(
            '[{"leaf_id": "rain-light", "exposure_rate": 0.1}, '
            '{"leaf_id": "rain-light", "exposure_rate": 0.9}]'
        )
        with pytest.raises(
            ValueError, match=rf"^{path}\[1\]\.leaf_id: 'rain-light' repeats {path}\[0\]$"
        ):
            load_occurrences(path)


class TestLoaderDomainErrors:
    """A value outside its field's domain fails at load, naming the file,
    the entry and the field."""

    def test_effect_entry(self, tmp_path):
        path = tmp_path / "effects.json"
        path.write_text('{"by_leaf": {"x": {"ghost_rate": 2}}, "defaults": {}}')
        with pytest.raises(
            ParameterError, match=rf"^{path}: by_leaf\[x\]: ghost_rate must be in \[0, 1\]"
        ):
            load_effect_mapping(path)

    def test_vehicle_override(self, tmp_path):
        path = tmp_path / "mitigations.json"
        path.write_text('[{"id": "m", "description": "d", "vehicle_overrides": {"rho": -1}}]')
        with pytest.raises(
            ParameterError, match=rf"^{path}\[0\]: vehicle_overrides: rho must be >= 0, got -1.0"
        ):
            load_mitigations(path)

    def test_effect_override(self, tmp_path):
        path = tmp_path / "mitigations.json"
        path.write_text(
            '[{"id": "m", "description": "d", '
            '"effect_overrides": {"perception_range_factor": 5, "ghost_rate": -3}}]'
        )
        with pytest.raises(
            ParameterError,
            match=rf"^{path}\[0\]: effect_overrides: perception_range_factor must be in \(0, 1\], "
            "got 5.0",
        ):
            load_mitigations(path)

    def test_vehicle_override_joint_check_waits_for_apply(self, tmp_path, fixture_odd):
        # Each override is in its own domain; whether the whole vehicle is
        # sound depends on the vehicle it replaces.
        path = tmp_path / "mitigations.json"
        path.write_text(
            '[{"id": "m", "description": "d", "vehicle_overrides": {"a_min_brake": 1e-310}}]'
        )
        (mitigation,) = load_mitigations(path)
        nominal = generate_scenarios(fixture_odd, [], EffectMapping(), 0)[0]
        with pytest.raises(ParameterError, match="rss_min_distance must be finite"):
            apply_mitigation(nominal, mitigation)


class TestResolveEffects:
    def test_leaf_entry(self, snow_heavy):
        mapping = EffectMapping(
            by_leaf={"snow-heavy": {"ghost_rate": 0.02, "perception_range_factor": 0.5}}
        )
        assert resolve_effects(snow_heavy, mapping) == EffectModel(
            perception_range_factor=0.5, ghost_rate=0.02
        )

    def test_category_default_neutral(self, snow_heavy):
        mapping = EffectMapping(by_category={"Weather": {}})
        assert resolve_effects(snow_heavy, mapping).is_neutral

    def test_deepest_category_wins(self, snow_heavy):
        mapping = EffectMapping(
            by_category={"Weather": {"mu_factor": 0.9}, "Snow": {"mu_factor": 0.5}}
        )
        assert resolve_effects(snow_heavy, mapping).mu_factor == 0.5

    def test_partial_entry_defaults_neutral(self, snow_heavy):
        mapping = EffectMapping(by_leaf={"snow-heavy": {"mu_factor": 0.4}})
        assert resolve_effects(snow_heavy, mapping) == EffectModel(1.0, 0.0, 0.4, 0.0)

    def test_global_defaults_fallback(self, snow_heavy):
        mapping = EffectMapping(defaults={"perception_range_factor": 0.8})
        assert resolve_effects(snow_heavy, mapping).perception_range_factor == 0.8

    def test_unmapped_condition(self, snow_heavy):
        with pytest.raises(UnmappedConditionError, match="snow-heavy"):
            resolve_effects(snow_heavy, EffectMapping())

    def test_unknown_field_rejected(self, snow_heavy):
        mapping = EffectMapping(by_leaf={"snow-heavy": {"fog_factor": 0.5}})
        with pytest.raises(ValueError, match="fog_factor"):
            resolve_effects(snow_heavy, mapping)


class TestGenerateScenarios:
    def _conditions(self, n):
        return [make_condition(f"leaf-{i}") for i in range(n)]

    def test_count_and_nominal_first(self, fixture_odd):
        mapping = EffectMapping(defaults={})
        scenarios = generate_scenarios(fixture_odd, self._conditions(12), mapping, 7)
        assert len(scenarios) == 13
        assert scenarios[0].id == NOMINAL_ID
        assert scenarios[0].is_nominal and scenarios[0].effects.is_neutral
        assert len({s.id for s in scenarios}) == 13

    def test_empty_condition_list(self, fixture_odd):
        scenarios = generate_scenarios(fixture_odd, [], EffectMapping(defaults={}), 7)
        assert [s.id for s in scenarios] == [NOMINAL_ID]

    def test_deterministic_including_seeds(self, fixture_odd):
        mapping = EffectMapping(defaults={"mu_factor": 0.9})
        a = generate_scenarios(fixture_odd, self._conditions(5), mapping, 99)
        b = generate_scenarios(fixture_odd, self._conditions(5), mapping, 99)
        assert a == b
        assert [s.seed for s in a] == [s.seed for s in b]

    def test_adding_a_condition_keeps_other_seeds(self, fixture_odd):
        mapping = EffectMapping(defaults={})
        small = generate_scenarios(fixture_odd, self._conditions(3), mapping, 5)
        large = generate_scenarios(fixture_odd, self._conditions(4), mapping, 5)
        assert [s.seed for s in small] == [s.seed for s in large[:4]]

    def test_duplicate_condition_rejected(self, fixture_odd):
        conditions = [make_condition("dup"), make_condition("dup")]
        with pytest.raises(ValueError, match="duplicate"):
            generate_scenarios(fixture_odd, conditions, EffectMapping(defaults={}), 1)

    def test_unmapped_error_propagates(self, fixture_odd):
        with pytest.raises(UnmappedConditionError):
            generate_scenarios(fixture_odd, self._conditions(1), EffectMapping(), 1)


class TestScenarioInvariants:
    def test_nominal_requires_neutral_effects(self, fixture_odd):
        with pytest.raises(ParameterError, match="non-neutral"):
            Scenario(
                id="bad",
                odd=fixture_odd,
                condition=None,
                effects=EffectModel(mu_factor=0.5),
                seed=1,
            )

    def test_condition_with_neutral_effects_allowed(self, fixture_odd):
        # e.g. a mapped dry-surface leaf, or a fully mitigated scenario.
        s = Scenario(
            id="dry",
            odd=fixture_odd,
            condition=make_condition("surface-dry"),
            effects=EffectModel(),
            seed=1,
        )
        assert not s.is_nominal


class TestApplyMitigation:
    def _scenario(self, odd, **effects):
        return Scenario(
            id="snow-heavy",
            odd=odd,
            condition=make_condition("snow-heavy"),
            effects=EffectModel(**effects),
            seed=derive_seed(0, "snow-heavy"),
        )

    def test_field_replacement(self, fixture_odd):
        s = self._scenario(fixture_odd, perception_range_factor=0.5, ghost_rate=0.02)
        m = MitigationSpec("m1", "better sensor", {"perception_range_factor": 0.9})
        out = apply_mitigation(s, m)
        assert out.effects == EffectModel(0.9, 0.02, 1.0, 0.0)
        assert out.id == "snow-heavy+m1"
        assert out.seed == s.seed  # matched-seed comparisons stay valid
        assert out.condition == s.condition

    def test_worsening_override_rejected(self, fixture_odd):
        s = self._scenario(fixture_odd, ghost_rate=0.02)
        with pytest.raises(InvalidMitigationError, match="ghost_rate"):
            apply_mitigation(s, MitigationSpec("m", "worse", {"ghost_rate": 0.05}))
        s2 = self._scenario(fixture_odd, mu_factor=0.8)
        with pytest.raises(InvalidMitigationError, match="mu_factor"):
            apply_mitigation(s2, MitigationSpec("m", "worse", {"mu_factor": 0.5}))

    def test_neutral_mitigation_is_identity_with_new_id(self, fixture_odd):
        s = self._scenario(fixture_odd, mu_factor=0.5)
        out = apply_mitigation(s, MitigationSpec("noop", "does nothing", {}))
        assert out.effects == s.effects
        assert out.id == "snow-heavy+noop"

    def test_override_clamped_at_neutral(self, fixture_odd):
        s = self._scenario(fixture_odd, perception_range_factor=0.5)
        out = apply_mitigation(
            s, MitigationSpec("m", "x", {"perception_range_factor": 1.0})
        )
        assert out.effects.perception_range_factor == 1.0
        assert not out.is_nominal  # condition retained even at neutral effects

    def test_vehicle_override(self, fixture_odd):
        s = self._scenario(fixture_odd, mu_factor=0.5)
        m = MitigationSpec("brakes", "stronger", vehicle_overrides={"a_min_brake": 6.5})
        out = apply_mitigation(s, m)
        assert out.odd.vehicle.a_min_brake == 6.5
        assert out.odd.fingerprint() == s.odd.fingerprint()

    def test_applicability_probe(self, fixture_odd):
        s = self._scenario(fixture_odd, mu_factor=0.5)
        assert mitigation_applicable(s, MitigationSpec("m", "x", {"mu_factor": 0.8}))
        assert not mitigation_applicable(
            s, MitigationSpec("m", "x", {"mu_factor": 0.4})
        )
        # A range override on a scenario already at neutral range worsens it.
        assert not mitigation_applicable(
            s, MitigationSpec("m", "x", {"perception_range_factor": 0.9})
        )

    def test_never_moves_away_from_neutral(self, fixture_odd):
        s = self._scenario(
            fixture_odd, perception_range_factor=0.5, ghost_rate=0.02, mu_factor=0.7
        )
        m = MitigationSpec(
            "m", "x", {"perception_range_factor": 0.8, "ghost_rate": 0.0, "mu_factor": 0.9}
        )
        out = apply_mitigation(s, m)
        assert out.effects.perception_range_factor >= s.effects.perception_range_factor
        assert out.effects.ghost_rate <= s.effects.ghost_rate
        assert out.effects.mu_factor >= s.effects.mu_factor
        assert out.effects.rho_add <= s.effects.rho_add

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ParameterError, match="unknown effect fields"):
            MitigationSpec("m", "x", {"bogus": 1.0})
        with pytest.raises(ParameterError, match="unknown vehicle fields"):
            MitigationSpec("m", "x", vehicle_overrides={"mass": 100.0})


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_seed(42, "nominal") == derive_seed(42, "nominal")
        assert derive_seed(42, "a") != derive_seed(42, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert 0 <= derive_seed(123, "x") < 2**64

    def test_vehicle_params_unaffected_by_seed_scheme(self, baseline_vehicle):
        # Smoke check that deriving seeds never mutates shared inputs.
        before = dataclasses.asdict(baseline_vehicle)
        derive_seed(baseline_vehicle, 0)
        assert dataclasses.asdict(baseline_vehicle) == before
