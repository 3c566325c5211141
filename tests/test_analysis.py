from __future__ import annotations

import pytest

from sotifkit import (
    Controllability,
    EffectModel,
    Severity,
    SeverityRules,
    build_analysis_sheet,
    classify_affected_subsystems,
    generate_scenarios,
    link_hazards,
    monte_carlo_sweep,
)
from sotifkit.analysis import HAZARD_COLLISION, HAZARD_FALSE_ACTIVATION
from sotifkit.errors import IncompleteAnalysisError, ParameterError
from sotifkit.report import (
    _BUNDLE_TABLES,
    ANALYSIS_CSV_HEADER,
    ScenarioSummary,
    _join_sheet,
    write_analysis_csv,
)
from sotifkit.scenario import EffectMapping
from sotifkit.simulator import Stage, SweepStats

from conftest import make_condition


def stats_with(scenario_id="s", collision_rate=0.0, false_rate=0.0, impact_max=0.0):
    return SweepStats(
        scenario_id=scenario_id,
        runs=100,
        collision_rate=collision_rate,
        false_activation_rate=false_rate,
        gap_mean=5.0,
        gap_min=5.0,
        gap_max=5.0,
        impact_speed_mean=impact_max,
        impact_speed_min=0.0,
        impact_speed_max=impact_max,
        ttc_at_trigger_min=2.9,
        odd_fingerprint="f" * 16,
    )


class TestClassify:
    def test_snow_like_effects_hit_sensing(self):
        effects = EffectModel(perception_range_factor=0.5, ghost_rate=0.02)
        assert classify_affected_subsystems(effects) == {Stage.PERCEPTION_SENSE}

    def test_slippery_surface_hits_actuation(self):
        assert classify_affected_subsystems(EffectModel(mu_factor=0.5)) == {
            Stage.ACTUATION
        }

    def test_latency_hits_decision(self):
        assert classify_affected_subsystems(EffectModel(rho_add=0.3)) == {Stage.DECISION}

    def test_neutral_is_empty(self):
        assert classify_affected_subsystems(EffectModel()) == frozenset()

    def test_combined_channels(self):
        effects = EffectModel(0.6, 0.01, 0.8, 0.2)
        assert classify_affected_subsystems(effects) == {
            Stage.PERCEPTION_SENSE,
            Stage.DECISION,
            Stage.ACTUATION,
        }


class TestLinkHazards:
    def test_collision_links_h1(self):
        assert link_hazards(stats_with(collision_rate=1.0)) == [HAZARD_COLLISION]

    def test_false_activation_links_h2(self):
        assert link_hazards(stats_with(false_rate=0.4)) == [HAZARD_FALSE_ACTIVATION]

    def test_both_and_neither(self):
        assert link_hazards(stats_with(collision_rate=0.5, false_rate=0.5)) == [
            HAZARD_COLLISION,
            HAZARD_FALSE_ACTIVATION,
        ]
        assert link_hazards(stats_with()) == []


class TestSeverityRules:
    def test_default_thresholds(self):
        rules = SeverityRules()
        assert rules.collision_severity(12.0) is Severity.S3
        assert rules.collision_severity(11.0) is Severity.S3
        assert rules.collision_severity(7.85) is Severity.S2
        assert rules.collision_severity(3.0) is Severity.S1
        assert rules.collision_severity(0.0) is Severity.S0

    def test_monotone_in_impact_speed(self):
        rules = SeverityRules()
        speeds = [i * 0.5 for i in range(40)]
        ratings = [rules.collision_severity(s) for s in speeds]
        assert ratings == sorted(ratings)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SeverityRules(s3_impact_speed=4.0, s2_impact_speed=5.0)


class TestBuildSheet:
    def _pipeline(self, fixture_odd, fixture_taxonomy, fixture_mapping, runs=30):
        from sotifkit import enumerate_leaves, filter_by_odd

        conditions = filter_by_odd(
            enumerate_leaves(fixture_taxonomy), fixture_odd.odd_tags
        )
        scenarios = generate_scenarios(fixture_odd, conditions, fixture_mapping, 42)
        stats = monte_carlo_sweep(scenarios, runs_per_scenario=runs)
        return scenarios, stats

    def test_row_count_excludes_nominal(
        self, fixture_odd, fixture_taxonomy, fixture_mapping
    ):
        scenarios, stats = self._pipeline(fixture_odd, fixture_taxonomy, fixture_mapping)
        sheet = build_analysis_sheet(scenarios, stats)
        assert len(sheet) == len(scenarios) - 1
        assert all(row.scenario_id != "nominal" for row in sheet)
        assert all(row.controllability is Controllability.C3 for row in sheet)

    def test_snow_heavy_row(self, fixture_odd, fixture_taxonomy, fixture_mapping):
        scenarios, stats = self._pipeline(fixture_odd, fixture_taxonomy, fixture_mapping)
        sheet = build_analysis_sheet(scenarios, stats)
        row = next(r for r in sheet if r.leaf_id == "snow-heavy")
        assert row.affected_subsystems == {Stage.PERCEPTION_SENSE}
        assert row.severity is Severity.S1
        assert row.linked_hazard_ids == (HAZARD_FALSE_ACTIVATION,)
        assert "ghost" in row.rationale

    def test_low_friction_row(self, fixture_odd, fixture_taxonomy, fixture_mapping):
        scenarios, stats = self._pipeline(fixture_odd, fixture_taxonomy, fixture_mapping)
        sheet = build_analysis_sheet(scenarios, stats)
        row = next(r for r in sheet if r.leaf_id == "surface-gravel")
        assert row.affected_subsystems == {Stage.ACTUATION}
        assert row.severity is Severity.S2  # impact ~7.85 m/s
        assert row.linked_hazard_ids == (HAZARD_COLLISION,)

    def test_neutral_condition_gets_s0(self, fixture_odd, fixture_taxonomy, fixture_mapping):
        scenarios, stats = self._pipeline(fixture_odd, fixture_taxonomy, fixture_mapping)
        sheet = build_analysis_sheet(scenarios, stats)
        row = next(r for r in sheet if r.leaf_id == "surface-dry")
        assert row.severity is Severity.S0
        assert row.linked_hazard_ids == ()
        assert row.affected_subsystems == frozenset()

    def test_missing_sweep_result(self, fixture_odd):
        mapping = EffectMapping(defaults={"mu_factor": 0.9})
        scenarios = generate_scenarios(fixture_odd, [make_condition("x")], mapping, 1)
        with pytest.raises(IncompleteAnalysisError, match="x"):
            build_analysis_sheet(scenarios, [])


class TestSheetExports:
    def test_csv_columns(self, fixture_odd, fixture_taxonomy, fixture_mapping, tmp_path):
        from sotifkit import enumerate_leaves, filter_by_odd

        conditions = filter_by_odd(
            enumerate_leaves(fixture_taxonomy), fixture_odd.odd_tags
        )
        scenarios = generate_scenarios(fixture_odd, conditions, fixture_mapping, 42)
        stats = monte_carlo_sweep(scenarios, runs_per_scenario=5)
        sheet = build_analysis_sheet(scenarios, stats)
        path = tmp_path / "sheet.csv"
        write_analysis_csv(sheet, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(ANALYSIS_CSV_HEADER)
        assert len(lines) == len(sheet) + 1

    def test_row_dict_round_trip(self, fixture_odd, fixture_taxonomy, fixture_mapping):
        from sotifkit import enumerate_leaves, filter_by_odd

        conditions = filter_by_odd(
            enumerate_leaves(fixture_taxonomy), fixture_odd.odd_tags
        )
        scenarios = generate_scenarios(fixture_odd, conditions, fixture_mapping, 42)
        stats = monte_carlo_sweep(scenarios, runs_per_scenario=5)
        # A written row holds all but the leaf id and category path, which
        # the reader joins back from the row's scenario.
        table = _BUNDLE_TABLES["analysis_sheet"]
        sheet = build_analysis_sheet(scenarios, stats)
        read = [table.from_dict(table.to_dict(row)) for row in sheet]
        assert _join_sheet(read, map(ScenarioSummary.of, scenarios)) == tuple(sheet)
