from __future__ import annotations

import dataclasses
import math

import pytest

from sotifkit import (
    AcceptanceCriteria,
    OccurrenceClass,
    OccurrenceSpec,
    RiskLevel,
    Severity,
    acceptance_check,
    evaluate_residual_risk,
    hazard_rate,
    occurrence_class,
    risk_level,
)
from sotifkit.analysis import (
    HAZARD_COLLISION,
    HAZARD_FALSE_ACTIVATION,
    HAZARD_RATES,
    AnalysisRow,
    Controllability,
    SeverityRules,
)
from sotifkit.errors import (
    IncompleteAnalysisError,
    IncompleteOccurrenceError,
    InvalidComparisonError,
    ParameterError,
)
from sotifkit.report import _BUNDLE_TABLES, RISK_CSV_HEADER, write_risk_csv
from sotifkit.risk import hours_to_hazard
from sotifkit.simulator import SweepStats


def stats_with(
    scenario_id="s",
    collision_rate=0.0,
    false_rate=0.0,
    gap_mean=6.95,
    ttc_min=2.9,
    fingerprint="f" * 16,
):
    return SweepStats(
        scenario_id=scenario_id,
        runs=100,
        collision_rate=collision_rate,
        false_activation_rate=false_rate,
        gap_mean=gap_mean,
        gap_min=gap_mean,
        gap_max=gap_mean,
        impact_speed_mean=0.0,
        impact_speed_min=0.0,
        impact_speed_max=0.0,
        ttc_at_trigger_min=ttc_min,
        odd_fingerprint=fingerprint,
    )


def row_with(scenario_id="s", leaf_id="leaf", severity=Severity.S2, hazards=()):
    return AnalysisRow(
        scenario_id=scenario_id,
        leaf_id=leaf_id,
        category_path=("cat",),
        affected_subsystems=frozenset(),
        severity=severity,
        controllability=Controllability.C3,
        linked_hazard_ids=tuple(hazards),
        rationale="",
    )


class TestRiskMatrix:
    def test_corners_and_documented_cells(self):
        assert risk_level(Severity.S0, OccurrenceClass.O4) is RiskLevel.NEGLIGIBLE
        assert risk_level(Severity.S3, OccurrenceClass.O4) is RiskLevel.HIGH
        assert risk_level(Severity.S2, OccurrenceClass.O2) is RiskLevel.LOW

    def test_s0_row_all_negligible(self):
        for o in OccurrenceClass:
            assert risk_level(Severity.S0, o) is RiskLevel.NEGLIGIBLE

    def test_monotone_both_axes_all_16_cells(self):
        for s in Severity:
            for o in OccurrenceClass:
                here = risk_level(s, o)
                if s < Severity.S3:
                    assert risk_level(Severity(s + 1), o) >= here
                if o < OccurrenceClass.O4:
                    assert risk_level(s, OccurrenceClass(o + 1)) >= here


class TestOccurrenceBinning:
    def test_default_boundaries(self):
        O1, O2, O3, O4 = OccurrenceClass
        # Each bound is the least rate of its class; the float just below
        # it falls in the class below.
        for rate, expected in [
            (0.5, O4),
            (0.1, O4),
            (math.nextafter(0.1, 0), O3),
            (0.02, O3),
            (1e-3, O3),
            (math.nextafter(1e-3, 0), O2),
            (1e-4, O2),
            (1e-5, O2),
            (math.nextafter(1e-5, 0), O1),
            (1e-6, O1),
            (0.0, O1),
        ]:
            assert occurrence_class(rate) is expected, rate


class TestHazardRate:
    def test_multiplication_oracle(self):
        occ = OccurrenceSpec("leaf", 0.01)
        assert hazard_rate(occ, 1.0) == pytest.approx(0.01)
        assert hours_to_hazard(0.01) == pytest.approx(100.0)

    def test_zero_probability_unbounded(self):
        occ = OccurrenceSpec("leaf", 0.01)
        assert hazard_rate(occ, 0.0) == 0.0
        assert math.isinf(hours_to_hazard(0.0))

    def test_zero_exposure(self):
        assert hazard_rate(OccurrenceSpec("leaf", 0.0), 1.0) == 0.0

    def test_linear_in_both_arguments(self):
        occ = OccurrenceSpec("leaf", 0.04)
        assert hazard_rate(occ, 0.5) == pytest.approx(2 * hazard_rate(occ, 0.25))
        double = OccurrenceSpec("leaf", 0.08)
        assert hazard_rate(double, 0.5) == pytest.approx(2 * hazard_rate(occ, 0.5))

    def test_reciprocal_identity(self):
        for rate in (1e-6, 0.01, 3.7):
            assert hours_to_hazard(rate) * rate == pytest.approx(1.0, rel=1e-12)

    def test_probability_domain(self):
        with pytest.raises(ParameterError):
            hazard_rate(OccurrenceSpec("leaf", 0.01), 1.5)

    def test_exposure_domain(self):
        with pytest.raises(ParameterError):
            OccurrenceSpec("leaf", -0.1)
        with pytest.raises(ParameterError):
            OccurrenceSpec("leaf", math.inf)


@pytest.mark.parametrize(
    "value",
    [
        AcceptanceCriteria(1, 0, 1, 2),
        OccurrenceSpec("leaf", 1),
        SeverityRules(s3_impact_speed=11, s2_impact_speed=5),
    ],
    ids=lambda value: type(value).__name__,
)
def test_int_valued_fields_stored_as_floats(value):
    # An int-valued input equals, and is written as, the float one.
    numbers = [x for x in vars(value).values() if type(x) in (int, float)]
    assert numbers and all(type(x) is float for x in numbers)


class TestAcceptanceCheck:
    def _criteria(self, **overrides):
        base = dict(
            max_final_gap_degradation=0.2,
            max_collision_rate=0.0,
            max_false_activation_rate=0.05,
            min_ttc_at_trigger=1.5,
        )
        base.update(overrides)
        return AcceptanceCriteria(**base)

    def test_self_comparison_passes(self):
        nominal = stats_with("nominal")
        verdict = acceptance_check(nominal, nominal, self._criteria())
        assert verdict.passed and verdict.violations == ()

    def test_collision_rate_violation(self):
        nominal = stats_with("nominal")
        bad = stats_with("bad", collision_rate=1.0, gap_mean=0.0)
        verdict = acceptance_check(nominal, bad, self._criteria())
        assert not verdict.passed
        clauses = {v.clause for v in verdict.violations}
        assert "max_collision_rate" in clauses

    def test_degradation_within_allowance_passes(self):
        nominal = stats_with("nominal", gap_mean=10.0)
        degraded = stats_with("a-bit-worse", gap_mean=9.0)
        verdict = acceptance_check(nominal, degraded, self._criteria())
        assert verdict.passed  # 10% degradation vs 20% allowed

    def test_degradation_violation_reports_measurement(self):
        nominal = stats_with("nominal", gap_mean=10.0)
        degraded = stats_with("much-worse", gap_mean=5.0)
        verdict = acceptance_check(nominal, degraded, self._criteria())
        (violation,) = verdict.violations
        assert violation.clause == "max_final_gap_degradation"
        assert violation.measured == pytest.approx(0.5)
        assert violation.threshold == 0.2

    def test_ttc_violation(self):
        nominal = stats_with("nominal")
        late = stats_with("late", ttc_min=1.0)
        verdict = acceptance_check(nominal, late, self._criteria())
        assert {v.clause for v in verdict.violations} == {"min_ttc_at_trigger"}

    def test_no_closing_ttc_passes(self):
        nominal = stats_with("nominal")
        quiet = stats_with("quiet", ttc_min=math.inf)
        assert acceptance_check(nominal, quiet, self._criteria()).passed

    def test_mismatched_odd_rejected(self):
        nominal = stats_with("nominal", fingerprint="a" * 16)
        other = stats_with("other", fingerprint="b" * 16)
        with pytest.raises(InvalidComparisonError):
            acceptance_check(nominal, other, self._criteria())

    def test_improvement_never_fails_degradation(self):
        nominal = stats_with("nominal", gap_mean=5.0)
        better = stats_with("better", gap_mean=8.0)
        assert acceptance_check(nominal, better, self._criteria()).passed

    def test_degradation_needs_a_positive_nominal_gap(self):
        nominal = stats_with("nominal", gap_mean=0.0)
        assert acceptance_check(nominal, stats_with("s", gap_mean=0.0), self._criteria()).passed

    @pytest.mark.parametrize(
        "clause, at, beyond",
        [
            ("max_final_gap_degradation", {"gap_mean": 8.0}, {"gap_mean": 7.99}),
            ("max_collision_rate", {"collision_rate": 0.1}, {"collision_rate": 0.11}),
            ("max_false_activation_rate", {"false_rate": 0.05}, {"false_rate": 0.06}),
            ("min_ttc_at_trigger", {"ttc_min": 1.5}, {"ttc_min": 1.49}),
        ],
    )
    def test_clause_passes_at_threshold_fails_beyond(self, clause, at, beyond):
        # Nominal gap 10: degradation 0.2 at gap 8.0, the threshold itself.
        nominal = stats_with("nominal", gap_mean=10.0)
        criteria = self._criteria(max_collision_rate=0.1)
        at_threshold = stats_with("at", **{"gap_mean": 10.0, **at})
        assert acceptance_check(nominal, at_threshold, criteria).passed
        just_beyond = stats_with("beyond", **{"gap_mean": 10.0, **beyond})
        verdict = acceptance_check(nominal, just_beyond, criteria)
        (violation,) = verdict.violations
        assert (violation.clause, violation.threshold) == (clause, getattr(criteria, clause))

    def test_violations_in_criteria_field_order(self):
        nominal = stats_with("nominal", gap_mean=10.0)
        worst = stats_with("worst", collision_rate=1.0, false_rate=1.0, gap_mean=0.0, ttc_min=0.5)
        verdict = acceptance_check(nominal, worst, self._criteria())
        assert [v.clause for v in verdict.violations] == [
            "max_final_gap_degradation",
            "max_collision_rate",
            "max_false_activation_rate",
            "min_ttc_at_trigger",
        ]
        assert [v.measured for v in verdict.violations] == [1.0, 1.0, 1.0, 0.5]


class TestEvaluateResidualRisk:
    def test_documented_example(self):
        # S2 row, exposure 0.02/h, certain collision: 0.02/h, 50 h.
        row = row_with("gravel", "gravel-leaf", Severity.S2, [HAZARD_COLLISION])
        stats = stats_with("gravel", collision_rate=1.0)
        occ = [OccurrenceSpec("gravel-leaf", 0.02)]
        (result,) = evaluate_residual_risk([row], [stats], occ, ego_speed_m_s=13.889)
        assert result.hazard_rate_per_hour == pytest.approx(0.02)
        assert result.hours_to_hazard == pytest.approx(50.0)
        assert result.km_to_hazard == pytest.approx(50.0 * 13.889 * 3.6)
        assert result.occurrence_class is OccurrenceClass.O3
        assert result.risk_level is risk_level(Severity.S2, OccurrenceClass.O3)

    def test_zero_hazard_row_is_negligible_unbounded(self):
        row = row_with("calm", "calm-leaf", Severity.S0, [])
        stats = stats_with("calm")
        occ = [OccurrenceSpec("calm-leaf", 0.5)]
        (result,) = evaluate_residual_risk([row], [stats], occ, ego_speed_m_s=10.0)
        assert result.hazard_id is None
        assert result.risk_level is RiskLevel.NEGLIGIBLE
        assert math.isinf(result.hours_to_hazard)

    def test_two_hazards_two_results(self):
        row = row_with(
            "both", "both-leaf", Severity.S2, [HAZARD_COLLISION, HAZARD_FALSE_ACTIVATION]
        )
        stats = stats_with("both", collision_rate=0.5, false_rate=0.25)
        occ = [OccurrenceSpec("both-leaf", 0.1)]
        results = evaluate_residual_risk([row], [stats], occ, ego_speed_m_s=10.0)
        assert len(results) == 2
        by_hazard = {r.hazard_id: r for r in results}
        assert by_hazard[HAZARD_COLLISION].hazard_rate_per_hour == pytest.approx(0.05)
        assert by_hazard[HAZARD_FALSE_ACTIVATION].hazard_rate_per_hour == pytest.approx(0.025)

    def test_missing_occurrence_names_leaf(self):
        row = row_with("s", "uncovered-leaf", Severity.S1, [HAZARD_COLLISION])
        with pytest.raises(IncompleteOccurrenceError, match="uncovered-leaf"):
            evaluate_residual_risk([row], [stats_with("s")], [], ego_speed_m_s=10.0)

    def test_hazard_without_rate_names_hazard_and_leaf(self):
        assert "H9" not in HAZARD_RATES
        row = row_with("s", "strange-leaf", Severity.S1, ["H9"])
        occ = [OccurrenceSpec("strange-leaf", 0.1)]
        with pytest.raises(IncompleteAnalysisError, match="'H9'.*'strange-leaf'"):
            evaluate_residual_risk([row], [stats_with("s")], occ, ego_speed_m_s=10.0)

    def test_missing_sweep_names_leaf(self):
        row = row_with("s", "some-leaf", Severity.S1, [HAZARD_COLLISION])
        occ = [OccurrenceSpec("some-leaf", 0.1)]
        with pytest.raises(IncompleteAnalysisError, match="some-leaf"):
            evaluate_residual_risk([row], [], occ, ego_speed_m_s=10.0)


class TestRiskSerialization:
    def test_csv_header(self, tmp_path):
        row = row_with("s", "leaf", Severity.S2, [HAZARD_COLLISION])
        stats = stats_with("s", collision_rate=1.0)
        occ = [OccurrenceSpec("leaf", 0.02)]
        results = evaluate_residual_risk([row], [stats], occ, ego_speed_m_s=10.0)
        path = tmp_path / "risk.csv"
        write_risk_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(RISK_CSV_HEADER)
        assert len(lines) == 2

    def test_dict_round_trip_including_unbounded(self):
        row = row_with("calm", "leaf", Severity.S0, [])
        stats = stats_with("calm")
        occ = [OccurrenceSpec("leaf", 0.5)]
        (result,) = evaluate_residual_risk([row], [stats], occ, ego_speed_m_s=10.0)
        table = _BUNDLE_TABLES["risk_table"]
        assert table.from_dict(table.to_dict(result)) == result


class TestMatchedSeedMitigationProperty:
    def test_deterministic_channel_mitigation_never_worsens(
        self, fixture_odd, baseline_vehicle
    ):
        # Improving range / friction / latency toward neutral at matched
        # seeds never shrinks the gap and never raises either rate.
        import random

        from sotifkit import MitigationSpec, apply_mitigation, monte_carlo_sweep
        from conftest import make_scenario
        from sotifkit import EffectModel

        rng = random.Random(777)
        for i in range(25):
            effects = EffectModel(
                perception_range_factor=rng.uniform(0.15, 1.0),
                ghost_rate=rng.choice([0.0, 0.05]),
                mu_factor=rng.uniform(0.3, 1.0),
                rho_add=rng.uniform(0.0, 0.8),
            )
            scenario = make_scenario(
                dataclasses.replace(fixture_odd), effects, f"case{i}", seed=i
            )
            overrides = {}
            if rng.random() < 0.8:
                overrides["perception_range_factor"] = rng.uniform(
                    effects.perception_range_factor, 1.0
                )
            if rng.random() < 0.8:
                overrides["mu_factor"] = rng.uniform(effects.mu_factor, 1.0)
            if rng.random() < 0.8:
                overrides["rho_add"] = rng.uniform(0.0, effects.rho_add)
            mitigation = MitigationSpec(f"m{i}", "improve", overrides)
            mitigated = apply_mitigation(scenario, mitigation)

            before, after = monte_carlo_sweep(
                [scenario, mitigated], runs_per_scenario=20
            )
            assert after.gap_mean >= before.gap_mean - 1e-9, (effects, overrides)
            assert after.collision_rate <= before.collision_rate, (effects, overrides)
            assert after.false_activation_rate <= before.false_activation_rate, (
                effects,
                overrides,
            )

    def test_ghost_reduction_never_raises_false_rate(self, fixture_odd):
        import random

        from sotifkit import EffectModel, MitigationSpec, apply_mitigation, monte_carlo_sweep
        from conftest import make_scenario

        rng = random.Random(778)
        for i in range(15):
            ghost = rng.uniform(0.01, 0.3)
            effects = EffectModel(
                perception_range_factor=rng.uniform(0.2, 1.0), ghost_rate=ghost
            )
            scenario = make_scenario(fixture_odd, effects, f"g{i}", seed=1000 + i)
            mitigation = MitigationSpec(
                f"gm{i}", "fewer ghosts", {"ghost_rate": rng.uniform(0.0, ghost)}
            )
            mitigated = apply_mitigation(scenario, mitigation)
            before, after = monte_carlo_sweep(
                [scenario, mitigated], runs_per_scenario=30
            )
            assert after.false_activation_rate <= before.false_activation_rate
