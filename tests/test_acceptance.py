"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Expected values come from independent closed-form oracles
computed inside each test, never from the engine under test.
"""

from __future__ import annotations

import math
import random

import pytest

from sotifkit import (
    EffectModel,
    MitigationSpec,
    OccurrenceClass,
    OddDefinition,
    Severity,
    SimConfig,
    VehicleParams,
    apply_mitigation,
    compute_kpis,
    enumerate_leaves,
    filter_by_odd,
    load_criteria,
    load_effect_mapping,
    load_occurrences,
    load_odd,
    load_taxonomy,
    monte_carlo_sweep,
    parse_taxonomy,
    risk_level,
    rss_min_distance,
    run_campaign,
    serialize_taxonomy,
    simulate,
)
from sotifkit.analysis import HAZARD_COLLISION, link_hazards
from sotifkit.fixtures import fixture_path
from sotifkit.report import bundle_to_dict
from sotifkit.risk import RiskLevel
from sotifkit.simulator import EventKind

from conftest import make_scenario


def _pass(number: int, name: str) -> None:
    print(f"[ACCEPTANCE {number}] {name}: PASS")


def _trigger_event(trace):
    return next(e for e in trace.events if e.kind is EventKind.BRAKE_TRIGGERED)


def test_criterion_1_rss_reproduction(baseline_vehicle):
    # 50 km/h, rho 1 s, 2.0 m/s^2 accel, 5.0 m/s^2 brake -> 40.135 m.
    v, rho, a_acc, a_brk = 50.0 / 3.6, 1.0, 2.0, 5.0
    oracle = v * rho + 0.5 * a_acc * rho**2 + (v + rho * a_acc) ** 2 / (2.0 * a_brk)
    assert abs(rss_min_distance(baseline_vehicle) - oracle) < 1e-12
    assert rss_min_distance(baseline_vehicle) == pytest.approx(40.135, abs=1e-3)
    _pass(1, "safe-distance reproduction at the documented parameter set")


def test_criterion_2_nominal_safety(fixture_odd):
    cfg = SimConfig()
    scenario = make_scenario(fixture_odd, scenario_id="nominal")
    v = fixture_odd.vehicle.v_r
    d_min = rss_min_distance(fixture_odd.vehicle)

    gap_oracle = d_min - (v * fixture_odd.vehicle.rho + v**2 / (2.0 * 5.0))
    gap_tol = 3.0 * v * cfg.dt + 1e-6
    assert gap_oracle == pytest.approx(6.956, abs=1e-3)

    trace = simulate(scenario, cfg)
    kpis = compute_kpis(trace, scenario)
    assert trace.terminal is EventKind.STOPPED
    assert kpis.final_gap == pytest.approx(gap_oracle, abs=gap_tol)

    ttc_oracle = d_min / v
    assert ttc_oracle == pytest.approx(2.890, abs=1e-3)
    assert kpis.ttc_at_trigger == pytest.approx(ttc_oracle, abs=1e-3)

    (stats,) = monte_carlo_sweep([scenario], cfg, runs_per_scenario=1000)
    assert stats.collision_rate == 0.0
    assert stats.false_activation_rate == 0.0
    assert stats.gap_min == stats.gap_max  # deterministic scenario
    _pass(2, "nominal stop margin, TTC, and 1000-run cleanliness")


def test_criterion_3_friction_hazard(fixture_odd):
    scenario = make_scenario(
        fixture_odd, EffectModel(mu_factor=0.5), scenario_id="low-friction"
    )
    v = fixture_odd.vehicle.v_r
    d_min = rss_min_distance(fixture_odd.vehicle)
    impact_oracle = math.sqrt(v**2 - 2.0 * 2.5 * (d_min - v * 1.0))
    assert impact_oracle == pytest.approx(7.85, abs=0.05)

    (stats,) = monte_carlo_sweep([scenario], runs_per_scenario=100)
    assert stats.collision_rate == 1.0
    assert stats.impact_speed_max == pytest.approx(impact_oracle, abs=0.05)
    assert stats.impact_speed_min == pytest.approx(impact_oracle, abs=0.05)

    linked = link_hazards(stats)
    assert HAZARD_COLLISION in linked
    _pass(3, "halved friction collides at the closed-form impact speed, links H1")


def test_criterion_4_perception_starvation():
    # Effective sensor range below the effective stopping distance must
    # always end in a collision; randomized over >= 100 parameter sets.
    rng = random.Random(42424242)
    cfg = SimConfig(max_time=120.0)
    for case in range(120):
        vehicle = VehicleParams(
            v_r=rng.uniform(3.0, 25.0),
            rho=rng.uniform(0.2, 2.0),
            a_max_accel=rng.uniform(0.0, 3.0),
            a_min_brake=rng.uniform(2.0, 9.0),
        )
        mu_factor = rng.uniform(0.3, 1.0)
        rho_add = rng.choice([0.0, rng.uniform(0.0, 0.5)])
        b_eff = vehicle.a_min_brake * mu_factor
        d_brake_eff = vehicle.v_r * vehicle.rho + vehicle.v_r**2 / (2.0 * b_eff)
        factor = rng.uniform(0.1, 1.0)
        odd = OddDefinition(
            d_object=d_brake_eff * rng.uniform(1.2, 2.5),
            d_perception=d_brake_eff * rng.uniform(0.3, 0.95) / factor,
            mu=1.0,
            odd_tags=frozenset({"x"}),
            vehicle=vehicle,
        )
        effects = EffectModel(
            perception_range_factor=factor, mu_factor=mu_factor, rho_add=rho_add
        )
        assert odd.d_perception * factor < d_brake_eff  # the starvation premise
        scenario = make_scenario(odd, effects, scenario_id="starved", seed=case)
        trace = simulate(scenario, cfg)
        assert trace.terminal is EventKind.COLLISION, (case, vehicle, odd, effects)
    _pass(4, "starved perception always collides (120 random parameter sets)")


def test_criterion_5_ghost_statistics(fixture_odd):
    cfg = SimConfig()
    ghost_rate = 0.02
    runs = 10_000

    # N = perception frames strictly before the natural trigger, read off
    # the nominal trace.
    nominal = make_scenario(fixture_odd, scenario_id="nominal")
    trigger_step = round(_trigger_event(simulate(nominal, cfg)).time / cfg.dt)
    n_frames = (trigger_step - 1) // cfg.tick_steps + 1

    expected = 1.0 - (1.0 - ghost_rate) ** n_frames
    sigma = math.sqrt(expected * (1.0 - expected) / runs)

    scenario = make_scenario(
        fixture_odd, EffectModel(ghost_rate=ghost_rate), scenario_id="ghosty", seed=2024
    )
    (stats,) = monte_carlo_sweep([scenario], cfg, runs_per_scenario=runs)
    assert abs(stats.false_activation_rate - expected) <= 3.0 * sigma, (
        stats.false_activation_rate,
        expected,
        sigma,
    )
    _pass(
        5,
        f"false-activation frequency over {runs} runs within 3 sigma of the "
        f"binomial oracle (N={n_frames})",
    )


def test_criterion_6_monotonicity_suites(fixture_odd):
    rng = random.Random(60606)

    # (a) Safe distance monotone in all four parameters: 1000 random pairs.
    for i in range(1000):
        p = VehicleParams(
            v_r=rng.uniform(0.0, 40.0),
            rho=rng.uniform(0.0, 3.0),
            a_max_accel=rng.uniform(0.0, 6.0),
            a_min_brake=rng.uniform(0.5, 12.0),
        )
        bump = rng.uniform(0.01, 5.0)
        field = ("v_r", "rho", "a_max_accel", "a_min_brake")[i % 4]
        q = p._replace(**{field: getattr(p, field) + bump})
        if field == "a_min_brake":
            assert rss_min_distance(q) <= rss_min_distance(p)
        else:
            assert rss_min_distance(q) >= rss_min_distance(p)

    # (b) final_gap nondecreasing in mu_factor over a 20-point grid.
    gaps = []
    for i in range(20):
        mu_factor = 0.05 + 0.95 * i / 19
        scenario = make_scenario(
            fixture_odd, EffectModel(mu_factor=mu_factor), scenario_id="mu", seed=3
        )
        gaps.append(compute_kpis(simulate(scenario), scenario).final_gap)
    assert gaps == sorted(gaps)

    # (c) Risk matrix monotone over all 16 cells.
    for s in Severity:
        for o in OccurrenceClass:
            here = risk_level(s, o)
            if s < Severity.S3:
                assert risk_level(Severity(s + 1), o) >= here
            if o < OccurrenceClass.O4:
                assert risk_level(s, OccurrenceClass(o + 1)) >= here
    assert risk_level(Severity.S0, OccurrenceClass.O4) is RiskLevel.NEGLIGIBLE
    assert risk_level(Severity.S3, OccurrenceClass.O4) is RiskLevel.HIGH

    # (d) Mitigations at matched seeds.  Improving range/friction/latency
    # never shrinks the gap and never raises either rate; reducing the
    # ghost rate never raises the false-activation rate (an early false
    # stop can mask a downstream collision, so gap/collision claims are
    # scoped to the deterministic channels).
    for i in range(15):
        effects = EffectModel(
            perception_range_factor=rng.uniform(0.15, 1.0),
            ghost_rate=rng.choice([0.0, 0.05]),
            mu_factor=rng.uniform(0.3, 1.0),
            rho_add=rng.uniform(0.0, 0.8),
        )
        scenario = make_scenario(fixture_odd, effects, f"m{i}", seed=100 + i)
        mitigation = MitigationSpec(
            "fix",
            "improve deterministic channels",
            {
                "perception_range_factor": rng.uniform(
                    effects.perception_range_factor, 1.0
                ),
                "mu_factor": rng.uniform(effects.mu_factor, 1.0),
                "rho_add": rng.uniform(0.0, effects.rho_add),
            },
        )
        before, after = monte_carlo_sweep(
            [scenario, apply_mitigation(scenario, mitigation)], runs_per_scenario=20
        )
        assert after.gap_mean >= before.gap_mean - 1e-9
        assert after.collision_rate <= before.collision_rate
        assert after.false_activation_rate <= before.false_activation_rate
    for i in range(10):
        ghost = rng.uniform(0.02, 0.3)
        scenario = make_scenario(
            fixture_odd, EffectModel(ghost_rate=ghost), f"g{i}", seed=200 + i
        )
        mitigation = MitigationSpec(
            "fewer-ghosts", "suppress ghosts", {"ghost_rate": rng.uniform(0.0, ghost)}
        )
        before, after = monte_carlo_sweep(
            [scenario, apply_mitigation(scenario, mitigation)], runs_per_scenario=30
        )
        assert after.false_activation_rate <= before.false_activation_rate
    _pass(6, "monotonicity: safe distance, friction grid, risk matrix, mitigations")


def test_criterion_7_determinism_and_parallelism(tmp_path):
    inputs = dict(
        odd=load_odd(fixture_path("odd.json")),
        taxonomy=load_taxonomy(fixture_path("taxonomy.json")),
        mapping=load_effect_mapping(fixture_path("effects.json")),
        occurrences=load_occurrences(fixture_path("occurrence.json")),
        criteria=load_criteria(fixture_path("criteria.json")),
        base_seed=42,
        runs_per_scenario=10,
    )
    a = bundle_to_dict(run_campaign(**inputs, trace_dir=tmp_path / "a"))
    b = bundle_to_dict(run_campaign(**inputs, trace_dir=tmp_path / "b"))
    a["meta"].pop("created_utc")
    b["meta"].pop("created_utc")
    assert a == b
    _pass(7, "identical bundles across invocations")


def test_criterion_8_taxonomy_round_trip_and_filter_properties(fixture_taxonomy):
    text = fixture_path("taxonomy.json").read_text(encoding="utf-8")
    once = parse_taxonomy(text)
    again = parse_taxonomy(serialize_taxonomy(once))
    assert once == again
    assert serialize_taxonomy(once) == serialize_taxonomy(again)

    conditions = enumerate_leaves(fixture_taxonomy)
    universe = sorted({t for c in conditions for t in c.odd_tags} | {"other"})
    rng = random.Random(808)
    for _ in range(100):
        tags = frozenset(rng.sample(universe, rng.randint(0, len(universe))))
        kept = filter_by_odd(conditions, tags)
        assert filter_by_odd(kept, tags) == kept  # idempotent
        assert {c.leaf_id for c in kept} <= {c.leaf_id for c in conditions}  # subset
        indices = [conditions.index(c) for c in kept]
        assert indices == sorted(indices)  # order preserved
    _pass(8, "taxonomy round-trip fixed point; filter idempotence and subset")
