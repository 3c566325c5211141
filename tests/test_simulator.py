from __future__ import annotations

import dataclasses
import gc
import json
import math
import random
import tracemalloc
import types
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sotifkit import (
    EffectModel,
    OddDefinition,
    SimConfig,
    VehicleParams,
    compute_kpis,
    monte_carlo_sweep,
    rss_min_distance,
    simulate,
)
from sotifkit.core import NO_CLOSING, VEHICLE_FIELDS
from sotifkit.errors import ContractViolationError, ParameterError, SimulationError
from sotifkit.scenario import derive_seed, generate_scenarios
import sotifkit.simulator as sim_module
from sotifkit.report import write_kpi_csv
from sotifkit.taxonomy import enumerate_leaves, filter_by_odd
from sotifkit.simulator import (
    EventKind,
    KpiReport,
    SimEvent,
    SimState,
    SimTrace,
    Terminal,
    export_trace_jsonl,
)

from conftest import count_trace_views, make_scenario
from reference_sim import FullDrawGhosts, ghost_draws, reference_run, trace_kpis


def baseline_odd(baseline_vehicle, d_object=100.0, d_perception=80.0, mu=1.0):
    return OddDefinition(
        d_object=d_object,
        d_perception=d_perception,
        mu=mu,
        odd_tags=frozenset({"weather"}),
        vehicle=baseline_vehicle,
    )


def count_kpi_reports(monkeypatch) -> list[dict]:
    """The fields of every KpiReport that a plan builds from here on, each
    with its resolution."""
    derived = []

    def counting(**fields):
        derived.append(fields)
        return KpiReport(**fields)

    monkeypatch.setattr(sim_module, "KpiReport", counting)
    return derived


def events_of(trace: SimTrace, kind: EventKind):
    return [e for e in trace.events if e.kind is kind]


def trigger_key(trace: SimTrace, scenario) -> tuple[float | None, bool]:
    """A run's trigger time (None: never triggered) and whether it was a
    false activation, read off its trace."""
    triggers = events_of(trace, EventKind.BRAKE_TRIGGERED)
    return (triggers[0].time if triggers else None, trace_kpis(trace, scenario).false_activation)


def position_at(trace: SimTrace, kind: EventKind) -> float:
    """The ego position sampled at the one event of ``kind``."""
    (event,) = events_of(trace, kind)
    (state,) = [s for s in trace.states if s.time == event.time]
    return state.position


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.tick_steps == 50
        assert cfg.max_steps == 60000

    def test_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(dt=0.0)
        with pytest.raises(ParameterError):
            SimConfig(dt=0.1, perception_tick=0.05)
        with pytest.raises(ParameterError):
            SimConfig(max_time=0.01, perception_tick=0.05)


class TestOracleCases:
    def test_nominal_stop(self, baseline_vehicle):
        # Closed-form: stop at d_min - (v*rho + v^2/(2b)) from the object.
        scenario = make_scenario(baseline_odd(baseline_vehicle), scenario_id="nominal")
        cfg = SimConfig()
        trace = simulate(scenario, cfg)
        kpis = compute_kpis(trace, scenario)

        v = baseline_vehicle.v_r
        d_min = rss_min_distance(baseline_vehicle)
        oracle_gap = d_min - (v * baseline_vehicle.rho + v**2 / (2 * 5.0))
        tol = 3 * v * cfg.dt + 1e-6

        assert trace.terminal is Terminal.STOPPED
        assert not kpis.collision and kpis.impact_speed == 0.0
        assert kpis.final_gap == pytest.approx(oracle_gap, abs=tol)
        assert kpis.final_gap == pytest.approx(6.956, abs=tol + 1e-3)
        (trigger,) = events_of(trace, EventKind.BRAKE_TRIGGERED)
        assert trigger.gap == pytest.approx(d_min, abs=v * cfg.dt + 1e-9)

    def test_halved_friction_collides(self, baseline_vehicle):
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(mu_factor=0.5), scenario_id="low-mu"
        )
        trace = simulate(scenario, SimConfig())
        kpis = compute_kpis(trace, scenario)

        v = baseline_vehicle.v_r
        d_min = rss_min_distance(baseline_vehicle)
        oracle_impact = math.sqrt(v**2 - 2 * 2.5 * (d_min - v * baseline_vehicle.rho))

        assert trace.terminal is Terminal.COLLISION
        assert kpis.collision and kpis.final_gap == 0.0
        assert kpis.impact_speed == pytest.approx(oracle_impact, abs=0.05)
        assert kpis.impact_speed == pytest.approx(7.85, abs=0.05)

    def test_stationary_ego(self, baseline_vehicle):
        still = dataclasses.replace(baseline_vehicle, v_r=0.0)
        scenario = make_scenario(baseline_odd(still), scenario_id="still")
        trace = simulate(scenario, SimConfig())
        kpis = compute_kpis(trace, scenario)
        assert trace.terminal is Terminal.STOPPED
        assert trace.states[-1].time == 0.0
        assert kpis.final_gap == 100.0
        assert kpis.ttc_at_trigger is NO_CLOSING

    def test_object_beyond_reach_times_out(self, baseline_vehicle):
        scenario = make_scenario(
            baseline_odd(baseline_vehicle, d_object=5000.0), scenario_id="far"
        )
        cfg = SimConfig(max_time=5.0)
        trace = simulate(scenario, cfg)
        kpis = compute_kpis(trace, scenario)
        assert trace.terminal is Terminal.TIMEOUT
        assert not events_of(trace, EventKind.BRAKE_TRIGGERED)
        assert kpis.ttc_at_trigger is NO_CLOSING
        assert not kpis.false_activation

    def test_ghost_only_trigger_is_false_activation(self, baseline_vehicle):
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(ghost_rate=1.0), scenario_id="ghosty"
        )
        trace = simulate(scenario, SimConfig())
        kpis = compute_kpis(trace, scenario)
        (trigger,) = events_of(trace, EventKind.BRAKE_TRIGGERED)
        assert trigger.time == 0.0  # certain ghost on the first frame
        assert kpis.false_activation
        assert trace.terminal is Terminal.STOPPED
        assert kpis.final_gap == pytest.approx(100.0 - 33.18, abs=0.1)

    def test_collision_during_response_window(self, baseline_vehicle):
        # Visibility so late that the ego hits at full speed before the
        # brake force ever engages.
        scenario = make_scenario(
            baseline_odd(baseline_vehicle, d_perception=50.0),
            EffectModel(perception_range_factor=0.1),  # sees only 5 m ahead
            scenario_id="blind",
        )
        trace = simulate(scenario, SimConfig())
        kpis = compute_kpis(trace, scenario)
        assert trace.terminal is Terminal.COLLISION
        assert events_of(trace, EventKind.BRAKE_TRIGGERED)
        assert not events_of(trace, EventKind.BRAKE_EFFECTIVE)
        assert kpis.impact_speed == pytest.approx(baseline_vehicle.v_r, abs=1e-9)
        # Everything after the trigger is response distance: no actuation.
        trigger = position_at(trace, EventKind.BRAKE_TRIGGERED)
        assert position_at(trace, EventKind.COLLISION) - trigger > 0.0

    def test_starting_inside_danger_zone_triggers_immediately(self, baseline_vehicle):
        scenario = make_scenario(
            baseline_odd(baseline_vehicle, d_object=30.0, d_perception=120.0),
            scenario_id="close",
        )
        trace = simulate(scenario, SimConfig())
        (trigger,) = events_of(trace, EventKind.BRAKE_TRIGGERED)
        assert trigger.time == 0.0
        assert trace.terminal is Terminal.COLLISION  # 30 m < stopping need

    def test_response_decomposition_observed(self, baseline_vehicle):
        scenario = make_scenario(baseline_odd(baseline_vehicle), scenario_id="nominal")
        cfg = SimConfig()
        trace = simulate(scenario, cfg)
        trigger = position_at(trace, EventKind.BRAKE_TRIGGERED)
        effective = position_at(trace, EventKind.BRAKE_EFFECTIVE)
        stop = position_at(trace, EventKind.STOPPED)
        d_rho, d_act = effective - trigger, stop - effective
        v = baseline_vehicle.v_r
        assert d_rho == pytest.approx(v * 1.0, abs=v * cfg.dt + 1e-9)
        assert d_act == pytest.approx(v**2 / 10.0, abs=v * cfg.dt + 1e-9)
        assert d_rho + d_act == pytest.approx(33.179, abs=2 * v * cfg.dt + 1e-6)


class TestTraceStructure:
    def test_exactly_one_terminal_and_ordering(self, baseline_vehicle):
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(ghost_rate=0.3), scenario_id="s"
        )
        trace = simulate(scenario, SimConfig())
        terminal_kinds = {EventKind.STOPPED, EventKind.COLLISION, EventKind.TIMEOUT}
        terminals = [e for e in trace.events if e.kind in terminal_kinds]
        assert len(terminals) == 1
        times = [e.time for e in trace.events]
        assert times == sorted(times)
        state_times = [s.time for s in trace.states]
        assert state_times == sorted(state_times)
        assert all(s.velocity >= 0 for s in trace.states)

    @pytest.mark.parametrize(
        "effects", [EffectModel(), EffectModel(ghost_rate=0.3)], ids=["nominal", "ghost"]
    )
    def test_states_only_at_event_steps(self, effects, baseline_vehicle):
        scenario = make_scenario(baseline_odd(baseline_vehicle), effects, scenario_id="s")
        trace = simulate(scenario, SimConfig())
        assert [s.time for s in trace.states] == sorted({e.time for e in trace.events})
        assert trace.events[-1].kind.value == trace.terminal.value
        assert trace.states[-1].time == trace.events[-1].time

    def test_detection_precedes_trigger(self, baseline_vehicle):
        trace = simulate(make_scenario(baseline_odd(baseline_vehicle), scenario_id="s"))
        (detected,) = events_of(trace, EventKind.OBJECT_DETECTED)
        (trigger,) = events_of(trace, EventKind.BRAKE_TRIGGERED)
        (effective,) = events_of(trace, EventKind.BRAKE_EFFECTIVE)
        assert detected.time < trigger.time < effective.time
        assert detected.gap <= 80.0
        assert effective.time == pytest.approx(trigger.time + 1.0, abs=1e-9)


class TestDeterminism:
    def test_bit_identical_traces(self, baseline_vehicle, tmp_path):
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(ghost_rate=0.1), scenario_id="det", seed=77
        )
        cfg = SimConfig()
        a = simulate(scenario, cfg, run_index=5)
        b = simulate(scenario, cfg, run_index=5)
        assert a == b
        export_trace_jsonl([a], tmp_path / "a.jsonl")
        export_trace_jsonl([b], tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_run0_is_kept_only_within_a_hand_over(self, baseline_vehicle):
        # Outside a sharing block every run-0 call resolves anew; within
        # one, a call's trace is kept for the next call with the same
        # scenario and cfg objects, and for that call alone.
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(ghost_rate=0.1), scenario_id="det", seed=77
        )
        cfg = SimConfig()
        a, b = simulate(scenario, cfg), simulate(scenario, cfg)
        assert a is not b
        assert a == b
        with sim_module._sharing():
            kept = simulate(scenario, cfg)
            assert simulate(scenario, SimConfig()) is not kept
            assert simulate(scenario, cfg, run_index=1) is not kept
            assert simulate(scenario, cfg) is kept
            again = simulate(scenario, cfg)
        assert sim_module._shared is None
        assert again is not kept
        assert kept == again == a
        assert simulate(scenario, cfg) is not simulate(scenario, cfg)

    def test_run_indices_differ(self, baseline_vehicle):
        for rate in (0.2, 0.5):
            scenario = make_scenario(
                baseline_odd(baseline_vehicle),
                EffectModel(ghost_rate=rate),
                scenario_id="det",
                seed=77,
            )
            traces = [simulate(scenario, run_index=i) for i in range(4)]
            assert len(set(traces)) == 4, rate


class TestReferenceEquivalence:
    """The closed-form engine must match a literal per-dt stepper."""

    def _random_case(self, rng: random.Random):
        v_r = 0.0 if rng.random() < 0.05 else rng.uniform(2.0, 30.0)
        vehicle = VehicleParams(
            v_r=v_r,
            rho=rng.uniform(0.1, 2.0),
            a_max_accel=rng.uniform(0.0, 4.0),
            a_min_brake=rng.uniform(2.0, 9.0),
        )
        odd = OddDefinition(
            d_object=rng.uniform(10.0, 80.0),
            d_perception=rng.uniform(5.0, 100.0),
            mu=rng.uniform(0.4, 1.0),
            odd_tags=frozenset({"x"}),
            vehicle=vehicle,
        )
        effects = EffectModel(
            perception_range_factor=rng.uniform(0.1, 1.0),
            ghost_rate=rng.choice([0.0, 0.0, 0.1, 0.5]),
            mu_factor=rng.uniform(0.3, 1.0),
            rho_add=rng.choice([0.0, rng.uniform(0.0, 1.0)]),
        )
        dt = rng.choice([0.005, 0.01, 0.02])
        cfg = SimConfig(
            dt=dt,
            perception_tick=dt * rng.randint(1, 10),
            max_time=rng.uniform(5.0, 30.0),
        )
        scenario = make_scenario(odd, effects, scenario_id="ref", seed=rng.getrandbits(63))
        return scenario, cfg

    def test_matches_reference_on_random_grid(self):
        rng = random.Random(987654321)
        for case in range(250):
            scenario, cfg = self._random_case(rng)
            ref = reference_run(scenario, cfg)
            trace = simulate(scenario, cfg)

            context = f"case {case}: {scenario.odd} {scenario.effects} {cfg}"
            assert trace.terminal.value == ref.terminal, context

            terminal_state = trace.states[-1]
            assert terminal_state.time == pytest.approx(
                ref.terminal_step * cfg.dt, abs=1e-9
            ), context
            terminal_event = trace.events[-1]
            assert terminal_event.gap == pytest.approx(ref.final_gap, abs=1e-6), context
            assert terminal_state.velocity == pytest.approx(
                ref.final_velocity, abs=1e-6
            ), context

            triggers = events_of(trace, EventKind.BRAKE_TRIGGERED)
            if ref.trigger_step is None:
                assert not triggers, context
            else:
                assert len(triggers) == 1, context
                assert triggers[0].time == pytest.approx(
                    ref.trigger_step * cfg.dt, abs=1e-9
                ), context
                assert triggers[0].gap == pytest.approx(ref.trigger_gap, abs=1e-6), context
            effectives = events_of(trace, EventKind.BRAKE_EFFECTIVE)
            if ref.effective_step is None:
                assert not effectives, context
            else:
                assert len(effectives) == 1, context
                assert effectives[0].time == pytest.approx(
                    ref.effective_step * cfg.dt, abs=1e-9
                ), context

    def test_kpis_match_trace_oracle_on_random_grid(self):
        # compute_kpis reads the resolution; the oracle scans the events and
        # states of the same trace.  Odd runs build the trace view first, so
        # both orders of reading the ghost stream are covered.
        rng = random.Random(987654321)
        false_activations = 0
        for case in range(250):
            scenario, cfg = self._random_case(rng)
            for run_index in range(3):
                trace = simulate(scenario, cfg, run_index)
                if run_index % 2:
                    assert trace.events
                kpis = compute_kpis(trace, scenario)
                context = f"case {case} run {run_index}: {scenario.odd} {scenario.effects} {cfg}"
                assert kpis == trace_kpis(trace, scenario), context
                false_activations += kpis.false_activation
        assert false_activations > 0

    def test_sweep_matches_fresh_plan_per_run(self):
        # The sweep shares resolutions and reports between runs; resolving
        # every run from a fresh plan, as simulate does outside a sweep,
        # must give the same statistics.
        rng = random.Random(987654321)
        for case in range(250):
            scenario, cfg = self._random_case(rng)
            for rate in (0.0, 1e-3, 0.05, 1.0):
                effects = dataclasses.replace(scenario.effects, ghost_rate=rate)
                swept = dataclasses.replace(scenario, effects=effects)
                (stats,) = monte_carlo_sweep([swept], cfg, runs_per_scenario=6)
                kpis = [compute_kpis(simulate(swept, cfg, i), swept) for i in range(6)]
                expected = sim_module._aggregate(swept, kpis, swept.odd.fingerprint())
                assert stats == expected, f"case {case} ghost_rate={rate}: {swept} {cfg}"


def use_full_draws(monkeypatch) -> None:
    """From here on, every run reads its first ghost, and its trace view its
    ghosts, from a full draw of its stream (:class:`FullDrawGhosts`)."""
    monkeypatch.setattr(sim_module, "_FlagStream", FullDrawGhosts)
    monkeypatch.setattr(sim_module, "_ghost_events", FullDrawGhosts.events)


class _GhostAt:
    """Stand-in flag stream with one flag, at ``tick``, and a stand-in for
    its trace view's ghosts, which show that flag with ``gap``."""

    def __init__(self, tick: int, gap: float):
        self.tick, self.gap = tick, gap

    def first(self, rate: float, need: int) -> int | None:
        return self.tick if self.tick < need else None

    @staticmethod
    def events(scenario, cfg, stream, terminal_step) -> list[tuple[int, float]]:
        step = stream.tick * cfg.tick_steps
        return [(step, stream.gap)] if step < terminal_step else []


class TestGhostOnNaturalTriggerStep:
    """A ghost on the natural trigger step is read by no resolution, since
    the natural trigger comes first, and the true gap there is at or below
    the threshold: no false activation.  A ghost one tick earlier latches
    the brake with the true gap still beyond the threshold: a false
    activation."""

    def test_false_activation_matches_oracle(self, baseline_vehicle, monkeypatch):
        cfg = SimConfig()
        d_trigger = rss_min_distance(baseline_vehicle)
        step = 10 * cfg.tick_steps
        # The cruise gap crosses the threshold half a step before `step`.
        d_object = d_trigger + baseline_vehicle.v_r * cfg.dt * (step - 0.5)
        scenario = make_scenario(
            baseline_odd(baseline_vehicle, d_object=d_object, d_perception=200.0),
            EffectModel(ghost_rate=0.5),
            scenario_id="ghost-on-trigger",
        )
        monkeypatch.setattr(sim_module, "_ghost_events", _GhostAt.events)
        for ghost_step, expected in ((step, False), (step - cfg.tick_steps, True)):
            ghost_tick = ghost_step // cfg.tick_steps
            monkeypatch.setattr(sim_module, "_FlagStream", lambda *args: _GhostAt(ghost_tick, 1.0))
            trace = simulate(scenario, cfg)
            kpis = compute_kpis(trace, scenario)
            (trigger,) = events_of(trace, EventKind.BRAKE_TRIGGERED)
            (ghost,) = events_of(trace, EventKind.GHOST_DETECTED)
            assert trigger.time == ghost.time == ghost_step * cfg.dt
            assert (trigger.gap > d_trigger) is expected
            assert kpis.false_activation is expected
            assert kpis == trace_kpis(trace, scenario)


# Where a crossing falls, in steps, relative to a whole step.
_NEAR_A_STEP = st.sampled_from([-1e-9, -5e-10, -1e-10, 0.0, 1e-10, 5e-10, 1e-9])


class TestTraceAgreesWithItself:
    """The plan decides each crossing (the object seen, the brake latched,
    the cruise collision, the stop) with the gap or the velocity that the
    trace shows, so a trace never contradicts its own rows, also when a
    crossing falls within float noise of a step."""

    @staticmethod
    def assert_consistent(trace: SimTrace, scenario) -> None:
        events = trace.events
        d_trigger = rss_min_distance(scenario.odd.vehicle)
        ghost_times = {e.time for e in events_of(trace, EventKind.GHOST_DETECTED)}
        detections = [e.time for e in events_of(trace, EventKind.OBJECT_DETECTED)]
        for trigger in events_of(trace, EventKind.BRAKE_TRIGGERED):
            if trigger.time not in ghost_times:
                assert trigger.gap <= d_trigger, trigger
                assert detections and detections[0] <= trigger.time, events
        if trace.terminal is Terminal.COLLISION:
            assert events[-1].gap <= 0.0, events[-1]
        if trace.terminal is Terminal.STOPPED:
            assert trace.states[-1].velocity == 0.0, trace.states[-1]
        assert compute_kpis(trace, scenario) == trace_kpis(trace, scenario)

    def _scenario(self, vehicle, d_object, d_perception, effects=None):
        return make_scenario(
            baseline_odd(vehicle, d_object=d_object, d_perception=d_perception),
            effects,
            scenario_id="crossing",
        )

    def test_brake_latches_after_detection(self):
        # The object enters the range a hair past the tick at step 5000; the
        # trigger threshold (51.88 m) is crossed long before.
        vehicle = VehicleParams(v_r=10.0, rho=1.2, a_max_accel=2.0, a_min_brake=2.0)
        scenario = self._scenario(vehicle, 100.0, 50.0 - 1e-10)
        trace = simulate(scenario)
        (detected,) = events_of(trace, EventKind.OBJECT_DETECTED)
        (trigger,) = events_of(trace, EventKind.BRAKE_TRIGGERED)
        assert detected.gap <= scenario.odd.d_perception
        assert detected.time <= trigger.time
        self.assert_consistent(trace, scenario)

    def test_natural_trigger_fires_at_the_threshold(self):
        # The cruise gap crosses the threshold 5e-10 steps past step 500.
        vehicle = VehicleParams(v_r=20.0, rho=0.5, a_max_accel=2.0, a_min_brake=8.0)
        d_trigger = rss_min_distance(vehicle)
        d_object = d_trigger + vehicle.v_r * SimConfig().dt * (500 + 5e-10)
        scenario = self._scenario(vehicle, d_object, 200.0)
        trace = simulate(scenario)
        (trigger,) = events_of(trace, EventKind.BRAKE_TRIGGERED)
        assert trigger.gap <= d_trigger
        assert not compute_kpis(trace, scenario).false_activation
        self.assert_consistent(trace, scenario)

    def test_collision_has_no_gap_left(self):
        # The cruise gap reaches zero 5e-13 steps past step 10000; the object
        # is seen too late for the brake to engage.
        vehicle = VehicleParams(v_r=10.0, rho=0.1, a_max_accel=0.0, a_min_brake=8.0)
        scenario = self._scenario(vehicle, 100.000000000005, 0.5)
        trace = simulate(scenario)
        assert trace.terminal is Terminal.COLLISION
        (collision,) = events_of(trace, EventKind.COLLISION)
        assert collision.gap <= 0.0
        assert compute_kpis(trace, scenario).final_gap == 0.0
        self.assert_consistent(trace, scenario)

    def test_stopped_run_stands_still(self):
        # The velocity reaches zero 2e-10 braking steps past step 1250.
        vehicle = VehicleParams(
            v_r=10.0, rho=0.1, a_max_accel=0.0, a_min_brake=10.0 / (0.001 * (1250 + 2e-10))
        )
        scenario = self._scenario(vehicle, 200.0, 150.0)
        trace = simulate(scenario)
        assert trace.terminal is Terminal.STOPPED
        assert trace.states[-1].velocity == 0.0
        self.assert_consistent(trace, scenario)

    def test_crossings_far_past_the_horizon(self):
        # The guesses (1e303 cruise steps to the object, 1e304 braking steps
        # to a stop) are far beyond where consecutive step numbers round to
        # one float: the search stops at the horizon, not at the guess.
        far = self._scenario(
            VehicleParams(v_r=1.0, rho=1.0, a_max_accel=2.0, a_min_brake=5.0), 1e300, 1e300
        )
        weak = self._scenario(
            VehicleParams(v_r=10.0, rho=0.0, a_max_accel=0.0, a_min_brake=1e-300), 100.0, 1e300
        )
        for scenario, terminal in ((far, Terminal.TIMEOUT), (weak, Terminal.COLLISION)):
            trace = simulate(scenario)
            assert trace.terminal is terminal
            self.assert_consistent(trace, scenario)

    @settings(max_examples=200, deadline=None)
    @given(
        v_r=st.floats(1.0, 40.0),
        rho=st.floats(0.0, 2.0),
        a_max_accel=st.floats(0.0, 4.0),
        a_min_brake=st.floats(1.0, 10.0),
        d_object=st.floats(1.0, 300.0),
        d_perception=st.floats(1.0, 300.0),
        range_factor=st.floats(0.05, 1.0),
        ghost_rate=st.sampled_from([0.0, 0.0, 0.01, 0.2]),
        seed=st.integers(0, 3),
        crossing=st.sampled_from([None, "visibility", "trigger", "collision", "stop"]),
        step=st.integers(1, 20_000),
        near=_NEAR_A_STEP,
    )
    def test_every_trace_agrees_with_itself(
        self, v_r, rho, a_max_accel, a_min_brake, d_object, d_perception, range_factor,
        ghost_rate, seed, crossing, step, near,
    ):
        cfg = SimConfig()
        v_step = v_r * cfg.dt
        if crossing == "stop":  # braking steps until v == 0
            a_min_brake = v_r / (cfg.dt * (step + near))
        vehicle = VehicleParams(v_r=v_r, rho=rho, a_max_accel=a_max_accel, a_min_brake=a_min_brake)
        if crossing == "visibility":
            ticks = step // cfg.tick_steps + 1
            d_object = d_perception * range_factor + v_step * cfg.tick_steps * (ticks + near)
        elif crossing == "trigger":
            d_object = rss_min_distance(vehicle) + v_step * (step + near)
        elif crossing == "collision":
            d_object = v_step * (step + near)
        effects = EffectModel(perception_range_factor=range_factor, ghost_rate=ghost_rate)
        scenario = make_scenario(
            baseline_odd(vehicle, d_object=d_object, d_perception=d_perception),
            effects,
            scenario_id="crossing",
            seed=seed,
        )
        for run_index in range(3):
            self.assert_consistent(simulate(scenario, cfg, run_index), scenario)


def _ghost_grid_cases(vehicle):
    """(odd, cfg) per outcome shape: without ghosts these stop, collide,
    time out, stand still, and time out after 600 s."""
    return {
        "stop": (baseline_odd(vehicle), SimConfig()),
        "collide": (baseline_odd(vehicle, d_object=20.0), SimConfig()),
        "timeout": (baseline_odd(vehicle, d_object=2000.0), SimConfig(max_time=2.0)),
        "standstill": (baseline_odd(dataclasses.replace(vehicle, v_r=0.0)), SimConfig()),
        "horizon-600s": (
            baseline_odd(vehicle, d_object=9000.0, d_perception=30.0),
            SimConfig(dt=0.01, max_time=600.0),
        ),
    }


class TestGhostStream:
    """The engine draws the ghost stream lazily; it must read exactly the
    values of the stream drawn in full."""

    def test_matches_full_draws(self, baseline_vehicle, monkeypatch):
        terminals = set()
        for name, (odd, cfg) in _ghost_grid_cases(baseline_vehicle).items():
            for rate in (0.0, 1e-4, 0.05, 0.5, 1.0):
                scenario = make_scenario(
                    odd, EffectModel(ghost_rate=rate), scenario_id=name, seed=1234
                )
                for run_index in range(3):
                    context = f"{name} ghost_rate={rate} run {run_index}"
                    with monkeypatch.context() as m:
                        use_full_draws(m)
                        expected = simulate(scenario, cfg, run_index)
                    trace = simulate(scenario, cfg, run_index)
                    assert trace == expected, context

                    terminal_step = round(trace.events[-1].time / cfg.dt)
                    ref = reference_run(scenario, cfg, run_index)
                    assert (trace.terminal.value, terminal_step) == (
                        ref.terminal,
                        ref.terminal_step,
                    ), context
                    steps, gaps = ghost_draws(scenario, cfg, run_index)
                    assert [(e.time, e.gap) for e in events_of(trace, EventKind.GHOST_DETECTED)] == [
                        (int(step) * cfg.dt, float(gap))
                        for step, gap in zip(steps, gaps)
                        if step < terminal_step
                    ], context
                    terminals.add(trace.terminal)
        assert terminals == set(Terminal)

    def test_first_flag_draws_one_chunk(self, baseline_vehicle, monkeypatch):
        # The draw limit is the horizon, 12,000 ticks; the first chunk of
        # flags, sized to the rate, holds the first ghost, so the resolution
        # draws no further.
        odd, cfg = _ghost_grid_cases(baseline_vehicle)["horizon-600s"]
        scenario = make_scenario(odd, EffectModel(ghost_rate=0.5), scenario_id="long", seed=1234)
        assert sim_module._Plan(scenario, cfg).draw_limit == cfg.max_steps == 12_000 * cfg.tick_steps
        trace = simulate(scenario, cfg, 0)
        assert trace._stream.drawn == math.ceil(sim_module._GHOST_SPAN / 0.5) == 8
        with monkeypatch.context() as m:
            use_full_draws(m)
            expected = simulate(scenario, cfg, 0)
        assert trace == expected

    def test_seed_group_draws_near_its_first_flags(self, baseline_vehicle, monkeypatch):
        # A condition and a variant at a third of its rate read one stream per
        # run on the 12,000-tick horizon; the stream stops a few chunks past
        # the variant's first flag instead of drawing whole 4,096-value chunks.
        odd, cfg = _ghost_grid_cases(baseline_vehicle)["horizon-600s"]
        condition, _, third_rate = _seed_group(odd, 0.05)[:3]
        assert third_rate.effects.ghost_rate == 0.05 / 3
        for run_index in range(8):
            with sim_module._sharing():
                traces = [simulate(s, cfg, run_index) for s in (condition, third_rate)]
            stream = traces[0]._stream
            assert traces[1]._stream is stream and stream.drawn <= 500, (run_index, stream.drawn)
            with monkeypatch.context() as m:
                use_full_draws(m)
                assert traces == [simulate(s, cfg, run_index) for s in (condition, third_rate)]

    def test_gaps_do_not_depend_on_the_horizon(self, fixture_odd):
        # A ghost's gap is its flag's own uniform, so the horizon, which sets
        # only how many flags a run may read, moves no ghost.
        scenario = make_scenario(fixture_odd, EffectModel(ghost_rate=0.02), seed=12345)
        ghosts = []
        for max_time in (60.0, 61.0, 600.0):
            trace = simulate(scenario, SimConfig(max_time=max_time), 3)
            ghosts.append([e for e in events_of(trace, EventKind.GHOST_DETECTED) if e.time < 60.0])
        assert ghosts[0] and ghosts[1] == ghosts[0] and ghosts[2] == ghosts[0]

    @pytest.mark.parametrize("rate", [0.01, 0.05, 0.3, 1.0])
    def test_gaps_are_uniform_below_the_threshold(self, baseline_vehicle, rate):
        # Given u < p, u / p is uniform on [0, 1).  Over 10^4 flags or more,
        # every gap lies in [0, threshold), and gap / threshold passes a
        # two-sided Kolmogorov-Smirnov test for U[0, 1) at the 99.9% level.
        cfg = SimConfig(dt=0.05, perception_tick=0.05)  # a tick per step
        ticks = math.ceil(12_000 / rate)
        scenario = make_scenario(baseline_odd(baseline_vehicle), EffectModel(ghost_rate=rate), seed=7)
        stream = sim_module._FlagStream(scenario.seed, 0)
        stream.first(rate, ticks)
        gaps = [gap for _, gap in sim_module._ghost_events(scenario, cfg, stream, ticks)]
        d_trigger = rss_min_distance(baseline_vehicle)
        assert len(gaps) >= 10_000 and all(0.0 <= gap < d_trigger for gap in gaps)
        x = np.sort(gaps) / d_trigger
        n = len(x)
        k = np.arange(1, n + 1)
        distance = max((k / n - x).max(), (x - (k - 1) / n).max())
        assert distance < math.sqrt(-math.log(0.001 / 2) / 2) / math.sqrt(n)

    def test_lower_rate_shows_its_ticks_with_larger_gaps(self, baseline_vehicle):
        # A tick flagged at rate p is flagged at every rate above u; its gap,
        # u / p times the threshold, is larger at the lower rate.
        cfg = SimConfig(dt=0.05, perception_tick=0.05)
        odd = baseline_odd(baseline_vehicle)
        high, low = (make_scenario(odd, EffectModel(ghost_rate=rate), seed=7) for rate in (0.3, 0.1))
        stream = sim_module._FlagStream(7, 0)
        stream.first(0.3, 2000)
        at_high = dict(sim_module._ghost_events(high, cfg, stream, 2000))
        at_low = dict(sim_module._ghost_events(low, cfg, stream, 2000))
        assert at_low and at_low.keys() < at_high.keys()
        assert all(at_low[step] > at_high[step] for step in at_low)

    @pytest.mark.parametrize(
        "d_object, ghost_rate, terminal",
        [(100.0, 0.05, Terminal.STOPPED), (1e7, 1e-12, Terminal.TIMEOUT)],
        ids=["stops", "times-out"],
    )
    def test_memory_bounded_on_long_horizon(
        self, d_object, ghost_rate, terminal, baseline_vehicle
    ):
        # 2e6 ticks: drawing the stream in full would take 16 MB.
        cfg = SimConfig(dt=0.05, perception_tick=0.05, max_time=1e5)
        scenario = make_scenario(
            baseline_odd(baseline_vehicle, d_object=d_object),
            EffectModel(ghost_rate=ghost_rate),
            scenario_id="long",
        )
        simulate(scenario)  # the generator's first use imports modules
        tracemalloc.start()
        try:
            trace = simulate(scenario, cfg)
            assert trace.events  # the view reads the ghosts, drawing on to the terminal
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.terminal is terminal
        assert peak < 1_000_000


# Rates of every size, repeats likely, and needs on both sides of a chunk.
_RATES = st.sampled_from([5e-324, 1e-300, 1e-4, 1e-3, 0.01, 0.05, 0.2, 0.5, 1.0]) | st.floats(1e-5, 1.0)
_NEEDS = st.integers(0, 3 * sim_module._GHOST_CHUNK)


class TestFlagStream:
    """One stream answers every query on its (seed, run), in any order: a
    rate below an earlier one reads the flags drawn, a need beyond what was
    drawn draws on, and a rate above every earlier one restarts the stream
    with that rate as its bound."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        run=st.integers(0, 1000),
        queries=st.lists(st.tuples(_RATES, _NEEDS), min_size=1, max_size=10),
    )
    def test_first_matches_a_full_draw(self, seed, run, queries):
        u_flag = np.random.default_rng(derive_seed(seed, run)).random(max(n for _, n in queries))
        stream = sim_module._FlagStream(seed, run)
        for k, (rate, need) in enumerate(queries):
            flagged = np.flatnonzero(u_flag[:need] < rate)
            expected = int(flagged[0]) if flagged.size else None
            assert stream.first(rate, need) == expected, queries[: k + 1]
            assert stream.bound == max(r for r, _ in queries[: k + 1])
            if k % 2:  # a view's query, which draws on to ``need``
                expected_flags = list(zip(flagged.tolist(), u_flag[flagged].tolist()))
                assert stream.flagged(rate, need) == expected_flags, queries[: k + 1]


def _seed_group(odd, rate: float, seed: int = 1234) -> list:
    """A condition at ``rate`` and variants that keep its seed, as mitigated
    variants do: at the same rate, at a third of it, at three times it,
    with a later and an earlier natural trigger (a stronger brake lowers
    the designed trigger threshold, a weaker one raises it), and at half
    the speed, whose cruise collision comes later."""
    condition = make_scenario(odd, EffectModel(ghost_rate=rate), scenario_id="cond", seed=seed)

    def braking(factor: float):
        brake = odd.vehicle.a_min_brake * factor
        return dataclasses.replace(odd, vehicle=dataclasses.replace(odd.vehicle, a_min_brake=brake))

    slower = dataclasses.replace(odd.vehicle, v_r=odd.vehicle.v_r / 2)
    variants = {
        "same-rate": (odd, rate),
        "third-rate": (odd, rate / 3),
        "triple-rate": (odd, min(1.0, 3 * rate)),
        "later-trigger": (braking(1.5), rate),
        "earlier-trigger": (braking(1 / 1.5), rate),
        "slower": (dataclasses.replace(odd, vehicle=slower), rate),
    }
    return [condition] + [
        dataclasses.replace(
            condition, id=f"cond+{name}", odd=variant_odd,
            effects=EffectModel(ghost_rate=variant_rate),
        )
        for name, (variant_odd, variant_rate) in variants.items()
    ]


def count_generators(monkeypatch) -> dict[str, int]:
    """The ghost generators that each scenario builds from here on, by id.
    The sweep calls ``simulate`` through the module, so the scenario whose
    run is being simulated is known when its stream builds its generator."""
    built: dict[str, int] = {}
    running = []
    simulate_, generator = sim_module.simulate, sim_module._generator

    def simulating(scenario, *args):
        running[:] = [scenario.id]
        return simulate_(scenario, *args)

    def generating(seed, run_index):
        built[running[0]] = built.get(running[0], 0) + 1
        return generator(seed, run_index)

    monkeypatch.setattr(sim_module, "simulate", simulating)
    monkeypatch.setattr(sim_module, "_generator", generating)
    return built


class TestSharedDraws:
    """A sweep draws each (seed, run) flag stream once: every scenario with
    that seed reads its first ghost from one stream, which draws further
    chunks of the same generator when its drawn flags cannot settle a
    query (a lower speed, whose cruise collision comes later), and restarts
    from tick 0, with a new generator, only for a rate above every earlier
    one.  Each run reads its stream up to its cruise collision, so a later
    natural trigger draws nothing more."""

    RUNS = 8

    def test_group_sweep_matches_fresh_streams(self, baseline_vehicle, monkeypatch):
        built: dict[str, int] = {}
        for name, (odd, cfg) in _ghost_grid_cases(baseline_vehicle).items():
            for rate in (1e-3, 0.05, 0.3):
                group = _seed_group(odd, rate)
                with monkeypatch.context() as m:
                    counts = count_generators(m)
                    stats = monte_carlo_sweep(group, cfg, self.RUNS)
                for scenario_id, count in counts.items():
                    built[scenario_id] = built.get(scenario_id, 0) + count
                for scenario, swept in zip(group, stats):
                    kpis = [
                        compute_kpis(simulate(scenario, cfg, i), scenario)
                        for i in range(self.RUNS)
                    ]
                    expected = sim_module._aggregate(scenario, kpis, scenario.odd.fingerprint())
                    assert swept == expected, f"{name} ghost_rate={rate} {scenario.id}"
        assert built.get("cond+same-rate", 0) == built.get("cond+earlier-trigger", 0) == 0
        assert built.get("cond+later-trigger", 0) == 0  # within the cruise collision
        assert built.get("cond+third-rate", 0) == 0  # reads the flags, draws on
        assert built.get("cond+slower", 0) == 0  # draws on, beyond the first draw
        # Above every earlier rate: each stream that the condition drew
        # restarts once.
        assert built["cond+triple-rate"] == built["cond"] > 0
        assert set(built) == {"cond", "cond+triple-rate"}

    def test_recorded_first_ghost_traces_match_full_draws(self, baseline_vehicle, monkeypatch):
        ghost_events = 0
        for name, (odd, cfg) in _ghost_grid_cases(baseline_vehicle).items():
            for rate in (0.05, 0.5):
                condition, same_rate, lower_rate = _seed_group(odd, rate)[:3]
                for scenario in (same_rate, lower_rate):
                    for run_index in range(3):
                        context = f"{name} {scenario.id} ghost_rate={rate} run {run_index}"
                        with sim_module._sharing():
                            stream = simulate(condition, cfg, run_index)._stream
                            rng = stream._rng
                            trace = simulate(scenario, cfg, run_index)
                        # Read from the condition's stream, with no new generator.
                        assert trace._stream is stream and stream._rng is rng, context
                        with monkeypatch.context() as m:
                            use_full_draws(m)
                            expected = simulate(scenario, cfg, run_index)
                        assert trace == expected, context
                        ghost_events += len(events_of(trace, EventKind.GHOST_DETECTED))
        assert ghost_events > 0

    def test_lower_rate_variant_builds_no_generator(self, baseline_vehicle, monkeypatch):
        odd, cfg = _ghost_grid_cases(baseline_vehicle)["stop"]
        condition, _, lower_rate = _seed_group(odd, 0.02)[:3]
        built = count_generators(monkeypatch)
        monte_carlo_sweep([condition, lower_rate], cfg, self.RUNS)
        assert built == {"cond": self.RUNS}

    def test_view_within_the_drawn_flags_draws_nothing(
        self, baseline_vehicle, tmp_path, monkeypatch
    ):
        # A rare-ghost variant draws the (seed, 0) stream on to its cruise
        # collision, past the condition's terminal.  The condition's view,
        # built by the export, takes its ghosts, ticks and gaps, from the
        # flags that the stream drew, and draws nothing.
        odd, cfg = _ghost_grid_cases(baseline_vehicle)["stop"]
        condition = make_scenario(odd, EffectModel(ghost_rate=0.3), scenario_id="cond", seed=1234)
        rare = dataclasses.replace(condition, id="rare", effects=EffectModel(ghost_rate=1e-4))
        drawn = []
        generator = sim_module._generator

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size):
                drawn.append(size)
                return self.rng.random(size)

        monkeypatch.setattr(sim_module, "_generator", lambda *key: Counting(generator(*key)))
        with sim_module._sharing():
            monte_carlo_sweep([condition, rare], cfg, 1)
            trace = simulate(condition, cfg, 0)
            stream = trace._stream
            assert stream.drawn * cfg.tick_steps >= trace._res.terminal_step
            before = stream.drawn
            drawn.clear()
            export_trace_jsonl([trace], tmp_path / "traces.jsonl")
        ghosts = events_of(trace, EventKind.GHOST_DETECTED)
        assert len(ghosts) >= 2 and stream.drawn == before
        assert drawn == []
        expected = FullDrawGhosts.events(condition, cfg, stream, trace._res.terminal_step)
        assert [(round(e.time / cfg.dt), e.gap) for e in ghosts] == expected

    def test_sweep_drops_its_streams_on_return(self, baseline_vehicle):
        # The run-0 traces keep the streams that an export reads; the block
        # keeps no stream past the sweep.
        odd, cfg = _ghost_grid_cases(baseline_vehicle)["stop"]
        group = _seed_group(odd, 0.05)
        with sim_module._sharing():
            monte_carlo_sweep(group, cfg, self.RUNS)
            shared = sim_module._shared
            assert shared.streams == {} and shared.seed is None
            assert all(shared.run0[id(s)]._stream is not None for s in group)

    def test_shuffled_sweep_gives_each_scenario_the_same_stats(self, baseline_vehicle):
        # One seed per grid case, each with two groups' rates.
        scenarios = []
        for seed, (odd, _) in enumerate(_ghost_grid_cases(baseline_vehicle).values()):
            for rate in (0.01, 0.2):
                scenarios += [
                    dataclasses.replace(s, id=f"{s.id}-{seed}-{rate}")
                    for s in _seed_group(odd, rate, seed=seed)
                ]
        cfg = SimConfig()
        in_order = monte_carlo_sweep(scenarios, cfg, self.RUNS)
        shuffled = scenarios[:]
        random.Random(5).shuffle(shuffled)
        stats = monte_carlo_sweep(shuffled, cfg, self.RUNS)
        assert [s.scenario_id for s in stats] == [s.id for s in shuffled]
        by_id = {s.scenario_id: s for s in in_order}
        assert stats == [by_id[s.scenario_id] for s in stats]

    def test_interleaved_calls_outside_a_block_share_nothing(self, baseline_vehicle):
        # A library caller outside any block interleaves scenarios and runs
        # in any order: each call resolves and draws on its own, and gives
        # the trace of the same run within a block, where a nested block
        # shares the outer block's plan, flag streams and run-0 traces.
        odd, cfg = _ghost_grid_cases(baseline_vehicle)["stop"]
        condition, same_rate, lower_rate = _seed_group(odd, 0.05)[:3]
        ghost_free = dataclasses.replace(condition, id="ghost-free", effects=EffectModel())
        scenarios = [condition, ghost_free, lower_rate, same_rate]
        runs = (3, 0, 5, 1, 0)
        calls = [(scenario, i) for i in runs for scenario in scenarios]
        outside = [simulate(scenario, cfg, i) for scenario, i in calls]
        assert len({id(trace) for trace in outside}) == len(calls)
        streams = [trace._stream for trace in outside if trace._stream]
        assert len({id(stream) for stream in streams}) == len(streams) > 0

        within = {}
        with sim_module._sharing():
            shared = sim_module._shared
            for scenario in scenarios:
                with sim_module._sharing():
                    assert sim_module._shared is shared
                    for i in sorted(set(runs)):
                        within[scenario.id, i] = simulate(scenario, cfg, i)
            assert shared.scenario is same_rate and shared.seed == condition.seed
            # The condition and its same-rate variant have one outcome key.
            assert shared.plans.keys() == {
                sim_module._outcome_key(s, cfg) for s in (condition, lower_rate)
            }
            assert set(shared.run0) == {id(scenario) for scenario in scenarios}
        for scenario in (same_rate, lower_rate):  # read the condition's streams
            assert all(within[scenario.id, i]._stream is within[condition.id, i]._stream for i in runs)
        assert len({id(within[ghost_free.id, i]) for i in runs}) == 1
        for (scenario, i), trace in zip(calls, outside):
            assert trace == within[scenario.id, i], (scenario.id, i)


def numpy_states(seeds) -> list[list[int]]:
    return [np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist() for seed in seeds]


def batch_states(seeds) -> list[list[int]]:
    return [np.frombuffer(state, np.uint64).tolist() for state in sim_module._seed_states(seeds)]


def count_seed_batches(monkeypatch) -> list[int]:
    """The number of seeds of each ``_seed_states`` pass from here on."""
    passes = []
    seed_states = sim_module._seed_states

    def counting(seeds):
        passes.append(len(seeds))
        return seed_states(seeds)

    monkeypatch.setattr(sim_module, "_seed_states", counting)
    return passes


class TestSeedStates:
    """A ghost stream's generator is ``default_rng(derive_seed(seed, run))``
    seeded from a state that one pass computes for many seeds at once; the
    pass must give numpy's ``SeedSequence`` state bit for bit."""

    EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]

    @staticmethod
    def pcg64_states(seeds) -> list[dict]:
        states = sim_module._seed_states(seeds)
        return [np.random.PCG64(sim_module._seeded_type()((0, 0), state)).state for state in states]

    def test_edge_seeds_match_numpy(self):
        assert batch_states(self.EDGES) == numpy_states(self.EDGES)
        assert self.pcg64_states(self.EDGES) == [np.random.PCG64(seed).state for seed in self.EDGES]

    def test_derived_seeds_match_numpy(self):
        seeds = [derive_seed(seed, run) for seed in (0, 7, 2**64 - 1) for run in range(400)]
        assert batch_states(seeds) == numpy_states(seeds)
        assert self.pcg64_states(seeds) == [np.random.PCG64(seed).state for seed in seeds]

    def test_batch_of_one(self):
        for seed in self.EDGES + [derive_seed(42, 3)]:
            assert batch_states([seed]) == numpy_states([seed]), seed
            assert self.pcg64_states([seed]) == [np.random.PCG64(seed).state]

    def test_other_requests_are_the_seed_sequences_own(self):
        key = (1234, 5)
        (state,) = sim_module._seed_states([derive_seed(*key)])
        seeded = sim_module._seeded_type()(key, state)
        expected = np.random.SeedSequence(derive_seed(*key))
        for n_words, dtype in ((4, np.uint64), (8, np.uint32), (2, np.uint64), (4, np.uint32)):
            got = seeded.generate_state(n_words, dtype)
            assert got.tolist() == expected.generate_state(n_words, dtype).tolist(), (n_words, dtype)

    def test_keys_in_and_missing_from_the_batch(self, baseline_vehicle, monkeypatch):
        scenario = make_scenario(baseline_odd(baseline_vehicle), EffectModel(ghost_rate=0.05), seed=99)
        passes = count_seed_batches(monkeypatch)
        with sim_module._sharing():
            monte_carlo_sweep([scenario], SimConfig(), 3)
            assert passes == [3]
            states = sim_module._shared.states
            for seed, run in ((99, 0), (99, 2), (99, 3), (99, -1), (100, 0)):
                built = sim_module._generator(seed, run).bit_generator.state
                assert built == np.random.default_rng(derive_seed(seed, run)).bit_generator.state
            assert sim_module._shared.states is states
        assert passes == [3]  # a missing key's generator is default_rng's
        outside = sim_module._generator(99, 1).bit_generator.state  # no block, no batch
        assert outside == np.random.default_rng(derive_seed(99, 1)).bit_generator.state
        assert passes == [3]

    def test_sweep_seeds_each_generator_from_one_batch(self, baseline_vehicle, monkeypatch):
        odd = baseline_odd(baseline_vehicle)
        scenarios = [
            make_scenario(odd, EffectModel(ghost_rate=rate), f"s{i}", seed=seed)
            for i, (rate, seed) in enumerate(((0.05, 1), (0.01, 1), (0.2, 2), (0.0, 3)))
        ]
        passes = count_seed_batches(monkeypatch)
        built = count_generators(monkeypatch)
        monte_carlo_sweep(scenarios, SimConfig(), 4)
        assert passes == [2 * 4]  # seeds 1 and 2, runs 0-3; seed 3 has no ghosts
        assert built == {"s0": 4, "s2": 4}  # s1 reads s0's streams

    def test_ghost_free_sweep_builds_no_batch(self, baseline_vehicle, monkeypatch):
        odd = baseline_odd(baseline_vehicle)
        scenarios = [make_scenario(odd, scenario_id=f"s{i}", seed=i) for i in range(3)]
        passes = count_seed_batches(monkeypatch)
        with sim_module._sharing():
            monte_carlo_sweep(scenarios, SimConfig(), 5)
            assert sim_module._shared.states == {}
        assert passes == []


class TestSpeedBelowFloatResolution:
    """An ego so slow that ``v_r * dt`` is 0.0 never moves in floats: it is
    at its starting gap from step 0 on and reaches no smaller gap, so it
    times out without a ghost, and a ghost's brake stops it."""

    @staticmethod
    def scenarios(baseline_vehicle, d_object=100.0):
        vehicle = dataclasses.replace(baseline_vehicle, v_r=5e-324)
        odd = baseline_odd(vehicle, d_object=d_object)
        return [
            make_scenario(odd, scenario_id="still"),
            make_scenario(odd, EffectModel(ghost_rate=0.05), scenario_id="still-ghosts"),
        ]

    def test_simulate(self, baseline_vehicle):
        cfg = SimConfig(max_time=5.0)
        still, ghosts = self.scenarios(baseline_vehicle)
        for scenario, terminal in ((still, Terminal.TIMEOUT), (ghosts, Terminal.STOPPED)):
            trace = simulate(scenario, cfg)
            assert trace.terminal is terminal, scenario.id
            TestTraceAgreesWithItself.assert_consistent(trace, scenario)
            kpis = compute_kpis(trace, scenario)
            assert kpis.final_gap == 100.0 and not kpis.collision
            assert kpis.false_activation is (terminal is Terminal.STOPPED)
            reference = reference_run(scenario, cfg)
            assert (reference.terminal, reference.terminal_step) == (
                trace.terminal.value, round(trace.events[-1].time / cfg.dt)
            )

    def test_starting_within_the_threshold_triggers_at_once(self, baseline_vehicle):
        (still, _) = self.scenarios(baseline_vehicle, d_object=1.0)
        trace = simulate(still, SimConfig(max_time=5.0))
        assert trace.terminal is Terminal.STOPPED
        assert events_of(trace, EventKind.BRAKE_TRIGGERED)[0].time == 0.0
        TestTraceAgreesWithItself.assert_consistent(trace, still)

    def test_sweep(self, baseline_vehicle):
        still, ghosts = monte_carlo_sweep(self.scenarios(baseline_vehicle), SimConfig(), 5)
        assert (still.collision_rate, still.false_activation_rate) == (0.0, 0.0)
        assert ghosts.false_activation_rate == 1.0 and ghosts.collision_rate == 0.0
        for stats in (still, ghosts):
            assert stats.gap_min == stats.gap_max == 100.0
            assert stats.impact_speed_max == 0.0


class TestBrakeBelowFloatResolution:
    """A brake so weak that ``b_eff * dt`` is 0.0 never slows the ego in
    floats, as the per-dt stepper finds; one that only ``b_eff * dt * dt / 2``
    loses advances the ego linearly.  Either way the ego brakes into the
    object at full speed, and an ego that neither moves nor slows times out."""

    MU_FACTORS = (5e-324, 1e-318)

    @classmethod
    def scenarios(cls, odd):
        return [
            make_scenario(
                odd, EffectModel(mu_factor=mu, ghost_rate=rate), scenario_id=f"weak-{mu}-{rate}"
            )
            for mu in cls.MU_FACTORS
            for rate in (0.0, 0.05)
        ]

    @staticmethod
    def assert_agrees_with_reference(trace, scenario, cfg):
        TestTraceAgreesWithItself.assert_consistent(trace, scenario)
        reference = reference_run(scenario, cfg)
        assert (reference.terminal, reference.terminal_step) == (
            trace.terminal.value, round(trace.events[-1].time / cfg.dt)
        ), scenario.id

    def test_simulate(self, baseline_vehicle):
        # 99.99 m is no whole number of steps at v_r, so the stepper's summed
        # position crosses it at the engine's step.
        cfg = SimConfig()
        for scenario in self.scenarios(baseline_odd(baseline_vehicle, d_object=99.99)):
            trace = simulate(scenario, cfg)
            assert trace.terminal is Terminal.COLLISION, scenario.id
            assert events_of(trace, EventKind.BRAKE_TRIGGERED), scenario.id
            kpis = compute_kpis(trace, scenario)
            assert kpis.impact_speed == baseline_vehicle.v_r and kpis.final_gap == 0.0
            self.assert_agrees_with_reference(trace, scenario, cfg)

    def test_ego_below_float_resolution_times_out(self, baseline_vehicle):
        # v_r * dt and b_eff * dt are both 0.0: a ghost's brake latches,
        # and the ego neither moves nor slows.
        vehicle = dataclasses.replace(baseline_vehicle, v_r=5e-324)
        cfg = SimConfig(max_time=5.0)
        (weak, weak_ghosts, *_) = self.scenarios(baseline_odd(vehicle))
        for scenario in (weak, weak_ghosts):
            trace = simulate(scenario, cfg)
            assert trace.terminal is Terminal.TIMEOUT, scenario.id
            assert trace.states[-1].velocity == 5e-324
            self.assert_agrees_with_reference(trace, scenario, cfg)
        assert events_of(trace, EventKind.BRAKE_TRIGGERED)

    def test_collision_walk_starts_at_the_stop_at_most(self, baseline_vehicle, monkeypatch):
        # This brake's closed-form collision guess is about 1e15 braking
        # steps, far past its stop; the search starts at the stop instead
        # and gallops back to the collision, about 1,000 steps in, reading
        # the advance a few times per doubling, not once per step.
        vehicle = dataclasses.replace(baseline_vehicle, v_r=1e-300, rho=1e-3, a_min_brake=1e-12)
        scenario = make_scenario(
            baseline_odd(vehicle, d_object=1e-300), EffectModel(mu_factor=1e-300), scenario_id="far"
        )
        cfg = SimConfig(max_time=2.0)
        calls = 0
        advance = sim_module._Resolved._brake_advance

        def counting(res, m):
            nonlocal calls
            calls += 1
            if calls > 2 * cfg.max_steps.bit_length() + 2:
                raise AssertionError("the braking-collision search read the advance step by step")
            return advance(res, m)

        monkeypatch.setattr(sim_module._Resolved, "_brake_advance", counting)
        trace = simulate(scenario, cfg)
        monkeypatch.undo()
        assert trace.terminal is Terminal.COLLISION
        self.assert_agrees_with_reference(trace, scenario, cfg)

    def test_sweep(self, baseline_vehicle):
        scenarios = self.scenarios(baseline_odd(baseline_vehicle))
        for stats in monte_carlo_sweep(scenarios, SimConfig(), 5):
            assert stats.collision_rate == 1.0, stats.scenario_id
            assert stats.impact_speed_min == stats.impact_speed_max == baseline_vehicle.v_r
            assert stats.gap_max == 0.0

    def test_friction_product_below_float_resolution(self, baseline_vehicle):
        # An ODD mu and an effect mu_factor of 1e-200 each lie in (0, 1];
        # their product underflows to 0.0, a brake of 0, and the ego brakes
        # into the object at full speed.
        cfg = SimConfig()
        odd = baseline_odd(baseline_vehicle, d_object=99.99, mu=1e-200)
        for rate in (0.0, 0.05):
            effects = EffectModel(mu_factor=1e-200, ghost_rate=rate)
            scenario = make_scenario(odd, effects, scenario_id=f"product-{rate}")
            trace = simulate(scenario, cfg)
            assert trace.terminal is Terminal.COLLISION, scenario.id
            kpis = compute_kpis(trace, scenario)
            assert kpis.impact_speed == baseline_vehicle.v_r and kpis.final_gap == 0.0
            self.assert_agrees_with_reference(trace, scenario, cfg)


class TestDelayPastTheHorizon:
    """A response delay at or past the horizon never applies the brake, also
    one whose quotient ``(rho + rho_add) / dt`` overflows to inf: the ego
    cruises into the object or to the horizon, as the per-dt stepper finds."""

    def test_simulate(self, baseline_vehicle):
        cfg = SimConfig(dt=0.001, max_time=10.0)
        odd = baseline_odd(baseline_vehicle, d_object=99.99)
        for rate in (0.0, 0.05):
            effects = EffectModel(rho_add=1e308, ghost_rate=rate)
            scenario = make_scenario(odd, effects, scenario_id=f"late-{rate}")
            trace = simulate(scenario, cfg)
            assert trace.terminal is Terminal.COLLISION, scenario.id
            assert not events_of(trace, EventKind.BRAKE_EFFECTIVE), scenario.id
            kpis = compute_kpis(trace, scenario)
            assert kpis.impact_speed == baseline_vehicle.v_r and kpis.final_gap == 0.0
            TestBrakeBelowFloatResolution.assert_agrees_with_reference(trace, scenario, cfg)
            reference = reference_run(scenario, cfg)
            assert reference.effective_step is None
            assert kpis.false_activation is reference.ghost_triggered


def _log_uniform(low: float, high: float):
    """Floats in [low, high], both > 0, uniform in their logarithm; the
    bounds and the subnormals near 5e-324 included."""
    return st.floats(math.log10(low), math.log10(high)).map(
        lambda exponent: min(max(10.0**exponent, low), high)
    )


# Any loader-accepted float of a field that may be 0, up to 1e308.
_ZERO_OR_ANY = st.one_of(st.just(0.0), _log_uniform(5e-324, 1e308))
# Each drawn field replaces the fixture's; an absent one keeps it.
_ODD_AND_VEHICLE = st.fixed_dictionaries(
    {},
    optional={
        "v_r": _ZERO_OR_ANY,
        "rho": _ZERO_OR_ANY,
        "a_max_accel": _ZERO_OR_ANY,
        "a_min_brake": _log_uniform(5e-324, 1e308),
        "d_object": _log_uniform(5e-324, 1e308),
        "d_perception": _log_uniform(5e-324, 1e308),
        "perception_range_factor": _log_uniform(5e-324, 1.0),
    },
)


class TestAcceptedInputsEndInAResult:
    """Every ``dt``, friction, added response latency, vehicle, object and
    perception distance and range factor that the loaders accept ends in
    finite KPIs or a ParameterError that names the field: a horizon of more
    than 2**53 steps is rejected where the config is built, a vehicle whose
    safe distance overflows where the vehicle is, a friction product that
    underflows to 0 brakes as a brake of 0, and a delay at or past the
    horizon never applies the brake."""

    # Most of [5e-324, 0.05] lies below the 2**53-step limit of the 60 s
    # horizon, so half the draws come from above it.
    @settings(max_examples=300, deadline=timedelta(seconds=2))
    @given(
        dt=st.one_of(_log_uniform(5e-324, 0.05), _log_uniform(60.0 / 2**53, 0.05)),
        mu=_log_uniform(5e-324, 1.0),
        mu_factor=_log_uniform(5e-324, 1.0),
        rho_add=st.one_of(st.just(0.0), _log_uniform(5e-324, 1e308)),
        ghost_rate=st.one_of(st.just(0.0), _log_uniform(5e-324, 1.0)),
        fields=_ODD_AND_VEHICLE,
    )
    @example(dt=0.001, mu=1.0, mu_factor=1.0, rho_add=0.0, ghost_rate=5e-324, fields={})
    @example(dt=0.001, mu=1.0, mu_factor=1.0, rho_add=0.0, ghost_rate=1.0, fields={})
    @example(dt=1e-22, mu=1.0, mu_factor=1.0, rho_add=0.0, ghost_rate=0.0, fields={})
    @example(dt=5e-324, mu=1.0, mu_factor=1.0, rho_add=0.0, ghost_rate=0.0, fields={})
    @example(dt=60.0 / 2**53, mu=1.0, mu_factor=1.0, rho_add=0.0, ghost_rate=0.05, fields={})
    @example(dt=0.001, mu=1e-200, mu_factor=1e-200, rho_add=0.0, ghost_rate=0.05, fields={})
    @example(dt=0.001, mu=1.0, mu_factor=1.0, rho_add=1e308, ghost_rate=0.05, fields={})
    @example(dt=0.001, mu=1.0, mu_factor=1.0, rho_add=0.0, ghost_rate=0.05, fields={"v_r": 0.0})
    @example(dt=0.001, mu=1.0, mu_factor=1.0, rho_add=0.0, ghost_rate=0.0, fields={"v_r": 1e308})
    @example(
        dt=0.001, mu=1.0, mu_factor=1.0, rho_add=0.0, ghost_rate=0.05,
        fields={"rho": 0.0, "a_max_accel": 0.0, "a_min_brake": 1e308},
    )
    @example(
        dt=0.001, mu=1.0, mu_factor=1.0, rho_add=0.0, ghost_rate=0.05,
        fields={"d_object": 5e-324, "d_perception": 5e-324, "perception_range_factor": 5e-324},
    )
    @example(
        dt=0.001, mu=1.0, mu_factor=1.0, rho_add=0.0, ghost_rate=0.05,
        fields={"d_object": 1e308, "d_perception": 1e308},
    )
    def test_finite_kpis_or_named_error(
        self, fixture_odd, dt, mu, mu_factor, rho_add, ghost_rate, fields
    ):
        try:
            cfg = SimConfig(dt=dt)
        except ParameterError as exc:
            assert not 60.0 / dt <= 2**53 and f"dt={dt}" in str(exc)
            return
        vehicle_fields = {name: fields.pop(name) for name in VEHICLE_FIELDS if name in fields}
        try:
            vehicle = dataclasses.replace(fixture_odd.vehicle, **vehicle_fields)
        except ParameterError as exc:
            assert "rss_min_distance must be finite" in str(exc)
            return
        range_factor = fields.pop("perception_range_factor", 1.0)
        odd = dataclasses.replace(fixture_odd, mu=mu, vehicle=vehicle, **fields)
        effects = EffectModel(
            perception_range_factor=range_factor,
            mu_factor=mu_factor,
            rho_add=rho_add,
            ghost_rate=ghost_rate,
        )
        scenario = make_scenario(odd, effects, scenario_id="fixture", seed=5)
        trace = simulate(scenario, cfg)
        kpis = compute_kpis(trace, scenario)
        assert math.isfinite(kpis.final_gap) and math.isfinite(kpis.impact_speed), kpis
        assert kpis.ttc_at_trigger == NO_CLOSING or math.isfinite(kpis.ttc_at_trigger), kpis
        TestTraceAgreesWithItself.assert_consistent(trace, scenario)


class TestBrakingCollisionSearch:
    """The braking-collision step is searched within ``[1, m_stop - 1]``,
    galloping from the closed-form guess and bisecting; a guess that is not
    finite (-inf or nan, when the discriminant overflows) gallops from the
    interval's start."""

    @staticmethod
    def overflowing(baseline_vehicle):
        # b_eff*dt*dt/2 is about 5e295, so the discriminant overflows to inf
        # and the closed-form root is -inf.
        vehicle = dataclasses.replace(baseline_vehicle, v_r=5e-324, a_max_accel=1e12, a_min_brake=1e300)
        odd = baseline_odd(vehicle, d_object=1000.0, d_perception=1000.0)
        return make_scenario(odd, EffectModel(ghost_rate=0.5), scenario_id="overflowing")

    @staticmethod
    def far(baseline_vehicle):
        # A guess about 1e15 braking steps past a collision about 1,000 in.
        vehicle = dataclasses.replace(baseline_vehicle, v_r=1e-300, rho=1e-3, a_min_brake=1e-12)
        odd = baseline_odd(vehicle, d_object=1e-300)
        return make_scenario(odd, EffectModel(mu_factor=1e-300), scenario_id="far")

    def test_overflowing_discriminant(self, baseline_vehicle):
        scenario = self.overflowing(baseline_vehicle)
        cfg = SimConfig(dt=0.01, max_time=2.0)
        trace = simulate(scenario, cfg)
        assert trace.terminal is Terminal.STOPPED
        TestBrakeBelowFloatResolution.assert_agrees_with_reference(trace, scenario, cfg)
        (stats,) = monte_carlo_sweep([scenario], cfg, 3)
        assert stats.collision_rate == 0.0 and stats.gap_min == 1000.0

    def test_far_guess_at_a_long_horizon(self, baseline_vehicle, monkeypatch):
        # The collision step does not depend on the horizon; a walk from the
        # guess read the advance once per step of it, 6e7 times here.
        scenario = self.far(baseline_vehicle)
        short = simulate(scenario, SimConfig(max_time=2.0))
        cfg = SimConfig(max_time=6e4)
        reads = 0
        advance = sim_module._Resolved._brake_advance

        def counting(res, m):
            nonlocal reads
            reads += 1
            if reads > 2 * cfg.max_steps.bit_length() + 2:
                raise AssertionError("the braking-collision search read the advance step by step")
            return advance(res, m)

        monkeypatch.setattr(sim_module._Resolved, "_brake_advance", counting)
        trace = simulate(scenario, cfg)
        monkeypatch.undo()
        assert trace.terminal is Terminal.COLLISION
        assert [(e.time, e.kind) for e in trace.events] == [(e.time, e.kind) for e in short.events]

    def test_advance_does_not_decrease_where_searched(self, baseline_vehicle):
        # The search bisects, so it relies on the advance not decreasing over
        # [1, m_stop - 1] in floats: every step of the short horizon, and
        # around a geometric grid of the long one.
        for scenario, cfg in (
            (self.far(baseline_vehicle), SimConfig(max_time=2.0)),
            (self.far(baseline_vehicle), SimConfig(max_time=6e4)),
            (self.overflowing(baseline_vehicle), SimConfig(dt=0.01, max_time=2.0)),
        ):
            res = simulate(scenario, cfg)._res
            last = res.m_stop - 1
            steps = set(range(1, min(last, 4096) + 1))
            for k in range(12, last.bit_length()):
                steps.update(range(max(1, (1 << k) - 4), min(last, (1 << k) + 4) + 1))
            steps.update(range(max(1, last - 4), last + 1))
            advances = [res._brake_advance(m) for m in sorted(steps)]
            assert advances == sorted(advances), scenario.id

    def test_one_resolved_per_resolution(self, fixture_odd, fixture_taxonomy, fixture_mapping, monkeypatch):
        # The braking path builds its _Resolved once and settles its terminal
        # in place.
        conditions = filter_by_odd(enumerate_leaves(fixture_taxonomy), fixture_odd.odd_tags)
        scenarios = generate_scenarios(fixture_odd, conditions, fixture_mapping, 42)
        built = resolved = 0
        init, resolve = sim_module._Resolved.__init__, sim_module._Plan._resolve

        def counting_init(res, *args):
            nonlocal built
            built += 1
            init(res, *args)

        def counting_resolve(plan, n_trig):
            nonlocal resolved
            resolved += 1
            return resolve(plan, n_trig)

        monkeypatch.setattr(sim_module._Resolved, "__init__", counting_init)
        monkeypatch.setattr(sim_module._Plan, "_resolve", counting_resolve)
        stats = monte_carlo_sweep(scenarios, SimConfig(), 20)
        monkeypatch.undo()
        assert any(s.collision_rate < 1.0 for s in stats)  # some runs brake
        assert built == resolved > len(scenarios)


class TestFirst:
    """``_first``, the one crossing search: the smallest n in [lo, hi) at
    which a monotone test holds, within 2 * (hi - lo).bit_length() + 2
    reads whatever the guess, and in two reads from an exact one."""

    @staticmethod
    def search(lo, hi, found, guess):
        reads = []

        def holds(n):
            assert lo <= n < hi, (n, lo, hi)
            reads.append(n)
            return n >= found

        return sim_module._first(holds, lo, hi, guess), reads

    @settings(max_examples=1000, deadline=None)
    @given(
        lo=st.integers(-(2**62), 2**62),
        width=st.integers(0, 2**60),
        at=st.floats(0.0, 1.0),
        guess=st.one_of(st.none(), st.floats()),  # nan, +-inf and far floats too
        share=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    @example(lo=0, width=2**60, at=1.0, guess=None, share=None)
    @example(lo=0, width=2**60, at=0.0, guess=math.inf, share=None)
    @example(lo=0, width=2**60, at=0.5, guess=math.nan, share=None)
    @example(lo=0, width=2**60, at=1.0, guess=-math.inf, share=None)
    @example(lo=5, width=0, at=0.0, guess=3.0, share=None)
    def test_finds_the_first_step_in_bounded_reads(self, lo, width, at, guess, share):
        hi = lo + width
        found = lo + min(round(at * width), width)  # hi: the test holds nowhere
        if share is not None:  # a guess within the interval
            guess = lo + share * width
        result, reads = self.search(lo, hi, found, guess)
        assert result == found
        assert len(reads) <= 2 * width.bit_length() + 2, (len(reads), width)

    @given(lo=st.integers(-(2**40), 2**40), width=st.integers(1, 2**60), data=st.data())
    def test_exact_guess_reads_twice(self, lo, width, data):
        found = data.draw(st.integers(lo, lo + width - 1))
        result, reads = self.search(lo, lo + width, found, found)
        assert result == found and len(reads) <= 2


class TestGhostFreeMemo:
    """A ghost-free scenario reads no randomness: within a sharing block,
    all its runs share the one resolution of the plan that ``simulate``
    keeps for the last (scenario, cfg)."""

    def test_runs_share_one_resolution(self, baseline_vehicle):
        cfg = SimConfig()
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(mu_factor=0.5), scenario_id="memo"
        )
        with sim_module._sharing():
            traces = [simulate(scenario, cfg, i) for i in (0, 1, 7)]
            assert traces[1]._res is traces[0]._res and traces[2]._res is traces[0]._res
            # Runs of a caller that passes no config share one too.
            assert simulate(scenario, run_index=1)._res is simulate(scenario, run_index=2)._res
        for i, trace in zip((0, 1, 7), traces):
            assert trace == simulate(scenario, cfg, i)
            ref = reference_run(scenario, cfg, i)
            assert (trace.terminal.value, round(trace.events[-1].time / cfg.dt)) == (
                ref.terminal,
                ref.terminal_step,
            )

    def test_runs_share_one_trace(self, baseline_vehicle):
        runs = 3
        terminals = set()
        for name, (odd, cfg) in _ghost_grid_cases(baseline_vehicle).items():
            scenario = make_scenario(odd, EffectModel(), scenario_id=name, seed=1234)
            other = make_scenario(odd, EffectModel(), scenario_id=f"{name}-other", seed=1234)
            (stats,) = monte_carlo_sweep([scenario], cfg, runs)
            kpis = [compute_kpis(simulate(scenario, cfg, i), scenario) for i in range(runs)]
            assert stats == sim_module._aggregate(scenario, kpis, odd.fingerprint()), name

            with sim_module._sharing():
                trace = simulate(scenario, cfg, 0)
                for i in range(runs):
                    context = f"{name} run {i}"
                    assert simulate(scenario, cfg, i) is trace, context
                    ref = reference_run(scenario, cfg, i)
                    assert (trace.terminal.value, round(trace.events[-1].time / cfg.dt)) == (
                        ref.terminal,
                        ref.terminal_step,
                    ), context
                    triggers = events_of(trace, EventKind.BRAKE_TRIGGERED)
                    assert [round(e.time / cfg.dt) for e in triggers] == (
                        [] if ref.trigger_step is None else [ref.trigger_step]
                    ), context
                    report = compute_kpis(simulate(scenario, cfg, i), scenario)
                    assert report == trace_kpis(trace, scenario), context
                    assert report.final_gap == pytest.approx(max(0.0, ref.final_gap), abs=1e-6), context
                    assert report.collision is (ref.terminal == "collision"), context
                    assert not report.false_activation, context
                terminals.add(trace.terminal)

                simulate(other, cfg, 0)  # replaces the plan
                again = simulate(scenario, cfg, 1)
                assert again is not trace and again == trace, name
        assert terminals == set(Terminal)

    def test_trace_follows_scenario_and_config(self, baseline_vehicle):
        a = make_scenario(baseline_odd(baseline_vehicle), scenario_id="memo-a")
        b = make_scenario(baseline_odd(baseline_vehicle, d_object=20.0), scenario_id="memo-b")
        fine, coarse = SimConfig(), SimConfig(dt=0.01)
        calls = [(a, fine), (b, fine), (a, fine), (a, coarse), (b, coarse), (a, fine)]
        twin = dataclasses.replace(a)
        assert twin is not a
        with sim_module._sharing():
            traces = [simulate(scenario, cfg, i) for i, (scenario, cfg) in enumerate(calls)]
            twin_trace = simulate(twin, fine, 3)
        for (scenario, cfg), trace in zip(calls, traces):
            assert trace == simulate(scenario, cfg, 0), (scenario.id, cfg)
        assert len({traces[0], traces[1], traces[3], traces[4]}) == 4
        assert twin_trace == traces[0]

    def test_simulation_error_not_cached(self, baseline_vehicle, monkeypatch):
        resolve = sim_module._Plan._resolve
        calls = []

        def diverging(plan, n_trig):
            calls.append(n_trig)
            return dataclasses.replace(resolve(plan, n_trig), v0=math.inf)

        monkeypatch.setattr(sim_module._Plan, "_resolve", diverging)
        scenario = make_scenario(baseline_odd(baseline_vehicle), scenario_id="memo-diverges")
        cfg = SimConfig()
        with sim_module._sharing():  # one plan for both calls
            for _ in range(2):
                with pytest.raises(SimulationError, match="memo-diverges"):
                    simulate(scenario, cfg, 0)
        assert len(calls) == 2

    def test_int_inputs_equal_float_inputs(self, tmp_path):
        # Ints are stored as floats, so int and float inputs give equal
        # traces that export the same bytes.
        def scenario(number):
            vehicle = VehicleParams(
                v_r=number(10), rho=number(1), a_max_accel=number(2), a_min_brake=number(5)
            )
            odd = OddDefinition(
                d_object=number(100), d_perception=number(80), mu=number(1),
                odd_tags=frozenset({"weather"}), vehicle=vehicle,
            )
            return make_scenario(odd, EffectModel(mu_factor=number(1)), scenario_id="ints")

        cfg_int = SimConfig(dt=0.001, max_time=60, perception_tick=0.05)
        as_int = simulate(scenario(int), cfg_int)
        as_float = simulate(scenario(float), SimConfig())
        for trace in (as_int, as_float):
            for state in trace.states:
                assert {type(state.position), type(state.velocity), type(state.time)} == {float}
        assert as_float == simulate(scenario(float), SimConfig(), 0)
        export_trace_jsonl([as_int], tmp_path / "int.jsonl")
        export_trace_jsonl([as_float], tmp_path / "float.jsonl")
        assert (tmp_path / "int.jsonl").read_text() == (tmp_path / "float.jsonl").read_text()
        assert '"velocity": 10.0' in (tmp_path / "int.jsonl").read_text()


class TestLazyTraceView:
    """A trace builds its events and states, and reads its ghosts, only
    when they are read; a sweep reads none of them."""

    def test_sweep_builds_no_view(self, baseline_vehicle, monkeypatch):
        built = count_trace_views(monkeypatch)
        odd = baseline_odd(baseline_vehicle)
        scenarios = [
            make_scenario(odd, EffectModel(ghost_rate=0.05), scenario_id="ghosts", seed=3),
            make_scenario(odd, EffectModel(mu_factor=0.5), scenario_id="ghost-free"),
        ]
        stats = monte_carlo_sweep(scenarios, SimConfig(), runs_per_scenario=20)
        assert stats[0].false_activation_rate > 0.0 and stats[1].collision_rate == 1.0
        assert built == []
        trace = simulate(scenarios[0], SimConfig(), 0)
        assert built == []
        assert trace.states and trace.events
        assert built == ["ghosts"]  # once per trace object
        assert trace == simulate(scenarios[0], SimConfig(), 0)
        assert built == ["ghosts", "ghosts"]

    def test_export_and_objects_read_one_view(self, baseline_vehicle, tmp_path, monkeypatch):
        # A stream's ghost gaps can be drawn only once (a second draw reads
        # other values), so the export and a reader of the events and states
        # read one view, in either order: the rows are the events and states.
        cfg = SimConfig()
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(ghost_rate=0.05), scenario_id="g", seed=3
        )
        export_trace_jsonl([simulate(scenario, cfg, 0)], tmp_path / "expected.jsonl")
        line = (tmp_path / "expected.jsonl").read_bytes()
        item = json.loads(line)
        assert [e["kind"] for e in item["events"]].count("ghost_detected") >= 2

        built = count_trace_views(monkeypatch)
        exported_first = simulate(scenario, cfg, 0)
        export_trace_jsonl([exported_first], tmp_path / "exported-first.jsonl")
        assert built == ["g"]
        read_first = simulate(scenario, cfg, 0)
        rows = (read_first.events, read_first.states)
        export_trace_jsonl([read_first], tmp_path / "read-first.jsonl")
        assert built == ["g", "g"]  # one view per trace, whichever reads first
        assert (tmp_path / "exported-first.jsonl").read_bytes() == line
        assert (tmp_path / "read-first.jsonl").read_bytes() == line

        for trace in (exported_first, read_first):
            assert (trace.events, trace.states) == rows
            assert trace.events is trace.events and trace.states is trace.states
            assert {type(e) for e in trace.events} == {SimEvent}
            assert {type(s) for s in trace.states} == {SimState}
            # Stage and EventKind are str enums, so each equals its JSON value.
            assert [e._asdict() for e in trace.events] == item["events"]
            assert [s._asdict() for s in trace.states] == item["states"]
        assert built == ["g", "g"]

    def test_a_resolution_holds_one_view(self, baseline_vehicle):
        # Most runs trigger naturally and share that resolution, but each
        # reads its own flag stream, so each builds a view of its own.  A
        # resolution keeps the rows of its last view only, so what the block
        # holds after the last run grows with the resolutions reached (under
        # 50, about 20 KB of views), not with the runs viewed: a view per run
        # would hold about 2.5 MB.
        cfg = SimConfig()
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(ghost_rate=1e-4), scenario_id="g", seed=5
        )
        assert simulate(scenario, cfg, 0).events  # the first draw and view import what they use

        def held(view: bool) -> int:
            with sim_module._sharing():
                tracemalloc.start()
                try:
                    runs = Counter()
                    for i in range(2000):
                        trace = simulate(scenario, cfg, i)
                        runs[id(trace._res)] += 1
                        if view:
                            assert trace.events
                    del trace
                    gc.collect()
                    current, _ = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert max(runs.values()) > 1900 and len(runs) < 50
            return current

        assert held(view=True) - held(view=False) < 100_000

    def test_ghost_free_runs_derive_kpis_once(self, baseline_vehicle, monkeypatch):
        derived = count_kpi_reports(monkeypatch)
        cfg = SimConfig()
        odd = baseline_odd(baseline_vehicle)
        ghost_free = make_scenario(odd, EffectModel(mu_factor=0.5), scenario_id="ghost-free")
        ghosts = make_scenario(odd, EffectModel(ghost_rate=0.05), scenario_id="ghosts")
        with sim_module._sharing():
            traces = [simulate(ghost_free, cfg, i) for i in range(50)]
            assert all(trace._res is traces[0]._res for trace in traces)
            reports = [compute_kpis(trace, ghost_free) for trace in traces]
            assert all(report is reports[0] for report in reports)
            assert len(derived) == 1

            # The sweep joins the block, which keeps the ghost-free plan,
            # whose resolution keeps its report; a ghost plan builds one per
            # trigger step, with its resolution.
            monte_carlo_sweep([ghost_free, ghosts], cfg, runs_per_scenario=50)
        swept = len(derived)  # the calls below resolve afresh, outside the block
        keys = {trigger_key(simulate(ghosts, cfg, i), ghosts) for i in range(50)}
        assert swept == 1 + len(keys)

    def test_runs_with_one_trigger_step_share_resolution_and_report(
        self, baseline_vehicle, monkeypatch
    ):
        derived = count_kpi_reports(monkeypatch)
        cfg = SimConfig()
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(ghost_rate=0.02), scenario_id="g", seed=5
        )
        with sim_module._sharing():  # the sweep joins it, and drops its plans on return
            monte_carlo_sweep([scenario], cfg, runs_per_scenario=200)
            assert sim_module._shared.plans == {} and sim_module._shared.plan is None
        swept = len(derived)
        with sim_module._sharing():
            resolutions, reports = {}, {}
            for i in range(200):
                trace = simulate(scenario, cfg, i)
                report = compute_kpis(trace, scenario)
                key = trigger_key(trace, scenario)
                assert trace._res is resolutions.setdefault(key[0], trace._res)
                assert report is reports.setdefault(key, report)
        assert swept == len(derived) - swept == len(reports) < 200

    @pytest.mark.parametrize("rate", [0.0, 0.05])
    def test_interleaved_keys_build_one_report_per_resolution(
        self, baseline_vehicle, monkeypatch, rate
    ):
        # Keys A, B, then A again under a new id: A's resolutions keep their
        # reports while the sweep runs B, so the copy builds none.
        derived = count_kpi_reports(monkeypatch)
        resolved = []
        resolve = sim_module._Plan._resolve

        def resolving(self, n_trig):
            resolved.append(n_trig)
            return resolve(self, n_trig)

        monkeypatch.setattr(sim_module._Plan, "_resolve", resolving)
        odd = baseline_odd(baseline_vehicle)
        a = make_scenario(odd, EffectModel(ghost_rate=rate, mu_factor=0.8), "a", seed=9)
        b = make_scenario(odd, EffectModel(ghost_rate=rate, mu_factor=0.5), "b", seed=9)
        copy = dataclasses.replace(a, id="a-copy")
        stats = monte_carlo_sweep([a, b, copy], SimConfig(), runs_per_scenario=30)
        assert stats[2] == stats[0]._replace(scenario_id="a-copy")
        assert len(derived) == len(resolved) >= 2

    def test_report_follows_the_scenario(self, baseline_vehicle):
        # A certain ghost latches the brake at 100 m: beyond this vehicle's
        # trigger threshold (33 m), inside the slower-reacting one's (151 m).
        # The report is the resolution's, so a trace is judged against its
        # own scenario or an equal one, never against another vehicle's.
        effects = EffectModel(ghost_rate=1.0)
        scenario = make_scenario(baseline_odd(baseline_vehicle), effects, scenario_id="s")
        slower = dataclasses.replace(baseline_vehicle, rho=5.0)
        assert rss_min_distance(slower) > 100.0
        other = make_scenario(baseline_odd(slower), effects, scenario_id="s")
        trace = simulate(scenario)
        kpis = compute_kpis(trace, scenario)
        assert kpis.false_activation
        assert kpis == trace_kpis(trace, scenario)
        equal = dataclasses.replace(scenario)
        assert equal is not scenario and equal == scenario
        assert compute_kpis(trace, equal) is kpis
        with pytest.raises(ContractViolationError, match="not the trace's scenario"):
            compute_kpis(trace, other)


# A value for every field of the scenario's inputs and of the config that
# moves a run's row or trace line away from baseline_odd's at 0.05 ghosts.
_ONE_FIELD_CHANGES = {
    OddDefinition: {
        "d_object": 60.0, "d_perception": 50.0, "mu": 0.6,
        "odd_tags": frozenset({"weather", "night"}),
    },
    VehicleParams: {"v_r": 10.0, "rho": 0.5, "a_max_accel": 1.0, "a_min_brake": 7.0},
    EffectModel: {
        "perception_range_factor": 0.5, "ghost_rate": 0.2, "mu_factor": 0.6, "rho_add": 0.3,
    },
    SimConfig: {"dt": 0.002, "max_time": 3.0, "perception_tick": 0.1},
}
_ONE_FIELD_CASES = [
    (owner, name, base_rate)
    for owner in _ONE_FIELD_CHANGES
    for name in _ONE_FIELD_CHANGES[owner]
    for base_rate in (0.0, 0.05)
] + [("seed", "seed", 0.05)]


def _sweep_and_export(pairs, runs, path) -> tuple[list, list[str]]:
    """Sweep (scenario, cfg) pairs, a sweep per run of equal configs, and
    export their run-0 traces, in one sharing block, as run_campaign does."""
    stats = []
    with sim_module._sharing():
        start = 0
        for end in range(1, len(pairs) + 1):
            if end == len(pairs) or pairs[end][1] != pairs[start][1]:
                group = [scenario for scenario, _ in pairs[start:end]]
                stats += monte_carlo_sweep(group, pairs[start][1], runs)
                start = end
        export_trace_jsonl((simulate(s, cfg, 0) for s, cfg in pairs), path)
    return stats, path.read_text().splitlines()


def _without_id(line: str) -> dict:
    item = json.loads(line)
    del item["scenario_id"]
    return item


class TestOutcomeKey:
    """The scenarios of one outcome key share a plan, resolutions, reports,
    an aggregate and a trace body; scenarios of different keys share none
    of them, whichever field tells them apart."""

    RUNS = 6

    def test_every_field_is_covered(self):
        for owner, changes in _ONE_FIELD_CHANGES.items():
            names = {f.name for f in dataclasses.fields(owner)} - {"vehicle"}
            assert set(changes) == names, owner

    @pytest.mark.parametrize(
        "owner, name, base_rate", _ONE_FIELD_CASES,
        ids=[f"{getattr(o, '__name__', o)}.{n}-ghost{r}" for o, n, r in _ONE_FIELD_CASES],
    )
    def test_one_field_apart_is_no_merge(self, baseline_vehicle, tmp_path, owner, name, base_rate):
        odd, cfg, seed = baseline_odd(baseline_vehicle), SimConfig(), 1234
        effects = EffectModel(ghost_rate=base_rate)
        a = make_scenario(odd, effects, scenario_id="a", seed=seed)
        b_odd, b_effects, b_cfg, b_seed = odd, effects, cfg, seed
        change = {name: _ONE_FIELD_CHANGES[owner][name]} if owner != "seed" else {}
        if owner is OddDefinition:
            b_odd = dataclasses.replace(odd, **change)
        elif owner is VehicleParams:
            b_odd = dataclasses.replace(odd, vehicle=dataclasses.replace(baseline_vehicle, **change))
        elif owner is EffectModel:
            b_effects = dataclasses.replace(effects, **change)
        elif owner is SimConfig:
            b_cfg = dataclasses.replace(cfg, **change)
        else:
            b_seed = 99
        b = make_scenario(b_odd, b_effects, scenario_id="b", seed=b_seed)

        alone = {
            s.id: _sweep_and_export([(s, c)], self.RUNS, tmp_path / f"{s.id}.jsonl")
            for s, c in ((a, cfg), (b, b_cfg))
        }
        (row_a,), (line_a,) = alone["a"]
        (row_b,), (line_b,) = alone["b"]
        # The field matters, so a merge would show.
        assert (row_a[1:], _without_id(line_a)) != (row_b[1:], _without_id(line_b))
        for pairs in ([(a, cfg), (b, b_cfg)], [(b, b_cfg), (a, cfg)]):
            stats, lines = _sweep_and_export(pairs, self.RUNS, tmp_path / "both.jsonl")
            for (scenario, _), row, line in zip(pairs, stats, lines, strict=True):
                assert (row, line) == ([row_a, row_b][scenario is b], [line_a, line_b][scenario is b])
        # Within one block, outside a sweep, the tables hold both keys.
        with sim_module._sharing():
            within = [simulate(s, c, i) for i in range(self.RUNS) for s, c in ((a, cfg), (b, b_cfg))]
        fresh = [simulate(s, c, i) for i in range(self.RUNS) for s, c in ((a, cfg), (b, b_cfg))]
        assert within == fresh

    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from([60.0, 100.0]),  # d_object
                st.sampled_from([0.5, 1.0]),  # perception_range_factor
                st.sampled_from([0.0, 0.0, 0.02, 0.2]),  # ghost_rate
                st.sampled_from([0.5, 1.0]),  # mu_factor
                st.sampled_from([1, 2]),  # seed
            ),
            min_size=1, max_size=6,
        ),
        copies=st.lists(st.integers(0, 5), max_size=8),
        order=st.randoms(use_true_random=False),
    )
    def test_duplicates_get_their_originals_row_and_line(
        self, baseline_vehicle, tmp_path_factory, specs, copies, order
    ):
        cfg, runs = SimConfig(), 3
        originals = [
            make_scenario(
                baseline_odd(baseline_vehicle, d_object=d_object),
                EffectModel(perception_range_factor=factor, ghost_rate=rate, mu_factor=mu_factor),
                scenario_id=f"s{i}", seed=seed,
            )
            for i, (d_object, factor, rate, mu_factor, seed) in enumerate(specs)
        ]
        copied = [
            dataclasses.replace(originals[k % len(originals)], id=f"s{k % len(originals)}~{n}")
            for n, k in enumerate(copies)
        ]
        scenarios = originals + copied
        order.shuffle(scenarios)
        path = tmp_path_factory.mktemp("dupes")
        expected_stats, expected_lines = _sweep_and_export(
            [(s, cfg) for s in originals], runs, path / "originals.jsonl"
        )
        row_of = {row.scenario_id: row for row in expected_stats}
        line_of = {row.scenario_id: line for row, line in zip(expected_stats, expected_lines)}

        with sim_module._sharing():
            stats = monte_carlo_sweep(scenarios, cfg, runs)
            shared = sim_module._shared
            assert shared.plans == {} and shared.outcomes == {} and shared.plan is None
            export_trace_jsonl((simulate(s, cfg, 0) for s in scenarios), path / "all.jsonl")
        lines = (path / "all.jsonl").read_text().splitlines()
        for scenario, row, line in zip(scenarios, stats, lines, strict=True):
            original = scenario.id.split("~")[0]
            assert row == row_of[original]._replace(scenario_id=scenario.id)
            assert json.loads(line)["scenario_id"] == scenario.id
            assert _without_id(line) == _without_id(line_of[original])


class TestInvariants:
    def test_oracle_equivalence_random_grid(self):
        # For ghost-free runs with the trigger threshold inside sensor
        # reach, the final gap matches the closed form within 3*v*dt
        # (trigger, response, and stop quantization each cost <= v*dt).
        rng = random.Random(31415)
        cfg = SimConfig()
        for _ in range(80):
            vehicle = VehicleParams(
                v_r=rng.uniform(1.0, 30.0),
                rho=rng.uniform(0.1, 2.0),
                a_max_accel=rng.uniform(0.0, 4.0),
                a_min_brake=rng.uniform(2.0, 9.0),
            )
            mu_factor = rng.uniform(0.3, 1.0)
            rho_add = rng.choice([0.0, rng.uniform(0.0, 1.0)])
            d_min = rss_min_distance(vehicle)
            odd = OddDefinition(
                d_object=d_min * rng.uniform(1.2, 3.0),
                d_perception=d_min * rng.uniform(1.05, 3.0),
                mu=1.0,
                odd_tags=frozenset({"x"}),
                vehicle=vehicle,
            )
            effects = EffectModel(mu_factor=mu_factor, rho_add=rho_add)
            scenario = make_scenario(odd, effects, scenario_id="cf")
            kpis = compute_kpis(simulate(scenario, cfg), scenario)
            v = vehicle.v_r
            b_eff = vehicle.a_min_brake * mu_factor
            closed_form = max(
                0.0, d_min - (v * (vehicle.rho + rho_add) + v**2 / (2.0 * b_eff))
            )
            assert kpis.final_gap == pytest.approx(
                closed_form, abs=3.0 * v * cfg.dt + 1e-6
            ), (vehicle, effects)

    def test_safety_margin_nominal(self):
        # Neutral effects + range and object beyond the safe distance:
        # always a stop with positive margin.
        rng = random.Random(13579)
        cfg = SimConfig()
        for _ in range(60):
            vehicle = VehicleParams(
                v_r=rng.uniform(1.0, 30.0),
                rho=rng.uniform(0.3, 2.0),
                a_max_accel=rng.uniform(0.5, 4.0),
                a_min_brake=rng.uniform(2.0, 12.0),
            )
            d_min = rss_min_distance(vehicle)
            odd = OddDefinition(
                d_object=d_min * rng.uniform(1.05, 3.0),
                d_perception=d_min * rng.uniform(1.05, 3.0),
                mu=1.0,
                odd_tags=frozenset({"x"}),
                vehicle=vehicle,
            )
            scenario = make_scenario(odd, scenario_id="safe")
            trace = simulate(scenario, cfg)
            kpis = compute_kpis(trace, scenario)
            assert trace.terminal is Terminal.STOPPED, (vehicle, odd)
            assert kpis.final_gap > 0.0, (vehicle, odd)

    def test_final_gap_monotone_in_friction(self, baseline_vehicle):
        odd = baseline_odd(baseline_vehicle)
        gaps = []
        for i in range(20):
            mu_factor = 0.05 + 0.95 * i / 19
            scenario = make_scenario(
                odd, EffectModel(mu_factor=mu_factor), scenario_id="mu", seed=1
            )
            kpis = compute_kpis(simulate(scenario), scenario)
            gaps.append(kpis.final_gap)
        assert gaps == sorted(gaps)

    def test_perception_starvation_collides(self, baseline_vehicle):
        # Effective range below the effective stopping distance.
        rng = random.Random(24680)
        for _ in range(30):
            vehicle = VehicleParams(
                v_r=rng.uniform(3.0, 25.0),
                rho=rng.uniform(0.2, 2.0),
                a_max_accel=rng.uniform(0.5, 3.0),
                a_min_brake=rng.uniform(2.0, 9.0),
            )
            mu_factor = rng.uniform(0.3, 1.0)
            b_eff = vehicle.a_min_brake * mu_factor
            d_brake_eff = vehicle.v_r * vehicle.rho + vehicle.v_r**2 / (2 * b_eff)
            factor = rng.uniform(0.1, 1.0)
            odd = OddDefinition(
                d_object=d_brake_eff * rng.uniform(1.2, 2.5),
                d_perception=d_brake_eff * rng.uniform(0.3, 0.95) / factor,
                mu=1.0,
                odd_tags=frozenset({"x"}),
                vehicle=vehicle,
            )
            effects = EffectModel(perception_range_factor=factor, mu_factor=mu_factor)
            assert odd.d_perception * factor < d_brake_eff
            scenario = make_scenario(odd, effects, scenario_id="starved")
            trace = simulate(scenario, SimConfig(max_time=120.0))
            assert trace.terminal is Terminal.COLLISION, (vehicle, odd, effects)


class TestSweep:
    def test_deterministic_scenario_zero_variance(self, baseline_vehicle):
        scenario = make_scenario(baseline_odd(baseline_vehicle), scenario_id="nominal")
        (stats,) = monte_carlo_sweep([scenario], runs_per_scenario=10)
        assert stats.runs == 10
        assert stats.gap_min == stats.gap_max == stats.gap_mean
        assert stats.collision_rate == 0.0 and stats.false_activation_rate == 0.0

    def test_each_row_has_its_own_odd_fingerprint(self, baseline_vehicle):
        odd_a = baseline_odd(baseline_vehicle)
        odd_b = baseline_odd(baseline_vehicle, d_object=60.0)
        # The vehicle is left out of the fingerprint, but not out of the ODD.
        odd_a_upgraded = dataclasses.replace(
            odd_a, vehicle=dataclasses.replace(baseline_vehicle, rho=0.1)
        )
        odds = (odd_a, odd_b, odd_a, odd_a_upgraded)
        scenarios = [make_scenario(odd, scenario_id=f"s{i}") for i, odd in enumerate(odds)]
        stats = monte_carlo_sweep(scenarios, runs_per_scenario=1)
        assert [s.odd_fingerprint for s in stats] == [odd.fingerprint() for odd in odds]
        assert odd_a.fingerprint() != odd_b.fingerprint()
        assert odd_a.fingerprint() == odd_a_upgraded.fingerprint()

    def test_empty_scenario_list(self):
        assert monte_carlo_sweep([], runs_per_scenario=5) == []

    def test_runs_validation(self, baseline_vehicle):
        scenario = make_scenario(baseline_odd(baseline_vehicle), scenario_id="n")
        with pytest.raises(ParameterError):
            monte_carlo_sweep([scenario], runs_per_scenario=0)

    def test_error_names_scenario(self, baseline_vehicle, monkeypatch):
        def boom(*args, **kwargs):
            raise SimulationError("integration blew up")

        monkeypatch.setattr(sim_module, "simulate", boom)
        scenario = make_scenario(baseline_odd(baseline_vehicle), scenario_id="doomed")
        with pytest.raises(SimulationError, match="doomed"):
            sim_module.monte_carlo_sweep([scenario], runs_per_scenario=2)

    def test_error_names_first_failing_scenario_in_run_order(self, baseline_vehicle, monkeypatch):
        # The scenarios that share a seed run back to back, so "c" runs
        # before "b"; the results stay in input order.
        simulate_ = sim_module.simulate
        failing = set()

        def simulating(scenario, *args):
            if scenario.id in failing:
                raise SimulationError("integration blew up")
            return simulate_(scenario, *args)

        monkeypatch.setattr(sim_module, "simulate", simulating)
        odd = baseline_odd(baseline_vehicle)
        scenarios = [
            make_scenario(odd, EffectModel(ghost_rate=0.1), scenario_id=scenario_id, seed=seed)
            for scenario_id, seed in (("a", 1), ("b", 2), ("c", 1))
        ]
        stats = monte_carlo_sweep(scenarios, runs_per_scenario=2)
        assert [s.scenario_id for s in stats] == ["a", "b", "c"]
        failing.update(("b", "c"))
        with pytest.raises(SimulationError, match="scenario 'c'"):
            monte_carlo_sweep(scenarios, runs_per_scenario=2)

    def test_means_add_floats_left_to_right(self, baseline_vehicle):
        # sum() compensates since Python 3.12 (401.89421930760005 here); the
        # bundle keeps the left-to-right value on every version.
        scenario = make_scenario(baseline_odd(baseline_vehicle), scenario_id="n")
        report = KpiReport(
            ttc_at_trigger=NO_CLOSING, final_gap=4.0189421930760005, collision=True,
            impact_speed=4.0189421930760005, false_activation=False,
        )
        stats = sim_module._aggregate(scenario, [report] * 100, "odd")
        assert stats.gap_mean == stats.impact_speed_mean == 4.018942193075991

    def test_ghost_false_activation_frequency_small(self, baseline_vehicle):
        # Binomial sanity at reduced scale; the full 10k-run check lives in
        # the acceptance suite.
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(ghost_rate=0.02), scenario_id="g", seed=11
        )
        cfg = SimConfig()
        nominal_like = make_scenario(baseline_odd(baseline_vehicle), scenario_id="n")
        trace = simulate(nominal_like, cfg)
        (trigger,) = events_of(trace, EventKind.BRAKE_TRIGGERED)
        trigger_step = round(trigger.time / cfg.dt)
        n_ticks_before = (trigger_step - 1) // cfg.tick_steps + 1
        expected = 1.0 - (1.0 - 0.02) ** n_ticks_before
        (stats,) = monte_carlo_sweep([scenario], cfg, runs_per_scenario=1500)
        sigma = math.sqrt(expected * (1 - expected) / 1500)
        assert abs(stats.false_activation_rate - expected) <= 4 * sigma


class TestKpiContract:
    def test_trace_without_terminal_rejected(self, baseline_vehicle):
        scenario = make_scenario(baseline_odd(baseline_vehicle), scenario_id="s")
        trace = simulate(scenario)
        broken = types.SimpleNamespace(
            scenario_id=trace.scenario_id,
            events=tuple(e for e in trace.events if e.kind is not EventKind.STOPPED),
            states=trace.states,
            terminal=trace.terminal,
        )
        with pytest.raises(ContractViolationError, match="terminal"):
            trace_kpis(broken, scenario)

    def test_collision_implies_positive_impact(self, baseline_vehicle):
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(mu_factor=0.4), scenario_id="c"
        )
        kpis = compute_kpis(simulate(scenario), scenario)
        assert kpis.collision
        assert kpis.final_gap == 0.0
        assert kpis.impact_speed > 0.0


# (v_r, d_object, perception_range_factor, ghost_rate, seed) of a scenario.
_TRACE_SPECS = st.tuples(
    st.sampled_from([-0.0, 0.0, 8.0, 50.0 / 3.6]),
    st.sampled_from([15.0, 60.0, 150.0]),
    st.sampled_from([1.0, 0.6, 0.3]),
    st.sampled_from([0.0, 0.0, 0.02, 0.5]),
    st.integers(0, 2),
)
# Two ghost-free scenarios alike but for their ids, one that sees the object
# later but brakes alike, a ghost scenario, and standstills at v_r 0.0 and
# -0.0, with and without ghosts.
_FIXED_TRACE_SPECS = [
    (8.0, 60.0, 1.0, 0.0, 0),
    (8.0, 60.0, 1.0, 0.0, 0),
    (8.0, 60.0, 0.6, 0.0, 0),
    (8.0, 60.0, 1.0, 0.2, 1),
    (0.0, 60.0, 1.0, 0.0, 0),
    (-0.0, 60.0, 1.0, 0.0, 0),
    (0.0, 60.0, 1.0, 0.2, 0),
    (-0.0, 60.0, 1.0, 0.2, 0),
]


def reference_trace_lines(traces) -> str:
    """The trace file as ``json.dumps`` of each line, built from the
    ``events`` and ``states`` objects."""
    return "".join(
        json.dumps({
            "scenario_id": trace.scenario_id,
            "terminal": trace.terminal.value,
            "events": [
                {"time": e.time, "stage": e.stage.value, "kind": e.kind.value, "gap": e.gap}
                for e in trace.events
            ],
            "states": [
                {"time": s.time, "position": s.position, "velocity": s.velocity}
                for s in trace.states
            ],
        }) + "\n"
        for trace in traces
    )


class TestExports:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lines_are_json_dumps_of_each_trace(
        self, baseline_vehicle, tmp_path_factory, data
    ):
        # The export writes each distinct body and row once; every line must
        # still be the text json.dumps gives the trace, also where a memo
        # key would merge 0.0 with -0.0.
        specs = data.draw(
            st.permutations(_FIXED_TRACE_SPECS + data.draw(st.lists(_TRACE_SPECS, max_size=12)))
        )
        cfg = SimConfig()
        traces = []
        for i, (v_r, d_object, range_factor, ghost_rate, seed) in enumerate(specs):
            vehicle = dataclasses.replace(baseline_vehicle, v_r=v_r)
            effects = EffectModel(perception_range_factor=range_factor, ghost_rate=ghost_rate)
            scenario = make_scenario(
                baseline_odd(vehicle, d_object=d_object), effects, scenario_id=f"s{i}", seed=seed
            )
            traces.append(simulate(scenario, cfg, 0))
        path = tmp_path_factory.mktemp("traces") / "traces.jsonl"
        export_trace_jsonl(traces, path)
        assert path.read_text(encoding="utf-8") == reference_trace_lines(traces)

    def test_trace_jsonl_shape(self, baseline_vehicle, tmp_path):
        scenario = make_scenario(baseline_odd(baseline_vehicle), scenario_id="nominal")
        trace = simulate(scenario)
        path = tmp_path / "traces.jsonl"
        export_trace_jsonl([trace], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        line = json.loads(lines[0])
        assert list(line) == ["scenario_id", "terminal", "events", "states"]
        assert line["scenario_id"] == "nominal"
        assert line["terminal"] == "stopped"
        assert len(line["events"]) == len(trace.events)
        for event in line["events"]:
            assert list(event) == ["time", "stage", "kind", "gap"]
        assert len(line["states"]) == len(trace.states)
        for state in line["states"]:
            assert list(state) == ["time", "position", "velocity"]

    def test_kpi_csv_header_and_rows(self, baseline_vehicle, tmp_path):
        scenarios = [
            make_scenario(baseline_odd(baseline_vehicle), scenario_id="nominal"),
            make_scenario(
                baseline_odd(baseline_vehicle), EffectModel(mu_factor=0.5), scenario_id="low-mu"
            ),
        ]
        stats = monte_carlo_sweep(scenarios, runs_per_scenario=3)
        path = tmp_path / "kpis.csv"
        write_kpi_csv(stats, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "scenario_id,runs,collision_rate,false_activation_rate,"
            "gap_mean,gap_min,gap_max,impact_speed_max"
        )
        assert len(lines) == 3
        assert lines[1].startswith("nominal,3,0.0,0.0,")
        assert lines[2].startswith("low-mu,3,1.0,")
