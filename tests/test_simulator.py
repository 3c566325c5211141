from __future__ import annotations

import dataclasses
import json
import math
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
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
from sotifkit.core import NO_CLOSING, KinematicState
from sotifkit.errors import ContractViolationError, ParameterError, SimulationError
from sotifkit.scenario import derive_seed, generate_scenarios
import sotifkit.simulator as sim_module
from sotifkit.report import write_kpi_csv
from sotifkit.taxonomy import enumerate_leaves, filter_by_odd
from sotifkit.simulator import (
    EventKind,
    KpiReport,
    SimEvent,
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
    """The fields of every KpiReport that compute_kpis builds from here on."""
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


class _GhostAt:
    """Stand-in ghost stream with one ghost, at ``step``."""

    def __init__(self, step: int, gap: float):
        self.step, self.gap = step, gap

    def first_before(self, step: int) -> int | None:
        return self.step if self.step < step else None

    def events_before(self, step: int) -> list[tuple[int, float]]:
        return [(self.step, self.gap)] if self.step < step else []


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
        for ghost_step, expected in ((step, False), (step - cfg.tick_steps, True)):
            monkeypatch.setattr(
                sim_module, "_GhostStream", lambda *args: _GhostAt(ghost_step, 1.0)
            )
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
                        m.setattr(sim_module, "_GhostStream", FullDrawGhosts)
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
        # The ghost limit is the horizon, 12,000 ticks; the first chunk of
        # flags holds the first ghost, so the resolution draws no further.
        odd, cfg = _ghost_grid_cases(baseline_vehicle)["horizon-600s"]
        scenario = make_scenario(odd, EffectModel(ghost_rate=0.5), scenario_id="long", seed=1234)
        assert sim_module._Plan(scenario, cfg).ghost_limit == cfg.max_steps == 12_000 * cfg.tick_steps
        trace = simulate(scenario, cfg, 0)
        assert trace._ghosts._drawn == sim_module._GHOST_CHUNK == 4096
        with monkeypatch.context() as m:
            m.setattr(sim_module, "_GhostStream", FullDrawGhosts)
            expected = simulate(scenario, cfg, 0)
        assert trace == expected

    @pytest.mark.parametrize(
        "d_object, ghost_rate, terminal",
        [(100.0, 0.05, Terminal.STOPPED), (1e7, 1e-12, Terminal.TIMEOUT)],
        ids=["stops", "times-out"],
    )
    def test_memory_bounded_on_long_horizon(
        self, d_object, ghost_rate, terminal, baseline_vehicle
    ):
        # 2e6 ticks: drawing both streams in full would take 32 MB.
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
            assert trace.events  # the view draws the ghost gaps
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.terminal is terminal
        assert peak < 1_000_000


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
    """A sweep draws each (seed, run) flag stream once: a later scenario with
    that seed reads its first ghost from the record of the first stream to
    draw, unless its rate is above the record's or the record's draws end
    before its first ghost can be settled.  Each run reads its stream up to
    its cruise collision, so a later natural trigger reads the record; a
    lower speed, whose cruise collision comes later, may draw beyond it."""

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
        assert 0 < built["cond+third-rate"] < built["cond"]  # reads and draws
        assert built["cond+triple-rate"] > 0  # above the record's rate
        assert built["cond+slower"] > 0  # beyond the record's draws

    def test_recorded_first_ghost_traces_match_full_draws(self, baseline_vehicle, monkeypatch):
        ghost_events = 0
        for name, (odd, cfg) in _ghost_grid_cases(baseline_vehicle).items():
            for rate in (0.05, 0.5):
                condition, same_rate, lower_rate = _seed_group(odd, rate)[:3]
                for scenario in (same_rate, lower_rate):
                    for run_index in range(3):
                        context = f"{name} {scenario.id} ghost_rate={rate} run {run_index}"
                        with sim_module._sharing():
                            simulate(condition, cfg, run_index)
                            trace = simulate(scenario, cfg, run_index)
                        assert trace._ghosts._rng is None, context  # read from the record
                        with monkeypatch.context() as m:
                            m.setattr(sim_module, "_GhostStream", FullDrawGhosts)
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
        # shares the outer block's plan, records and run-0 traces.
        odd, cfg = _ghost_grid_cases(baseline_vehicle)["stop"]
        condition, same_rate, lower_rate = _seed_group(odd, 0.05)[:3]
        ghost_free = dataclasses.replace(condition, id="ghost-free", effects=EffectModel())
        scenarios = [condition, ghost_free, lower_rate, same_rate]
        runs = (3, 0, 5, 1, 0)
        calls = [(scenario, i) for i in runs for scenario in scenarios]
        outside = [simulate(scenario, cfg, i) for scenario, i in calls]
        assert len({id(trace) for trace in outside}) == len(calls)
        assert all(trace._ghosts._read is None for trace in outside if trace._ghosts)

        within = {}
        with sim_module._sharing():
            shared = sim_module._shared
            for scenario in scenarios:
                with sim_module._sharing():
                    assert sim_module._shared is shared
                    for i in sorted(set(runs)):
                        within[scenario.id, i] = simulate(scenario, cfg, i)
            assert shared.plan.scenario is same_rate and shared.seed == condition.seed
            assert set(shared.run0) == {id(scenario) for scenario in scenarios}
        for scenario in (same_rate, lower_rate):  # read from the condition's records
            assert all(within[scenario.id, i]._ghosts._read is not None for i in runs)
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
            batch = sim_module._shared.batch
            for seed, run in ((99, 0), (99, 2), (99, 3), (99, -1), (100, 0)):
                built = sim_module._generator(seed, run).bit_generator.state
                assert built == np.random.default_rng(derive_seed(seed, run)).bit_generator.state
            assert sim_module._shared.batch is batch
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
        assert built == {"s0": 4, "s2": 4}  # s1 reads s0's records

    def test_ghost_free_sweep_builds_no_batch(self, baseline_vehicle, monkeypatch):
        odd = baseline_odd(baseline_vehicle)
        scenarios = [make_scenario(odd, scenario_id=f"s{i}", seed=i) for i in range(3)]
        passes = count_seed_batches(monkeypatch)
        with sim_module._sharing():
            monte_carlo_sweep(scenarios, SimConfig(), 5)
            assert sim_module._shared.batch is None
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


class TestBrakingCollisionSearch:
    """The braking-collision step is searched within ``[1, m_stop - 1]``,
    galloping from the closed-form guess and bisecting, and bisecting the
    whole interval when the guess is not finite."""

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
    """A trace builds its events and states, and draws its ghost gaps, only
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
        # other values), so the export and the events and states read the
        # rows of one view, in either order.  The export builds no objects.
        cfg = SimConfig()
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(ghost_rate=0.05), scenario_id="g", seed=3
        )
        expected = simulate(scenario, cfg, 0)
        objects = (expected.events, expected.states)
        assert len(events_of(expected, EventKind.GHOST_DETECTED)) >= 2
        export_trace_jsonl([simulate(scenario, cfg, 0)], tmp_path / "expected.jsonl")
        line = (tmp_path / "expected.jsonl").read_bytes()

        built = []
        for cls in (SimEvent, KinematicState):

            def counting(self, *args, original=cls.__init__, **kwargs):
                built.append(type(self))
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)

        exported_first = simulate(scenario, cfg, 0)
        export_trace_jsonl([exported_first], tmp_path / "exported-first.jsonl")
        assert built == []
        assert (tmp_path / "exported-first.jsonl").read_bytes() == line
        assert (exported_first.events, exported_first.states) == objects
        assert set(built) == {SimEvent, KinematicState}

        read_first = simulate(scenario, cfg, 0)
        assert (read_first.events, read_first.states) == objects
        export_trace_jsonl([read_first], tmp_path / "read-first.jsonl")
        assert (tmp_path / "read-first.jsonl").read_bytes() == line

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
            # whose resolution keeps its report; a ghost run derives one per
            # trigger step.
            monte_carlo_sweep([ghost_free, ghosts], cfg, runs_per_scenario=50)
        keys = {trigger_key(simulate(ghosts, cfg, i), ghosts) for i in range(50)}
        assert len(derived) == 1 + len(keys)

    def test_runs_with_one_trigger_step_share_resolution_and_report(
        self, baseline_vehicle, monkeypatch
    ):
        derived = count_kpi_reports(monkeypatch)
        cfg = SimConfig()
        scenario = make_scenario(
            baseline_odd(baseline_vehicle), EffectModel(ghost_rate=0.02), scenario_id="g", seed=5
        )
        with sim_module._sharing():  # the sweep joins it
            monte_carlo_sweep([scenario], cfg, runs_per_scenario=200)
            swept = len(derived)
            resolutions, reports = {}, {}
            for i in range(200):
                trace = simulate(scenario, cfg, i)
                report = compute_kpis(trace, scenario)
                key = trigger_key(trace, scenario)
                assert trace._res is resolutions.setdefault(key[0], trace._res)
                assert report is reports.setdefault(key, report)
        assert swept == len(derived) == len(reports) < 200

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
