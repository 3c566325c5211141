"""Independent per-dt reference stepper used to validate the fast engine.

This is a literal loop over integration steps implementing the documented
discrete semantics, with no closed-form shortcuts.  It recomputes the
ghost randomness from the public seed scheme rather than reusing engine
internals.  ``ghost_draws`` draws a run's whole ghost stream at once, the
definition the engine's lazy draws must reproduce.  ``trace_kpis`` derives
a run's KPIs by scanning its trace's events and states, the definition the
engine's ``compute_kpis`` must reproduce from the resolution alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sotifkit.core import effective_brake_decel, rss_min_distance
from sotifkit.errors import ContractViolationError
from sotifkit.scenario import Scenario, derive_seed
from sotifkit.simulator import EventKind, KpiReport, SimConfig, SimState, Terminal


def ghost_draws(
    scenario: Scenario, cfg: SimConfig, run_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A run's ghost stream drawn in full: flagged tick steps and their gaps.
    A tick whose uniform u is below the ghost rate p is flagged, with gap
    u / p times the trigger threshold."""
    n_ticks = (cfg.max_steps - 1) // cfg.tick_steps + 1 if cfg.max_steps > 0 else 0
    u_flag = np.random.default_rng(derive_seed(scenario.seed, run_index)).random(n_ticks)
    rate = scenario.effects.ghost_rate
    ticks = np.flatnonzero(u_flag < rate)
    return ticks * cfg.tick_steps, u_flag[ticks] / rate * rss_min_distance(scenario.odd.vehicle)


class FullDrawGhosts:
    """Stand-in for the engine's flag stream of one (seed, run) and for its
    trace view's ghosts, each read from a full draw: ``flagged`` (as
    (tick, u)) and ``first`` from the run's first ``need`` flag values,
    ``events`` from ``ghost_draws``."""

    def __init__(self, seed: int, run_index: int):
        self.seed, self.run = seed, run_index

    def flagged(self, rate: float, need: int) -> list[tuple[int, float]]:
        u_flag = np.random.default_rng(derive_seed(self.seed, self.run)).random(need)
        ticks = np.flatnonzero(u_flag < rate)
        return list(zip(ticks.tolist(), u_flag[ticks].tolist()))

    def first(self, rate: float, need: int) -> int | None:
        flags = self.flagged(rate, need)
        return flags[0][0] if flags else None

    @staticmethod
    def events(
        scenario: Scenario, cfg: SimConfig, stream: FullDrawGhosts, terminal_step: int
    ) -> list[tuple[int, float]]:
        steps, gaps = ghost_draws(scenario, cfg, stream.run)
        return [(int(s), float(g)) for s, g in zip(steps, gaps) if s < terminal_step]


@dataclass
class ReferenceOutcome:
    terminal: str  # "stopped" | "collision" | "timeout"
    terminal_step: int
    final_gap: float
    final_velocity: float
    trigger_step: int | None
    trigger_gap: float | None
    effective_step: int | None
    ghost_triggered: bool


def reference_run(scenario: Scenario, cfg: SimConfig, run_index: int = 0) -> ReferenceOutcome:
    odd = scenario.odd
    veh = odd.vehicle
    eff = scenario.effects
    dt = cfg.dt
    tick_steps = cfg.tick_steps
    max_steps = cfg.max_steps

    d_trigger = rss_min_distance(veh)
    # A friction product that underflows to 0 brakes as a brake of 0.
    mu = odd.mu * eff.mu_factor
    b_eff = effective_brake_decel(veh, mu) if mu > 0.0 else 0.0
    range_eff = odd.d_perception * eff.perception_range_factor
    # A delay at or past the horizon never applies the brake, also one whose
    # quotient overflows.
    delay_steps = max(0, math.ceil(min((veh.rho + eff.rho_add) / dt, max_steps + 1) - 1e-9))

    n_ticks = (max_steps - 1) // tick_steps + 1 if max_steps > 0 else 0
    u_flag = np.random.default_rng(derive_seed(scenario.seed, run_index)).random(n_ticks)

    x, v = 0.0, veh.v_r
    visible = False
    trigger_step: int | None = None
    trigger_gap: float | None = None
    effective_step: int | None = None
    ghost_triggered = False

    n = 0
    while True:
        gap = odd.d_object - x
        if gap <= 0.0:
            return ReferenceOutcome(
                "collision", n, gap, v, trigger_step, trigger_gap, effective_step, ghost_triggered
            )
        if v == 0.0:
            return ReferenceOutcome(
                "stopped", n, gap, v, trigger_step, trigger_gap, effective_step, ghost_triggered
            )
        if n >= max_steps:
            return ReferenceOutcome(
                "timeout", n, gap, v, trigger_step, trigger_gap, effective_step, ghost_triggered
            )

        ghost_gap: float | None = None
        if n % tick_steps == 0:
            tick = n // tick_steps
            if gap <= range_eff:
                visible = True
            if u_flag[tick] < eff.ghost_rate:
                ghost_gap = u_flag[tick] / eff.ghost_rate * d_trigger

        if trigger_step is None:
            perceived = []
            if visible:
                perceived.append(gap)
            if ghost_gap is not None:
                perceived.append(ghost_gap)
            if perceived and min(perceived) <= d_trigger:
                trigger_step = n
                trigger_gap = gap
                ghost_triggered = not (visible and gap <= d_trigger)

        braking = trigger_step is not None and n >= trigger_step + delay_steps
        if braking and effective_step is None:
            effective_step = n
        a = -b_eff if braking else 0.0
        v = max(0.0, v + a * dt)
        x = x + v * dt
        n += 1


_TERMINAL_KINDS = {EventKind.STOPPED, EventKind.COLLISION, EventKind.TIMEOUT}


def _state_at(trace, time: float) -> SimState:
    for state in trace.states:
        if state.time == time:
            return state
    raise ContractViolationError(f"no state sampled at t={time}")


def trace_kpis(trace, scenario: Scenario) -> KpiReport:
    """A run's KPI report, read off its trace: ``trace`` is anything with a
    ``scenario_id``, ``terminal``, ``events`` and ``states``."""
    terminal_events = [e for e in trace.events if e.kind in _TERMINAL_KINDS]
    if len(terminal_events) != 1:
        raise ContractViolationError(
            f"trace '{trace.scenario_id}' has {len(terminal_events)} terminal events, expected 1"
        )
    terminal_event = terminal_events[0]
    terminal_state = _state_at(trace, terminal_event.time)

    collision = trace.terminal is Terminal.COLLISION
    final_gap = max(0.0, terminal_event.gap)
    impact_speed = terminal_state.velocity if collision else 0.0

    trigger = next((e for e in trace.events if e.kind is EventKind.BRAKE_TRIGGERED), None)

    if trigger is None:
        ttc_at_trigger = math.inf
        false_activation = False
    else:
        trigger_state = _state_at(trace, trigger.time)
        v = trigger_state.velocity
        ttc_at_trigger = max(0.0, trigger.gap) / v if v > 0.0 else math.inf
        ghost_times = {e.time for e in trace.events if e.kind is EventKind.GHOST_DETECTED}
        false_activation = (
            trigger.time in ghost_times and trigger.gap > rss_min_distance(scenario.odd.vehicle)
        )

    return KpiReport(
        ttc_at_trigger=ttc_at_trigger,
        final_gap=final_gap,
        collision=collision,
        impact_speed=impact_speed,
        false_activation=false_activation,
    )
