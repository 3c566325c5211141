"""Independent per-dt stepper that recomputes a scenario's KPI row.

It follows the documented discrete semantics (the same ones as the test
suite's reference stepper) with a literal loop over integration steps and
no closed-form shortcuts.  Only the public seed scheme and the two
documented vehicle formulas are taken from sotifkit.
"""

from __future__ import annotations

import math

import numpy as np


def step_run(scenario, cfg, run_index: int) -> dict:
    """One run, stepped at ``cfg.dt``; returns the run's KPIs."""
    from sotifkit.core import effective_brake_decel, rss_min_distance
    from sotifkit.scenario import derive_seed

    odd = scenario.odd
    veh = odd.vehicle
    eff = scenario.effects
    dt = cfg.dt
    tick_steps = cfg.tick_steps
    max_steps = cfg.max_steps

    d_object = odd.d_object
    d_trigger = rss_min_distance(veh)
    b_eff = effective_brake_decel(veh, odd.mu * eff.mu_factor)
    range_eff = odd.d_perception * eff.perception_range_factor
    delay_steps = max(0, math.ceil((veh.rho + eff.rho_add) / dt - 1e-9))

    n_ticks = (max_steps - 1) // tick_steps + 1 if max_steps > 0 else 0
    rng = np.random.default_rng(derive_seed(scenario.seed, run_index))
    flags = (rng.random(n_ticks) < eff.ghost_rate).tolist()
    gap_u = rng.random(n_ticks).tolist()

    x, v = 0.0, veh.v_r
    visible = False
    trigger_step = None
    brake_step = None
    trigger_gap = trigger_v = 0.0
    false_activation = False
    n = 0
    while True:
        gap = d_object - x
        if gap <= 0.0:
            terminal = "collision"
            break
        if v == 0.0:
            terminal = "stopped"
            break
        if n >= max_steps:
            terminal = "timeout"
            break
        if trigger_step is None:
            ghost_gap = None
            if n % tick_steps == 0:
                tick = n // tick_steps
                if gap <= range_eff:
                    visible = True
                if flags[tick]:
                    ghost_gap = gap_u[tick] * d_trigger
            closest = gap if visible else math.inf
            if ghost_gap is not None:
                closest = min(closest, ghost_gap)
            if closest <= d_trigger:
                trigger_step = n
                brake_step = n + delay_steps
                trigger_gap, trigger_v = gap, v
                false_activation = ghost_gap is not None and gap > d_trigger
        a = -b_eff if brake_step is not None and n >= brake_step else 0.0
        v = max(0.0, v + a * dt)
        x = x + v * dt
        n += 1

    collision = terminal == "collision"
    if trigger_step is None or trigger_v <= 0.0:
        ttc = math.inf
    else:
        ttc = max(0.0, trigger_gap) / trigger_v
    return {
        "terminal": terminal,
        "final_gap": max(0.0, gap),
        "collision": collision,
        "impact_speed": v if collision else 0.0,
        "false_activation": false_activation,
        "ttc_at_trigger": ttc,
    }


def kpi_row(scenario, cfg, runs: int) -> dict:
    """The scenario's aggregated KPI row over runs 0..runs-1."""
    kpis = [step_run(scenario, cfg, i) for i in range(runs)]
    gaps = [k["final_gap"] for k in kpis]
    speeds = [k["impact_speed"] for k in kpis]
    return {
        "scenario_id": scenario.id,
        "runs": runs,
        "collision_rate": sum(k["collision"] for k in kpis) / runs,
        "false_activation_rate": sum(k["false_activation"] for k in kpis) / runs,
        "gap_mean": sum(gaps) / runs,
        "gap_min": min(gaps),
        "gap_max": max(gaps),
        "impact_speed_mean": sum(speeds) / runs,
        "impact_speed_min": min(speeds),
        "impact_speed_max": max(speeds),
        "ttc_at_trigger_min": min(k["ttc_at_trigger"] for k in kpis),
    }
