from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sotifkit import (
    EffectModel,
    Scenario,
    TriggeringCondition,
    VehicleParams,
    derive_seed,
    load_effect_mapping,
    load_odd,
    load_taxonomy,
)
from sotifkit.fixtures import fixture_path
import sotifkit.simulator as sim_module


@pytest.fixture(scope="session")
def baseline_vehicle() -> VehicleParams:
    """The documented parameter set: 50 km/h, 1 s, 2.0 m/s^2, 5.0 m/s^2."""
    return VehicleParams(v_r=50.0 / 3.6, rho=1.0, a_max_accel=2.0, a_min_brake=5.0)


@pytest.fixture(scope="session")
def fixture_odd():
    return load_odd(fixture_path("odd.json"))


@pytest.fixture(scope="session")
def fixture_taxonomy():
    return load_taxonomy(fixture_path("taxonomy.json"))


@pytest.fixture(scope="session")
def fixture_mapping():
    return load_effect_mapping(fixture_path("effects.json"))


def make_condition(leaf_id: str = "synthetic-condition") -> TriggeringCondition:
    return TriggeringCondition(
        leaf_id=leaf_id,
        category_path=("synthetic",),
        intensity=None,
        odd_tags=frozenset({"synthetic"}),
    )


def make_scenario(
    odd,
    effects: EffectModel | None = None,
    scenario_id: str = "case",
    seed: int | None = None,
) -> Scenario:
    """Scenario helper: non-neutral effects get a synthetic condition."""
    effects = effects if effects is not None else EffectModel()
    condition = None if effects.is_neutral else make_condition(f"{scenario_id}-cond")
    return Scenario(
        id=scenario_id,
        odd=odd,
        condition=condition,
        effects=effects,
        seed=seed if seed is not None else derive_seed(0, scenario_id),
    )


def count_trace_views(monkeypatch) -> list[str]:
    """The scenario id of every trace view built from here on, in order."""
    built = []
    view = sim_module._trace_view

    def counting(scenario, *args):
        built.append(scenario.id)
        return view(scenario, *args)

    monkeypatch.setattr(sim_module, "_trace_view", counting)
    return built


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with this checkout's ``src/``
    on the import path, stdout and stderr captured as text.  Nothing that
    this test session has imported is loaded there."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=False
    )
