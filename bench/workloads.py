"""Seeded campaign inputs for the benchmark workloads.

Each workload writes the six JSON inputs that ``sotifkit run`` takes
(ODD, taxonomy, effects, occurrence, criteria, mitigations) into a
directory.  The program only ever sees these files and reads them through
its own loaders.  The same seed gives byte-identical files.

The shape of every generated workload (number of leaves, which effect
fields are non-neutral, which mitigations apply) is fixed; the seed only
draws the magnitudes inside ranges that keep that shape.  So the amount
of work per campaign barely moves between seeds and run-to-run spread
measures the program, not the inputs.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

INPUT_NAMES = ("odd", "taxonomy", "effects", "occurrence", "criteria", "mitigations")

CRITERIA = {
    "max_final_gap_degradation": 0.5,
    "max_collision_rate": 0.0,
    "max_false_activation_rate": 0.05,
    "min_ttc_at_trigger": 1.5,
}


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    runs_per_scenario: int
    dt: float
    max_time: float
    # Scenarios per campaign recomputed by the independent stepper.
    stepper_sample: int
    write: Callable[[int, Path, Path], None]


def _dump(path: Path, data: object) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.6g}")


def _uniform(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _stratified_log_uniform(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n log-uniform draws in [lo, hi], one from each of n equal strata, shuffled.

    Each value is log-uniform on its own, but the set of values (and so
    the campaign's total work) hardly moves between seeds.
    """
    span = math.log(hi) - math.log(lo)
    values = [
        float(f"{math.exp(math.log(lo) + span * (i + rng.random()) / n):.6g}")
        for i in range(n)
    ]
    rng.shuffle(values)
    return values


def _write_fixture_mc(seed: int, out: Path, src: Path) -> None:
    del seed  # the fixtures are fixed; the seed is the campaign's base seed
    fixtures = src / "sotifkit" / "fixtures"
    for name in INPUT_NAMES:
        shutil.copyfile(fixtures / f"{name}.json", out / f"{name}.json")


def _leaf(leaf_id: str, name: str, intensity: str | None) -> dict:
    node = {"id": leaf_id, "name": name, "odd_tags": []}
    if intensity is not None:
        node["intensity"] = intensity
    return node


GHOST_CATEGORIES = (
    "rain", "snow", "fog", "dust", "spray", "hail",
    "sleet", "glare", "smoke", "sand",
)
INTENSITIES = ("light", "medium", "heavy")


def _write_ghost_long(seed: int, out: Path, src: Path) -> None:
    """Every condition adds ghost detections; the road ahead is long.

    Ghost rates are log-uniform in [1e-4, 5e-2] per frame, so almost every
    run triggers on its own first ghost and no two runs of a scenario are
    alike.  The horizon (600 s) is far beyond any stop.
    """
    del src
    rng = random.Random(f"ghost-long:{seed}")
    a_min_brake = _uniform(rng, 5.0, 6.0)
    vehicle = {
        "v_r": _uniform(rng, 14.0, 16.0),
        "rho": _uniform(rng, 0.8, 1.0),
        "a_max_accel": _uniform(rng, 1.5, 2.0),
        "a_min_brake": a_min_brake,
    }
    # The object is ~2 km ahead and seen from 200 m: a run without a ghost
    # cruises ~133 s (2,700 frames) and then stops; it never collides.  The
    # cruise time, not the distance, is held in a narrow band because it
    # sets the cost of every run that no ghost cuts short.
    cruise_s = _uniform(rng, 132.0, 134.0)
    odd = {
        "d_object": round(vehicle["v_r"] * cruise_s, 1),
        "d_perception": _uniform(rng, 200.0, 250.0, 1),
        "mu": _uniform(rng, 0.9, 1.0),
        "odd_tags": ["weather"],
        "vehicle": vehicle,
    }
    n_leaves = len(GHOST_CATEGORIES) * len(INTENSITIES)
    ghost_rates = iter(_stratified_log_uniform(rng, n_leaves, 1e-4, 5e-2))
    categories = []
    effects = {}
    occurrence = []
    for category in GHOST_CATEGORIES:
        children = []
        for intensity in INTENSITIES:
            leaf_id = f"{category}-{intensity}"
            children.append(_leaf(leaf_id, f"{intensity} {category}", intensity))
            effects[leaf_id] = {
                "ghost_rate": next(ghost_rates),
                "perception_range_factor": _uniform(rng, 0.6, 1.0),
            }
            occurrence.append(
                {
                    "leaf_id": leaf_id,
                    "exposure_rate": _log_uniform(rng, 1e-4, 1e-1),
                    "source": "generated",
                }
            )
        categories.append(
            {"id": category, "name": category.title(), "odd_tags": [], "children": children}
        )
    taxonomy = {
        "version": 1,
        "roots": [
            {"id": "weather", "name": "Weather", "odd_tags": ["weather"], "children": categories}
        ],
    }
    mitigations = [
        {
            "id": "stronger-brakes",
            "description": "Higher-capacity brake actuator",
            "vehicle_overrides": {"a_min_brake": round(a_min_brake + 1.5, 3)},
        }
    ]
    _dump(out / "odd.json", odd)
    _dump(out / "taxonomy.json", taxonomy)
    _dump(out / "effects.json", {"by_leaf": effects, "by_category": {}, "defaults": None})
    _dump(out / "occurrence.json", occurrence)
    _dump(out / "criteria.json", CRITERIA)
    _dump(out / "mitigations.json", mitigations)


WIDE_ROOTS = 12
WIDE_OUT_OF_ODD_ROOTS = 2  # tagged for another ODD, so the filter drops them
WIDE_SUBCATEGORIES = 4
WIDE_LEAVES = 4  # per subcategory: light, medium, heavy and one without a level


def _wide_effect(rng: random.Random, root: int, leaf: int) -> dict:
    # Which fields a leaf degrades depends on its position only, so the set
    # of applicable mitigations (and the scenario count) is the same for
    # every seed.  Only magnitudes come from the seed.
    effect = {"perception_range_factor": _uniform(rng, 0.3, 0.9)}
    if leaf % 2 == 1:
        effect["ghost_rate"] = _log_uniform(rng, 1e-3, 2e-2)
    if root % 3 == 0:
        effect["mu_factor"] = _uniform(rng, 0.3, 0.8)
    if leaf == 3:
        effect["rho_add"] = _uniform(rng, 0.05, 0.4)
    return effect


def _write_wide_taxonomy(seed: int, out: Path, src: Path) -> None:
    """A wide taxonomy: many categories, hundreds of leaves, four mitigations.

    Effects are mapped through both lookup paths: even-numbered leaves
    inherit their subcategory's entry, odd-numbered leaves have their own.
    """
    del src
    rng = random.Random(f"wide-taxonomy:{seed}")
    # The vehicle and the ODD are shared by every scenario and set the
    # length of every run, so they are drawn in narrow bands: wide bands
    # made the states per trace, and so the campaign's work, move by 35%
    # between seeds.  The per-leaf effects give the scenarios their variety.
    vehicle = {
        "v_r": _uniform(rng, 13.0, 14.0),
        "rho": _uniform(rng, 0.78, 0.82),
        "a_max_accel": _uniform(rng, 1.9, 2.1),
        "a_min_brake": _uniform(rng, 5.1, 5.4),
    }
    odd = {
        "d_object": round(vehicle["v_r"] * _uniform(rng, 8.0, 8.3), 1),
        "d_perception": _uniform(rng, 136.0, 144.0, 1),
        "mu": _uniform(rng, 0.9, 0.95),
        "odd_tags": ["weather", "road-surface", "static-object", "sensor"],
        "vehicle": vehicle,
    }
    tags = ("weather", "road-surface", "static-object", "sensor")
    roots = []
    by_leaf = {}
    by_category = {}
    occurrence = []
    for r in range(WIDE_ROOTS):
        in_odd = r < WIDE_ROOTS - WIDE_OUT_OF_ODD_ROOTS
        subcategories = []
        for s in range(WIDE_SUBCATEGORIES):
            sub_name = f"Category {r}.{s}"
            if in_odd:
                by_category[sub_name] = _wide_effect(rng, r, 0)
            children = []
            for leaf in range(WIDE_LEAVES):
                intensity = INTENSITIES[leaf] if leaf < len(INTENSITIES) else None
                leaf_id = f"c{r}-{s}-{leaf}"
                children.append(_leaf(leaf_id, f"Condition {r}.{s}.{leaf}", intensity))
                if not in_odd:
                    continue
                if leaf % 2 == 1:
                    by_leaf[leaf_id] = _wide_effect(rng, r, leaf)
                occurrence.append(
                    {
                        "leaf_id": leaf_id,
                        "exposure_rate": _log_uniform(rng, 1e-4, 1e-1),
                        "source": "generated",
                    }
                )
            subcategories.append(
                {"id": f"c{r}-{s}", "name": sub_name, "odd_tags": [], "children": children}
            )
        roots.append(
            {
                "id": f"c{r}",
                "name": f"Root {r}",
                "odd_tags": [tags[r % len(tags)]] if in_odd else ["target-vehicle"],
                "children": subcategories,
            }
        )
    mitigations = [
        {
            "id": "sensor-diversity",
            "description": "Second sensor restores range and suppresses ghosts",
            "effect_overrides": {"perception_range_factor": 0.95, "ghost_rate": 0.0},
        },
        {
            "id": "winter-tires",
            "description": "Higher-friction tires",
            "effect_overrides": {"mu_factor": 0.85},
        },
        {
            "id": "fast-pipeline",
            "description": "Removes added processing latency",
            "effect_overrides": {"rho_add": 0.0},
        },
        {
            "id": "stronger-brakes",
            "description": "Higher-capacity brake actuator",
            "vehicle_overrides": {"a_min_brake": 7.0},
        },
    ]
    _dump(out / "odd.json", odd)
    _dump(out / "taxonomy.json", {"version": 1, "roots": roots})
    _dump(
        out / "effects.json",
        {"by_leaf": by_leaf, "by_category": by_category, "defaults": None},
    )
    _dump(out / "occurrence.json", occurrence)
    _dump(out / "criteria.json", CRITERIA)
    _dump(out / "mitigations.json", mitigations)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixture-mc", 42, 50, 0.001, 60.0, 6, _write_fixture_mc),
        Workload("ghost-long", 7, 16, 0.01, 600.0, 3, _write_ghost_long),
        Workload("wide-taxonomy", 11, 2, 0.001, 60.0, 40, _write_wide_taxonomy),
    )
}


def write_inputs(workload: Workload, seed: int, out: Path, src: Path) -> dict[str, Path]:
    """Write the workload's inputs under ``out``; returns name -> path."""
    out.mkdir(parents=True, exist_ok=True)
    workload.write(seed, out, src)
    return {name: out / f"{name}.json" for name in INPUT_NAMES}
