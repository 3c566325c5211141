"""Output correctness gate for every campaign the benchmark runs.

Three checks:

1. Determinism: every repetition's ``bundle.json``, minus
   ``meta.created_utc``, is byte-identical to the first one.
2. Reference: at a workload's default seed, the ``kpi_table`` fields, the
   acceptance verdicts and the risk table's hazard and level columns equal
   the reference recorded under ``reference/``.  Only fields present in the
   reference are compared, so fields added to the bundle later are ignored.
3. Independent recomputation: for any seed, a seeded sample of scenarios is
   recomputed by :mod:`stepper`; rates and counts must match exactly, every
   other KPI within 1e-6.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

import campaign
import stepper

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
GAP_TOLERANCE = 1e-6
EXACT_FIELDS = ("scenario_id", "runs", "collision_rate", "false_activation_rate")

_CREATED_UTC = re.compile(rb'"created_utc": "[^"]*"')


def normalized_bundle(bundle_path: Path) -> bytes:
    """bundle.json bytes with the creation timestamp blanked out."""
    return _CREATED_UTC.sub(b'"created_utc": ""', bundle_path.read_bytes())


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.json"


def projection(bundle: dict) -> dict:
    """The parts of a bundle that the reference pins down."""
    kpi = bundle["kpi_table"]
    fields = list(kpi[0]) if kpi else []
    return {
        "kpi_fields": fields,
        "kpi_rows": [[row[f] for f in fields] for row in kpi],
        "verdicts": [
            {
                "scenario_id": v["scenario_id"],
                "passed": v["passed"],
                "violations": v["violations"],
            }
            for v in bundle["acceptance"]["verdicts"]
        ],
        "risk": [
            [r["scenario_id"], r["hazard_id"], r["risk_level"]]
            for r in bundle["risk_table"]
        ],
    }


def check_reference(bundle: dict, reference: dict) -> list[str]:
    """Differences between a bundle and the recorded reference."""
    problems = []
    fields = reference["kpi_fields"]
    ref_rows = [dict(zip(fields, row)) for row in reference["kpi_rows"]]
    rows = bundle["kpi_table"]
    if [r["scenario_id"] for r in rows] != [r["scenario_id"] for r in ref_rows]:
        problems.append("kpi_table: scenario ids differ from the reference")
    else:
        for row, ref in zip(rows, ref_rows):
            for field in fields:
                if row.get(field) != ref[field]:
                    problems.append(
                        f"kpi_table[{ref['scenario_id']}].{field}: "
                        f"{row.get(field)!r} != reference {ref[field]!r}"
                    )
    got = projection(bundle)
    for key in ("verdicts", "risk"):
        if got[key] != reference[key]:
            problems.append(f"{key}: differs from the reference")
    return problems


def stepper_sample(bundle: dict, seed: int, size: int) -> list[str]:
    """Scenario ids of the sample recomputed for this seed."""
    ids = [row["scenario_id"] for row in bundle["kpi_table"]]
    return sorted(random.Random(f"gate:{seed}").sample(ids, min(size, len(ids))))


def check_stepper(bundle: dict, scenarios: dict, cfg, sample: list[str]) -> list[str]:
    """Recompute the sampled kpi_table rows with the per-dt stepper."""
    problems = []
    rows = {row["scenario_id"]: row for row in bundle["kpi_table"]}
    for scenario_id in sample:
        row = rows[scenario_id]
        expected = stepper.kpi_row(scenarios[scenario_id], cfg, row["runs"])
        for field, want in expected.items():
            got = row[field]
            if got is None:  # how bundle.json writes an infinite ttc
                got = math.inf
            if field in EXACT_FIELDS:
                ok = got == want
            elif math.isinf(want) or math.isinf(got):
                ok = got == want
            else:
                ok = abs(got - want) <= GAP_TOLERANCE
            if not ok:
                problems.append(
                    f"kpi_table[{scenario_id}].{field}: {got!r}, stepper gives {want!r}"
                )
    return problems


def campaign_scenarios(inputs, seed: int) -> dict:
    """Every scenario of a campaign, mitigated ones included, by id."""
    from sotifkit import scenario as sc

    base = campaign.generate_scenarios(inputs, seed)
    by_id = {s.id: s for s in base}
    for m in inputs.mitigations:
        for s in base:
            if not s.is_nominal and sc.mitigation_applicable(s, m):
                mitigated = sc.apply_mitigation(s, m)
                by_id[mitigated.id] = mitigated
    return by_id


def check_bundle(bundle_path: Path, workload, seed: int, inputs, cfg) -> list[str]:
    """Checks 2 and 3 on one written bundle."""
    bundle = json.loads(bundle_path.read_text(encoding="utf-8"))
    problems = []
    if seed == workload.default_seed:
        ref = reference_path(workload.name)
        if not ref.is_file():
            problems.append(f"no reference recorded at {ref.name}")
        else:
            problems += check_reference(bundle, json.loads(ref.read_text(encoding="utf-8")))
    sample = stepper_sample(bundle, seed, workload.stepper_sample)
    problems += check_stepper(bundle, campaign_scenarios(inputs, seed), cfg, sample)
    return problems
