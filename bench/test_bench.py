"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run real (short) campaigns, so they take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import campaign
import gate
import run
import tracing
from workloads import INPUT_NAMES, WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = campaign.use_source_tree(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _small(name: str, runs: int = 3):
    return dataclasses.replace(WORKLOADS[name], runs_per_scenario=runs)


def _campaign(tmp_path: Path, workload, seed: int):
    paths = write_inputs(workload, seed, tmp_path / "inputs", SRC)
    inputs = campaign.load_inputs(paths)
    bundle = campaign.run_campaign(inputs, workload, seed, tmp_path / "out")
    return inputs, campaign.write_bundle(bundle, tmp_path / "out")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(tmp_path, name):
    workload = WORKLOADS[name]
    first = write_inputs(workload, 5, tmp_path / "a", SRC)
    again = write_inputs(workload, 5, tmp_path / "b", SRC)
    other = write_inputs(workload, 6, tmp_path / "c", SRC)
    assert sorted(first) == sorted(INPUT_NAMES)
    for key in INPUT_NAMES:
        assert first[key].read_bytes() == again[key].read_bytes(), key
    if name != "fixture-mc":
        assert any(first[k].read_bytes() != other[k].read_bytes() for k in INPUT_NAMES)


def test_generated_shape_does_not_depend_on_the_seed(tmp_path):
    for name in ("ghost-long", "wide-taxonomy"):
        counts = set()
        for seed in (1, 2, 3):
            inputs = campaign.load_inputs(
                write_inputs(WORKLOADS[name], seed, tmp_path / f"{name}{seed}", SRC)
            )
            counts.add(len(gate.campaign_scenarios(inputs, seed)))
        assert len(counts) == 1, (name, counts)


def test_printed_metric_names_match_benchmark_json():
    workload = min(WORKLOADS)
    e2e = _bench(workload, 3, 0)
    layers = _bench(workload, 3, 1)
    for result, key in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        printed = result["metrics"]
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(NAME.fullmatch(name) for name in printed)
        assert set(printed) == set(declared)
        assert {k: v["unit"] for k, v in printed.items()} == declared


def test_gate_passes_a_good_bundle_and_catches_a_corrupted_row(tmp_path):
    workload = _small("fixture-mc")
    seed = workload.default_seed
    inputs, path = _campaign(tmp_path, workload, seed)
    bundle = json.loads(path.read_text(encoding="utf-8"))
    cfg = campaign.sim_config(workload)
    reference = gate.projection(bundle)
    sample = gate.stepper_sample(bundle, seed, 4)
    scenarios = gate.campaign_scenarios(inputs, seed)
    assert gate.check_reference(bundle, reference) == []
    assert gate.check_stepper(bundle, scenarios, cfg, sample) == []

    row = next(r for r in bundle["kpi_table"] if r["scenario_id"] == sample[0])
    row["gap_mean"] += 1e-3
    assert gate.check_reference(bundle, reference)
    assert gate.check_stepper(bundle, scenarios, cfg, sample)


def test_reference_ignores_fields_added_later(tmp_path):
    workload = _small("fixture-mc")
    _, path = _campaign(tmp_path, workload, 1)
    bundle = json.loads(path.read_text(encoding="utf-8"))
    reference = gate.projection(bundle)
    for row in bundle["kpi_table"]:
        row["terminal_timeout"] = 0
    assert gate.check_reference(bundle, reference) == []


def test_corrupted_bundle_fails_the_command(monkeypatch, capsys):
    from sotifkit import report

    original = report.bundle_to_dict

    def corrupted(bundle):
        data = original(bundle)
        data["kpi_table"][1]["collision_rate"] += 0.5
        return data

    monkeypatch.setattr(report, "bundle_to_dict", corrupted)
    monkeypatch.chdir(ROOT)
    status = run.main(["--workload", "fixture-mc", "--seed", "42", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] >= 1


def _attributes():
    return {
        (module.__name__, attr): getattr(module, attr)
        for module, attr, _, _ in tracing._targets(tracing.Tracer())
    }


def test_traced_run_restores_module_attributes(tmp_path):
    before = _attributes()
    workload = _small("fixture-mc", runs=2)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert _attributes() != before
        _campaign(tmp_path, workload, 1)
    assert _attributes() == before
    metrics = tracing.layer_metrics(tracer)
    assert metrics["simulator.compute_kpis_calls"] == 86 * 2
    # The run-0 trace re-simulated for export is not a sweep run.
    assert metrics["simulator.simulate_calls"] == 86 * 2
    assert metrics["simulator.trace_simulate_s"] > 0
    assert metrics["scenario.count"] == 86

    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("traced code failed")
    assert _attributes() == before


def test_self_time_excludes_direct_children():
    tracer = tracing.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    times = tracing.span_times(tracer.spans)
    assert inner.parent == 0 and outer.parent == -1
    assert times["outer"]["self_s"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )


def test_fails_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in Path(__file__).parent.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixture-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
