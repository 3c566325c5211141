from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import re
from collections import Counter
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sotifkit import (
    AcceptanceCriteria,
    load_criteria,
    load_effect_mapping,
    load_occurrences,
    load_odd,
    load_taxonomy,
    run_campaign,
    write_bundle,
    load_bundle,
    emit_markdown_summary,
)
from sotifkit.analysis import load_severity_rules
from sotifkit.cli import EXIT_ERROR, EXIT_GATE_FAILED, EXIT_OK, main
from sotifkit import report
from sotifkit.errors import ContractViolationError, PipelineError, SimulationError, SotifkitError
from sotifkit.fixtures import fixture_path
from sotifkit.analysis import AnalysisRow
from sotifkit.report import (
    MitigationOutcome,
    ScenarioSummary,
    bundle_from_dict,
    bundle_text,
    bundle_to_dict,
)
from sotifkit.risk import AcceptanceVerdict, RiskResult, Violation
from sotifkit.scenario import (
    apply_mitigation,
    generate_scenarios,
    load_mitigations,
    mitigation_applicable,
)
from sotifkit.simulator import KpiReport, SimConfig, SweepStats, compute_kpis, simulate
import sotifkit.simulator as sim_module
from sotifkit.taxonomy import enumerate_leaves, filter_by_odd, parse_taxonomy

from conftest import count_trace_views


_FIXTURE_ODD = json.loads(fixture_path("odd.json").read_text())
_FIXTURE_CRITERIA = json.loads(fixture_path("criteria.json").read_text())


def _odd_with_vehicle(**fields):
    return {**_FIXTURE_ODD, "vehicle": {**_FIXTURE_ODD["vehicle"], **fields}}


# Input documents that are not JSON objects where one is expected, lack a
# required key, hold something other than a finite number or a list of
# strings where one is expected, or a value outside its domain:
# (flag, document).
MALFORMED_INPUTS = {
    "occurrence-item-not-object": ("--occurrence", [1]),
    "occurrence-item-without-leaf-id": ("--occurrence", [{"exposure_rate": 0.1}]),
    "criteria-not-object": ("--criteria", 5),
    "severity-rules-not-object": ("--severity-rules", 5),
    "odd-not-object": ("--odd", 5),
    "vehicle-not-object": ("--odd", {**_FIXTURE_ODD, "vehicle": 5}),
    "mitigation-not-object": ("--mitigations", [5]),
    "effect-entry-not-object": ("--effects", {"by_leaf": {"x": 5}}),
    "effects-section-not-object": ("--effects", {"by_leaf": 5}),
    "exposure-rate-not-number": ("--occurrence", [{"leaf_id": "x", "exposure_rate": [1]}]),
    "criteria-value-not-number": (
        "--criteria",
        {**_FIXTURE_CRITERIA, "max_collision_rate": "x"},
    ),
    "odd-distance-infinite": ("--odd", {**_FIXTURE_ODD, "d_object": float("inf")}),
    "severity-name-unknown": ("--severity-rules", {"false_activation_severity": "S9"}),
    "severity-name-not-string": ("--severity-rules", {"false_activation_severity": [1]}),
    "mitigation-overrides-not-object": (
        "--mitigations",
        [{"id": "m", "description": "d", "effect_overrides": 5}],
    ),
    "mitigation-override-not-number": (
        "--mitigations",
        [{"id": "m", "description": "d", "vehicle_overrides": {"a_min_brake": "x"}}],
    ),
    "odd-tags-not-list": ("--odd", {**_FIXTURE_ODD, "odd_tags": "-ad"}),
    "odd-speed-overflows": ("--odd", _odd_with_vehicle(v_r=1e300)),
    "vehicle-value-out-of-range": ("--odd", _odd_with_vehicle(rho=-1)),
    "effect-value-out-of-range": (
        "--effects",
        {"by_leaf": {"x": {"ghost_rate": 2}}, "defaults": {}},
    ),
    "mitigation-vehicle-override-out-of-range": (
        "--mitigations",
        [{"id": "m", "description": "d", "vehicle_overrides": {"rho": -1}}],
    ),
    "mitigation-effect-override-out-of-range": (
        "--mitigations",
        [
            {
                "id": "m",
                "description": "d",
                "effect_overrides": {"perception_range_factor": 5, "ghost_rate": -3},
            }
        ],
    ),
    "criteria-value-out-of-range": ("--criteria", {**_FIXTURE_CRITERIA, "max_collision_rate": 2}),
    "exposure-rate-negative": ("--occurrence", [{"leaf_id": "x", "exposure_rate": -1}]),
    "severity-speeds-inverted": (
        "--severity-rules",
        {"s2_impact_speed": 12, "s3_impact_speed": 6},
    ),
    "mitigation-id-empty": ("--mitigations", [{"id": "", "description": "d"}]),
    "mitigation-id-not-string": ("--mitigations", [{"id": 5, "description": "d"}]),
    "mitigation-description-not-string": ("--mitigations", [{"id": "m", "description": 5}]),
    "occurrence-leaf-id-not-string": ("--occurrence", [{"leaf_id": 5, "exposure_rate": 0.1}]),
    "exposure-rates-cancel-out": (
        "--occurrence",
        [{"leaf_id": "x", "exposure_rate": 10**400}, {"leaf_id": "y", "exposure_rate": -(10**400)}],
    ),
    "occurrence-source-not-string": (
        "--occurrence",
        [{"leaf_id": "x", "exposure_rate": 0.1, "source": 5}],
    ),
    "mitigation-id-repeated": (
        "--mitigations",
        [{"id": "m", "description": "d"}, {"id": "m", "description": "e"}],
    ),
    "occurrence-leaf-id-repeated": (
        "--occurrence",
        [{"leaf_id": "x", "exposure_rate": 0.1}, {"leaf_id": "x", "exposure_rate": 0.9}],
    ),
}

_MITIGATION_ROW = {
    "mitigation_id": "m",
    "scenario_id": "s",
    "mitigated_scenario_id": None,
    "note": "n",
    "passes_after": None,
}
# Complete bundle rows, each with one key too many.
_MITIGATION_ROW_EXTRA_KEY = {**_MITIGATION_ROW, "colour": "red"}
# A row as earlier versions wrote it: `applied`, and copies of the kpi_table
# values of `scenario_id` and `mitigated_scenario_id`.
_MITIGATION_ROW_WITH_KPI_COPIES = {
    **_MITIGATION_ROW,
    "applied": False,
    "gap_mean_before": 1.0,
    "gap_mean_after": None,
    "collision_rate_before": 0.0,
    "collision_rate_after": None,
    "false_activation_rate_before": 0.0,
    "false_activation_rate_after": None,
}
_VERDICT_VIOLATION_EXTRA_KEY = {
    "scenario_id": "s",
    "passed": False,
    "violations": [{"clause": "c", "measured": 1.0, "threshold": 0.0, "colour": "red"}],
}
# Complete, well-typed bundle rows of scenarios in the fixture campaign.
_KPI_ROW = {
    "scenario_id": "nominal",
    "runs": 5,
    "collision_rate": 0.0,
    "false_activation_rate": 0.0,
    "gap_mean": 10.0,
    "gap_min": 10.0,
    "gap_max": 10.0,
    "impact_speed_mean": 0.0,
    "impact_speed_min": 0.0,
    "impact_speed_max": 0.0,
    "ttc_at_trigger_min": None,
    "odd_fingerprint": "f" * 16,
}
_TAXONOMY_SUMMARY = {"total_leaves": 3, "relevant_leaves": 2, "leaves_by_root": {"env": 3}}
_ANALYSIS_ROW = {
    "scenario_id": "surface-gravel",
    "affected_subsystems": ["actuation"],
    "severity": "S3",
    "controllability": "C3",
    "hazards": ["H1"],
    "rationale": "r",
}
_RISK_ROW = {
    "scenario_id": "surface-gravel",
    "hazard_id": "H1",
    "severity": "S3",
    "occurrence_class": "O2",
    "risk_level": "medium",
    "hazard_rate_per_hour": 0.01,
    "hours_to_hazard": 100.0,
    "km_to_hazard": None,
}


@pytest.fixture(scope="module")
def campaign_inputs():
    return dict(
        odd=load_odd(fixture_path("odd.json")),
        taxonomy=load_taxonomy(fixture_path("taxonomy.json")),
        mapping=load_effect_mapping(fixture_path("effects.json")),
        occurrences=load_occurrences(fixture_path("occurrence.json")),
        criteria=load_criteria(fixture_path("criteria.json")),
    )


@pytest.fixture(scope="module")
def small_bundle(campaign_inputs, tmp_path_factory):
    return run_campaign(
        **campaign_inputs,
        mitigations=load_mitigations(fixture_path("mitigations.json")),
        base_seed=42,
        runs_per_scenario=10,
        trace_dir=tmp_path_factory.mktemp("small-bundle-traces"),
    )


class TestRunCampaign:
    def test_structure(self, small_bundle):
        bundle = small_bundle
        base_ids = {s.id for s in bundle.scenarios if "+" not in s.id}
        assert "nominal" in base_ids
        assert len(bundle.acceptance) == len(base_ids) - 1
        assert len(bundle.analysis_sheet) == len(base_ids) - 1
        assert {s.scenario_id for s in bundle.kpi_table} == {
            s.id for s in bundle.scenarios
        }
        assert bundle.taxonomy_summary["total_leaves"] == 28
        assert bundle.taxonomy_summary["relevant_leaves"] == 22
        assert not bundle.all_passed  # fixture campaign has collisions

    def test_mitigation_table(self, small_bundle):
        table = small_bundle.mitigation_table
        assert table, "mitigations were provided, table must not be empty"
        applied = [m for m in table if m.applied]
        skipped = [m for m in table if not m.applied]
        assert applied and skipped
        assert all(m.passes_after is None for m in skipped)
        # Winter tires fix the icy scenario at matched seeds.
        icy = next(
            m
            for m in table
            if m.mitigation_id == "winter-tires" and m.scenario_id == "surface-icy"
        )
        assert icy.applied
        assert icy.mitigated_scenario_id == "surface-icy+winter-tires"
        # Its KPIs before and after are the kpi_table rows it names.
        kpis = {s.scenario_id: s for s in small_bundle.kpi_table}
        before, after = kpis[icy.scenario_id], kpis[icy.mitigated_scenario_id]
        assert before.collision_rate == 1.0
        assert after.collision_rate == 0.0
        assert after.gap_mean > before.gap_mean
        # Mitigated scenarios appear in the scenario list.
        assert any(s.id == "surface-icy+winter-tires" for s in small_bundle.scenarios)

    def test_deterministic_minus_timestamp(self, campaign_inputs, tmp_path):
        kwargs = dict(**campaign_inputs, base_seed=7, runs_per_scenario=5)
        a = bundle_to_dict(run_campaign(**kwargs, trace_dir=tmp_path / "a"))
        b = bundle_to_dict(run_campaign(**kwargs, trace_dir=tmp_path / "b"))
        a["meta"].pop("created_utc")
        b["meta"].pop("created_utc")
        assert a == b

    def test_gravel_fails_gate_with_h1(self, small_bundle):
        verdict = next(
            v for v in small_bundle.acceptance if v.scenario_id == "surface-gravel"
        )
        assert not verdict.passed
        assert any(v.clause == "max_collision_rate" for v in verdict.violations)
        assert any(
            r.scenario_id == "surface-gravel" and r.hazard_id == "H1"
            for r in small_bundle.risk_table
        )

    def test_leaves_by_root_counts_roots_sharing_a_name(self, campaign_inputs, tmp_path):
        # Two roots named alike each count their own subtree's leaves.
        leaf = {"name": "leaf", "odd_tags": []}
        roots = [
            {"id": "a", "name": "Weather", "odd_tags": ["elsewhere"],
             "children": [{"id": "a1", **leaf}, {"id": "a2", **leaf}]},
            {"id": "b", "name": "Weather", "odd_tags": ["elsewhere"],
             "children": [{"id": "b1", **leaf}]},
        ]
        taxonomy = parse_taxonomy(json.dumps({"version": 1, "roots": roots}))
        bundle = run_campaign(
            **{**campaign_inputs, "taxonomy": taxonomy}, runs_per_scenario=2, trace_dir=tmp_path
        )
        assert bundle.taxonomy_summary["leaves_by_root"] == {"a": 2, "b": 1}


class TestTraceFile:
    def test_one_trace_view_per_ghost_scenario_and_body(
        self, campaign_inputs, tmp_path, monkeypatch
    ):
        # The sweep reads resolutions only.  The export builds the view (the
        # event and state rows) of every ghost scenario's trace, and of a
        # ghost-free trace only when it writes a body (the events and the
        # states) that it has not written at that perception range before.
        built = count_trace_views(monkeypatch)
        built_before_export = []
        simulate_ = report.simulate

        def exporting(scenario, cfg, run_index=0):
            if not built_before_export:
                built_before_export.append(len(built))
            return simulate_(scenario, cfg, run_index=run_index)

        monkeypatch.setattr(report, "simulate", exporting)
        bundle = run_campaign(
            **campaign_inputs,
            mitigations=load_mitigations(fixture_path("mitigations.json")),
            base_seed=42,
            runs_per_scenario=5,
            trace_dir=tmp_path / "traces",
        )
        assert built_before_export == [0]
        d_perception = campaign_inputs["odd"].d_perception
        lines = (tmp_path / "traces" / "traces.jsonl").read_text().splitlines()
        expected, written = [], set()
        for scenario, line in zip(bundle.scenarios, lines, strict=True):
            effects = scenario.effects
            trace = json.loads(line)
            body = (
                json.dumps([trace["events"], trace["states"]]),
                d_perception * effects["perception_range_factor"],
            )
            if effects["ghost_rate"]:
                expected.append(scenario.id)
            elif body not in written:
                expected.append(scenario.id)
                written.add(body)
        assert built == expected
        assert len(built) < len(bundle.scenarios)  # ghost-free bodies repeat

    def test_traces_do_not_depend_on_runs(self, campaign_inputs, tmp_path):
        # The export writes each scenario's run 0.  What the sweep keeps (a
        # ghost-free scenario's one trace, the last plan, the (seed, run)
        # draw records) must not reach those lines.
        mitigations = load_mitigations(fixture_path("mitigations.json"))
        written = []
        for runs in (1, 7):
            run_campaign(
                **campaign_inputs,
                mitigations=mitigations,
                base_seed=42,
                runs_per_scenario=runs,
                trace_dir=tmp_path / f"runs-{runs}",
            )
            written.append((tmp_path / f"runs-{runs}" / "traces.jsonl").read_bytes())
        assert b'"ghost_detected"' in written[0]
        assert written[0] == written[1]

    def test_one_line_per_scenario_in_bundle_order(self, campaign_inputs, tmp_path):
        mitigations = load_mitigations(fixture_path("mitigations.json"))
        cfg = SimConfig()
        bundle = run_campaign(
            **campaign_inputs,
            mitigations=mitigations,
            base_seed=42,
            runs_per_scenario=2,
            cfg=cfg,
            trace_dir=tmp_path / "traces",
        )
        assert [p.name for p in (tmp_path / "traces").iterdir()] == ["traces.jsonl"]
        text = (tmp_path / "traces" / "traces.jsonl").read_text()
        lines = [json.loads(line) for line in text.splitlines()]
        assert [line["scenario_id"] for line in lines] == [s.id for s in bundle.scenarios]

        # Each line is the run-0 trace of its scenario, rebuilt here.
        odd = campaign_inputs["odd"]
        conditions = filter_by_odd(enumerate_leaves(campaign_inputs["taxonomy"]), odd.odd_tags)
        base = generate_scenarios(odd, conditions, campaign_inputs["mapping"], 42)
        mitigated = [
            apply_mitigation(scenario, mitigation)
            for mitigation in mitigations
            for scenario in base
            if not scenario.is_nominal and mitigation_applicable(scenario, mitigation)
        ]
        scenarios = {s.id: s for s in base + mitigated}
        assert len(scenarios) == len(lines)
        for line in lines:
            trace = simulate(scenarios[line["scenario_id"]], cfg, run_index=0)
            assert line == {
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
            }


class TestRun0HandOver:
    """The sweep hands each scenario's run-0 trace to the export, which
    resolves nothing again and keeps nothing after the run."""

    def _campaign(self, campaign_inputs, trace_dir, runs=3):
        return run_campaign(
            **campaign_inputs,
            mitigations=load_mitigations(fixture_path("mitigations.json")),
            base_seed=42,
            runs_per_scenario=runs,
            trace_dir=trace_dir,
        )

    def test_viewed_sweep_writes_the_same_traces(self, campaign_inputs, tmp_path, monkeypatch):
        # The traced benchmark builds the view of every sweep run; the
        # export then writes the run-0 views that the sweep built.
        self._campaign(campaign_inputs, tmp_path / "plain")
        simulate_ = sim_module.simulate
        viewed = []

        def viewing(scenario, cfg, run_index):
            trace = simulate_(scenario, cfg, run_index)
            viewed.append((len(trace.events), len(trace.states)))
            return trace

        monkeypatch.setattr(sim_module, "simulate", viewing)
        bundle = self._campaign(campaign_inputs, tmp_path / "viewed")
        assert len(viewed) == 3 * len(bundle.scenarios)
        plain = (tmp_path / "plain" / "traces.jsonl").read_bytes()
        assert b'"ghost_detected"' in plain
        assert (tmp_path / "viewed" / "traces.jsonl").read_bytes() == plain

    def test_export_resolves_nothing_and_seeds_only_recorded_runs(
        self, campaign_inputs, tmp_path, monkeypatch
    ):
        # A ghost scenario whose run 0 built no generator in the sweep read
        # its first ghost from another scenario's (seed, 0) draw record.
        # Its trace view seeds a generator to draw the ghost gaps when the
        # trace shows a ghost; here the record settles every other such
        # view, which shows no ghost, without one.
        stage = ["sweep", None]  # the stage, and the scenario being run
        plans = Counter()
        run0_seeded = {"sweep": [], "export": []}
        ghost_ids = []
        simulate_, exported_ = sim_module.simulate, report.simulate
        generator, init, resolve = sim_module._generator, sim_module._Plan.__init__, sim_module._Plan._resolve

        def sweeping(scenario, cfg, run_index):
            stage[1] = scenario
            if run_index == 0 and scenario.effects.ghost_rate > 0:
                ghost_ids.append(scenario.id)
            return simulate_(scenario, cfg, run_index)

        def exporting(scenario, cfg, run_index=0):
            stage[:] = ["export", scenario]
            return exported_(scenario, cfg, run_index=run_index)

        def generating(seed, run_index):
            if run_index == 0:
                run0_seeded[stage[0]].append(stage[1].id)
            return generator(seed, run_index)

        def planning(self, *args):
            plans[stage[0], "init"] += 1
            init(self, *args)

        def resolving(self, n_trig):
            plans[stage[0], "resolve"] += 1
            return resolve(self, n_trig)

        monkeypatch.setattr(sim_module, "simulate", sweeping)
        monkeypatch.setattr(report, "simulate", exporting)
        monkeypatch.setattr(sim_module, "_generator", generating)
        monkeypatch.setattr(sim_module._Plan, "__init__", planning)
        monkeypatch.setattr(sim_module._Plan, "_resolve", resolving)
        bundle = self._campaign(campaign_inputs, tmp_path / "traces")

        assert stage[0] == "export"
        assert plans["sweep", "init"] == len(bundle.scenarios)
        assert plans["sweep", "resolve"] > 0
        assert plans["export", "init"] == plans["export", "resolve"] == 0
        recorded = [i for i in ghost_ids if i not in run0_seeded["sweep"]]
        assert recorded and run0_seeded["sweep"]
        lines = (tmp_path / "traces" / "traces.jsonl").read_text().splitlines()
        shown = {
            trace["scenario_id"]
            for trace in map(json.loads, lines)
            if any(event["kind"] == "ghost_detected" for event in trace["events"])
        }
        assert sorted(run0_seeded["export"]) == sorted(i for i in recorded if i in shown)
        assert len(run0_seeded["export"]) == 9 < len(recorded) == 12

    def test_nothing_is_kept_after_a_campaign(self, campaign_inputs, tmp_path, monkeypatch):
        held = []
        sweep_, export_ = report.monte_carlo_sweep, report.export_trace_jsonl

        def sweeping(*args):
            stats = sweep_(*args)
            held.append(len(sim_module._shared.run0))
            return stats

        monkeypatch.setattr(report, "monte_carlo_sweep", sweeping)
        bundle = self._campaign(campaign_inputs, tmp_path / "traces")
        assert held == [len(bundle.scenarios)]
        assert sim_module._shared is None

        def failing_sweep(*args):
            sweeping(*args)
            raise SimulationError("after the sweep")

        with monkeypatch.context() as m:
            m.setattr(report, "monte_carlo_sweep", failing_sweep)
            with pytest.raises(PipelineError, match="sweep"):
                self._campaign(campaign_inputs, tmp_path / "sweep-fails")
        assert held[1] == len(bundle.scenarios)
        assert sim_module._shared is None

        def failing_export(traces, path):
            next(iter(traces))
            held.append(len(sim_module._shared.run0))
            raise OSError("disk full")

        monkeypatch.setattr(report, "export_trace_jsonl", failing_export)
        with pytest.raises(PipelineError, match="export"):
            self._campaign(campaign_inputs, tmp_path / "export-fails")
        assert held[2] == held[3] + 1 == len(bundle.scenarios)
        assert sim_module._shared is None


class TestBundlePersistence:
    def test_write_creates_all_artifacts(self, small_bundle, tmp_path):
        out = tmp_path / "bundle"
        write_bundle(small_bundle, out)
        # The JSON tables live in bundle.json only.
        assert sorted(p.name for p in out.iterdir()) == [
            "analysis_sheet.csv",
            "bundle.json",
            "kpis.csv",
            "risk.csv",
            "summary.md",
        ]

    def test_round_trip_reconstructs_tables(self, small_bundle, tmp_path):
        out = tmp_path / "bundle"
        write_bundle(small_bundle, out)
        loaded = load_bundle(out)
        assert loaded.kpi_table == small_bundle.kpi_table
        assert loaded.analysis_sheet == small_bundle.analysis_sheet
        assert loaded.risk_table == small_bundle.risk_table
        assert loaded.acceptance == small_bundle.acceptance
        assert loaded.mitigation_table == small_bundle.mitigation_table
        assert loaded.criteria == small_bundle.criteria
        assert loaded.scenarios == small_bundle.scenarios
        assert loaded == small_bundle

    def test_loaded_sheet_has_leaf_ids_and_category_paths(self, small_bundle, tmp_path):
        # bundle.json holds neither: the reader takes them from the row's
        # scenario.
        loaded = load_bundle(write_bundle(small_bundle, tmp_path / "bundle"))
        assert [(r.leaf_id, r.category_path) for r in loaded.analysis_sheet] == [
            (r.leaf_id, r.category_path) for r in small_bundle.analysis_sheet
        ]
        assert all(r.leaf_id == r.scenario_id and r.category_path for r in loaded.analysis_sheet)

    def test_bundle_json_holds_one_item_per_line(self, small_bundle, tmp_path):
        # Each table item and each verdict is one line, indented four
        # spaces, so that a changed item is a one-line diff.
        text = write_bundle(small_bundle, tmp_path / "bundle").read_text()
        data = bundle_to_dict(small_bundle)
        verdicts = data["acceptance"]["verdicts"]
        assert all(data[t] for t in _TABLES) and verdicts
        items = [*chain.from_iterable(data[t] for t in _TABLES), *verdicts]
        lines = [line for line in text.splitlines() if line.startswith("    ")]
        assert [json.loads(line.strip().removesuffix(",")) for line in lines] == items

    def test_bundle_json_loads_to_bundle_dict(self, small_bundle, tmp_path):
        path = write_bundle(small_bundle, tmp_path / "bundle")
        assert json.loads(path.read_text()) == bundle_to_dict(small_bundle)

    def test_streamed_file_is_the_joined_text(self, small_bundle, campaign_inputs, tmp_path):
        # write_bundle writes the pieces that bundle_text joins, also for a
        # bundle whose list sections are empty (a nominal-only run with no
        # mitigations).
        odd = dataclasses.replace(campaign_inputs["odd"], odd_tags=frozenset({"no-such-tag"}))
        empty = run_campaign(
            **{**campaign_inputs, "odd": odd}, runs_per_scenario=2, trace_dir=tmp_path / "traces"
        )
        data = bundle_to_dict(empty)
        assert not any(data[t] for t in _TABLES[2:]) and not data["acceptance"]["verdicts"]
        for name, bundle in (("small", small_bundle), ("empty", empty)):
            path = write_bundle(bundle, tmp_path / name)
            assert path.read_bytes() == bundle_text(bundle_to_dict(bundle)).encode(), name
        assert '"risk_table": [],' in path.read_text()

    def test_timestamp_keeps_default_separator(self, small_bundle, tmp_path):
        # The golden test and the benchmark's determinism check blank the
        # timestamp by this pattern.
        path = write_bundle(small_bundle, tmp_path / "bundle")
        assert len(re.findall(rb'"created_utc": "[^"]*"', path.read_bytes())) == 1

    def test_write_calls_bundle_to_dict_by_name(self, small_bundle, tmp_path, monkeypatch):
        # Replacing report.bundle_to_dict changes what is written (the
        # benchmark's corrupted-bundle test relies on this).
        original = report.bundle_to_dict

        def edited(bundle):
            data = original(bundle)
            data["kpi_table"][1]["collision_rate"] = 0.75
            return data

        monkeypatch.setattr(report, "bundle_to_dict", edited)
        path = write_bundle(small_bundle, tmp_path / "bundle")
        assert json.loads(path.read_text())["kpi_table"][1]["collision_rate"] == 0.75

    def test_one_verdict_per_condition_scenario(self, small_bundle):
        verdicts = small_bundle.acceptance
        nominal_verdict = verdicts[0]._replace(scenario_id="nominal")
        cases = {
            (*verdicts, verdicts[0]): f"2 verdict(s) for condition scenario '{verdicts[0].scenario_id}'",
            verdicts[1:]: f"0 verdict(s) for condition scenario '{verdicts[0].scenario_id}'",
            (*verdicts, nominal_verdict): "1 verdict(s) for scenario 'nominal', not a condition",
        }
        for acceptance, message in cases.items():
            with pytest.raises(ContractViolationError, match=re.escape(message)):
                dataclasses.replace(small_bundle, acceptance=acceptance)

    def test_dict_round_trip(self, small_bundle):
        # bundle_to_dict gives what the file holds: lists, not tuples.
        assert bundle_from_dict(bundle_to_dict(small_bundle)) == small_bundle

    def test_dict_is_fresh(self, small_bundle):
        # A caller may edit the dict: nothing of it is shared with the bundle.
        data = bundle_to_dict(small_bundle)
        expected = copy.deepcopy(data)
        data["kpi_table"][1]["collision_rate"] += 0.5
        scenario = data["scenarios"][1]
        scenario["effects"]["ghost_rate"] = 0.5
        scenario["category_path"].append("edited")
        data["meta"]["input_digests"]["edited"] = "0" * 64
        data["taxonomy_summary"]["leaves_by_root"]["edited"] = 1
        verdict = next(v for v in data["acceptance"]["verdicts"] if v["violations"])
        verdict["violations"][0]["measured"] = -1.0
        assert bundle_to_dict(small_bundle) == expected


# Any JSON value, biased towards the names and shapes a bundle holds.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["S1", "S9", "C3", "O2", "low", "LOW", "actuation", "H1", "nominal"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=4,
)
_TABLES = ("scenarios", "kpi_table", "analysis_sheet", "risk_table", "mitigation_table")


@pytest.fixture(scope="module")
def small_bundle_json(small_bundle):
    return json.dumps(bundle_to_dict(small_bundle))


def _bundle_items(bundle: dict) -> dict[str, list[tuple[str, dict]]]:
    """Every item object of a bundle document with its place, by section."""
    verdicts = bundle["acceptance"]["verdicts"]
    return {
        "meta": [("meta", bundle["meta"])],
        **{
            table: [(f"{table}[{i}]", item) for i, item in enumerate(bundle[table])]
            for table in _TABLES
        },
        "acceptance.criteria": [("acceptance.criteria", bundle["acceptance"]["criteria"])],
        "acceptance.verdicts": [(f"acceptance.verdicts[{i}]", v) for i, v in enumerate(verdicts)],
        "acceptance.verdicts[].violations": [
            (f"acceptance.verdicts[{i}].violations[{j}]", x)
            for i, v in enumerate(verdicts)
            for j, x in enumerate(v["violations"])
        ],
    }


class TestRecords:
    """The result records are NamedTuples, so a record equals any tuple of
    its values, a record of another type included.  The code compares
    records only within one table, so every item of a table must be of the
    table's declared type, whether a campaign built it or a load did."""

    DECLARED = {
        "scenarios": ScenarioSummary,
        "kpi_table": SweepStats,
        "analysis_sheet": AnalysisRow,
        "risk_table": RiskResult,
        "mitigation_table": MitigationOutcome,
        "acceptance": AcceptanceVerdict,
    }

    @staticmethod
    def records(bundle) -> dict[type, list]:
        """Every record of ``bundle``, by its declared type."""
        records = {cls: list(getattr(bundle, name)) for name, cls in TestRecords.DECLARED.items()}
        records[Violation] = [x for verdict in bundle.acceptance for x in verdict.violations]
        return records

    def test_items_are_of_their_declared_type(self, small_bundle, tmp_path):
        loaded = load_bundle(write_bundle(small_bundle, tmp_path / "bundle"))
        for bundle in (small_bundle, loaded, bundle_from_dict(bundle_to_dict(small_bundle))):
            for cls, items in self.records(bundle).items():
                assert items, cls.__name__
                assert {type(x) for x in items} == {cls}, cls.__name__

    def test_kpi_report_is_declared_type(self, campaign_inputs):
        scenario = generate_scenarios(campaign_inputs["odd"], [], campaign_inputs["mapping"], 0)[0]
        assert type(compute_kpis(simulate(scenario), scenario)) is KpiReport

    def test_records_are_tuples_of_their_values(self, small_bundle):
        for cls, items in self.records(small_bundle).items():
            x = items[0]
            assert x == tuple(x) and len(x) == len(cls._fields), cls.__name__
            assert list(x) == [getattr(x, name) for name in cls._fields]
            assert x.count(x[0]) >= 1 and x.index(x[0]) == 0
            assert x._replace() == x and type(x._replace()) is cls

    def test_hash_as_before(self, small_bundle):
        # A summary holds its effects as a dict, so it has no hash; every
        # other record hashes as the tuple of its values.
        for cls, items in self.records(small_bundle).items():
            for x in items:
                if cls is ScenarioSummary:
                    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                        hash(x)
                else:
                    assert hash(x) == hash(tuple(x)), cls.__name__


class TestBundleValueTypes:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), value=_JSON_VALUES)
    def test_any_field_value_loads_or_is_named(self, small_bundle_json, data, value):
        """Replace one field of one item (a table item, meta, the criteria,
        a verdict or a violation) by any JSON value: the bundle either
        loads and renders, or is rejected naming that field (or, for a
        scenario id, an unknown scenario; for a criterion, its domain)."""
        bundle = json.loads(small_bundle_json)
        items = _bundle_items(bundle)
        place, item = data.draw(st.sampled_from(items[data.draw(st.sampled_from(sorted(items)))]))
        field = data.draw(st.sampled_from(sorted(item)))
        item[field] = value
        try:
            loaded = bundle_from_dict(bundle)
        except SotifkitError:
            return  # e.g. a scenario id no other table knows
        except ValueError as exc:
            # A list of items is named down to the failing item.
            assert str(exc).startswith((f"{place}.{field}: ", f"{place}.{field}[")), exc
            return
        emit_markdown_summary(loaded)


# Every input document a campaign loads, by its `sotifkit run` flag: the
# fixture files, and a severity-rules document (no fixture ships one).
_INPUT_DOCUMENTS = {
    "--odd": (load_odd, _FIXTURE_ODD),
    "--taxonomy": (load_taxonomy, json.loads(fixture_path("taxonomy.json").read_text())),
    "--effects": (load_effect_mapping, json.loads(fixture_path("effects.json").read_text())),
    "--occurrence": (load_occurrences, json.loads(fixture_path("occurrence.json").read_text())),
    "--criteria": (load_criteria, _FIXTURE_CRITERIA),
    "--mitigations": (load_mitigations, json.loads(fixture_path("mitigations.json").read_text())),
    "--severity-rules": (
        load_severity_rules,
        {"s3_impact_speed": 11.0, "s2_impact_speed": 5.0, "false_activation_severity": "S1"},
    ),
}


def _places(document, at=()):
    """The place (keys and list indices) of every value held under an
    object key of ``document``, nested ones included."""
    if isinstance(document, dict):
        for key, value in document.items():
            yield at + (key,)
            yield from _places(value, at + (key,))
    elif isinstance(document, list):
        for i, value in enumerate(document):
            yield from _places(value, at + (i,))


_INPUT_PLACES = {flag: list(_places(document)) for flag, (_, document) in _INPUT_DOCUMENTS.items()}
# (flag, place): one field of one input document.
_INPUT_FIELDS = st.sampled_from(sorted(_INPUT_PLACES)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.sampled_from(_INPUT_PLACES[flag]))
)
# Values outside their field's domain: at least one per input document.
_DOMAIN_ERRORS = [
    (("--criteria", ("max_collision_rate",)), 2),
    (("--occurrence", (0, "exposure_rate")), -1),
    (("--severity-rules", ("s2_impact_speed",)), 20),
    (("--mitigations", (0, "effect_overrides", "perception_range_factor")), 5),
    (("--mitigations", (0, "id")), ""),
    (("--odd", ("vehicle", "rho")), -1),
    (("--effects", ("by_leaf", "rain-light", "perception_range_factor")), 2),
    (("--taxonomy", ("roots", 0, "children", 0, "children", 1, "id")), "rain"),
    (("--taxonomy", ("roots", 0, "children", 0, "children")), []),
]


def _domain_errors(test):
    for field, value in _DOMAIN_ERRORS:
        test = example(field=field, value=value)(test)
    return test


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs") / "input.json"


def _spoil(field, value, path):
    """Write the input document of ``field`` with the value at its place
    replaced by ``value``, and load it; return the error, or None if it
    loads."""
    flag, place = field
    load, document = _INPUT_DOCUMENTS[flag]
    document = copy.deepcopy(document)
    container = document
    for key in place[:-1]:
        container = container[key]
    container[place[-1]] = value
    path.write_text(json.dumps(document))
    try:
        load(path)
    except (ValueError, SotifkitError) as exc:
        return exc
    return None


class TestLoaderValueTypes:
    @settings(max_examples=300, deadline=None)
    @given(field=_INPUT_FIELDS, value=_JSON_VALUES)
    @_domain_errors
    def test_any_field_value_loads_or_is_named(self, input_path, field, value):
        """Replace one field of one input document by any JSON value: the
        document either loads, or is rejected naming the file (with the
        item's index in a list file) and the field."""
        _, place = field
        error = _spoil(field, value, input_path)
        if error is not None:
            item = f"[{place[0]}]" if isinstance(place[0], int) else ": "
            assert str(error).startswith(f"{input_path}{item}"), error
            assert str(place[-1]) in str(error), error

    @settings(max_examples=25, deadline=None)
    @given(field=_INPUT_FIELDS, value=_JSON_VALUES)
    @_domain_errors
    def test_rejected_document_fails_run_at_load(self, input_path, tmp_path_factory, field, value):
        assume(_spoil(field, value, input_path) is not None)
        flag, _ = field
        args = TestCli()._run_args(tmp_path_factory.getbasetemp() / "never-written")
        if flag in args:
            args[args.index(flag) + 1] = str(input_path)
        else:
            args += [flag, str(input_path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(args) == EXIT_ERROR
        assert f"error in stage 'load': {input_path}" in err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestStatsSerialization:
    def test_no_closing_ttc_survives_round_trip(self):
        import math

        from sotifkit.report import _BUNDLE_TABLES
        from sotifkit.simulator import SweepStats

        stats = SweepStats(
            scenario_id="quiet",
            runs=3,
            collision_rate=0.0,
            false_activation_rate=0.0,
            gap_mean=5.0,
            gap_min=5.0,
            gap_max=5.0,
            impact_speed_mean=0.0,
            impact_speed_min=0.0,
            impact_speed_max=0.0,
            ttc_at_trigger_min=math.inf,
            odd_fingerprint="f" * 16,
        )
        table = _BUNDLE_TABLES["kpi_table"]
        as_dict = table.to_dict(stats)
        assert as_dict["ttc_at_trigger_min"] is None  # JSON has no Infinity
        assert table.from_dict(json.loads(json.dumps(as_dict))) == stats


class TestMarkdownSummary:
    def test_failing_bundle_names_hazard_sections(self, small_bundle):
        text = emit_markdown_summary(small_bundle)
        assert "### H1" in text
        assert "surface-gravel" in text
        assert "violate the acceptance criteria" in text
        assert "Worst hours-to-hazard" in text

    def test_all_pass_headline(self, campaign_inputs, tmp_path):
        relaxed = dict(campaign_inputs)
        relaxed["criteria"] = AcceptanceCriteria(
            max_final_gap_degradation=10.0,
            max_collision_rate=1.0,
            max_false_activation_rate=1.0,
            min_ttc_at_trigger=0.0,
        )
        bundle = run_campaign(**relaxed, base_seed=1, runs_per_scenario=3, trace_dir=tmp_path)
        assert bundle.all_passed
        assert "All acceptance criteria met." in emit_markdown_summary(bundle)

    def test_nominal_only_run_notes_it(self, campaign_inputs, tmp_path):
        import dataclasses

        inputs = dict(campaign_inputs)
        inputs["odd"] = dataclasses.replace(
            inputs["odd"], odd_tags=frozenset({"no-such-tag"})
        )
        bundle = run_campaign(**inputs, base_seed=1, runs_per_scenario=3, trace_dir=tmp_path)
        assert len(bundle.scenarios) == 1
        assert "Nominal-only run" in emit_markdown_summary(bundle)


def _trace_ids(out):
    """The scenario id of every line of a run's trace file, in file order."""
    lines = (out / "traces" / "traces.jsonl").read_text().splitlines()
    return [json.loads(line)["scenario_id"] for line in lines]


class TestCli:
    def _run_args(self, out, extra=()):
        return [
            "run",
            "--odd", str(fixture_path("odd.json")),
            "--taxonomy", str(fixture_path("taxonomy.json")),
            "--effects", str(fixture_path("effects.json")),
            "--occurrence", str(fixture_path("occurrence.json")),
            "--criteria", str(fixture_path("criteria.json")),
            "--out", str(out),
            "--seed", "42",
            "--runs", "5",
            *extra,
        ]

    def test_taxonomy_validate_ok(self, capsys):
        code = main(["taxonomy", "validate", str(fixture_path("taxonomy.json"))])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "28 leaf conditions" in out

    def test_taxonomy_validate_duplicate_ids(self, tmp_path, capsys):
        bad = {
            "version": 1,
            "roots": [
                {"id": "a", "name": "A", "odd_tags": []},
                {"id": "a", "name": "A again", "odd_tags": []},
            ],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(bad))
        code = main(["taxonomy", "validate", str(path)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "roots[0]" in err and "roots[1]" in err

    def test_taxonomy_validate_missing_file(self, tmp_path, capsys):
        code = main(["taxonomy", "validate", str(tmp_path / "nope.json")])
        assert code == EXIT_ERROR
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_taxonomy_not_utf8(self, command, tmp_path, capsys):
        path = tmp_path / "taxonomy.json"
        path.write_bytes(b'{"version": 1, "roots": ["\xff"]}')
        if command == "validate":
            args = ["taxonomy", "validate", str(path)]
        else:
            args = self._run_args(tmp_path / "bundle")
            args[args.index("--taxonomy") + 1] = str(path)
        assert main(args) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f": {path}: 'utf-8' codec can't decode" in err
        assert "Traceback" not in err

    def test_run_gate_fails_and_names_h1(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = main(self._run_args(out))
        captured = capsys.readouterr().out
        assert code == EXIT_GATE_FAILED
        assert (out / "bundle.json").exists()
        assert "nominal" in _trace_ids(out)
        assert "hazard H1" in captured and "surface-gravel" in captured
        assert "FAIL" in captured

    def test_run_no_gate_exits_zero(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(self._run_args(out, ["--no-gate"])) == EXIT_OK

    def test_run_with_mitigations(self, tmp_path):
        out = tmp_path / "bundle"
        code = main(
            self._run_args(
                out, ["--mitigations", str(fixture_path("mitigations.json"))]
            )
        )
        assert code == EXIT_GATE_FAILED
        bundle = load_bundle(out)
        assert bundle.mitigation_table
        assert "surface-icy+winter-tires" in _trace_ids(out)

    def test_cli_deterministic_across_invocations(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(self._run_args(out_a, ["--no-gate"]))
        main(self._run_args(out_b, ["--no-gate"]))
        a = json.loads((out_a / "bundle.json").read_text())
        b = json.loads((out_b / "bundle.json").read_text())
        a["meta"].pop("created_utc")
        b["meta"].pop("created_utc")
        assert a == b
        assert (out_a / "kpis.csv").read_bytes() == (out_b / "kpis.csv").read_bytes()
        assert (out_a / "risk.csv").read_bytes() == (out_b / "risk.csv").read_bytes()

    def test_stage_error_names_generate(self, tmp_path, capsys):
        # Mapping with no entry for a relevant leaf and no defaults.
        empty_mapping = tmp_path / "effects.json"
        empty_mapping.write_text('{"by_leaf": {}, "by_category": {}}')
        out = tmp_path / "bundle"
        args = self._run_args(out)
        args[args.index("--effects") + 1] = str(empty_mapping)
        code = main(args)
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "stage 'generate'" in err

    def test_mitigated_id_repeating_a_leaf_id_fails_mitigate(self, tmp_path, capsys):
        # Leaf 'surface-gravel' mitigated by 'winter-tires' would take the
        # id of a leaf of that name.
        clash = "surface-gravel+winter-tires"
        taxonomy = json.loads(fixture_path("taxonomy.json").read_text())
        surface = taxonomy["roots"][1]["children"][0]
        surface["children"].append({"id": clash, "name": "gravel twin", "odd_tags": []})
        effects = json.loads(fixture_path("effects.json").read_text())
        effects["by_leaf"][clash] = {"mu_factor": 0.5}
        mitigations = ["--mitigations", str(fixture_path("mitigations.json"))]
        args = self._run_args(tmp_path / "bundle", mitigations)
        for flag, document in (("--taxonomy", taxonomy), ("--effects", effects)):
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(document))
            args[args.index(flag) + 1] = str(path)
        assert main(args) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'mitigate': scenarios[")
        assert f"{clash!r} repeats scenarios[" in err

    def test_stage_error_names_risk(self, tmp_path, capsys):
        incomplete = tmp_path / "occurrence.json"
        occurrences = json.loads(fixture_path("occurrence.json").read_text())
        incomplete.write_text(json.dumps(occurrences[:-1]))
        out = tmp_path / "bundle"
        args = self._run_args(out)
        args[args.index("--occurrence") + 1] = str(incomplete)
        code = main(args)
        assert code == EXIT_ERROR
        assert "stage 'risk'" in capsys.readouterr().err

    def test_load_error_reported(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        args = self._run_args(out)
        args[args.index("--odd") + 1] = str(tmp_path / "missing.json")
        assert main(args) == EXIT_ERROR
        assert "stage 'load'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_malformed_input_reported(self, case, tmp_path, capsys):
        flag, document = MALFORMED_INPUTS[case]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        args = self._run_args(tmp_path / "bundle")
        if flag in args:
            args[args.index(flag) + 1] = str(path)
        else:
            args += [flag, str(path)]
        assert main(args) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "stage 'load'" in err and str(path) in err
        assert "Traceback" not in err

    # A campaign with no condition scenario has nothing to pass: the gate
    # fails it, unless --no-gate.
    @pytest.mark.parametrize(
        "flag, document",
        [
            ("--taxonomy", {"version": 1, "roots": []}),
            ("--odd", {**_FIXTURE_ODD, "odd_tags": ["no-such-tag"]}),
        ],
        ids=["empty-taxonomy", "odd-tags-match-no-leaf"],
    )
    @pytest.mark.parametrize(
        "gate, code", [([], EXIT_GATE_FAILED), (["--no-gate"], EXIT_OK)], ids=["gate", "no-gate"]
    )
    def test_run_without_condition_scenarios(self, flag, document, gate, code, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        out = tmp_path / "bundle"
        args = self._run_args(out, gate)
        args[args.index(flag) + 1] = str(path)
        assert main(args) == code
        stdout = capsys.readouterr().out
        assert "acceptance: 0/0 condition scenarios" in stdout
        assert "FAIL: no condition scenario was checked" in stdout
        assert "PASS" not in stdout
        assert load_bundle(out).acceptance == ()

    def test_run_rejects_what_report_would_reject(self, tmp_path, capsys):
        # A mitigation id that is not a string fails at load, instead of
        # giving a bundle that `sotifkit report` cannot read.
        path = tmp_path / "mitigations.json"
        path.write_text(json.dumps([{"id": 5, "description": "d"}]))
        out = tmp_path / "bundle"
        assert main(self._run_args(out, ["--mitigations", str(path)])) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"error in stage 'load': {path}[0].id: expected a string, got 5" in err
        assert not out.exists()

    def test_export_error_names_export(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(self._run_args(blocker / "bundle")) == EXIT_ERROR
        assert "stage 'export'" in capsys.readouterr().err

    def test_stale_trace_file_fails_export(self, tmp_path, capsys):
        # Files an earlier version wrote per scenario would pass for traces
        # of this run: the export stage names the first and deletes nothing.
        out = tmp_path / "bundle"
        (out / "traces").mkdir(parents=True)
        stale = [out / "traces" / name for name in ("nominal.jsonl", "fog.jsonl")]
        for path in stale:
            path.write_text("{}\n")
        assert main(self._run_args(out)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"error in stage 'export': {stale[1]}: " in err
        assert str(stale[0]) not in err
        assert "Traceback" not in err
        assert sorted(p.name for p in (out / "traces").iterdir()) == ["fog.jsonl", "nominal.jsonl"]
        assert not (out / "bundle.json").exists()

    def test_rerun_into_same_out_succeeds(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(self._run_args(out, ["--no-gate"])) == EXIT_OK
        first = (out / "traces" / "traces.jsonl").read_bytes()
        assert main(self._run_args(out, ["--no-gate"])) == EXIT_OK
        assert [p.name for p in (out / "traces").iterdir()] == ["traces.jsonl"]
        assert (out / "traces" / "traces.jsonl").read_bytes() == first

    def test_write_error_names_write(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        (out / "bundle.json").mkdir(parents=True)
        assert main(self._run_args(out)) == EXIT_ERROR
        assert "stage 'write'" in capsys.readouterr().err

    # meta holds the RunMeta fields and no other key: not even the
    # meta.workers of versions whose sweep had a thread pool, as those
    # versions also wrote acceptance.all_passed, which is rejected.
    @pytest.mark.parametrize("key, code", [("workers", EXIT_ERROR), ("colour", EXIT_ERROR)])
    def test_report_extra_meta_key(self, key, code, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(self._run_args(out, ["--no-gate"]))
        data = json.loads((out / "bundle.json").read_text())
        data["meta"][key] = 1
        (out / "bundle.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", str(out)]) == code
        assert f"cannot load bundle {out}: meta: unknown keys ['{key}']" in capsys.readouterr().err

    # (section, its replacement, where the error says the fault is)
    @pytest.mark.parametrize(
        "section, value, where",
        [
            ("scenarios", 5, "scenarios: "),
            ("kpi_table", [5], "kpi_table[0]: "),
            ("taxonomy_summary", [], "taxonomy_summary: "),
            (
                "taxonomy_summary",
                {"total_leaves": "many", "junk": [1, 2]},
                "taxonomy_summary: missing keys ['leaves_by_root', 'relevant_leaves']",
            ),
            (
                "taxonomy_summary",
                {**_TAXONOMY_SUMMARY, "junk": [1, 2]},
                "taxonomy_summary: unknown keys ['junk']",
            ),
            (
                "taxonomy_summary",
                {**_TAXONOMY_SUMMARY, "total_leaves": "many"},
                "taxonomy_summary.total_leaves: expected an integer",
            ),
            (
                "taxonomy_summary",
                {**_TAXONOMY_SUMMARY, "relevant_leaves": True},
                "taxonomy_summary.relevant_leaves: expected an integer",
            ),
            (
                "taxonomy_summary",
                {**_TAXONOMY_SUMMARY, "leaves_by_root": {"env": 1.5}},
                "taxonomy_summary.leaves_by_root: expected a JSON object, each value an integer",
            ),
            (
                "taxonomy_summary",
                {**_TAXONOMY_SUMMARY, "leaves_by_root": [3]},
                "taxonomy_summary.leaves_by_root: expected a JSON object",
            ),
            # The counts must agree with each other and with the bundle's
            # 22 condition scenarios (of the fixture's 28 leaves).
            (
                "taxonomy_summary",
                {"total_leaves": 3, "relevant_leaves": 99, "leaves_by_root": {"nowhere": 7}},
                "taxonomy_summary.leaves_by_root: the roots hold 7 leaves, not total_leaves 3",
            ),
            (
                "taxonomy_summary",
                {"total_leaves": 28, "relevant_leaves": 22, "leaves_by_root": {"env": 27}},
                "taxonomy_summary.leaves_by_root: the roots hold 27 leaves, not total_leaves 28",
            ),
            (
                "taxonomy_summary",
                {"total_leaves": 21, "relevant_leaves": 22, "leaves_by_root": {"env": 21}},
                "taxonomy_summary.relevant_leaves: 22 exceeds total_leaves 21",
            ),
            (
                "taxonomy_summary",
                {"total_leaves": 28, "relevant_leaves": 21, "leaves_by_root": {"env": 28}},
                "taxonomy_summary.relevant_leaves: 21, but the bundle holds 22 condition scenarios",
            ),
            (
                "acceptance",
                {"criteria": {}, "verdicts": []},
                "acceptance.criteria: ",
            ),
            ("acceptance", None, "acceptance: "),
            ("mitigation_table", [_MITIGATION_ROW_EXTRA_KEY], "mitigation_table[0]: "),
            (
                "mitigation_table",
                [_MITIGATION_ROW_WITH_KPI_COPIES],
                "mitigation_table[0]: unknown keys ['applied', 'collision_rate_after', ",
            ),
            (
                "acceptance",
                {"criteria": _FIXTURE_CRITERIA, "verdicts": [_VERDICT_VIOLATION_EXTRA_KEY]},
                "acceptance.verdicts[0].violations[0]: ",
            ),
            # A row's category path is its scenario's, and is not written.
            (
                "analysis_sheet",
                [{**_ANALYSIS_ROW, "category_path": 5}],
                "analysis_sheet[0]: unknown keys ['category_path']",
            ),
            ("risk_table", [{**_RISK_ROW, "risk_level": 5}], "risk_table[0].risk_level: "),
            (
                "analysis_sheet",
                [{**_ANALYSIS_ROW, "affected_subsystems": 5}],
                "analysis_sheet[0].affected_subsystems: ",
            ),
            ("kpi_table", [{**_KPI_ROW, "gap_mean": "x"}], "kpi_table[0].gap_mean: "),
            ("kpi_table", [{**_KPI_ROW, "runs": "3"}], "kpi_table[0].runs: "),
            (
                "analysis_sheet",
                [{**_ANALYSIS_ROW, "severity": "S9"}],
                "analysis_sheet[0].severity: expected one of ['S0', 'S1', 'S2', 'S3'], got 'S9'",
            ),
            ("kpi_table", [{**_KPI_ROW, "gap_mean": None}], "kpi_table[0].gap_mean: "),
            ("kpi_table", [{**_KPI_ROW, "gap_mean": float("nan")}], "kpi_table[0].gap_mean: "),
            (
                "analysis_sheet",
                [{**_ANALYSIS_ROW, "colour": "red"}],
                "analysis_sheet[0]: unknown keys ['colour']",
            ),
            (
                "risk_table",
                [{**_RISK_ROW, "colour": "red"}],
                "risk_table[0]: unknown keys ['colour']",
            ),
            (
                "acceptance",
                {"criteria": {**_FIXTURE_CRITERIA, "max_collision_rate": "x"}, "verdicts": []},
                "acceptance.criteria.max_collision_rate: ",
            ),
            (
                "acceptance",
                {"criteria": {**_FIXTURE_CRITERIA, "max_collision_rate": 2}, "verdicts": []},
                "acceptance.criteria: max_collision_rate must be in [0, 1]",
            ),
            (
                "kpi_table",
                [{**_KPI_ROW, "gap_mean": 10**400}, {**_KPI_ROW, "gap_mean": -(10**400)}],
                "kpi_table[0].gap_mean: expected a finite number",
            ),
        ],
        ids=[
            "scenarios-int",
            "kpi-table-item-int",
            "taxonomy-summary-list",
            "taxonomy-summary-junk",
            "taxonomy-summary-extra-key",
            "total-leaves-string",
            "relevant-leaves-bool",
            "leaves-by-root-float",
            "leaves-by-root-list",
            "taxonomy-summary-contradicts-itself",
            "leaves-by-root-sum",
            "relevant-leaves-above-total",
            "relevant-leaves-not-condition-scenarios",
            "criteria-empty",
            "acceptance-null",
            "mitigation-item-extra-key",
            "mitigation-item-with-kpi-copies",
            "violation-item-extra-key",
            "category-path-int",
            "risk-level-int",
            "affected-subsystems-int",
            "gap-mean-string",
            "runs-string",
            "severity-name-unknown",
            "gap-mean-null",
            "gap-mean-nan",
            "analysis-item-extra-key",
            "risk-item-extra-key",
            "criteria-value-string",
            "criteria-value-out-of-range",
            "gap-means-cancel-out",
        ],
    )
    def test_report_malformed_section(self, section, value, where, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(self._run_args(out, ["--no-gate"]))
        data = json.loads((out / "bundle.json").read_text())
        data[section] = value
        (out / "bundle.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_ERROR
        assert f"cannot load bundle {out}: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["scenario_id", "mitigated_scenario_id"])
    def test_report_mitigation_without_kpi_row(self, field, tmp_path, capsys):
        # A mitigation's KPIs are the kpi_table rows it names: a bundle
        # without them is rejected, not summarized.
        out = tmp_path / "bundle"
        mitigations = ["--no-gate", "--mitigations", str(fixture_path("mitigations.json"))]
        main(self._run_args(out, mitigations))
        data = json.loads((out / "bundle.json").read_text())
        table = data["mitigation_table"]
        missing = next(m for m in table if m["mitigated_scenario_id"])[field]
        data["kpi_table"] = [k for k in data["kpi_table"] if k["scenario_id"] != missing]
        (out / "bundle.json").write_text(json.dumps(data))
        i = next(i for i, m in enumerate(table) if m[field] == missing)
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_ERROR
        assert (
            f"cannot load bundle {out}: mitigation_table[{i}].{field}: "
            f"{missing!r} has no kpi_table row"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, field",
        [("scenarios", "id", "seed"), ("kpi_table", "scenario_id", "gap_mean")],
    )
    def test_report_repeated_scenario_id(self, section, key, field, tmp_path, capsys):
        # A second, conflicting item for one scenario is rejected, not
        # silently preferred.
        out = tmp_path / "bundle"
        main(self._run_args(out, ["--no-gate"]))
        data = json.loads((out / "bundle.json").read_text())
        items = data[section]
        items.append({**items[1], field: 0})
        (out / "bundle.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_ERROR
        assert (
            f"cannot load bundle {out}: {section}[{len(items) - 1}].{key}: "
            f"{items[1][key]!r} repeats {section}[1]"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["acceptance.verdicts", "analysis_sheet"])
    def test_report_repeated_verdict_or_analysis_row(self, section, tmp_path, capsys):
        # A condition scenario has one verdict and one analysis row: a copy
        # of either would be counted twice by the summary.
        out = tmp_path / "bundle"
        main(self._run_args(out, ["--no-gate"]))
        data = json.loads((out / "bundle.json").read_text())
        items = data["acceptance"]["verdicts"] if section == "acceptance.verdicts" else data[section]
        items.append(dict(items[1]))
        (out / "bundle.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_ERROR
        assert (
            f"cannot load bundle {out}: {section}[{len(items) - 1}].scenario_id: "
            f"{items[1]['scenario_id']!r} repeats {section}[1]"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize("scenario_id", ["nominal", "surface-icy+winter-tires", "unknown"])
    def test_report_analysis_row_of_no_condition_scenario(self, scenario_id, tmp_path, capsys):
        # A row's leaf id and category path are read from its scenario,
        # which must be an unmitigated condition scenario.
        out = tmp_path / "bundle"
        mitigations = ["--no-gate", "--mitigations", str(fixture_path("mitigations.json"))]
        main(self._run_args(out, mitigations))
        data = json.loads((out / "bundle.json").read_text())
        data["analysis_sheet"][2]["scenario_id"] = scenario_id
        (out / "bundle.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_ERROR
        assert (
            f"cannot load bundle {out}: analysis_sheet[2].scenario_id: "
            f"{scenario_id!r} is not a condition scenario"
        ) in capsys.readouterr().err

    # Earlier versions wrote acceptance.all_passed, and each analysis row's
    # leaf id (as triggering_condition) and category path.  All three are
    # derived now; a bundle that still holds them is rejected, not read.
    @pytest.mark.parametrize(
        "section, where",
        [
            ("acceptance", "acceptance: unknown keys ['all_passed']"),
            (
                "analysis_sheet",
                "analysis_sheet[0]: unknown keys ['category_path', 'triggering_condition']",
            ),
        ],
        ids=["all-passed", "analysis-leaf-and-path"],
    )
    def test_report_rejects_older_format(self, section, where, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(self._run_args(out, ["--no-gate"]))
        data = json.loads((out / "bundle.json").read_text())
        if section == "acceptance":
            data["acceptance"]["all_passed"] = False
        else:
            paths = {s["id"]: s["category_path"] for s in data["scenarios"]}
            for row in data["analysis_sheet"]:
                row["triggering_condition"] = row["scenario_id"]
                row["category_path"] = paths[row["scenario_id"]]
        (out / "bundle.json").write_text(json.dumps(data, indent=2))
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_ERROR
        assert f"cannot load bundle {out}: {where}" in capsys.readouterr().err

    def test_report_well_typed_rows(self, tmp_path, capsys):
        # The rows that the malformed cases above spoil load as they are.
        out = tmp_path / "bundle"
        main(self._run_args(out, ["--no-gate"]))
        data = json.loads((out / "bundle.json").read_text())
        data.update(kpi_table=[_KPI_ROW], analysis_sheet=[_ANALYSIS_ROW], risk_table=[_RISK_ROW])
        (out / "bundle.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_OK

    def test_report_reemits_summary(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(self._run_args(out, ["--no-gate"]))
        capsys.readouterr()
        code = main(["report", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout == (out / "summary.md").read_text()

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(self._run_args(out, ["--no-gate"]))
        target = tmp_path / "summary-copy.md"
        code = main(["report", str(out / "bundle.json"), "--out", str(target)])
        assert code == EXIT_OK
        assert target.read_text() == (out / "summary.md").read_text()

    def test_report_to_unwritable_path(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(self._run_args(out, ["--no-gate"]))
        target = tmp_path / "missing-dir" / "summary.md"
        capsys.readouterr()
        assert main(["report", str(out), "--out", str(target)]) == EXIT_ERROR
        assert f"cannot write {target}: " in capsys.readouterr().err

    def test_report_missing_bundle(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nothing")]) == EXIT_ERROR
        assert "cannot load" in capsys.readouterr().err


# A JSON document nested deeper than the parser reaches.
_DEEP_JSON = "[" * 2000 + "]" * 2000


@pytest.mark.parametrize("command", [*sorted(_INPUT_DOCUMENTS), "taxonomy validate", "report"])
def test_deep_json_is_rejected_naming_the_file(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP_JSON)
    if command == "taxonomy validate":
        args = ["taxonomy", "validate", str(path)]
    elif command == "report":
        args = ["report", str(path)]
    else:
        args = TestCli()._run_args(tmp_path / "bundle")
        if command in args:
            args[args.index(command) + 1] = str(path)
        else:
            args += [command, str(path)]
    assert main(args) == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"{path}: " in err
    assert "Traceback" not in err and "RecursionError" not in err


class TestInputDigests:
    def test_digests_recorded(self, tmp_path):
        out = tmp_path / "bundle"
        main(
            [
                "run",
                "--odd", str(fixture_path("odd.json")),
                "--taxonomy", str(fixture_path("taxonomy.json")),
                "--effects", str(fixture_path("effects.json")),
                "--occurrence", str(fixture_path("occurrence.json")),
                "--criteria", str(fixture_path("criteria.json")),
                "--out", str(out),
                "--runs", "2",
                "--no-gate",
            ]
        )
        meta = json.loads((out / "bundle.json").read_text())["meta"]
        assert set(meta["input_digests"]) == {
            "odd",
            "taxonomy",
            "effects",
            "occurrence",
            "criteria",
        }
        assert all(len(d) == 64 for d in meta["input_digests"].values())
