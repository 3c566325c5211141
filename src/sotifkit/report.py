"""Campaign orchestration and the argumentation report bundle.

``run_campaign`` executes the whole pipeline (filter -> generate ->
mitigate -> sweep -> export -> analyze -> risk -> acceptance) and returns
a :class:`ReportBundle`; ``write_bundle`` persists it as JSON plus CSV
tables plus a Markdown summary.  Bundles record digests of their input
files and the base seed, so a bundle is reproducible bit-for-bit (minus
the timestamp) from the same inputs.

This module owns the bundle's on-disk form: the JSON codec of every table
and the CSV tables.  The other modules compute and load, and know no
output format.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from . import __version__
from .analysis import AnalysisRow, Controllability, Severity, SeverityRules, build_analysis_sheet
from .errors import (
    BOOL,
    BOOL_OR_NULL,
    INT,
    LIST,
    NUMBER,
    NUMBER_OR_NULL,
    OBJECT,
    STR,
    STR_OR_NULL,
    STRINGS,
    ContractViolationError,
    Kind,
    PipelineError,
    check_items,
    check_object,
    fields_of,
    items_pass,
    list_of,
    located,
    one_of,
    parse_json,
)
from .risk import (
    AcceptanceCriteria,
    AcceptanceVerdict,
    OccurrenceClass,
    OccurrenceSpec,
    RiskLevel,
    RiskResult,
    Violation,
    acceptance_check,
    evaluate_residual_risk,
)
from .scenario import (
    EFFECT_FIELDS,
    EffectMapping,
    MitigationSpec,
    OddDefinition,
    Scenario,
    apply_mitigation,
    generate_scenarios,
    mitigation_applicable,
)
from .simulator import (
    SimConfig,
    Stage,
    SweepStats,
    export_trace_jsonl,
    monte_carlo_sweep,
    simulate,
)
from .taxonomy import Taxonomy, enumerate_leaves, filter_by_odd

__all__ = [
    "RunMeta",
    "ScenarioSummary",
    "MitigationOutcome",
    "ReportBundle",
    "run_campaign",
    "write_bundle",
    "load_bundle",
    "emit_markdown_summary",
    "file_digest",
    "write_kpi_csv",
    "write_analysis_csv",
    "write_risk_csv",
    "KPI_CSV_HEADER",
    "ANALYSIS_CSV_HEADER",
    "RISK_CSV_HEADER",
]

TOOL_NAME = "sotifkit"


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class RunMeta:
    tool: str
    version: str
    created_utc: str
    base_seed: int
    runs_per_scenario: int
    dt: float
    max_time: float
    perception_tick: float
    input_digests: Mapping[str, str]
    odd_well_formed: bool


@dataclass(frozen=True)
class ScenarioSummary:
    id: str
    leaf_id: str | None
    category_path: tuple[str, ...]
    intensity: str | None
    effects: Mapping[str, float]
    seed: int

    @staticmethod
    def of(scenario: Scenario) -> "ScenarioSummary":
        condition = scenario.condition
        return ScenarioSummary(
            id=scenario.id,
            leaf_id=condition.leaf_id if condition else None,
            category_path=condition.category_path if condition else (),
            intensity=condition.intensity if condition else None,
            effects={f: getattr(scenario.effects, f) for f in EFFECT_FIELDS},
            seed=scenario.seed,
        )


@dataclass(frozen=True)
class MitigationOutcome:
    """One mitigation applied to one scenario.  Its KPIs before and after
    are the ``kpi_table`` rows of ``scenario_id`` and
    ``mitigated_scenario_id`` (None when the mitigation is not applicable)."""

    mitigation_id: str
    scenario_id: str
    mitigated_scenario_id: str | None
    note: str
    passes_after: bool | None

    @property
    def applied(self) -> bool:
        return self.mitigated_scenario_id is not None


@dataclass(frozen=True)
class ReportBundle:
    meta: RunMeta
    taxonomy_summary: Mapping
    scenarios: tuple[ScenarioSummary, ...]
    kpi_table: tuple[SweepStats, ...]
    analysis_sheet: tuple[AnalysisRow, ...]
    risk_table: tuple[RiskResult, ...]
    mitigation_table: tuple[MitigationOutcome, ...]
    criteria: AcceptanceCriteria
    acceptance: tuple[AcceptanceVerdict, ...]

    def __post_init__(self) -> None:
        ids = {s.id for s in self.scenarios}
        for table in ("kpi_table", "analysis_sheet", "risk_table", "acceptance"):
            for item in getattr(self, table):
                if item.scenario_id not in ids:
                    raise ContractViolationError(
                        f"{table} references unknown scenario '{item.scenario_id}'"
                    )
        # A mitigation's KPIs are the kpi_table rows it names (None: not applied).
        known = {None, *(s.scenario_id for s in self.kpi_table)}
        for i, m in enumerate(self.mitigation_table):
            for field in ("scenario_id", "mitigated_scenario_id"):
                if getattr(m, field) not in known:
                    raise ContractViolationError(
                        f"mitigation_table[{i}].{field}: {getattr(m, field)!r} has no kpi_table row"
                    )

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.acceptance)


@contextmanager
def _stage(name: str):
    """Re-raise any error of the block as :class:`PipelineError` naming
    the stage."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc


_NOT_APPLICABLE = "not applicable: override would move an effect away from neutral"


def run_campaign(
    odd: OddDefinition,
    taxonomy: Taxonomy,
    mapping: EffectMapping,
    occurrences: Sequence[OccurrenceSpec],
    criteria: AcceptanceCriteria,
    mitigations: Sequence[MitigationSpec] = (),
    base_seed: int = 0,
    runs_per_scenario: int = 100,
    cfg: SimConfig | None = None,
    severity_rules: SeverityRules | None = None,
    input_digests: Mapping[str, str] | None = None,
    trace_dir: str | Path | None = None,
) -> ReportBundle:
    """Execute the full validation pipeline and assemble the bundle.

    Any module error is re-raised as :class:`PipelineError` naming the
    stage it came from.  When ``trace_dir`` is given, the first run
    (index 0) of every scenario is written to ``trace_dir/traces.jsonl``,
    one line per scenario in the bundle's scenario order.  The export
    stage fails, deleting nothing, when ``trace_dir`` already holds any
    other ``*.jsonl`` file.
    """
    if cfg is None:
        cfg = SimConfig()

    with _stage("filter"):
        all_conditions = enumerate_leaves(taxonomy)
        relevant = filter_by_odd(all_conditions, odd.odd_tags)

    with _stage("generate"):
        scenarios = generate_scenarios(odd, relevant, mapping, base_seed)
        nominal = scenarios[0]
        conditions = [s for s in scenarios if not s.is_nominal]

    # (mitigation, base scenario, mitigated scenario or None when the
    # mitigation is not applicable), mitigation-major.
    with _stage("mitigate"):
        trials = [
            (
                mitigation,
                scenario,
                apply_mitigation(scenario, mitigation)
                if mitigation_applicable(scenario, mitigation)
                else None,
            )
            for mitigation in mitigations
            for scenario in conditions
        ]
    all_scenarios = scenarios + [m for _, _, m in trials if m is not None]

    with _stage("sweep"):
        stats = monte_carlo_sweep(all_scenarios, cfg, runs_per_scenario)
        stats_by_id = {s.scenario_id: s for s in stats}
        nominal_stats = stats_by_id[nominal.id]

    if trace_dir is not None:
        with _stage("export"):
            trace_path = Path(trace_dir)
            trace_path.mkdir(parents=True, exist_ok=True)
            # An earlier version's per-scenario files would pass for traces
            # of this campaign; they are the caller's to remove.
            stale = sorted(p for p in trace_path.glob("*.jsonl") if p.name != "traces.jsonl")
            if stale:
                raise FileExistsError(
                    f"{stale[0]}: a trace file this campaign does not write; "
                    "remove it or write the traces to another directory"
                )
            traces = [simulate(scenario, cfg, run_index=0) for scenario in all_scenarios]
            export_trace_jsonl(traces, trace_path / "traces.jsonl")

    with _stage("analyze"):
        sheet = build_analysis_sheet(scenarios, stats, severity_rules=severity_rules)

    with _stage("risk"):
        risk_table = evaluate_residual_risk(sheet, stats, occurrences, odd.vehicle.v_r)

    with _stage("acceptance"):
        verdicts = [
            acceptance_check(nominal_stats, stats_by_id[s.id], criteria)
            for s in conditions
        ]
        mitigation_table = [
            MitigationOutcome(mitigation.id, scenario.id, None, _NOT_APPLICABLE, None)
            if mitigated is None
            else MitigationOutcome(
                mitigation.id,
                scenario.id,
                mitigated.id,
                mitigation.description,
                acceptance_check(nominal_stats, stats_by_id[mitigated.id], criteria).passed,
            )
            for mitigation, scenario, mitigated in trials
        ]

    leaves_by_root = {
        root.id: sum(
            1
            for c in all_conditions
            if c.category_path and c.category_path[0] == root.name
        )
        for root in taxonomy.roots
    }
    taxonomy_summary = {
        "total_leaves": len(all_conditions),
        "relevant_leaves": len(relevant),
        "leaves_by_root": leaves_by_root,
    }

    meta = RunMeta(
        tool=TOOL_NAME,
        version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
        base_seed=base_seed,
        runs_per_scenario=runs_per_scenario,
        dt=cfg.dt,
        max_time=cfg.max_time,
        perception_tick=cfg.perception_tick,
        input_digests=dict(input_digests or {}),
        odd_well_formed=odd.is_nominally_well_formed,
    )

    return ReportBundle(
        meta=meta,
        taxonomy_summary=taxonomy_summary,
        scenarios=tuple(ScenarioSummary.of(s) for s in all_scenarios),
        kpi_table=tuple(stats),
        analysis_sheet=tuple(sheet),
        risk_table=tuple(risk_table),
        mitigation_table=tuple(mitigation_table),
        criteria=criteria,
        acceptance=tuple(verdicts),
    )


# The bundle's on-disk form.  JSON has no Infinity: an unbounded value
# (a ttc, hours or km to hazard) is written as null.


def _json_float(x: float) -> float | None:
    return None if math.isinf(x) else x


def _from_json_float(x: float | None) -> float:
    return math.inf if x is None else x


def _fields_to_dict(item: object, fields: Iterable[str]) -> dict:
    """A fresh dict of ``item``'s attributes, keyed and ordered by ``fields``.
    Every value must be immutable or replaced by the caller with a copy."""
    return {name: getattr(item, name) for name in fields}


_STATS_FIELDS = fields_of(
    SweepStats,
    NUMBER,
    scenario_id=STR,
    runs=INT,
    ttc_at_trigger_min=NUMBER_OR_NULL,
    odd_fingerprint=STR,
)


def _stats_to_dict(s: SweepStats) -> dict:
    item = _fields_to_dict(s, _STATS_FIELDS)
    item["ttc_at_trigger_min"] = _json_float(s.ttc_at_trigger_min)
    return item


def _stats_from_dict(d: Mapping) -> SweepStats:
    return SweepStats(**{**d, "ttc_at_trigger_min": _from_json_float(d["ttc_at_trigger_min"])})


_SUMMARY_FIELDS = fields_of(
    ScenarioSummary,
    STR,
    leaf_id=STR_OR_NULL,
    category_path=STRINGS,
    intensity=STR_OR_NULL,
    effects=OBJECT,
    seed=INT,
)


def _summary_to_dict(s: ScenarioSummary) -> dict:
    item = _fields_to_dict(s, _SUMMARY_FIELDS)
    item["category_path"] = list(s.category_path)
    item["effects"] = dict(s.effects)
    return item


def _summary_from_dict(d: Mapping) -> ScenarioSummary:
    return ScenarioSummary(**{**d, "category_path": tuple(d["category_path"])})


def row_to_dict(row: AnalysisRow) -> dict:
    return {
        "scenario_id": row.scenario_id,
        "triggering_condition": row.leaf_id,
        "category_path": list(row.category_path),
        "affected_subsystems": sorted(s.value for s in row.affected_subsystems),
        "severity": row.severity.name,
        "controllability": row.controllability.name,
        "hazards": list(row.linked_hazard_ids),
        "rationale": row.rationale,
    }


def row_from_dict(data: Mapping) -> AnalysisRow:
    return AnalysisRow(
        scenario_id=data["scenario_id"],
        leaf_id=data["triggering_condition"],
        category_path=tuple(data["category_path"]),
        affected_subsystems=frozenset(Stage(s) for s in data["affected_subsystems"]),
        severity=Severity[data["severity"]],
        controllability=Controllability[data["controllability"]],
        linked_hazard_ids=tuple(data["hazards"]),
        rationale=data["rationale"],
    )


def risk_to_dict(r: RiskResult) -> dict:
    return {
        "scenario_id": r.scenario_id,
        "hazard_id": r.hazard_id,
        "severity": r.severity.name,
        "occurrence_class": r.occurrence_class.name,
        "risk_level": r.risk_level.label,
        "hazard_rate_per_hour": r.hazard_rate_per_hour,
        "hours_to_hazard": _json_float(r.hours_to_hazard),
        "km_to_hazard": _json_float(r.km_to_hazard),
    }


def risk_from_dict(data: Mapping) -> RiskResult:
    return RiskResult(
        scenario_id=data["scenario_id"],
        hazard_id=data["hazard_id"],
        severity=Severity[data["severity"]],
        occurrence_class=OccurrenceClass[data["occurrence_class"]],
        risk_level=RiskLevel[data["risk_level"].upper()],
        hazard_rate_per_hour=data["hazard_rate_per_hour"],
        hours_to_hazard=_from_json_float(data["hours_to_hazard"]),
        km_to_hazard=_from_json_float(data["km_to_hazard"]),
    )


_SEVERITY = one_of(Severity.__members__)


class _Table(NamedTuple):
    """One bundle table on disk: each item's keys with the kind of their
    values, and the item codec."""

    fields: Mapping[str, Kind]
    to_dict: Callable[[Any], dict]
    from_dict: Callable[[Mapping], Any]


_MITIGATION_FIELDS = fields_of(
    MitigationOutcome, STR, mitigated_scenario_id=STR_OR_NULL, passes_after=BOOL_OR_NULL
)

# Every table of the bundle, in bundle.json's order, keyed by its section
# (which is also its ReportBundle attribute).
_BUNDLE_TABLES = {
    "scenarios": _Table(_SUMMARY_FIELDS, _summary_to_dict, _summary_from_dict),
    "kpi_table": _Table(_STATS_FIELDS, _stats_to_dict, _stats_from_dict),
    "analysis_sheet": _Table(
        {
            "scenario_id": STR,
            "triggering_condition": STR,
            "category_path": STRINGS,
            "affected_subsystems": list_of(one_of(s.value for s in Stage)),
            "severity": _SEVERITY,
            "controllability": one_of(Controllability.__members__),
            "hazards": STRINGS,
            "rationale": STR,
        },
        row_to_dict,
        row_from_dict,
    ),
    "risk_table": _Table(
        {
            "scenario_id": STR,
            "hazard_id": STR_OR_NULL,
            "severity": _SEVERITY,
            "occurrence_class": one_of(OccurrenceClass.__members__),
            "risk_level": one_of(level.label for level in RiskLevel),
            "hazard_rate_per_hour": NUMBER,
            "hours_to_hazard": NUMBER_OR_NULL,
            "km_to_hazard": NUMBER_OR_NULL,
        },
        risk_to_dict,
        risk_from_dict,
    ),
    "mitigation_table": _Table(
        _MITIGATION_FIELDS,
        lambda m: _fields_to_dict(m, _MITIGATION_FIELDS),
        lambda d: MitigationOutcome(**d),
    ),
}
_META_FIELDS = fields_of(
    RunMeta,
    STR,
    base_seed=INT,
    runs_per_scenario=INT,
    dt=NUMBER,
    max_time=NUMBER,
    perception_tick=NUMBER,
    input_digests=OBJECT,
    odd_well_formed=BOOL,
)
_CRITERIA_FIELDS = fields_of(AcceptanceCriteria, NUMBER)
_VERDICT_FIELDS = fields_of(AcceptanceVerdict, STR, passed=BOOL, violations=list_of(OBJECT))
_VIOLATION_FIELDS = fields_of(Violation, NUMBER, clause=STR)
_BUNDLE_SECTIONS = {
    "meta": OBJECT,
    "taxonomy_summary": OBJECT,
    **dict.fromkeys(_BUNDLE_TABLES, LIST),
    "acceptance": OBJECT,
}


def _verdict_to_dict(v: AcceptanceVerdict) -> dict:
    item = _fields_to_dict(v, _VERDICT_FIELDS)
    item["violations"] = [_fields_to_dict(x, _VIOLATION_FIELDS) for x in v.violations]
    return item


def bundle_to_dict(bundle: ReportBundle) -> dict:
    """The bundle as bundle.json holds it: fresh dicts and lists only, so a
    caller may change the result without touching ``bundle``."""
    meta = _fields_to_dict(bundle.meta, _META_FIELDS)
    meta["input_digests"] = dict(bundle.meta.input_digests)
    return {
        "meta": meta,
        "taxonomy_summary": copy.deepcopy(bundle.taxonomy_summary),
        **{
            name: [table.to_dict(item) for item in getattr(bundle, name)]
            for name, table in _BUNDLE_TABLES.items()
        },
        "acceptance": {
            "criteria": _fields_to_dict(bundle.criteria, _CRITERIA_FIELDS),
            "verdicts": list(map(_verdict_to_dict, bundle.acceptance)),
            "all_passed": bundle.all_passed,
        },
    }


def bundle_from_dict(data: Mapping) -> ReportBundle:
    check_object(data, "", _BUNDLE_SECTIONS)
    acceptance = check_object(
        data["acceptance"],
        "acceptance",
        {"criteria": OBJECT, "verdicts": LIST},
        {"all_passed": BOOL},
    )
    tables = {
        name: tuple(map(table.from_dict, check_items(data[name], name, table.fields)))
        for name, table in _BUNDLE_TABLES.items()
    }
    raw_verdicts = check_items(acceptance["verdicts"], "acceptance.verdicts", _VERDICT_FIELDS)
    # The violations of all verdicts are checked at once; only a failure is
    # searched verdict by verdict.
    violations = [v["violations"] for v in raw_verdicts]
    if not items_pass(list(chain.from_iterable(violations)), _VIOLATION_FIELDS):
        for i, items in enumerate(violations):
            check_items(items, f"acceptance.verdicts[{i}].violations", _VIOLATION_FIELDS)
    verdicts = tuple(
        AcceptanceVerdict(
            scenario_id=v["scenario_id"],
            passed=v["passed"],
            violations=tuple(Violation(**x) for x in v["violations"]),
        )
        for v in raw_verdicts
    )
    criteria = check_object(acceptance["criteria"], "acceptance.criteria", _CRITERIA_FIELDS)
    with located("acceptance.criteria"):
        criteria = AcceptanceCriteria(**criteria)
    # Bundles written while the sweep still had a thread pool record its
    # worker count in meta.workers.  It never changed a result, so it is
    # accepted and dropped.
    meta = check_object(data["meta"], "meta", _META_FIELDS, {"workers": INT})
    return ReportBundle(
        meta=RunMeta(**{name: meta[name] for name in _META_FIELDS}),
        taxonomy_summary=data["taxonomy_summary"],
        **tables,
        criteria=criteria,
        acceptance=verdicts,
    )


KPI_CSV_HEADER = (
    "scenario_id",
    "runs",
    "collision_rate",
    "false_activation_rate",
    "gap_mean",
    "gap_min",
    "gap_max",
    "impact_speed_max",
)

ANALYSIS_CSV_HEADER = (
    "triggering_condition",
    "category_path",
    "affected_subsystems",
    "severity",
    "controllability",
    "hazards",
    "rationale",
)

RISK_CSV_HEADER = (
    "scenario_id",
    "hazard_id",
    "severity",
    "occurrence_class",
    "risk_level",
    "hazard_rate_per_hour",
    "hours_to_hazard",
    "km_to_hazard",
)


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_kpi_csv(stats: Sequence[SweepStats], path: str | Path) -> None:
    """Write sweep aggregates as CSV (one row per scenario)."""
    # Each column is the SweepStats field of the same name.
    _write_csv(path, KPI_CSV_HEADER, map(attrgetter(*KPI_CSV_HEADER), stats))


def write_analysis_csv(rows: Sequence[AnalysisRow], path: str | Path) -> None:
    _write_csv(
        path,
        ANALYSIS_CSV_HEADER,
        (
            [
                row.leaf_id,
                " / ".join(row.category_path),
                ", ".join(sorted(s.value for s in row.affected_subsystems)),
                row.severity.name,
                row.controllability.name,
                ", ".join(row.linked_hazard_ids),
                row.rationale,
            ]
            for row in rows
        ),
    )


def write_risk_csv(results: Sequence[RiskResult], path: str | Path) -> None:
    _write_csv(
        path,
        RISK_CSV_HEADER,
        (
            [
                r.scenario_id,
                r.hazard_id or "",
                r.severity.name,
                r.occurrence_class.name,
                r.risk_level.label,
                r.hazard_rate_per_hour,
                r.hours_to_hazard,
                r.km_to_hazard,
            ]
            for r in results
        ),
    )


def write_bundle(bundle: ReportBundle, out_dir: str | Path) -> Path:
    """Persist the bundle under ``out_dir``; returns the bundle.json path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle_path = out / "bundle.json"
    bundle_path.write_text(
        json.dumps(bundle_to_dict(bundle), indent=2) + "\n", encoding="utf-8"
    )
    write_kpi_csv(bundle.kpi_table, out / "kpis.csv")
    write_analysis_csv(bundle.analysis_sheet, out / "analysis_sheet.csv")
    write_risk_csv(bundle.risk_table, out / "risk.csv")
    (out / "summary.md").write_text(emit_markdown_summary(bundle), encoding="utf-8")
    return bundle_path


def load_bundle(path: str | Path) -> ReportBundle:
    """Read a bundle back from bundle.json (or a directory containing it)."""
    p = Path(path)
    if p.is_dir():
        p = p / "bundle.json"
    return bundle_from_dict(parse_json(p.read_text(encoding="utf-8")))


def _fmt(x: float | None, digits: int = 3) -> str:
    if x is None:
        return "-"
    if math.isinf(x):
        return "unbounded"
    return f"{x:.{digits}f}"


# The summary's mitigation columns: each KPI before -> after, and its digits.
_MITIGATION_KPIS = (("gap_mean", 3), ("collision_rate", 2), ("false_activation_rate", 2))


def emit_markdown_summary(bundle: ReportBundle) -> str:
    """Human-readable argumentation summary for the campaign."""
    lines: list[str] = []
    meta = bundle.meta
    lines.append("# SOTIF validation summary")
    lines.append("")
    lines.append(
        f"Tool: {meta.tool} {meta.version} | base seed: {meta.base_seed} | "
        f"runs per scenario: {meta.runs_per_scenario} | dt: {meta.dt} s"
    )
    if meta.input_digests:
        lines.append("")
        lines.append("Input digests:")
        for name in sorted(meta.input_digests):
            lines.append(f"- {name}: `{meta.input_digests[name]}`")
    if not meta.odd_well_formed:
        lines.append("")
        lines.append(
            "Note: the ODD is not nominally well-formed "
            "(sensor range does not exceed both the object distance and the safe distance)."
        )
    lines.append("")

    lines.append("## Acceptance")
    lines.append("")
    if not bundle.acceptance:
        lines.append(
            "Nominal-only run: no triggering conditions were relevant for this ODD; "
            "only the nominal scenario was exercised."
        )
    else:
        failed = [v for v in bundle.acceptance if not v.passed]
        if not failed:
            lines.append("All acceptance criteria met.")
        else:
            lines.append(
                f"{len(failed)} of {len(bundle.acceptance)} condition scenarios "
                "violate the acceptance criteria."
            )
        lines.append("")
        lines.append("| scenario | verdict | violated clauses |")
        lines.append("| --- | --- | --- |")
        for v in bundle.acceptance:
            clauses = (
                "; ".join(
                    f"{x.clause} ({_fmt(x.measured)} vs {_fmt(x.threshold)})"
                    for x in v.violations
                )
                or "-"
            )
            lines.append(
                f"| {v.scenario_id} | {'pass' if v.passed else 'FAIL'} | {clauses} |"
            )
    lines.append("")

    hazard_links: dict[str, list[RiskResult]] = {}
    for r in bundle.risk_table:
        if r.hazard_id is not None:
            hazard_links.setdefault(r.hazard_id, []).append(r)
    if hazard_links:
        lines.append("## Hazards")
        lines.append("")
        for hazard_id in sorted(hazard_links):
            entries = hazard_links[hazard_id]
            names = ", ".join(e.scenario_id for e in entries)
            lines.append(f"### {hazard_id}")
            lines.append("")
            lines.append(f"Linked scenarios: {names}")
            lines.append("")

    if bundle.risk_table:
        lines.append("## Residual risk")
        lines.append("")
        bounded = [r for r in bundle.risk_table if r.hazard_rate_per_hour > 0]
        if bounded:
            worst = min(bounded, key=lambda r: r.hours_to_hazard)
            lines.append(
                f"Worst hours-to-hazard: {_fmt(worst.hours_to_hazard, 1)} h "
                f"({worst.scenario_id}, {worst.hazard_id})"
            )
            lines.append("")
        lines.append(
            "| scenario | hazard | severity | occurrence | risk | rate/h | hours | km |"
        )
        lines.append("| --- | --- | --- | --- | --- | --- | --- | --- |")
        for r in sorted(
            bundle.risk_table,
            key=lambda r: (-int(r.risk_level), -r.hazard_rate_per_hour, r.scenario_id),
        ):
            lines.append(
                f"| {r.scenario_id} | {r.hazard_id or '-'} | {r.severity.name} "
                f"| {r.occurrence_class.name} | {r.risk_level.label} "
                f"| {_fmt(r.hazard_rate_per_hour, 6)} | {_fmt(r.hours_to_hazard, 1)} "
                f"| {_fmt(r.km_to_hazard, 1)} |"
            )
        lines.append("")

    if bundle.mitigation_table:
        kpis = {s.scenario_id: s for s in bundle.kpi_table}
        lines.append("## Mitigations")
        lines.append("")
        lines.append(
            "| mitigation | scenario | applied | gap mean | collision rate | false activation rate | passes after |"
        )
        lines.append("| --- | --- | --- | --- | --- | --- | --- |")
        for m in bundle.mitigation_table:
            before = kpis[m.scenario_id]
            after = kpis.get(m.mitigated_scenario_id)  # None when not applied
            changes = " | ".join(
                f"{_fmt(getattr(before, kpi), digits)} -> {_fmt(getattr(after, kpi, None), digits)}"
                for kpi, digits in _MITIGATION_KPIS
            )
            passes = "-" if m.passes_after is None else ("yes" if m.passes_after else "no")
            lines.append(
                f"| {m.mitigation_id} | {m.scenario_id} | {'yes' if m.applied else 'no'} "
                f"| {changes} | {passes} |"
            )
        lines.append("")

    return "\n".join(lines) + "\n"
