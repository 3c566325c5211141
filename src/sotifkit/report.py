"""Campaign orchestration and the argumentation report bundle.

``run_campaign`` executes the whole pipeline (filter -> generate ->
mitigate -> sweep -> export -> analyze -> risk -> acceptance) and returns
a :class:`ReportBundle`; ``write_bundle`` persists it as JSON (one table
item per line) plus CSV tables plus a Markdown summary.  Bundles record
digests of their input files and the base seed, so a bundle is
reproducible bit-for-bit (minus the timestamp) from the same inputs.

This module owns the bundle's on-disk form: the JSON codec of every table
and the CSV tables.  The other modules compute and load, and know no
output format.  Each item type's JSON keys, the kinds of their values and
their encodings are declared once, as a column table (``_BUNDLE_TABLES``
and the meta and acceptance tables beside it); that table writes, checks
and reads the item.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    check_unique,
    fields_of,
    items_pass,
    json_encoder,
    list_of,
    located,
    object_of,
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
    _sharing,
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
    "bundle_text",
    "load_bundle",
    "emit_markdown_summary",
    "hazard_links",
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


class ScenarioSummary(NamedTuple):
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

    @property
    def is_condition(self) -> bool:
        """A scenario of one triggering condition, unmitigated: its id is its
        leaf id.  (A mitigated scenario's id is ``<leaf id>+<mitigation id>``;
        the nominal one has no leaf.)"""
        return self.id == self.leaf_id


class MitigationOutcome(NamedTuple):
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
        # One verdict per condition scenario, and none for another scenario.
        judged = [v.scenario_id for v in self.acceptance]
        conditions = {s.id for s in self.scenarios if s.is_condition}
        if len(judged) != len(conditions) or set(judged) != conditions:
            verdicts = Counter(judged)
            s = next(s for s in self.scenarios if verdicts[s.id] != s.is_condition)
            kind = "condition scenario" if s.is_condition else "scenario"
            expected = "not 1" if s.is_condition else "not a condition scenario"
            raise ContractViolationError(
                f"acceptance holds {verdicts[s.id]} verdict(s) for {kind} '{s.id}', {expected}"
            )
        # The taxonomy summary's counts agree with each other and with the
        # condition scenarios, one per relevant leaf.
        total = self.taxonomy_summary["total_leaves"]
        relevant = self.taxonomy_summary["relevant_leaves"]
        by_root = sum(self.taxonomy_summary["leaves_by_root"].values())
        if by_root != total:
            raise ContractViolationError(
                f"taxonomy_summary.leaves_by_root: the roots hold {by_root} leaves, "
                f"not total_leaves {total}"
            )
        if relevant > total:
            raise ContractViolationError(
                f"taxonomy_summary.relevant_leaves: {relevant} exceeds total_leaves {total}"
            )
        if relevant != len(conditions):
            raise ContractViolationError(
                f"taxonomy_summary.relevant_leaves: {relevant}, but the bundle holds "
                f"{len(conditions)} condition scenarios"
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
    *,
    trace_dir: str | Path,
) -> ReportBundle:
    """Execute the full validation pipeline and assemble the bundle.

    Any module error is re-raised as :class:`PipelineError` naming the
    stage it came from.  The first run (index 0) of every scenario is
    written to ``trace_dir/traces.jsonl``, one line per scenario in the
    bundle's scenario order.  Each trace is handed over from the sweep, in
    one sharing block, and its line is built as it is written, so a failure
    during the export can leave a partial ``traces.jsonl``.  The export
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
        # A mitigated id, <scenario id>+<mitigation id>, can spell another's.
        check_unique([{"id": s.id} for s in all_scenarios], "scenarios", "id")

    # The sweep's run-0 traces are kept until the export takes them.
    with _sharing():
        with _stage("sweep"):
            stats = monte_carlo_sweep(all_scenarios, cfg, runs_per_scenario)
            stats_by_id = {s.scenario_id: s for s in stats}
            nominal_stats = stats_by_id[nominal.id]

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
            traces = (simulate(scenario, cfg, run_index=0) for scenario in all_scenarios)
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

    taxonomy_summary = {
        "total_leaves": len(all_conditions),
        "relevant_leaves": len(relevant),
        "leaves_by_root": {root.id: Taxonomy((root,)).leaf_count() for root in taxonomy.roots},
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


# The bundle's on-disk form: one _Table per item type.


class _Column(NamedTuple):
    """One JSON key of an item: its value's kind, the attribute holding it
    (``None``: the key's own name), and the functions that code the
    attribute's value to JSON and back (``None``: stored as it is)."""

    kind: Kind
    encode: Callable[[Any], Any] | None = None
    decode: Callable[[Any], Any] | None = None
    attr: str | None = None


class _Table:
    """An item type on disk: ``fields`` gives each JSON key's kind for the
    checker, ``to_dict`` and ``from_dict`` code an item.  The columns follow
    the item's fields (:func:`errors.fields_of`: a NamedTuple's or a
    dataclass's), so that an item is built from its values in column
    order.  The values are read all at once; only the coded
    columns cost a Python call per item."""

    def __init__(self, cls: Callable[..., Any], columns: Mapping[str, Kind | _Column]):
        columns = {k: c if isinstance(c, _Column) else _Column(c) for k, c in columns.items()}
        self.cls = cls
        self.fields = {key: column.kind for key, column in columns.items()}
        self._keys = tuple(columns)
        self._attrs = attrgetter(*(c.attr or key for key, c in columns.items()))
        self._items = itemgetter(*columns)
        self._encoders = [(key, c.encode) for key, c in columns.items() if c.encode]
        self._decoders = [(i, c.decode) for i, c in enumerate(columns.values()) if c.decode]

    @classmethod
    def of(cls, item_cls: type, kind: Kind, **special: Kind | _Column) -> "_Table":
        """The table of a record whose keys are its fields: each of kind
        ``kind``, unless ``special`` names another kind or column."""
        return cls(item_cls, fields_of(item_cls, kind, **special))

    def to_dict(self, item: object) -> dict:
        """A fresh dict: every value is immutable or coded into a copy."""
        data = dict(zip(self._keys, self._attrs(item)))
        for key, encode in self._encoders:
            data[key] = encode(data[key])
        return data

    def from_dict(self, data: Mapping) -> Any:
        """The item of a checked dict; keys it has no column for are ignored."""
        values = list(self._items(data))
        for i, decode in self._decoders:
            values[i] = decode(values[i])
        return self.cls(*values)


# JSON has no Infinity: an unbounded value (a ttc, hours or km to hazard)
# is written as null.
_UNBOUNDED = _Column(
    NUMBER_OR_NULL,
    lambda x: None if math.isinf(x) else x,
    lambda x: math.inf if x is None else x,
)
_STRINGS = _Column(STRINGS, list, tuple)
# A mapping is written as a copy, so that the written dict is fresh.
_MAPPING = _Column(OBJECT, dict)


def _named(cls: type, name: Callable[[Any], str] = attrgetter("name")) -> _Column:
    """An enum member written as its ``name`` (or another name it has)."""
    names = {member: name(member) for member in cls}
    members = {label: member for member, label in names.items()}
    return _Column(one_of(members), names.__getitem__, members.__getitem__)


_SEVERITY = _named(Severity)
_VIOLATIONS = _Table.of(Violation, NUMBER, clause=STR)
_VERDICTS = _Table.of(
    AcceptanceVerdict,
    STR,
    passed=BOOL,
    violations=_Column(
        list_of(OBJECT),
        lambda violations: list(map(_VIOLATIONS.to_dict, violations)),
        lambda items: tuple(map(_VIOLATIONS.from_dict, items)),
    ),
)
_CRITERIA = _Table.of(AcceptanceCriteria, NUMBER)
_META = _Table.of(
    RunMeta,
    STR,
    base_seed=INT,
    runs_per_scenario=INT,
    dt=NUMBER,
    max_time=NUMBER,
    perception_tick=NUMBER,
    input_digests=_MAPPING,
    odd_well_formed=BOOL,
)

# Every table of the bundle, in bundle.json's order, keyed by its section
# (which is also its ReportBundle attribute).
_BUNDLE_TABLES = {
    "scenarios": _Table.of(
        ScenarioSummary,
        STR,
        leaf_id=STR_OR_NULL,
        category_path=_STRINGS,
        intensity=STR_OR_NULL,
        effects=_MAPPING,
        seed=INT,
    ),
    "kpi_table": _Table.of(
        SweepStats,
        NUMBER,
        scenario_id=STR,
        runs=INT,
        ttc_at_trigger_min=_UNBOUNDED,
        odd_fingerprint=STR,
    ),
    # A row's leaf id and category path are its scenario's, so they are not
    # written: the table reads a row's other values, in AnalysisRow field
    # order, and bundle_from_dict joins them with its scenario.
    "analysis_sheet": _Table(
        lambda *values: values,
        {
            "scenario_id": STR,
            "affected_subsystems": _Column(
                list_of(one_of(s.value for s in Stage)),
                lambda stages: sorted(s.value for s in stages),
                lambda values: frozenset(map(Stage, values)),
            ),
            "severity": _SEVERITY,
            "controllability": _named(Controllability),
            "hazards": _STRINGS._replace(attr="linked_hazard_ids"),
            "rationale": STR,
        },
    ),
    "risk_table": _Table.of(
        RiskResult,
        NUMBER,
        scenario_id=STR,
        hazard_id=STR_OR_NULL,
        severity=_SEVERITY,
        occurrence_class=_named(OccurrenceClass),
        risk_level=_named(RiskLevel, attrgetter("label")),
        hours_to_hazard=_UNBOUNDED,
        km_to_hazard=_UNBOUNDED,
    ),
    "mitigation_table": _Table.of(
        MitigationOutcome, STR, mitigated_scenario_id=STR_OR_NULL, passes_after=BOOL_OR_NULL
    ),
}
_TAXONOMY_SUMMARY = {"total_leaves": INT, "relevant_leaves": INT, "leaves_by_root": object_of(INT)}
_BUNDLE_SECTIONS = {
    "meta": OBJECT,
    "taxonomy_summary": OBJECT,
    **dict.fromkeys(_BUNDLE_TABLES, LIST),
    "acceptance": OBJECT,
}


def bundle_to_dict(bundle: ReportBundle) -> dict:
    """The bundle as bundle.json holds it: fresh dicts and lists only, so a
    caller may change the result without touching ``bundle``."""
    return {
        "meta": _META.to_dict(bundle.meta),
        "taxonomy_summary": copy.deepcopy(bundle.taxonomy_summary),
        **{
            name: list(map(table.to_dict, getattr(bundle, name)))
            for name, table in _BUNDLE_TABLES.items()
        },
        "acceptance": {
            "criteria": _CRITERIA.to_dict(bundle.criteria),
            "verdicts": list(map(_VERDICTS.to_dict, bundle.acceptance)),
        },
    }


def _join_sheet(
    items: Iterable[tuple], scenarios: Iterable[ScenarioSummary]
) -> tuple[AnalysisRow, ...]:
    """The analysis rows of the values that the analysis table read, each
    joined with the leaf id and category path of its condition scenario."""
    by_id = {s.id: s for s in scenarios}
    rows = []
    for i, (scenario_id, *values) in enumerate(items):
        scenario = by_id.get(scenario_id)
        if scenario is None or not scenario.is_condition:
            raise ContractViolationError(
                f"analysis_sheet[{i}].scenario_id: {scenario_id!r} is not a condition scenario"
            )
        rows.append(AnalysisRow(scenario_id, scenario.leaf_id, scenario.category_path, *values))
    return tuple(rows)


def bundle_from_dict(data: Mapping) -> ReportBundle:
    check_object(data, "", _BUNDLE_SECTIONS)
    acceptance = check_object(
        data["acceptance"], "acceptance", {"criteria": OBJECT, "verdicts": LIST}
    )
    tables = {
        name: tuple(map(table.from_dict, check_items(data[name], name, table.fields)))
        for name, table in _BUNDLE_TABLES.items()
    }
    # The other tables name a scenario, and a mitigation its kpi_table rows,
    # by id: an id must name one item.
    check_unique(data["scenarios"], "scenarios", "id")
    check_unique(data["kpi_table"], "kpi_table", "scenario_id")
    check_unique(data["analysis_sheet"], "analysis_sheet", "scenario_id")
    verdicts = check_items(acceptance["verdicts"], "acceptance.verdicts", _VERDICTS.fields)
    check_unique(verdicts, "acceptance.verdicts", "scenario_id")
    tables["analysis_sheet"] = _join_sheet(tables["analysis_sheet"], tables["scenarios"])
    # The violations of all verdicts are checked at once; only a failure is
    # searched verdict by verdict.
    violations = [v["violations"] for v in verdicts]
    if not items_pass(list(chain.from_iterable(violations)), _VIOLATIONS.fields):
        for i, items in enumerate(violations):
            check_items(items, f"acceptance.verdicts[{i}].violations", _VIOLATIONS.fields)
    criteria = check_object(acceptance["criteria"], "acceptance.criteria", _CRITERIA.fields)
    with located("acceptance.criteria"):
        criteria = _CRITERIA.from_dict(criteria)
    meta = check_object(data["meta"], "meta", _META.fields)
    summary = check_object(data["taxonomy_summary"], "taxonomy_summary", _TAXONOMY_SUMMARY)
    return ReportBundle(
        meta=_META.from_dict(meta),
        taxonomy_summary=summary,
        **tables,
        criteria=criteria,
        acceptance=tuple(map(_VERDICTS.from_dict, verdicts)),
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


def _bundle_pieces(data: Mapping) -> Iterator[str]:
    """bundle.json's text for ``data``, a :func:`bundle_to_dict` result, in
    order, a line or less at a time.

    Each top-level section is on a line of its own, and so is each item of
    a list in it or in one of its objects: each table item and each verdict,
    so that a changed item is a one-line diff.  Every line is written by
    one :func:`errors.json_encoder`, json's C encoder built once for the
    whole bundle (``indent`` would turn it off); where json has no C
    encoder, that is ``json.dumps``, with the same bytes."""
    dumps = json_encoder()

    def value(v: Any, top: bool) -> Iterator[str]:
        if isinstance(v, list) and v:  # a table: one item per line
            lead = "[\n    "
            for item in v:
                yield lead + dumps(item)
                lead = ",\n    "
            yield "\n  ]"
        elif isinstance(v, dict) and top:  # a section: its lists' items one per line
            yield "{"
            lead = ""
            for k, x in v.items():
                yield f"{lead}{dumps(k)}: "
                lead = ", "
                yield from value(x, False)
            yield "}"
        else:
            yield dumps(v)

    yield "{\n"
    lead = ""
    for k, v in data.items():
        yield f"{lead}  {dumps(k)}: "
        lead = ",\n"
        yield from value(v, True)
    yield "\n}\n"


def bundle_text(data: Mapping) -> str:
    """bundle.json's text for ``data``, a :func:`bundle_to_dict` result: the
    pieces that :func:`write_bundle` writes, joined."""
    return "".join(_bundle_pieces(data))


def write_bundle(bundle: ReportBundle, out_dir: str | Path) -> Path:
    """Persist the bundle under ``out_dir``; returns the bundle.json path.

    bundle.json is written as it is encoded, an item line at a time, so its
    whole text is never held; a failure during the write can leave a
    partial bundle.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle_path = out / "bundle.json"
    with open(bundle_path, "w", encoding="utf-8") as f:
        f.writelines(_bundle_pieces(bundle_to_dict(bundle)))
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


def hazard_links(risk_table: Iterable[RiskResult]) -> dict[str, list[str]]:
    """The ids of the scenarios linked to each hazard, in risk-table order,
    keyed by hazard id in sorted order."""
    links: dict[str, list[str]] = {}
    for r in risk_table:
        if r.hazard_id is not None:
            links.setdefault(r.hazard_id, []).append(r.scenario_id)
    return dict(sorted(links.items()))


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

    links = hazard_links(bundle.risk_table)
    if links:
        lines.append("## Hazards")
        lines.append("")
        for hazard_id, scenario_ids in links.items():
            lines.append(f"### {hazard_id}")
            lines.append("")
            lines.append(f"Linked scenarios: {', '.join(scenario_ids)}")
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
        # A condition scenario's before cells recur in the row of every
        # mitigation: each is formatted once, with its arrow, beside the
        # KPI and digits of its after cell.
        before_cells: dict[str, list[tuple[str, str, int]]] = {}
        lines.append("## Mitigations")
        lines.append("")
        lines.append(
            "| mitigation | scenario | applied | gap mean | collision rate | false activation rate | passes after |"
        )
        lines.append("| --- | --- | --- | --- | --- | --- | --- |")
        for m in bundle.mitigation_table:
            before = before_cells.get(m.scenario_id)
            if before is None:
                row = kpis[m.scenario_id]
                before = before_cells[m.scenario_id] = [
                    (f"{_fmt(getattr(row, kpi), digits)} -> ", kpi, digits)
                    for kpi, digits in _MITIGATION_KPIS
                ]
            after = kpis.get(m.mitigated_scenario_id)  # None when not applied
            changes = " | ".join(
                [cell + _fmt(getattr(after, kpi, None), digits) for cell, kpi, digits in before]
            )
            passes = "-" if m.passes_after is None else ("yes" if m.passes_after else "no")
            lines.append(
                f"| {m.mitigation_id} | {m.scenario_id} | {'yes' if m.applied else 'no'} "
                f"| {changes} | {passes} |"
            )
        lines.append("")

    return "\n".join(lines) + "\n"
