"""Scenario-based SOTIF validation toolkit for a longitudinal AEB function.

Pipeline: parse the triggering-conditions taxonomy, filter it against the
operational design domain, compose scenarios (one condition each), run the
staged perception/decision/actuation simulation, derive KPIs, build the
hazard analysis sheet, quantify residual risk, and emit the argumentation
report bundle.
"""

__version__ = "0.1.0"

from .core import (
    NO_CLOSING,
    VehicleParams,
    effective_brake_decel,
    rss_min_distance,
    ttc,
)
from .taxonomy import (
    Taxonomy,
    TaxonomyNode,
    TriggeringCondition,
    enumerate_leaves,
    filter_by_odd,
    load_taxonomy,
    parse_taxonomy,
    serialize_taxonomy,
)
from .scenario import (
    NOMINAL_ID,
    EffectMapping,
    EffectModel,
    MitigationSpec,
    OddDefinition,
    Scenario,
    apply_mitigation,
    derive_seed,
    generate_scenarios,
    load_effect_mapping,
    load_mitigations,
    load_odd,
    resolve_effects,
)
from .simulator import (
    KpiReport,
    SimConfig,
    SimEvent,
    SimState,
    SimTrace,
    SweepStats,
    compute_kpis,
    monte_carlo_sweep,
    simulate,
)
from .analysis import (
    AnalysisRow,
    Controllability,
    Severity,
    SeverityRules,
    build_analysis_sheet,
    classify_affected_subsystems,
    link_hazards,
)
from .risk import (
    AcceptanceCriteria,
    AcceptanceVerdict,
    OccurrenceClass,
    OccurrenceSpec,
    RiskLevel,
    RiskResult,
    acceptance_check,
    evaluate_residual_risk,
    hazard_rate,
    load_criteria,
    load_occurrences,
    occurrence_class,
    risk_level,
)
from .report import (
    ReportBundle,
    emit_markdown_summary,
    load_bundle,
    run_campaign,
    write_bundle,
)
