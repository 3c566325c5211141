"""Command-line front end.

Subcommands:

* ``taxonomy validate FILE`` — parse and validate a taxonomy file.
* ``run`` — execute the whole pipeline and write the report bundle.
* ``report BUNDLE`` — re-emit the Markdown summary from an existing bundle.

Exit status: 0 on success (for ``run``: all acceptance checks pass, or
``--no-gate``), 1 when acceptance gating fails or no condition scenario
was left to check, 2 on any input or pipeline error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import load_severity_rules
from .errors import ParameterError, PipelineError, SotifkitError
from .report import (
    emit_markdown_summary,
    file_digest,
    hazard_links,
    load_bundle,
    run_campaign,
    write_bundle,
)
from .risk import load_criteria, load_occurrences
from .scenario import load_effect_mapping, load_mitigations, load_odd
from .simulator import SimConfig
from .taxonomy import TaxonomyError, load_taxonomy

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sotifkit",
        description="Scenario-based SOTIF validation for a longitudinal AEB function",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    taxonomy = sub.add_parser("taxonomy", help="taxonomy utilities")
    taxonomy_sub = taxonomy.add_subparsers(dest="taxonomy_command", required=True)
    validate = taxonomy_sub.add_parser("validate", help="parse and validate a taxonomy file")
    validate.add_argument("path", type=Path, help="taxonomy JSON file")

    run = sub.add_parser("run", help="run the full validation pipeline")
    run.add_argument("--odd", type=Path, required=True, help="ODD definition JSON")
    run.add_argument("--taxonomy", type=Path, required=True, help="taxonomy JSON")
    run.add_argument("--effects", type=Path, required=True, help="effect-mapping JSON")
    run.add_argument("--occurrence", type=Path, required=True, help="occurrence (exposure) JSON")
    run.add_argument("--criteria", type=Path, required=True, help="acceptance criteria JSON")
    run.add_argument("--out", type=Path, required=True, help="output directory for the bundle")
    run.add_argument("--mitigations", type=Path, help="optional mitigations JSON")
    run.add_argument("--severity-rules", type=Path, help="optional severity rules JSON")
    run.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    run.add_argument("--runs", type=int, default=100, help="runs per scenario (default 100)")
    run.add_argument("--dt", type=float, default=0.001, help="integration step in s (default 0.001)")
    run.add_argument(
        "--no-gate",
        action="store_true",
        help="exit 0 even when acceptance criteria are violated",
    )

    report = sub.add_parser("report", help="re-emit the summary from an existing bundle")
    report.add_argument("bundle", type=Path, help="bundle.json or its directory")
    report.add_argument("--out", type=Path, help="write the summary here instead of stdout")

    return parser


def _cmd_taxonomy_validate(path: Path) -> int:
    try:
        taxonomy = load_taxonomy(path)
    except TaxonomyError as exc:
        print(f"invalid taxonomy: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"OK: {len(taxonomy.roots)} root categories, {taxonomy.leaf_count()} leaf conditions")
    return EXIT_OK


def _stage_failed(stage: str, exc: Exception) -> int:
    print(f"error in stage '{stage}': {exc}", file=sys.stderr)
    return EXIT_ERROR


def _cmd_run(args: argparse.Namespace) -> int:
    inputs = {
        "odd": args.odd,
        "taxonomy": args.taxonomy,
        "effects": args.effects,
        "occurrence": args.occurrence,
        "criteria": args.criteria,
    }
    if args.mitigations:
        inputs["mitigations"] = args.mitigations
    if args.severity_rules:
        inputs["severity_rules"] = args.severity_rules

    try:
        if args.runs < 1:
            raise ParameterError(f"--runs must be >= 1, got {args.runs}")
        digests = {name: file_digest(path) for name, path in inputs.items()}
        odd = load_odd(args.odd)
        taxonomy = load_taxonomy(args.taxonomy)
        mapping = load_effect_mapping(args.effects)
        occurrences = load_occurrences(args.occurrence)
        criteria = load_criteria(args.criteria)
        mitigations = load_mitigations(args.mitigations) if args.mitigations else []
        severity_rules = (
            load_severity_rules(args.severity_rules) if args.severity_rules else None
        )
        cfg = SimConfig(dt=args.dt)
    except (OSError, ValueError, SotifkitError) as exc:
        return _stage_failed("load", exc)

    try:
        bundle = run_campaign(
            odd=odd,
            taxonomy=taxonomy,
            mapping=mapping,
            occurrences=occurrences,
            criteria=criteria,
            mitigations=mitigations,
            base_seed=args.seed,
            runs_per_scenario=args.runs,
            cfg=cfg,
            severity_rules=severity_rules,
            input_digests=digests,
            trace_dir=args.out / "traces",
        )
    except PipelineError as exc:
        return _stage_failed(exc.stage, exc.cause)

    try:
        bundle_path = write_bundle(bundle, args.out)
    except OSError as exc:
        return _stage_failed("write", exc)
    print(f"wrote {bundle_path}")

    passed = sum(1 for v in bundle.acceptance if v.passed)
    print(f"acceptance: {passed}/{len(bundle.acceptance)} condition scenarios within criteria")

    for hazard_id, scenario_ids in hazard_links(bundle.risk_table).items():
        print(f"hazard {hazard_id}: {', '.join(scenario_ids)}")

    if not bundle.acceptance:
        print("FAIL: no condition scenario was checked against the acceptance criteria")
    elif bundle.all_passed:
        print("PASS: all acceptance criteria met")
        return EXIT_OK
    else:
        print("FAIL: acceptance criteria violated")
    return EXIT_OK if args.no_gate else EXIT_GATE_FAILED


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError, KeyError, SotifkitError) as exc:
        print(f"cannot load bundle {args.bundle}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    text = emit_markdown_summary(bundle)
    if args.out:
        try:
            args.out.write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "taxonomy":
        return _cmd_taxonomy_validate(args.path)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
