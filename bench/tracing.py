"""Span recording around sotifkit's public functions, for the traced run.

While :func:`traced` is active, the functions that ``sotifkit.report`` and
``sotifkit.simulator`` look up by module attribute are replaced by
wrappers that record a span per call (name, start, end, parent) and take
counts from the values the calls return.  The originals are restored on
exit, also when the traced code raises.  Spans stay in memory.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.distinct_outcomes: set = set()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        # Inlined rather than built on span(): the wrapper runs once per
        # simulated run, and its cost is the tracing overhead.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # Observers: counts taken from what the wrapped calls return.

    def _relevant(self, result, args, kwargs) -> None:
        self.counts["taxonomy.relevant_leaves"] += len(result)

    def _generated(self, result, args, kwargs) -> None:
        self.counts["scenario.count"] += len(result)

    def _mitigated(self, result, args, kwargs) -> None:
        self.counts["scenario.count"] += 1

    def _sweep_run(self, trace, args, kwargs) -> None:
        self.counts["simulator.states"] += len(trace.states)
        self.counts["simulator.events"] += len(trace.events)
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        terminal_step = round(trace.states[-1].time / cfg.dt)
        self.counts["simulator.sweep_runs"] += 1
        self.counts["simulator.horizon_use"] += terminal_step / cfg.max_steps
        self.counts[f"simulator.terminal.{trace.terminal.value}"] += 1

    def _kpis(self, report, args, kwargs) -> None:
        scenario = args[1] if len(args) > 1 else kwargs["scenario"]
        self.distinct_outcomes.add((scenario.id, report))

    def _exported(self, result, args, kwargs) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["simulator.trace_bytes"] += Path(path).stat().st_size

    def _sheet(self, rows, args, kwargs) -> None:
        self.counts["analysis.rows"] += len(rows)
        self.counts["analysis.hazard_links"] += sum(len(r.linked_hazard_ids) for r in rows)


def _targets(tracer: Tracer):
    from sotifkit import report, simulator

    return [
        (report, "enumerate_leaves", "taxonomy.enumerate_leaves", None),
        (report, "filter_by_odd", "taxonomy.filter_by_odd", tracer._relevant),
        (report, "generate_scenarios", "scenario.generate", tracer._generated),
        (report, "mitigation_applicable", "scenario.mitigation_applicable", None),
        (report, "apply_mitigation", "scenario.apply_mitigation", tracer._mitigated),
        (report, "monte_carlo_sweep", "simulator.sweep", None),
        (simulator, "simulate", "simulator.simulate", tracer._sweep_run),
        (simulator, "compute_kpis", "simulator.compute_kpis", tracer._kpis),
        # The run-0 trace that report re-simulates for export: a span name of
        # its own, so that the simulate metrics cover the sweep's runs only.
        (report, "simulate", "simulator.trace_simulate", None),
        (report, "export_trace_jsonl", "simulator.export", tracer._exported),
        (report, "build_analysis_sheet", "analysis.build", tracer._sheet),
        (report, "evaluate_residual_risk", "risk.evaluate", None),
        (report, "acceptance_check", "risk.acceptance", None),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Swap the wrappers in for the duration of the block."""
    originals = []
    try:
        for module, attr, name, observe in _targets(tracer):
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, observe))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def span_times(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total time and self time (total minus the
    time its direct children cover)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, children in zip(spans, child_time):
        entry = out[span.name]
        duration = span.end - span.start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - children
    return dict(out)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced campaign (see BENCHMARK.json)."""
    times = span_times(tracer.spans)
    c = tracer.counts

    def total(*names: str) -> float:
        return sum(times[n]["total_s"] for n in names if n in times)

    def calls(name: str) -> int:
        return times[name]["calls"] if name in times else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    simulate_s = total("simulator.simulate")
    simulate_calls = calls("simulator.simulate")
    return {
        "taxonomy.filter_s": total("taxonomy.enumerate_leaves", "taxonomy.filter_by_odd"),
        "taxonomy.relevant_leaves": c["taxonomy.relevant_leaves"],
        "scenario.generate_s": total("scenario.generate"),
        "scenario.mitigate_s": total("scenario.apply_mitigation", "scenario.mitigation_applicable"),
        "scenario.count": c["scenario.count"],
        "simulator.sweep_s": total("simulator.sweep"),
        "simulator.sweep_self_s": times.get("simulator.sweep", {}).get("self_s", 0.0),
        "simulator.sweep_calls": calls("simulator.sweep"),
        "simulator.simulate_s": simulate_s,
        "simulator.simulate_calls": simulate_calls,
        "simulator.simulate_us": ratio(simulate_s * 1e6, simulate_calls),
        "simulator.states_per_trace": ratio(c["simulator.states"], simulate_calls),
        "simulator.events_per_trace": ratio(c["simulator.events"], simulate_calls),
        "simulator.compute_kpis_s": total("simulator.compute_kpis"),
        "simulator.compute_kpis_calls": calls("simulator.compute_kpis"),
        "simulator.distinct_outcome_ratio": ratio(
            len(tracer.distinct_outcomes), calls("simulator.compute_kpis")
        ),
        "simulator.horizon_use_ratio": ratio(
            c["simulator.horizon_use"], c["simulator.sweep_runs"]
        ),
        "simulator.trace_simulate_s": total("simulator.trace_simulate"),
        "simulator.export_s": total("simulator.export"),
        "simulator.export_calls": calls("simulator.export"),
        "simulator.trace_bytes": c["simulator.trace_bytes"],
        "simulator.terminal.stopped": c["simulator.terminal.stopped"],
        "simulator.terminal.collision": c["simulator.terminal.collision"],
        "simulator.terminal.timeout": c["simulator.terminal.timeout"],
        "analysis.build_s": total("analysis.build"),
        "analysis.rows": c["analysis.rows"],
        "analysis.hazard_links": c["analysis.hazard_links"],
        "risk.evaluate_s": total("risk.evaluate"),
        "risk.acceptance_s": total("risk.acceptance"),
        "risk.acceptance_calls": calls("risk.acceptance"),
        "report.campaign_self_s": times.get("report.campaign", {}).get("self_s", 0.0),
        "report.write_s": total("report.write"),
        "report.bundle_bytes": c["report.bundle_bytes"],
        "report.load_bundle_s": total("report.load_bundle"),
        "report.summary_s": total("report.summary"),
    }
