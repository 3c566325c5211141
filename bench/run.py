"""sotifkit campaign benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload fixture-mc --seed 42 --seconds 20 --trace 0

Each workload is one process with one sweep worker.  The workload's inputs
are generated from ``--seed`` and written as JSON; sotifkit reads them
through its own loaders, then runs ``run_campaign`` and ``write_bundle``
with the run-0 traces written, as ``sotifkit run`` does.

``--trace 0`` measures the end-to-end metrics:

* ``campaign_s``: ``run_campaign`` plus ``write_bundle``, in-process, after
  one warm-up campaign (median over the repetitions);
* ``runs_per_s``: Monte-Carlo runs per campaign over ``campaign_s``;
* ``setup_s``: a fresh child process from start until the inputs are
  loaded and ``generate_scenarios`` returned (median);
* ``report_s``: ``load_bundle`` plus ``emit_markdown_summary`` on the
  bundle just written (median);
* ``peak_rss_mb``: peak RSS of one child process running setup plus one
  campaign.

Campaign, report and setup samples are interleaved, and each is scaled to
a reference host speed by calibrations timed next to it (see
``hostspeed.py``; the raw medians are printed too): a campaign by the
calibration kernel right before and after it, each short batch of report
samples by a short kernel on either side, and the two setup samples that
every other repetition adds by a calibration process timed between them.
``--trace 1`` is the separate traced run: each step times an untraced
and a traced campaign, the traced one first in every other step.  It
reports the per-layer metrics (see ``tracing.py``) and writes them, with
the span self times and the tracing overhead (median of the paired
differences), to ``.bench_work/layers/``.

Every campaign passes through the correctness gate (``gate.py``).  A
campaign that raises or fails the gate counts as failed; then the result
line says ``"correct": false`` and the exit status is 1.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import campaign
import gate
import hostspeed
from workloads import WORKLOADS, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"
CHILD_TIMEOUT_S = 150
MIN_REPETITIONS = 3
# report_s is milliseconds: each repetition takes report samples in
# batches for this long, which steadies its median on every workload's
# bundle size.  A short kernel follows each batch.
REPORT_BUDGET_S = 0.15
REPORT_BATCH = 5
SHORT_KERNEL_ROUNDS = 50

E2E_UNITS = {
    "campaign_s": "s",
    "runs_per_s": "1/s",
    "setup_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS_BY_SUFFIX = (("_s", "s"), ("_us", "us"), ("_ratio", "ratio"), ("_bytes", "B"))
CHILD_LAYER_METRICS = ("cli.import_s", "taxonomy.load_s", "scenario.load_s", "risk.load_s")


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


class Operations:
    """Campaigns attempted and failed; a failure keeps its reason.  Errors
    outside a campaign (a setup child failing) are kept apart: they stop
    the measurement but are not campaigns."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems[:5]))


class Child:
    """Runs ``child.py`` and times it from spawn to its result line."""

    def __init__(self, root: Path, workload, seed: int, inputs_dir: Path) -> None:
        self.root = root
        self.args = [str(root), workload.name, str(seed), str(inputs_dir)]

    def run(self, mode: str, *extra: str) -> tuple[float, dict]:
        argv = [sys.executable, str(BENCH_DIR / "child.py"), mode, *self.args, *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, stdout=subprocess.PIPE)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate()
        finally:
            timer.cancel()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"child {mode} exited with status {proc.returncode}")
        return elapsed, json.loads(line)


def describe(name: str, values: list[float], unit: str) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (
        f"{name:<22} {statistics.median(values):>12.6g} {unit:<5} "
        f"median of {len(values)} (p25 {q1:.6g}, p75 {q3:.6g})"
    )


class Bench:
    def __init__(self, root: Path, workload, seed: int, work: Path) -> None:
        from sotifkit import report

        self.report = report
        self.workload = workload
        self.seed = seed
        self.work = work
        self.out = work / "out"
        paths = write_inputs(workload, seed, work / "inputs", root / "src")
        self.inputs = campaign.load_inputs(paths)
        self.cfg = campaign.sim_config(workload)
        self.child = Child(root, workload, seed, work / "inputs")
        self.ops = Operations()
        self.first_bundle: bytes | None = None
        self.runs_per_campaign = 0

    def _fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()

    def _check_repeat(self, bundle_path: Path) -> list[str]:
        if gate.normalized_bundle(bundle_path) != self.first_bundle:
            return [f"{bundle_path} differs from the first bundle of this run"]
        return []

    def warm_up(self) -> None:
        """The first campaign: untimed, checked against the reference and
        the stepper; its bundle is the one every repetition must equal."""
        self._fresh_out()
        try:
            bundle = campaign.run_campaign(self.inputs, self.workload, self.seed, self.out)
            path = campaign.write_bundle(bundle, self.out)
            problems = gate.check_bundle(path, self.workload, self.seed, self.inputs, self.cfg)
            self.first_bundle = gate.normalized_bundle(path)
            self.runs_per_campaign = sum(row.runs for row in bundle.kpi_table)
            # Untimed too, so that no timed setup child starts cold.
            self.child.run("setup")
        except Exception:
            traceback.print_exc()
            problems = ["warm-up campaign raised"]
        self.ops.record(problems)

    def timed_campaign(self) -> float | None:
        self._fresh_out()
        try:
            t0 = time.perf_counter()
            bundle = campaign.run_campaign(self.inputs, self.workload, self.seed, self.out)
            path = campaign.write_bundle(bundle, self.out)
            elapsed = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.ops.record(["campaign raised"])
            return None
        self.ops.record(self._check_repeat(path))
        return elapsed

    def timed_report(self) -> float:
        t0 = time.perf_counter()
        bundle = self.report.load_bundle(self.out)
        self.report.emit_markdown_summary(bundle)
        return time.perf_counter() - t0

    def traced_campaign(self) -> tuple[float | None, dict]:
        import tracing

        self._fresh_out()
        tracer = tracing.Tracer()
        try:
            with tracing.traced(tracer):
                with tracer.span("report.campaign") as c:
                    bundle = campaign.run_campaign(
                        self.inputs, self.workload, self.seed, self.out
                    )
                with tracer.span("report.write") as w:
                    path = campaign.write_bundle(bundle, self.out)
                with tracer.span("report.load_bundle"):
                    loaded = self.report.load_bundle(self.out)
                with tracer.span("report.summary"):
                    self.report.emit_markdown_summary(loaded)
        except Exception:
            traceback.print_exc()
            self.ops.record(["traced campaign raised"])
            return None, {}
        tracer.counts["report.bundle_bytes"] = path.stat().st_size
        self.ops.record(self._check_repeat(path))
        elapsed = (c.end - c.start) + (w.end - w.start)
        return elapsed, {
            "metrics": tracing.layer_metrics(tracer),
            "spans": tracing.span_times(tracer.spans),
        }

    def setup_samples(self) -> tuple[list[float], list[tuple[float, dict]]] | None:
        """Two setup children with a calibration process between them: the
        raw setup times, and the times and in-child layer timings scaled to
        the reference host by that calibration."""
        try:
            first = self.child.run("setup")
            k = hostspeed.factor([hostspeed.calibrate_process()], hostspeed.REFERENCE_PROCESS_S)
            second = self.child.run("setup")
        except (RuntimeError, ValueError) as exc:
            self.ops.errors.append(f"setup child: {exc}")
            return None
        scaled = [(t * k, _scaled(layers, k)) for t, layers in (first, second)]
        return [first[0], second[0]], scaled

    def peak_rss(self) -> float | None:
        """One child process: setup plus one campaign; its bundle must equal
        the in-process one."""
        child_out = self.work / "child-out"
        try:
            _, result = self.child.run("campaign", str(child_out))
            problems = self._check_repeat(Path(result["bundle"]))
        except (RuntimeError, ValueError, OSError) as exc:
            result, problems = {}, [f"campaign child: {exc}"]
        self.ops.record(problems)
        return result.get("peak_rss_mb")

    def loop(self, seconds: float, step) -> None:
        deadline = time.perf_counter() + seconds
        reps = 0
        while reps < MIN_REPETITIONS or time.perf_counter() < deadline:
            if not step():
                return
            reps += 1


def measure(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    raw = {"campaign_s": [], "report_s": [], "setup_s": []}
    scaled = {name: [] for name in raw}
    calibrations: list[float] = []

    def step() -> bool:
        before = hostspeed.calibrate()
        elapsed = bench.timed_campaign()
        after = hostspeed.calibrate()
        if elapsed is None:
            return False
        k = hostspeed.factor([before, after])
        raw["campaign_s"].append(elapsed)
        scaled["campaign_s"].append(elapsed * k)
        calibrations.extend((before, after))
        # Report samples come in short batches, each scaled by the short
        # kernels on either side of it: that gives report_s many more
        # independent calibrations than one per repetition.
        cals = [hostspeed.calibrate(SHORT_KERNEL_ROUNDS)]
        deadline = time.perf_counter() + REPORT_BUDGET_S
        while len(cals) == 1 or time.perf_counter() < deadline:
            batch = [bench.timed_report() for _ in range(REPORT_BATCH)]
            cals.append(hostspeed.calibrate(SHORT_KERNEL_ROUNDS))
            k = hostspeed.factor(cals[-2:])
            raw["report_s"] += batch
            scaled["report_s"] += [v * k for v in batch]
        # Setup pairs in every other step leave more of the run to the
        # campaigns; setup_s is the steadier metric.
        if len(raw["campaign_s"]) % 2:
            setups = bench.setup_samples()
            if setups is None:
                return False
            raw["setup_s"] += setups[0]
            scaled["setup_s"] += [t for t, _ in setups[1]]
        return True

    bench.loop(seconds, step)
    rss = bench.peak_rss()
    if not all(scaled.values()) or rss is None:
        return {}, []
    metrics = {name: statistics.median(values) for name, values in scaled.items()}
    metrics["runs_per_s"] = bench.runs_per_campaign / metrics["campaign_s"]
    metrics["peak_rss_mb"] = rss
    lines = [
        describe(name, scaled[name], "s") + f"; raw median {statistics.median(raw[name]):.6g} s"
        for name in ("campaign_s", "setup_s", "report_s")
    ]
    lines.insert(
        1,
        f"{'runs_per_s':<22} {metrics['runs_per_s']:>12.6g} {'1/s':<5} "
        f"{bench.runs_per_campaign} runs / campaign_s",
    )
    lines.append(f"{'peak_rss_mb':<22} {rss:>12.6g} {'MB':<5} 1 child process")
    lines.append(hostspeed.describe(calibrations))
    return {name: metrics[name] for name in E2E_UNITS}, lines


def _scaled(values: dict, k: float) -> dict:
    """Time-valued entries (by unit) times k; counts unchanged."""
    return {name: v * k if layer_unit(name) in ("s", "us") else v for name, v in values.items()}


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, list[str], dict]:
    overheads: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    spans: list[dict] = []
    child_layers: list[dict] = []
    calibrations: list[float] = []

    def step() -> bool:
        # Each step times one untraced and one traced campaign, in turn
        # first, so that the order does not bias their difference.
        traced_first = len(traced) % 2 == 1
        cals = [hostspeed.calibrate()]
        if traced_first:
            traced_s, result = bench.traced_campaign()
        elapsed = bench.timed_campaign()
        if not traced_first:
            cals.append(hostspeed.calibrate())
            traced_s, result = bench.traced_campaign()
        cals.append(hostspeed.calibrate())
        setups = bench.setup_samples()
        if elapsed is None or traced_s is None or setups is None:
            return False
        # One factor for both campaigns, so that their difference is the
        # tracing overhead and not a change of host speed between them.
        k = hostspeed.factor(cals)
        overheads.append((traced_s - elapsed) * k)
        traced.append(traced_s * k)
        layers.append(_scaled(result["metrics"], k))
        spans.append({name: _scaled(t, k) for name, t in result["spans"].items()})
        child_layers.extend({n: child[n] for n in CHILD_LAYER_METRICS} for _, child in setups[1])
        calibrations.extend(cals)
        return True

    bench.loop(seconds, step)
    if not layers:
        return {}, [], {}
    metrics = {}
    for samples in (child_layers, layers):
        for name in samples[0]:
            metrics[name] = statistics.median(m[name] for m in samples)
    span_table = {
        name: {
            key: statistics.median(s[name][key] for s in spans if name in s)
            for key in ("calls", "total_s", "self_s")
        }
        for name in spans[0]
    }
    # Tracing only adds work, so a difference that is not clearly above
    # zero is host noise: it is reported as unresolved, not as a cost.
    overhead = statistics.median(overheads)
    low = statistics.quantiles(overheads, n=4)[0] if len(overheads) > 1 else overhead
    resolved = low > 0
    detail = {
        "campaigns_traced": len(traced),
        "traced_campaign_s": statistics.median(traced),
        "trace_overhead_s": overhead,
        "trace_overhead_p25_s": low,
        "trace_overhead_resolved": resolved,
        "spans": span_table,
    }
    lines = [
        f"{name:<34} {value:>14.6g} {layer_unit(name)}" for name, value in metrics.items()
    ]
    lines.append(
        f"traced campaigns: {len(traced)}; median traced {detail['traced_campaign_s']:.6g} s; "
        f"tracing overhead: median paired difference {overhead:.6g} s"
        + ("" if resolved else " (not resolved: its p25 is not above zero, host noise)")
    )
    lines.append(hostspeed.describe(calibrations))
    return metrics, lines, detail


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    try:
        campaign.use_source_tree(root)
    except FileNotFoundError as exc:
        print(f"bench: {exc}; run from the root of a sotifkit checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    print(
        f"workload {workload.name} seed {args.seed}: "
        f"{workload.runs_per_scenario} runs per scenario, dt {workload.dt} s, "
        f"horizon {workload.max_time} s"
    )
    ops = Operations()
    metrics, lines, detail = {}, [], {}
    try:
        bench = Bench(root, workload, args.seed, work)
        ops = bench.ops
        bench.warm_up()
        if not ops.failed and args.trace:
            metrics, lines, detail = measure_traced(bench, args.seconds)
        elif not ops.failed:
            metrics, lines = measure(bench, args.seconds)
    except Exception:
        traceback.print_exc()
        ops.errors.append("benchmark set-up raised")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in lines:
        print(line)
    error_rate = ops.failed / max(ops.attempted, 1)
    print(
        f"{'error_rate':<22} {error_rate:>12.6g} {'1':<5} "
        f"{ops.failed} failed of {ops.attempted} campaigns"
    )
    for problem in ops.problems + ops.errors:
        print(f"FAILED: {problem}")
    correct = bool(metrics) and not ops.problems and not ops.errors
    if args.trace and metrics:
        layers_dir = root / WORK_DIR / "layers"
        layers_dir.mkdir(parents=True, exist_ok=True)
        detail.update(workload=workload.name, seed=args.seed, metrics=metrics)
        (layers_dir / f"{workload.name}-seed{args.seed}.json").write_text(
            json.dumps(detail, indent=2) + "\n", encoding="utf-8"
        )
    unit = layer_unit if args.trace else E2E_UNITS.get
    failed = ops.failed if correct else max(ops.failed, 1)
    result = {
        "correct": correct,
        "attempted": max(ops.attempted, failed, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
