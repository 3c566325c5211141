"""Maintenance commands for the benchmark; run from the root of a checkout.

    python3 bench/record.py reference
        Record the gate's reference projection of every workload's bundle at
        its default seed into bench/reference/.  Only for a change that is
        meant to alter the bundle, and say so in that change.

    python3 bench/record.py results LABEL
        Run bench/run.py on every workload at ten seeds (end-to-end metrics)
        plus one traced run at the default seed, check that each metric's
        quartile spread over the seeds stays within a third of its bound in
        BENCHMARK.json, and write everything, with the machine's details, to
        bench/results/BENCH_<LABEL>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import campaign
import gate
from workloads import WORKLOADS, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED_BASE = 1000
N_SEEDS = 10


def record_reference() -> None:
    campaign.use_source_tree(ROOT)
    work = ROOT / ".bench_work" / "record"
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        shutil.rmtree(work, ignore_errors=True)
        paths = write_inputs(workload, workload.default_seed, work / "inputs", ROOT / "src")
        inputs = campaign.load_inputs(paths)
        bundle = campaign.run_campaign(inputs, workload, workload.default_seed, work / "out")
        path = campaign.write_bundle(bundle, work / "out")
        projection = gate.projection(json.loads(path.read_text(encoding="utf-8")))
        target = gate.reference_path(workload.name)
        with open(target, "w", encoding="utf-8") as fh:
            # One kpi row per line keeps the file diffable.
            fh.write('{"kpi_fields": ' + json.dumps(projection["kpi_fields"]) + ',\n')
            fh.write(' "kpi_rows": [\n  ')
            fh.write(",\n  ".join(json.dumps(row) for row in projection["kpi_rows"]))
            fh.write('\n ],\n "verdicts": ' + json.dumps(projection["verdicts"]))
            fh.write(',\n "risk": ' + json.dumps(projection["risk"]) + "}\n")
        print(f"wrote {target.relative_to(ROOT)} ({len(projection['kpi_rows'])} kpi rows)")
    shutil.rmtree(work, ignore_errors=True)


def machine_info() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: benchmark failed\n{proc.stdout}")
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "p25": q1, "p75": q3, "iqr_share": (q3 - q1) / med, "values": values}


def record_results(label: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"label": label, "machine": machine_info(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for name in WORKLOADS:
        workload = WORKLOADS[name]
        runs = []
        for i in range(N_SEEDS):
            seed = SEED_BASE + i
            runs.append(run_bench(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()
            ), flush=True)
        e2e = {}
        for metric in bounds:
            e2e[metric] = spread([r["metrics"][metric]["value"] for r in runs])
            e2e[metric]["unit"] = runs[0]["metrics"][metric]["unit"]
            ok = e2e[metric]["iqr_share"] < bounds[metric] / 3
            steady &= ok
            print(
                f"  {name} {metric}: median {e2e[metric]['median']:.6g}, "
                f"IQR/median {e2e[metric]['iqr_share']:.4f} (bound {bounds[metric]})"
                f"{'' if ok else '  NOT STEADY'}",
                flush=True,
            )
        run_bench(name, workload.default_seed, seconds, 1)
        layers_file = ROOT / ".bench_work" / "layers" / f"{name}-seed{workload.default_seed}.json"
        out["workloads"][name] = {
            "seeds": [SEED_BASE + i for i in range(N_SEEDS)],
            "end_to_end": e2e,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "per_layer": json.loads(layers_file.read_text(encoding="utf-8")),
        }
    out["steady"] = steady
    target = BENCH_DIR / "results" / f"BENCH_{label}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target.relative_to(ROOT)}; steady: {steady}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reference")
    results = sub.add_parser("results")
    results.add_argument("label")
    args = parser.parse_args(argv)
    if args.command == "reference":
        record_reference()
    else:
        record_results(args.label)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
