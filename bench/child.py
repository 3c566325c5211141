"""The benchmark's child process: measurements that need a fresh interpreter.

    python3 bench/child.py setup    ROOT WORKLOAD SEED INPUTS_DIR
    python3 bench/child.py campaign ROOT WORKLOAD SEED INPUTS_DIR OUT_DIR

``setup`` imports the CLI entry module, loads the inputs and generates the
scenarios, then prints one JSON line with its layer timings and exits.
``campaign`` goes on to run one campaign, writes the bundle under OUT_DIR
and adds the process's peak RSS.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import campaign
from workloads import INPUT_NAMES, WORKLOADS


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    VmHWM covers only the memory of the program since exec.  ru_maxrss
    would also count the benchmark process's pages that the fork before
    the exec shared with this one.
    """
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        status = ""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    mode, root, name, seed, inputs_dir = argv[:5]
    t0 = time.perf_counter()
    campaign.use_source_tree(Path(root))
    import sotifkit.cli  # noqa: F401  the process entry of ``sotifkit run``

    t1 = time.perf_counter()
    workload = WORKLOADS[name]
    inputs = campaign.load_inputs(
        {n: Path(inputs_dir) / f"{n}.json" for n in INPUT_NAMES}
    )
    t2 = time.perf_counter()
    scenarios = campaign.generate_scenarios(inputs, int(seed))
    t3 = time.perf_counter()
    result = {
        "cli.import_s": t1 - t0,
        **inputs.load_s,
        "load_s": t2 - t1,
        "generate_s": t3 - t2,
        "scenarios": len(scenarios),
    }
    if mode == "campaign":
        out = Path(argv[5])
        bundle = campaign.run_campaign(inputs, workload, int(seed), out)
        result["bundle"] = str(campaign.write_bundle(bundle, out))
        result["peak_rss_mb"] = peak_rss_mb()
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
