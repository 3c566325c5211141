"""One campaign through sotifkit's public API, the way ``sotifkit run`` does it.

Shared by the benchmark process and its child processes so that every
measured campaign is set up identically.  Importing this module does not
import sotifkit: :func:`use_source_tree` must run first.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Workload


def use_source_tree(root: Path) -> Path:
    """Put ``root/src`` first on the import path; returns that directory.

    Raises FileNotFoundError when the checkout holds no sotifkit sources,
    so the benchmark never measures some other installed copy.
    """
    src = (root / "src").resolve()
    if not (src / "sotifkit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sotifkit sources under {src}")
    sys.path.insert(0, str(src))
    return src


@dataclass(frozen=True)
class Inputs:
    odd: object
    taxonomy: object
    mapping: object
    occurrences: list
    criteria: object
    mitigations: list
    digests: dict
    # Seconds spent in each layer's loaders (and in the input digests).
    load_s: dict


def load_inputs(paths: dict[str, Path]) -> Inputs:
    """Read every input file through sotifkit's own loaders, like the CLI."""
    from sotifkit import report, risk, scenario, taxonomy

    t0 = time.perf_counter()
    digests = {name: report.file_digest(path) for name, path in paths.items()}
    t1 = time.perf_counter()
    tax = taxonomy.load_taxonomy(paths["taxonomy"])
    t2 = time.perf_counter()
    odd = scenario.load_odd(paths["odd"])
    mapping = scenario.load_effect_mapping(paths["effects"])
    mitigations = scenario.load_mitigations(paths["mitigations"])
    t3 = time.perf_counter()
    occurrences = risk.load_occurrences(paths["occurrence"])
    criteria = risk.load_criteria(paths["criteria"])
    t4 = time.perf_counter()
    return Inputs(
        odd=odd,
        taxonomy=tax,
        mapping=mapping,
        occurrences=occurrences,
        criteria=criteria,
        mitigations=mitigations,
        digests=digests,
        load_s={
            "report.digest_s": t1 - t0,
            "taxonomy.load_s": t2 - t1,
            "scenario.load_s": t3 - t2,
            "risk.load_s": t4 - t3,
        },
    )


def generate_scenarios(inputs: Inputs, seed: int) -> list:
    """The campaign's filter and generate stages, as run_campaign does them."""
    from sotifkit import scenario, taxonomy

    conditions = taxonomy.filter_by_odd(
        taxonomy.enumerate_leaves(inputs.taxonomy), inputs.odd.odd_tags
    )
    return scenario.generate_scenarios(inputs.odd, conditions, inputs.mapping, seed)


def sim_config(workload: Workload):
    from sotifkit.simulator import SimConfig

    return SimConfig(dt=workload.dt, max_time=workload.max_time)


def run_campaign(inputs: Inputs, workload: Workload, seed: int, out: Path):
    """``report.run_campaign`` with the run-0 trace of every scenario written
    under ``out/traces``, as ``sotifkit run --out out`` does."""
    from sotifkit import report

    return report.run_campaign(
        odd=inputs.odd,
        taxonomy=inputs.taxonomy,
        mapping=inputs.mapping,
        occurrences=inputs.occurrences,
        criteria=inputs.criteria,
        mitigations=inputs.mitigations,
        base_seed=seed,
        runs_per_scenario=workload.runs_per_scenario,
        cfg=sim_config(workload),
        input_digests=inputs.digests,
        trace_dir=out / "traces",
    )


def write_bundle(bundle, out: Path) -> Path:
    from sotifkit import report

    return report.write_bundle(bundle, out)
