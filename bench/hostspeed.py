"""Host-speed calibration for the benchmark's timings.

On a shared host the CPU speed one process gets drifts in phases that last
from seconds to minutes.  On the 2-core host the first results were taken
on, the same fixture campaign took from 0.61 s to 1.32 s within five
minutes, and the medians of 20-second windows spread by up to 35%
(interquartile range over median).  One benchmark run sits inside one
phase, so raw medians from different runs disagree by more than any useful
regression bound.

So the benchmark times a fixed kernel (:func:`calibrate`) right before
and right after every campaign it times, divides each repetition's samples
by the mean of its two kernel times and reports medians of these ratios
times ``REFERENCE_S``: the duration on a host where the kernel takes
``REFERENCE_S``.  The kernel does what dominates a campaign: a numpy
random stream, a tuple of frozen dataclasses over a sorted set of steps,
and a few of them serialized to JSON.  It shares no code with sotifkit, so
no change to sotifkit can move it.  On that host, ten 30-second runs of
the fixture workload gave raw campaign medians that spread by 18%; scaled,
ten runs of each workload spread by 3 to 8%.

The host's speed also changes within a second, so a calibration tracks
best the samples right next to it.  Report samples take milliseconds; scaled by the kernels around the campaign before them,
their medians spread by 8 to 10% between runs.  They are therefore timed
in short batches, each followed by a kernel of a sixth of the rounds
(``calibrate(50)``), and each batch is scaled by the short kernels on
either side of it; then their medians spread by 1 to 4%.

``setup_s`` is a fresh process, so its time is mostly interpreter start and
imports, which the host's phases slow down less than the kernel: scaled by
the kernel, setup medians of different runs spread by 11 to 18%.  Setup
samples are therefore scaled by a second, process-shaped calibration
(:func:`calibrate_process`): a fresh interpreter that imports numpy and
exits, timed from spawn to exit.  Then setup medians spread by 2 to 5%.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# Kernel time that defines the reference host speed: about what the kernel
# takes on the first results' host in its fast phase.
REFERENCE_S = 0.06
KERNEL_ROUNDS = 300
# The same for the process calibration; a round figure that only sets the
# unit of the scaled setup times.
REFERENCE_PROCESS_S = 0.1


@dataclass(frozen=True)
class _State:
    position: float
    velocity: float
    time: float

    def __post_init__(self) -> None:
        if self.velocity < 0:
            raise ValueError("negative velocity")


def _kernel(rounds: int) -> float:
    total = 0.0
    for r in range(rounds):
        draws = np.random.default_rng(r).random(1200)
        steps = sorted(set(range(0, 8000, 50)) | {r, 7 * r, 3999})
        states = tuple(
            _State(n * 0.0139, max(0.0, 13.9 - n * 0.001), n * 0.001) for n in steps
        )
        total += sum(s.position for s in states if s.velocity > 3.0) + float(draws[r])
        total += len(json.dumps([[s.time, s.position, s.velocity] for s in states[:16]]))
    return total


def calibrate(rounds: int = KERNEL_ROUNDS) -> float:
    """Seconds the kernel takes now; a kernel of fewer rounds is scaled up
    to the full one."""
    t0 = time.perf_counter()
    _kernel(rounds)
    return (time.perf_counter() - t0) * KERNEL_ROUNDS / rounds


def calibrate_process() -> float:
    """Seconds a fresh interpreter takes now to import numpy and exit."""
    t0 = time.perf_counter()
    status = subprocess.run([sys.executable, "-c", "import json, numpy"]).returncode
    elapsed = time.perf_counter() - t0
    if status != 0:
        raise RuntimeError(f"calibration process exited with status {status}")
    return elapsed


def factor(calibrations: list[float], reference: float = REFERENCE_S) -> float:
    """Factor from raw seconds to reference-host seconds, for samples taken
    between these calibrations."""
    return reference * len(calibrations) / sum(calibrations)


def describe(calibrations: list[float]) -> str:
    return (
        f"host speed: calibration kernel median {statistics.median(calibrations):.6g} s "
        f"over {len(calibrations)} calls, reference {REFERENCE_S} s"
    )
