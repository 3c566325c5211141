"""Deterministic discrete-time longitudinal simulation of the AEB function.

The function is staged as perception-sense -> perception-algo -> decision ->
actuation on a 1D road: the ego starts at x=0 moving at constant speed
toward a static object at x=d_object.

Discrete semantics (semi-implicit Euler at ``dt``), which every public
number in a trace obeys:

* Steps n = 0, 1, ... at t = n*dt with state (x_n, v_n); x_0 = 0, v_0 = v_r.
* Terminal check first at each step: collision when gap_n <= 0, stopped
  when v_n == 0, timeout at the horizon step.  A terminal step has no
  perception or decision.
* Perception runs on sensor frames every ``tick_steps`` steps: the object
  enters the percept when gap <= d_perception * perception_range_factor
  (and stays there; the gap never grows), and a ghost detection with gap
  uniform in [0, trigger threshold) appears with probability ghost_rate.
* The decision stage checks every step: the brake latches when the
  closest perceived gap is <= the designed trigger threshold
  rss_min_distance(vehicle).  The deployed threshold cannot know that a
  triggering condition enlarged the response latency, so rho_add does not
  move it; it only delays the brake force.
* Brake force starts ceil((rho + rho_add)/dt) steps after the trigger and
  applies a constant deceleration effective_brake_decel(vehicle,
  mu * mu_factor).
* Integration: v_{n+1} = max(0, v_n + a*dt);  x_{n+1} = x_n + v_{n+1}*dt.

With piecewise-constant acceleration every phase has a closed form, so the
engine resolves trigger, brake-onset, collision, and stop steps
analytically instead of looping over 10^5 steps per run; the test suite
checks it against a literal per-dt stepper.  A closed form only guesses
a crossing step; the gap or velocity that the trace shows decides it.  A
run differs from the others of its scenario only by its first ghost, so
a plan per (scenario, cfg) holds everything else, and runs that trigger
on the same step share one resolution and one KPI report; the runs of a
ghost-free scenario all return one trace.  A sweep draws each (seed, run)
flag stream once: scenarios that share a seed run back to back and read
their first ghost from the first draw's record.  Every run reads its
stream up to its cruise collision, which variants at the same speed
share, so a variant's later natural trigger reads no further than that
draw; a lower v_r can.  A trace is a view of its resolution: rows of its
events and states, built once, when first needed, and kept.  The export writes each line
from the rows, encoding each distinct row once; a ghost-free run has no
stream, and its events and states depend only on its resolution, so the
export writes each distinct ghost-free body once and builds no view for
a repeat.  SimEvent and KinematicState objects are built from the rows
only when a library caller reads ``events`` or ``states``.  The KPIs are
read off the resolution alone, without a view.
Runs share only within a :func:`_sharing` block, which a sweep opens and
``run_campaign`` holds over its sweep and export: the last plan, the last
seed's draw records, the seed states of the sweep's streams, and each
run-0 trace until the export's call takes it, so the export resolves
nothing again; it builds the view from the stream the sweep read, and
seeds a generator only for a run that read its first ghost from another
scenario's draw record and shows a ghost that the record cannot rule out.
Outside a block, ``simulate`` shares nothing.
A run's stream is still ``default_rng(derive_seed(seed, run))``, but a
sweep's generators are not built through ``default_rng``: a sweep computes
the seed state of every (seed, run) that it can draw from, numpy's
``SeedSequence`` hash, in one pass (:func:`_seed_states`, which a test
pins against numpy's ``SeedSequence``).  A stream whose (seed, run) is not
in the block's batch builds its generator with ``default_rng``.
Identical (scenario, cfg, run_index) always produces a bit-identical
trace.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from . import core
from .errors import ContractViolationError, ParameterError, SimulationError, json_encoder
from .scenario import OddDefinition, Scenario, derive_seed

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SimConfig",
    "Stage",
    "EventKind",
    "Terminal",
    "SimEvent",
    "SimTrace",
    "KpiReport",
    "SweepStats",
    "simulate",
    "compute_kpis",
    "monte_carlo_sweep",
    "trigger_threshold",
    "export_trace_jsonl",
]


class Stage(str, Enum):
    PERCEPTION_SENSE = "perception_sense"
    PERCEPTION_ALGO = "perception_algo"
    DECISION = "decision"
    ACTUATION = "actuation"


class EventKind(str, Enum):
    OBJECT_DETECTED = "object_detected"
    GHOST_DETECTED = "ghost_detected"
    BRAKE_TRIGGERED = "brake_triggered"
    BRAKE_EFFECTIVE = "brake_effective"
    STOPPED = "stopped"
    COLLISION = "collision"
    TIMEOUT = "timeout"


class Terminal(str, Enum):
    STOPPED = "stopped"
    COLLISION = "collision"
    TIMEOUT = "timeout"


_STAGE_FOR_KIND = {
    EventKind.GHOST_DETECTED: Stage.PERCEPTION_SENSE,
    EventKind.OBJECT_DETECTED: Stage.PERCEPTION_ALGO,
    EventKind.BRAKE_TRIGGERED: Stage.DECISION,
    EventKind.BRAKE_EFFECTIVE: Stage.ACTUATION,
    EventKind.STOPPED: Stage.ACTUATION,
    EventKind.COLLISION: Stage.ACTUATION,
    EventKind.TIMEOUT: Stage.ACTUATION,
}

_STAGE_ORDER = {
    Stage.PERCEPTION_SENSE: 0,
    Stage.PERCEPTION_ALGO: 1,
    Stage.DECISION: 2,
    Stage.ACTUATION: 3,
}


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    ``perception_tick`` is quantized to a whole number of ``dt`` steps
    (the effective frame period is tick_steps * dt).
    """

    dt: float = 0.001
    max_time: float = 60.0
    perception_tick: float = 0.05

    def __post_init__(self) -> None:
        core._store_floats(self, ("dt", "max_time", "perception_tick"))
        if not 0.0 < self.dt <= self.perception_tick <= self.max_time:
            raise ParameterError(
                "need 0 < dt <= perception_tick <= max_time, got "
                f"dt={self.dt}, perception_tick={self.perception_tick}, "
                f"max_time={self.max_time}"
            )

    @functools.cached_property
    def tick_steps(self) -> int:
        return max(1, round(self.perception_tick / self.dt))

    @functools.cached_property
    def max_steps(self) -> int:
        return int(self.max_time / self.dt + 1e-9)


@dataclass(frozen=True)
class SimEvent:
    time: float
    stage: Stage
    kind: EventKind
    gap: float


# A trace's rows: its events as (time, stage, kind, gap) in time order, and
# the ego state at each event step as (time, position, velocity).
_Rows = tuple[
    tuple[tuple[float, Stage, EventKind, float], ...],
    tuple[tuple[float, float, float], ...],
]


class KpiReport(NamedTuple):
    """Per-run key performance indicators.

    ttc_at_trigger is :data:`core.NO_CLOSING` (infinity) when the brake
    never triggered or the ego was not closing.  A collision implies
    final_gap == 0 (depth clamped) and impact_speed > 0.
    """

    ttc_at_trigger: float
    final_gap: float
    collision: bool
    impact_speed: float
    false_activation: bool


class SweepStats(NamedTuple):
    """Aggregated KPIs for one scenario over repeated runs."""

    scenario_id: str
    runs: int
    collision_rate: float
    false_activation_rate: float
    gap_mean: float
    gap_min: float
    gap_max: float
    impact_speed_mean: float
    impact_speed_min: float
    impact_speed_max: float
    ttc_at_trigger_min: float
    odd_fingerprint: str


def trigger_threshold(scenario: Scenario) -> float:
    """The designed brake-trigger distance for this scenario's vehicle."""
    return core.rss_min_distance(scenario.odd.vehicle)


def _ceil_steps(quotient: float) -> int:
    """Smallest integer >= quotient, forgiving ~1e-9 of float noise."""
    return max(0, math.ceil(quotient - 1e-9))


@dataclass(slots=True)
class _Resolved:
    """Closed-form resolution of one run on the dt grid."""

    v0: float
    dt: float
    b_eff: float
    d_object: float
    n_trig: int | None  # decision step where the brake latched
    n_eff: int | None   # step where brake force starts (None: never engaged)
    m_stop: int         # braking steps until v == 0 (if engaged)
    terminal_step: int
    terminal: Terminal
    kpis: KpiReport | None = None  # compute_kpis's, for every run of this resolution

    def _brake_advance(self, m: int) -> float:
        # Distance gained after m braking steps; advance ceases once the
        # clamped velocity reaches zero (step m_stop).
        m = min(m, self.m_stop - 1)
        if m <= 0:
            return 0.0
        return m * self.v0 * self.dt - self.b_eff * self.dt * self.dt * m * (m + 1) / 2.0

    def first_reaching(self, need: float, guess: int | None) -> int | None:
        """The smallest braking step m in [1, m_stop - 1] whose advance is at
        least ``need``, or None.  The advance does not decrease there, so
        the search gallops out from ``guess`` (clamped to those bounds) to
        bracket the step, and bisects the bracket; with no guess it bisects
        the whole interval.  An exact guess reads the advance twice."""
        lo, hi = 1, self.m_stop  # the step is in [lo, hi]; m_stop means none
        if guess is not None and lo < hi:
            m = min(max(guess, lo), hi - 1)
            step = 1
            if self._brake_advance(m) >= need:
                hi = m
                while hi - step >= lo and self._brake_advance(hi - step) >= need:
                    hi -= step
                    step *= 2
                lo = max(lo, hi - step + 1)
            else:
                lo = m + 1
                while lo + step - 1 < hi and self._brake_advance(lo + step - 1) < need:
                    lo += step
                    step *= 2
                hi = min(hi, lo + step - 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._brake_advance(mid) >= need:
                hi = mid
            else:
                lo = mid + 1
        return lo if lo < self.m_stop else None

    def x(self, n: int) -> float:
        if self.n_eff is None or n <= self.n_eff:
            return self.v0 * self.dt * n
        x_eff = self.v0 * self.dt * self.n_eff
        return x_eff + self._brake_advance(n - self.n_eff)

    def v(self, n: int) -> float:
        if self.n_eff is None or n <= self.n_eff:
            return self.v0
        return max(0.0, self.v0 - (n - self.n_eff) * self.b_eff * self.dt)

    def gap(self, n: int) -> float:
        return self.d_object - self.x(n)


class _Plan:
    """One (scenario, cfg) resolved up to its ghosts: what no ghost changes,
    and the resolution of each trigger step that a run has needed.

    A run triggers at its first ghost below ``ghost_limit``, or else at
    ``n_nat`` (never, if that is past the cruise collision or the horizon).
    A ghost-free scenario has a single resolution and a single ``trace``
    that every run returns.  Neither a resolution nor a trace refers to its
    plan, so a trace keeps neither the plan nor its table alive.
    """

    def __init__(self, scenario: Scenario, cfg: SimConfig):
        self.scenario = scenario
        self.cfg = cfg
        self._resolutions: dict[int, _Resolved] = {}
        self.trace: SimTrace | None = None  # kept only when ghost_rate == 0
        odd = scenario.odd
        veh = odd.vehicle
        eff = scenario.effects
        self.dt = dt = cfg.dt
        self.max_steps = max_steps = cfg.max_steps
        tick_steps = cfg.tick_steps

        self.v0 = v0 = veh.v_r
        self.d_obj = d_obj = odd.d_object
        range_eff = odd.d_perception * eff.perception_range_factor
        d_trigger = core.rss_min_distance(veh)
        b_eff = core.effective_brake_decel(veh, odd.mu * eff.mu_factor)
        # A brake too weak for b_eff*dt to be above 0 never slows the ego in
        # floats, as a per-dt stepper finds: it brakes as a brake of 0 does.
        self.b_eff = b_eff = b_eff if b_eff * dt > 0.0 else 0.0
        self.delay_steps = _ceil_steps((veh.rho + eff.rho_add) / dt)

        if v0 == 0.0:
            # Stopped at step 0, before any ghost is read.
            self.n_nat = self.n_hit_cruise = self.ghost_limit = self.draw_limit = self.m_stop = 0
            return
        v_dt = v0 * dt
        never = max_steps + 1  # any step past the horizon

        def first_step_gap_le(threshold: float, stride: int = 1) -> int:
            # Smallest multiple n of stride with cruise gap_n <= threshold, as
            # _Resolved.gap computes it: the closed form guesses, the test
            # decides, one stride at a time, up to a step past the horizon.
            # An ego too slow for v0*dt to be above 0 never moves in floats,
            # so it is at the gap it starts at or never reaches it.
            if v_dt == 0.0:
                return 0 if d_obj <= threshold else never
            q = (d_obj - threshold) / (v_dt * stride)
            k = 0 if q <= 0.0 else math.ceil(q) if q < never else never
            while k > 0 and d_obj - v_dt * (stride * (k - 1)) <= threshold:
                k -= 1
            while k < never and d_obj - v_dt * (stride * k) > threshold:
                k += 1
            return stride * k

        # Natural trigger: needs visibility (a perception-tick property) and
        # the gap at or below the trigger threshold (checked every step).
        self.n_nat = max(first_step_gap_le(range_eff, tick_steps), first_step_gap_le(d_trigger))
        self.n_hit_cruise = first_step_gap_le(0.0)  # first collided step while cruising
        # Braking steps until v == 0, as _Resolved.v computes it: past the
        # horizon for a brake of 0.
        q = v0 / (b_eff * dt) if b_eff > 0.0 else never
        m = math.ceil(q) if q < never else never
        while m > 0 and v0 - (m - 1) * b_eff * dt <= 0.0:
            m -= 1
        while m < never and v0 - m * b_eff * dt > 0.0:
            m += 1
        self.m_stop = m
        # A ghost at or after the cruise collision or the horizon leaves the
        # run untriggered, as no ghost does, so the stream is read no further
        # than ``draw_limit``; one at or after the natural trigger is too late.
        # Same-speed variants of a scenario share ``draw_limit``, so a later
        # natural trigger reads no further than the first draw of the stream.
        self.draw_limit = min(self.n_hit_cruise, max_steps)
        self.ghost_limit = min(self.n_nat, self.draw_limit)

    def resolve(self, n_trig: int) -> _Resolved:
        """The run that triggers at ``n_trig``, resolved when a run first needs
        it.  A non-finite one is not kept: every call raises SimulationError."""
        res = self._resolutions.get(n_trig)
        if res is None:
            res = self._resolve(n_trig)
            for name, value in (("position", res.x(res.terminal_step)), ("velocity", res.v(res.terminal_step))):
                if not math.isfinite(value):
                    raise SimulationError(
                        f"non-finite {name} at terminal of scenario '{self.scenario.id}'"
                    )
            self._resolutions[n_trig] = res
        return res

    def _resolve(self, n_trig: int) -> _Resolved:
        v0, dt, b_eff, d_obj = self.v0, self.dt, self.b_eff, self.d_obj
        max_steps, n_hit_cruise = self.max_steps, self.n_hit_cruise
        if v0 == 0.0:
            return _Resolved(v0, dt, b_eff, d_obj, None, None, 0, 0, Terminal.STOPPED)

        if n_trig >= min(n_hit_cruise, max_steps):
            # Never triggered: cruise into the object or run out the clock.
            if n_hit_cruise <= max_steps:
                return _Resolved(v0, dt, b_eff, d_obj, None, None, 0, n_hit_cruise, Terminal.COLLISION)
            return _Resolved(v0, dt, b_eff, d_obj, None, None, 0, max_steps, Terminal.TIMEOUT)

        n_eff = n_trig + self.delay_steps
        if n_hit_cruise <= n_eff or n_eff >= max_steps:
            # Collision or horizon before any brake force is applied.
            if n_hit_cruise <= max_steps:
                return _Resolved(v0, dt, b_eff, d_obj, n_trig, None, 0, n_hit_cruise, Terminal.COLLISION)
            return _Resolved(v0, dt, b_eff, d_obj, n_trig, None, 0, max_steps, Terminal.TIMEOUT)

        # Braking engages at n_eff with speed still v0, and stops the ego
        # m_stop braking steps later unless it reaches the object first.
        m_stop = self.m_stop
        need = d_obj - v0 * dt * n_eff  # > 0 because n_hit_cruise > n_eff
        res = _Resolved(v0, dt, b_eff, d_obj, n_trig, n_eff, m_stop, n_eff + m_stop, Terminal.STOPPED)

        # The first braking step whose advance reaches the object, if any, is
        # a collision; the closed form guesses it, and the advance decides.
        a_q = b_eff * dt * dt / 2.0
        lin = v0 * dt - a_q
        if a_q == 0.0:
            # A brake too weak for a float to hold a_q: the advance is
            # linear, and an ego that v0*dt cannot move reaches no gap.
            root = need / lin if lin > 0.0 else math.inf
        else:
            disc = lin * lin - 4.0 * a_q * need
            root = None if disc < 0.0 else (lin - math.sqrt(disc)) / (2.0 * a_q)
        if root is not None:
            # Past m_stop the advance no longer grows: a guess there is m_stop.
            # A discriminant that overflowed gives no guess (-inf or nan).
            guess = m_stop if root >= m_stop else _ceil_steps(root) if root > -math.inf else None
            m_coll = res.first_reaching(need, guess)
            if m_coll is not None:
                res.terminal_step, res.terminal = n_eff + m_coll, Terminal.COLLISION
        if res.terminal_step > max_steps:
            res.terminal_step, res.terminal = max_steps, Terminal.TIMEOUT
        return res


def _first_visible_tick(res: _Resolved, range_eff: float, tick_steps: int) -> int | None:
    """First perception tick (strictly before terminal) seeing the object.

    The gap is nonincreasing along the whole trajectory, so this is a
    binary search over tick indices.
    """
    last_tick = (res.terminal_step - 1) // tick_steps
    if res.terminal_step == 0 or last_tick < 0:
        return None
    if res.gap(last_tick * tick_steps) > range_eff:
        return None
    lo, hi = 0, last_tick  # invariant: gap(hi) <= range_eff
    while lo < hi:
        mid = (lo + hi) // 2
        if res.gap(mid * tick_steps) <= range_eff:
            hi = mid
        else:
            lo = mid + 1
    return lo * tick_steps


# A run draws its ghost stream at most this many values at a time, so its
# memory does not grow with the horizon.
_GHOST_CHUNK = 4096

# numpy's SeedSequence (O'Neill's seed hash), which NEP 19 keeps fixed: the
# constant of each hash of its entropy mix (A) and of its generate_state (B),
# in call order, and the two multipliers of its mix step.
_M32 = 0xFFFFFFFF
_HASH_A = [0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & _M32 for k in range(17)]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _M32 for k in range(9)]
_MIX_L, _MIX_R = 0xCA01F9DD, -0x4973F715 & _M32


def _seed_states(seeds: Sequence[int]) -> list[bytes]:
    """``SeedSequence(seed).generate_state(4, uint64)`` of every 64-bit seed,
    as 32 bytes: four native 64-bit words.  Computed in one pass: each
    32-bit word of the hash is one 64-bit lane of a Python int, one lane per
    seed, so every step of the hash is a few int operations on all seeds at
    once.  A product of two words fits its lane, and masking
    each result to 32 bits drops what a shift moved in from the next lane.
    A seed has at most two words of entropy and the pool four, so the pool
    starts from (low word, high word, 0, 0), and no entropy is left to mix
    in after it."""
    n = len(seeds)
    order = sys.byteorder  # so that a lane written out is a native word
    ones = int.from_bytes((1).to_bytes(8, order) * n, order)  # 1 in every lane
    mask = _M32 * ones
    lanes = int.from_bytes(b"".join(seed.to_bytes(8, order) for seed in seeds), order)
    consts = iter(zip(_HASH_A, _HASH_A[1:]))

    def hashmix(value: int, xor: int, mul: int) -> int:
        value = (value ^ xor * ones) * mul & mask
        return (value ^ value >> 16) & mask

    pool = [hashmix(value, *next(consts)) for value in (lanes & mask, lanes >> 32 & mask, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = hashmix(pool[src], *next(consts)) * _MIX_R & mask
                value = pool[dst] * _MIX_L + mixed & mask
                pool[dst] = (value ^ value >> 16) & mask
    out = [hashmix(pool[i % 4], _HASH_B[i], _HASH_B[i + 1]) for i in range(8)]
    states = bytearray(32 * n)
    words = memoryview(states).cast("Q")
    for k in range(4):  # two 32-bit words, low first, make one 64-bit word
        word = out[2 * k] | out[2 * k + 1] << 32
        words[k::4] = memoryview(word.to_bytes(8 * n, order)).cast("Q")
    return [bytes(states[i : i + 32]) for i in range(0, 32 * n, 32)]


@dataclass(slots=True)
class _SeedBatch:
    """The seed states of a sweep's ghost streams: for each seed in
    ``first`` and each run below ``runs``, the state of (seed, run) is
    ``states[first[seed] + run]``.  One small object per state: one buffer
    for all of them raised a ghost-long campaign's peak RSS by 0.06 MB."""

    runs: int
    first: dict[int, int]
    states: list[bytes]


@functools.cache
def _seeded_type() -> type:
    """A numpy ``ISeedSequence`` whose ``generate_state(4, uint64)``, the
    state that PCG64 asks for, is a state that :func:`_seed_states`
    computed; any other request is ``SeedSequence``'s own.  Defined at the
    first draw, which imports numpy."""
    import numpy as np
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, key: tuple[int, int], state: bytes):
            self.key, self.state = key, state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and dtype is np.uint64:
                return np.frombuffer(self.state, np.uint64)
            return np.random.SeedSequence(derive_seed(*self.key)).generate_state(n_words, dtype)

    return Seeded


def _generator(seed: int, run_index: int) -> np.random.Generator:
    """What ``default_rng(derive_seed(seed, run_index))`` builds.  The
    block's batch holds the seed state of every key a sweep draws from, and
    such a key's generator is built from it, without ``default_rng``'s
    argument dispatch and seed hash; any other key's is ``default_rng``'s,
    which hashes one seed faster than a pass of one."""
    import numpy as np

    batch = _shared.batch if _shared is not None else None
    first = batch.first.get(seed) if batch is not None and 0 <= run_index < batch.runs else None
    if first is None:
        return np.random.default_rng(derive_seed(seed, run_index))
    state = batch.states[first + run_index]
    return np.random.Generator(np.random.PCG64(_seeded_type()((seed, run_index), state)))


@dataclass(slots=True)
class _Draws:
    """The first stream of a (seed, run) to draw: its rate ``bound``, the
    u_flag values it has ``drawn``, and their record lows below ``bound``,
    each flagged tick whose value is below every earlier one, as (tick, u).
    At a rate p <= bound, the first flag is the first record low below p."""

    bound: float
    drawn: int
    lows: list[tuple[int, float]]

    def flags_below(self, rate: float, need: int) -> list[int] | None:
        """What the record settles at ``rate`` <= ``bound`` of the flagged
        ticks below ``need``: ``[first]`` when it holds the first, ``[]``
        when there is none, and None when its draws stop short of telling."""
        for tick, u in self.lows:
            if u < rate:  # the first flag at this rate
                return [tick] if tick < need else []
        return [] if self.drawn >= need else None


class _GhostStream:
    """One run's ghost randomness, drawn only as far as the run reads it.

    The stream is defined as if drawn in full from
    ``default_rng(derive_seed(scenario.seed, run_index))``: first
    ``u_flag = random(n_ticks)``, then ``u_gap = random(n_ticks)``.  Tick t
    is flagged when ``u_flag[t] < ghost_rate``; it shows a ghost at step
    ``t * tick_steps`` with gap ``u_gap[t] * trigger threshold``.  Both
    arrays span the whole horizon so that runs with the same seed stay
    coupled across effect changes (a lower ghost_rate selects a subset of
    the same flagged ticks).  Drawing a prefix, or skipping values with
    ``advance``, gives the same values as one full draw.

    A stream builds its generator only when it draws, so a ghost-free
    scenario imports nothing; numpy is loaded at the first draw.  The first
    stream of a (seed, run) to draw writes its :class:`_Draws` record; a
    later stream of that (seed, run) with a rate at or below the record's
    reads its first ghost from the record when the record settles it, and
    draws itself otherwise.  ``simulate`` reads each stream up to its
    scenario's cruise collision, which every variant at the same speed
    shares, so a variant's later natural trigger does not take it beyond
    the record; a lower speed, whose cruise collision comes later, can.
    Such a stream keeps the record it read, and ``events_before`` draws
    only when that record does not show it has no ghost below the step.

    The generator is that of ``default_rng(derive_seed(seed,
    run_index))``, built by :func:`_generator`: a sweep computes the seed
    states of all its (seed, run) streams in one pass of
    :func:`_seed_states`, which a test pins against numpy's
    ``SeedSequence``, and the block keeps them; a stream outside the batch
    builds its generator with ``default_rng``.
    """

    __slots__ = (
        "_scenario", "_run_index", "_tick_steps", "_n_ticks", "_rate",
        "_rng", "_record", "_read", "_drawn", "_flagged",
    )

    def __init__(self, scenario: Scenario, cfg: SimConfig, run_index: int):
        self._scenario = scenario
        self._run_index = run_index
        self._tick_steps = cfg.tick_steps
        self._n_ticks = (cfg.max_steps - 1) // cfg.tick_steps + 1 if cfg.max_steps > 0 else 0
        self._rate = scenario.effects.ghost_rate
        self._rng = None  # built at the first draw
        self._record: _Draws | None = None  # the record this stream writes
        self._read: _Draws | None = None  # the record this stream reads
        self._drawn = 0  # u_flag values drawn so far
        self._flagged: list[int] = []  # flagged ticks among them, ascending

    def _draw(self, count: int) -> Iterator[np.ndarray]:
        """The next ``count`` values of the stream, in bounded chunks."""
        while count > 0:
            u = self._rng.random(min(count, _GHOST_CHUNK))
            count -= u.size
            yield u

    def _flagged_before(self, step: int, first: bool = False) -> list[int]:
        """The flagged ticks whose step is below ``step``; with ``first``,
        only what settles the first: the record of this (seed, run) when it
        does, or else the chunks drawn until one holds a flag.  The first
        stream of a (seed, run) to draw writes the record.  Without
        ``first``, a stream that has not drawn takes only a record's
        answer that there is no flag.  Records are read and written only
        within a :func:`_sharing` block."""
        need = min(self._n_ticks, -(-step // self._tick_steps))
        if self._rate <= 0.0 or need == 0:
            return []
        if not self._drawn:
            if first and self._read is None and _shared is not None:
                if _shared.seed != self._scenario.seed:
                    _shared.seed, _shared.records = self._scenario.seed, {}
                records = _shared.records
                record = records.get(self._run_index)
                if record is None:
                    self._record = records[self._run_index] = _Draws(self._rate, 0, [])
                elif self._rate <= record.bound:
                    self._read = record
            if self._read is not None:
                settled = self._read.flags_below(self._rate, need)
                if settled is not None and (first or not settled):
                    return settled
        if self._rng is None:
            self._rng = _generator(self._scenario.seed, self._run_index)
        while self._drawn < need and not (first and self._flagged):
            u = self._rng.random(min(need - self._drawn, _GHOST_CHUNK))
            offset = self._drawn
            hits = (u < self._rate).nonzero()[0]
            ticks = [offset + t for t in hits.tolist()]
            self._flagged += ticks
            self._drawn += u.size
            if self._record is not None:
                lows = self._record.lows
                self._record.drawn = self._drawn
                for t, x in zip(ticks, u[hits].tolist()):
                    if not lows or x < lows[-1][1]:
                        lows.append((t, x))
        return self._flagged[: bisect.bisect_left(self._flagged, need)]

    def first_before(self, step: int) -> int | None:
        """The first ghost step below ``step``, or None."""
        ticks = self._flagged_before(step, first=True)
        return ticks[0] * self._tick_steps if ticks else None

    def events_before(self, step: int) -> list[tuple[int, float]]:
        """Every ghost below ``step`` as (step, gap).  Reads the gaps, so
        later reads must stay below ``step``."""
        ticks = self._flagged_before(step)
        if not ticks:
            return []
        self._rng.bit_generator.advance(self._n_ticks - self._drawn)  # to u_gap[0]
        d_trigger = trigger_threshold(self._scenario)
        events = []
        i = start = 0
        for u_gap in self._draw(ticks[-1] + 1):
            end = start + u_gap.size
            while i < len(ticks) and ticks[i] < end:
                t = ticks[i]
                events.append((t * self._tick_steps, float(u_gap[t - start]) * d_trigger))
                i += 1
            start = end
        return events


class SimTrace:
    """One run to its terminal, as a view of the run's closed-form resolution.

    The view is a pair of row tuples, built once, when first needed, by
    :func:`_trace_view`; only then are the run's ghost gaps drawn, and a
    stream's gaps can be drawn only once, so the rows are kept.
    :func:`export_trace_jsonl` writes the rows as they are.  A ghost-free
    trace has no stream.  ``events``
    (every :class:`SimEvent`, in time order) and ``states`` (the ego's
    :class:`core.KinematicState` at each event step) are built from the
    rows on first read, for library callers.  :func:`compute_kpis` reads
    the resolution only and builds no view, so a sweep never does.
    Equality and hash compare (scenario_id, terminal, events, states).
    """

    __slots__ = ("_scenario", "_cfg", "_res", "_ghosts", "_view", "_events", "_states")

    def __init__(
        self, scenario: Scenario, cfg: SimConfig, res: _Resolved, ghosts: _GhostStream | None
    ):
        self._scenario = scenario
        self._cfg = cfg
        self._res = res
        self._ghosts = ghosts
        self._view: _Rows | None = None
        self._events: tuple[SimEvent, ...] | None = None
        self._states: tuple[core.KinematicState, ...] | None = None

    @property
    def scenario_id(self) -> str:
        return self._scenario.id

    @property
    def terminal(self) -> Terminal:
        return self._res.terminal

    @property
    def events(self) -> tuple[SimEvent, ...]:
        if self._events is None:
            self._events = tuple(itertools.starmap(SimEvent, self._built()[0]))
        return self._events

    @property
    def states(self) -> tuple[core.KinematicState, ...]:
        if self._states is None:
            self._states = tuple(
                core.KinematicState(position, velocity, time)
                for time, position, velocity in self._built()[1]
            )
        return self._states

    def _built(self) -> _Rows:
        if self._view is None:
            self._view = _trace_view(self._scenario, self._cfg, self._res, self._ghosts)
        return self._view

    def _key(self) -> tuple:
        # The rows hold the fields of the events and the states.
        return (self.scenario_id, self.terminal, self._built())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimTrace):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"SimTrace(scenario_id={self.scenario_id!r}, terminal={self.terminal!r}, "
            f"events={self.events!r}, states={self.states!r})"
        )


@dataclass(slots=True)
class _Shared:
    """What a sweep's runs share.  A sweep runs each scenario's runs, and
    the scenarios that share a seed, back to back, so it keeps the ``plan``
    of the last (scenario, cfg) and the draw ``records`` of the last
    ``seed``.  ``run0`` keeps each run-0 trace by id(scenario) until a call
    with the same scenario and cfg takes it; the trace holds the scenario.
    ``batch`` holds the seed states of the last sweep's ghost streams, which
    the export's streams read too."""

    plan: _Plan | None = None
    seed: int | None = None
    records: dict[int, _Draws] = field(default_factory=dict)
    run0: dict[int, SimTrace] = field(default_factory=dict)
    batch: _SeedBatch | None = None


_shared: _Shared | None = None


@contextmanager
def _sharing():
    """Within the block, runs share one :class:`_Shared`, a nested block the
    outer one's; nothing is kept after the outermost, also when it raises."""
    global _shared
    outer, _shared = _shared, _shared or _Shared()
    try:
        yield
    finally:
        _shared = outer


def simulate(scenario: Scenario, cfg: SimConfig | None = None, run_index: int = 0) -> SimTrace:
    """Resolve one run to its terminal, as a :class:`SimTrace`.

    ``run_index`` selects the run's random stream within the scenario's
    seed (sweeps use 0, 1, 2, ...); equal inputs give bit-identical traces.
    Within a :func:`_sharing` block, runs of one scenario at equal configs
    that trigger on the same step share one resolution, and a ghost-free
    scenario's runs one trace; outside one, each call resolves afresh.
    """
    if cfg is None:
        cfg = SimConfig()
    shared = _shared or _Shared()
    if run_index == 0:
        trace = shared.run0.get(id(scenario))
        if trace is not None and trace._cfg is cfg:
            del shared.run0[id(scenario)]
            return trace
    plan = shared.plan
    if plan is None or plan.scenario is not scenario or (plan.cfg is not cfg and plan.cfg != cfg):
        if plan is not None:
            # Its reports served its runs; a kept trace need not hold them.
            for res in plan._resolutions.values():
                res.kpis = None
        plan = shared.plan = _Plan(scenario, cfg)
    trace = plan.trace
    if trace is None:
        if scenario.effects.ghost_rate:
            ghosts = _GhostStream(scenario, cfg, run_index)
            n_trig = ghosts.first_before(plan.draw_limit)
            if n_trig is None or n_trig >= plan.ghost_limit:
                n_trig = plan.n_nat
            trace = SimTrace(scenario, cfg, plan.resolve(n_trig), ghosts)
        else:  # no stream: every run is the natural one
            trace = plan.trace = SimTrace(scenario, cfg, plan.resolve(plan.n_nat), None)
    if run_index == 0:
        shared.run0.setdefault(id(scenario), trace)
    return trace


def _trace_view(
    scenario: Scenario, cfg: SimConfig, res: _Resolved, ghosts: _GhostStream | None
) -> _Rows:
    """A resolved run's events in time order, as (time, stage, kind, gap)
    rows, and the ego state at each event step, as (time, position,
    velocity) rows.  Draws the ghost gaps, the stream's last read; a
    ghost-free run has no stream."""
    dt = cfg.dt
    range_eff = scenario.odd.d_perception * scenario.effects.perception_range_factor
    ghost = EventKind.GHOST_DETECTED
    sense = _STAGE_FOR_KIND[ghost]
    order = _STAGE_ORDER[sense]
    # (step, stage order, stage, kind, gap) of each event.
    found = [
        (step, order, sense, ghost, fake_gap)
        for step, fake_gap in (() if ghosts is None else ghosts.events_before(res.terminal_step))
    ]

    def add(step: int, kind: EventKind) -> None:
        stage = _STAGE_FOR_KIND[kind]
        found.append((step, _STAGE_ORDER[stage], stage, kind, res.gap(step)))

    n_vis = _first_visible_tick(res, range_eff, cfg.tick_steps)
    if n_vis is not None:
        add(n_vis, EventKind.OBJECT_DETECTED)
    if res.n_trig is not None:
        add(res.n_trig, EventKind.BRAKE_TRIGGERED)
    if res.n_eff is not None and res.n_eff < res.terminal_step:
        add(res.n_eff, EventKind.BRAKE_EFFECTIVE)
    add(res.terminal_step, EventKind[res.terminal.name])

    found.sort(key=operator.itemgetter(0, 1))  # by step, then stage order
    events = tuple((step * dt, stage, kind, gap) for step, _, stage, kind, gap in found)
    states = tuple(
        (n * dt, res.x(n), res.v(n)) for n in dict.fromkeys(event[0] for event in found)
    )
    return events, states


def compute_kpis(trace: SimTrace, scenario: Scenario) -> KpiReport:
    """Derive a run's KPI report from its resolution, without building its
    events or states.

    ``scenario`` must be the trace's own or equal to it.  The resolution
    keeps its one report, so runs that share it derive their KPIs once; a
    natural trigger comes at a gap within the threshold, so a trigger
    beyond it is a ghost's, a false activation.  ``simulate`` drops the
    reports of a plan's resolutions when a sweep moves to another plan.
    """
    if scenario is not trace._scenario and scenario != trace._scenario:
        raise ContractViolationError(f"compute_kpis: '{scenario.id}' is not the trace's scenario")
    res = trace._res
    report = res.kpis
    if report is None:
        n_trig = res.n_trig
        end = res.terminal_step
        collision = res.terminal is Terminal.COLLISION
        if n_trig is None:
            ttc_at_trigger, false_activation = core.NO_CLOSING, False
        else:
            gap = res.gap(n_trig)
            ttc_at_trigger = core.ttc(max(0.0, gap), res.v(n_trig))
            false_activation = gap > trigger_threshold(scenario)
        report = res.kpis = KpiReport(
            ttc_at_trigger=ttc_at_trigger,
            final_gap=max(0.0, res.gap(end)),
            collision=collision,
            impact_speed=res.v(end) if collision else 0.0,
            false_activation=false_activation,
        )
    return report


def _aggregate(scenario: Scenario, kpis: Sequence[KpiReport], odd_fingerprint: str) -> SweepStats:
    gaps = [k.final_gap for k in kpis]
    speeds = [k.impact_speed for k in kpis]
    n = len(kpis)
    # The means add their floats left to right, as sum() did before Python
    # 3.12 compensated, so the bundle's bytes do not depend on the version.
    return SweepStats(
        scenario_id=scenario.id,
        runs=n,
        collision_rate=sum(k.collision for k in kpis) / n,
        false_activation_rate=sum(k.false_activation for k in kpis) / n,
        gap_mean=functools.reduce(operator.add, gaps, 0.0) / n,
        gap_min=min(gaps),
        gap_max=max(gaps),
        impact_speed_mean=functools.reduce(operator.add, speeds, 0.0) / n,
        impact_speed_min=min(speeds),
        impact_speed_max=max(speeds),
        ttc_at_trigger_min=min(k.ttc_at_trigger for k in kpis),
        odd_fingerprint=odd_fingerprint,
    )


@_sharing()
def monte_carlo_sweep(
    scenarios: Sequence[Scenario],
    cfg: SimConfig | None = None,
    runs_per_scenario: int = 1,
) -> list[SweepStats]:
    """Repeated-run KPI statistics per scenario, in input order.

    Run i of a scenario uses the random stream (scenario.seed, i), so the
    result is a pure function of the inputs: execution order cannot change
    it.  It runs in a :func:`_sharing` block, the caller's if one is open.
    The scenarios that share a seed (a condition and its mitigated
    variants) run back to back, groups in the order in which each seed
    first appears, so that each (seed, run) flag stream is drawn once.  A
    simulation error is re-raised with the scenario id attached; of several
    failing scenarios, the first in that run order is reported.
    """
    if runs_per_scenario < 1:
        raise ParameterError(f"runs_per_scenario must be >= 1, got {runs_per_scenario}")
    if cfg is None:
        cfg = SimConfig()

    # Grouped by seed, the block keeps one seed's draw records; keeping every
    # (seed, run)'s instead raised the bench's ghost-long peak RSS by 0.18 MB.
    groups: dict[int, list[int]] = {}
    for index, scenario in enumerate(scenarios):
        groups.setdefault(scenario.seed, []).append(index)
    # One pass computes the seed state of every (seed, run) a ghost stream can
    # draw from; the block keeps it for the export's streams too.
    ghost_seeds = dict.fromkeys(s.seed for s in scenarios if s.effects.ghost_rate > 0)
    if ghost_seeds:
        _shared.batch = _SeedBatch(
            runs_per_scenario,
            {seed: runs_per_scenario * i for i, seed in enumerate(ghost_seeds)},
            _seed_states([
                derive_seed(seed, run) for seed in ghost_seeds for run in range(runs_per_scenario)
            ]),
        )
    results: dict[int, SweepStats] = {}
    # Most scenarios of a campaign share one ODD: fingerprint each ODD once.
    fingerprints: dict[OddDefinition, str] = {}
    for index in (index for group in groups.values() for index in group):
        scenario = scenarios[index]
        try:
            kpis = [
                compute_kpis(simulate(scenario, cfg, i), scenario)
                for i in range(runs_per_scenario)
            ]
        except SimulationError as exc:
            raise SimulationError(f"scenario '{scenario.id}': {exc}") from exc
        fingerprint = fingerprints.get(scenario.odd)
        if fingerprint is None:
            fingerprint = fingerprints[scenario.odd] = scenario.odd.fingerprint()
        results[index] = _aggregate(scenario, kpis, fingerprint)
    return [results[index] for index in range(len(scenarios))]


def _exact(key: tuple) -> tuple:
    """``key``, told apart from one that differs only by the sign of a zero:
    0.0 and -0.0 compare and hash equal but print differently."""
    if 0.0 in key:
        return key, tuple(repr(x) for x in key if x == 0.0)
    return key


def export_trace_jsonl(traces: Iterable[SimTrace], path: str | Path) -> None:
    """Write traces as JSON lines, one trace per line: its scenario id, its
    terminal, its events and its ego states, in the order given.

    A line is ``json.dumps`` of that object, assembled from texts that one
    :func:`errors.json_encoder` wrote, each distinct one once per call: the
    text of every event and state row, and the events-and-states body of
    every ghost-free trace.  That body depends only on the run's resolution,
    perception range and frame period, so a trace whose body was written
    builds no view.  No :class:`SimEvent` or :class:`core.KinematicState` is
    built."""
    dumps = json_encoder()
    # Event rows have four fields and state rows three, so one memo holds both.
    items: dict[tuple, str] = {}
    bodies: dict[tuple, str] = {}
    terminals = {terminal: dumps(terminal) for terminal in Terminal}

    def array(rows: tuple[tuple, ...], names: tuple[str, ...]) -> str:
        texts = []
        for row in rows:
            key = _exact(row)
            item = items.get(key)
            if item is None:
                item = items[key] = dumps(dict(zip(names, row)))
            texts.append(item)
        return "[" + ", ".join(texts) + "]"

    def body(trace: SimTrace) -> str:
        events, states = trace._built()
        return (
            '"events": ' + array(events, ("time", "stage", "kind", "gap"))
            + ', "states": ' + array(states, ("time", "position", "velocity")) + "}"
        )

    with open(path, "w", encoding="utf-8") as f:
        for trace in traces:
            if trace._ghosts is None:
                res = trace._res
                odd, effects = trace._scenario.odd, trace._scenario.effects
                key = _exact((
                    res.v0, res.dt, res.b_eff, res.d_object, res.n_trig, res.n_eff,
                    res.m_stop, res.terminal_step, res.terminal,
                    odd.d_perception * effects.perception_range_factor, trace._cfg.tick_steps,
                ))
                tail = bodies.get(key)
                if tail is None:
                    tail = bodies[key] = body(trace)
            else:
                tail = body(trace)
            f.write(
                '{"scenario_id": ' + dumps(trace.scenario_id)
                + ', "terminal": ' + terminals[trace.terminal] + ", " + tail + "\n"
            )
