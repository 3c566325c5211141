"""Deterministic discrete-time longitudinal simulation of the AEB function.

The function is staged as perception-sense -> perception-algo -> decision ->
actuation on a 1D road: the ego starts at x=0 moving at constant speed
toward a static object at x=d_object.

Discrete semantics (semi-implicit Euler at ``dt``), which every public
number in a trace obeys:

* Steps n = 0, 1, ... at t = n*dt with state (x_n, v_n); x_0 = 0, v_0 = v_r.
* Terminal check first at each step: collision when gap_n <= 0, stopped
  when v_n == 0, timeout at the horizon step.  A terminal step has no
  perception or decision; its event, the trace's last, is of kind
  ``trace.terminal``: ``EventKind.STOPPED``, ``COLLISION`` or ``TIMEOUT``.
* Perception runs on sensor frames every :data:`PERCEPTION_TICK` (a fixed
  50 ms), quantized to ``tick_steps = round(PERCEPTION_TICK / dt)`` steps
  (so dt is at most 0.05 s): the object enters the percept when gap <=
  d_perception * perception_range_factor (and stays there; the gap never
  grows), and a ghost detection appears with probability ghost_rate, with
  a gap uniform in [0, trigger threshold) that the frame's own flag
  uniform gives (:func:`_ghost_events`).
* The decision stage checks every step: the brake latches when the
  closest perceived gap is <= the designed trigger threshold
  rss_min_distance(vehicle).  The deployed threshold cannot know that a
  triggering condition enlarged the response latency, so rho_add does not
  move it; it only delays the brake force.
* Brake force starts ceil((rho + rho_add)/dt) steps after the trigger and
  applies a constant deceleration effective_brake_decel(vehicle,
  mu * mu_factor); a delay at or past the horizon never applies it.
* Integration: v_{n+1} = max(0, v_n + a*dt);  x_{n+1} = x_n + v_{n+1}*dt.

With piecewise-constant acceleration every phase has a closed form, so the
engine resolves trigger, brake-onset, collision, and stop steps
analytically instead of looping over 10^5 steps per run; the test suite
checks it against a literal per-dt stepper.  A closed form only guesses
a crossing step; the gap or velocity that the trace shows decides it, in
one bounded search (:func:`_first`): it gallops from the guess, clamped
to the interval (a guess of nan or -inf, or none, from its start), and
bisects the bracket.  A run differs from the others of its scenario only
by its first ghost, so a plan holds everything else, and runs that trigger
on the same step share one resolution, built with its KPI report; the runs of a
ghost-free scenario all return one trace.  A scenario's runs depend only
on its outcome key (:func:`_outcome_key`): its ODD (vehicle included),
its perception-range, friction and latency effects and the config, and,
with ghosts, the ghost rate and the seed.  So the scenarios of one key
(many taxonomy leaves map to one effect, and a mitigation can leave a
condition's physics as it was) share one plan, one aggregate, and one
view in the export.  A (seed, run) has one flag stream (:class:`_FlagStream`), which every
scenario of that seed reads: the scenarios that share a seed run back to
back, and a stream draws further only when what it drew cannot settle a
run's first ghost, and redraws from the first frame only for a rate above
every earlier one.  A trace is a view of its resolution: rows of its
events and states, built when first needed.  The rows depend only on the
resolution and the run's flag stream (none for a ghost-free run), so a
resolution keeps the rows of the last view built of it, with that
stream, and every trace of both reads them: the export and the objects
read one view, and so do the run-0 traces of one key.  The rows are
:class:`SimEvent` and :class:`SimState` named tuples, each with the
fields of its ``traces.jsonl`` item, and ``events`` and ``states``
return them.  A view reads its ghosts, ticks and gaps, from its run's
stream and draws nothing of its own.  The export writes each line from
the rows, encoding each distinct row once.
Runs share only within a :func:`_sharing` block (:class:`_Shared`), which
a sweep opens for itself and ``run_campaign`` over its sweep and export.
The sweep's block holds the resolution of each ghost-free key, the
aggregate of each key, the last seed's ghost plans and flag streams until
the seed changes, and the seed states of its streams; all die when the
sweep returns or raises.  A nested block shares only the enclosing block's
run-0 traces, each kept until the export's call takes it, so the export
resolves nothing again.  Outside a block, ``simulate`` shares nothing.
A run's stream is ``default_rng(derive_seed(seed, run))``, value for
value, but every generator is numpy's ``PCG64`` handed the seed state of
numpy's ``SeedSequence`` hash, which :func:`_seed_states` computes (a test
pins it against numpy's ``SeedSequence``): in one pass for every (seed,
run) that a sweep can draw from, or in a pass of one for a stream outside.
Identical (scenario, cfg, run_index) always produces a bit-identical
trace.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from . import core
from .errors import ContractViolationError, ParameterError, SimulationError, json_encoder
from .records import Record, set_field
from .scenario import OddDefinition, Scenario, derive_seed

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PERCEPTION_TICK",
    "SimConfig",
    "Stage",
    "EventKind",
    "SimEvent",
    "SimState",
    "SimTrace",
    "KpiReport",
    "SweepStats",
    "simulate",
    "compute_kpis",
    "monte_carlo_sweep",
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


_STAGE_FOR_KIND = {
    EventKind.GHOST_DETECTED: Stage.PERCEPTION_SENSE,
    EventKind.OBJECT_DETECTED: Stage.PERCEPTION_ALGO,
    EventKind.BRAKE_TRIGGERED: Stage.DECISION,
    EventKind.BRAKE_EFFECTIVE: Stage.ACTUATION,
    EventKind.STOPPED: Stage.ACTUATION,
    EventKind.COLLISION: Stage.ACTUATION,
    EventKind.TIMEOUT: Stage.ACTUATION,
}

_STAGE_ORDER = {stage: order for order, stage in enumerate(Stage)}

PERCEPTION_TICK = 0.05  # s, the sensor frame period


class SimConfig(Record):
    """Integration settings: the step ``dt`` and the horizon ``max_time``.

    Sensor frames come every :data:`PERCEPTION_TICK` (a fixed 50 ms),
    quantized to ``tick_steps = round(PERCEPTION_TICK / dt)`` steps (the
    effective frame period is tick_steps * dt), so dt <= PERCEPTION_TICK
    <= max_time.  The horizon is quantized to ``max_steps``, at most 2**53:
    beyond, consecutive step numbers round to one float, and a crossing
    step can no longer be told by its gap.
    """

    _fields = ("dt", "max_time")
    __slots__ = (*_fields, "tick_steps", "max_steps")

    def __init__(self, dt: float = 0.001, max_time: float = 60.0) -> None:
        dt = core._require_finite("dt", dt)
        max_time = core._require_finite("max_time", max_time)
        if not 0.0 < dt <= PERCEPTION_TICK <= max_time:
            raise ParameterError(
                f"need 0 < dt <= PERCEPTION_TICK ({PERCEPTION_TICK}) <= max_time, "
                f"got dt={dt}, max_time={max_time}"
            )
        if not max_time / dt <= 2**53:
            raise ParameterError(
                f"max_time / dt must be at most 2**53 steps, got dt={dt}, max_time={max_time}"
            )
        set_field(self, "dt", dt)
        set_field(self, "max_time", max_time)
        set_field(self, "tick_steps", round(PERCEPTION_TICK / dt))
        set_field(self, "max_steps", int(max_time / dt + 1e-9))


class SimEvent(NamedTuple):
    """One event of a trace, with the fields of its ``traces.jsonl`` item."""

    time: float
    stage: Stage
    kind: EventKind
    gap: float


class SimState(NamedTuple):
    """The ego's state at an event step, with the fields of its
    ``traces.jsonl`` item."""

    time: float
    position: float
    velocity: float


# A trace's rows: its events in time order, and the ego state at each event step.
_Rows = tuple[tuple[SimEvent, ...], tuple[SimState, ...]]


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


def _ceil_steps(quotient: float) -> int:
    """Smallest integer >= quotient, forgiving ~1e-9 of float noise."""
    return max(0, math.ceil(quotient - 1e-9))


def _first(holds: Callable[[int], bool], lo: int, hi: int, guess: float | None = None) -> int:
    """The smallest n in [lo, hi) at which ``holds(n)``, or hi when there is
    none; ``holds`` must not turn false once true.  The search gallops (1, 2,
    4, ... steps) from the closed-form ``guess``, rounded up and clamped to
    [lo, hi - 1], to bracket n, and bisects the bracket: an exact guess
    reads the test twice, and any guess costs O(log(hi - lo)) reads.  A
    guess of None or nan gallops from lo."""
    if lo >= hi:
        return hi
    if guess is None or not guess > lo:  # nan and -inf too
        m = lo
    elif guess >= hi - 1:  # +inf too
        m = hi - 1
    else:
        m = math.ceil(guess)
    if holds(m):
        hi, step = m, 1
        while hi - step >= lo and holds(hi - step):
            hi -= step
            step *= 2
        if hi - step >= lo:
            lo = hi - step + 1
    else:
        lo, step = m + 1, 1
        while lo + step <= hi and not holds(lo + step - 1):
            lo += step
            step *= 2
        if lo + step <= hi:
            hi = lo + step - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class _Resolved:
    """Closed-form resolution of one run on the dt grid.  ``kpis`` is set
    by :meth:`_Plan.resolve`, for every run of this resolution; ``view``
    holds the rows of the last view built of it, with the flag stream that
    they read (:meth:`SimTrace._built`)."""

    __slots__ = (
        "v0", "dt", "b_eff", "d_object", "n_trig", "n_eff", "m_stop", "terminal_step",
        "terminal", "kpis", "view",
    )

    def __init__(
        self,
        v0: float,
        dt: float,
        b_eff: float,
        d_object: float,
        n_trig: int | None,  # decision step where the brake latched
        n_eff: int | None,  # step where brake force starts (None: never engaged)
        m_stop: int,  # braking steps until v == 0 (if engaged)
        terminal_step: int,
        terminal: EventKind,  # STOPPED, COLLISION or TIMEOUT
    ) -> None:
        self.v0 = v0
        self.dt = dt
        self.b_eff = b_eff
        self.d_object = d_object
        self.n_trig = n_trig
        self.n_eff = n_eff
        self.m_stop = m_stop
        self.terminal_step = terminal_step
        self.terminal = terminal
        self.kpis: KpiReport | None = None
        self.view: tuple[_FlagStream | None, _Rows] | None = None

    def _brake_advance(self, m: int) -> float:
        # Distance gained after m braking steps; advance ceases once the
        # clamped velocity reaches zero (step m_stop).
        m = min(m, self.m_stop - 1)
        if m <= 0:
            return 0.0
        return m * self.v0 * self.dt - self.b_eff * self.dt * self.dt * m * (m + 1) / 2.0

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

    A run triggers at its first ghost below ``n_nat`` and ``draw_limit``,
    or else at ``n_nat`` (never, if that is past the cruise collision or
    the horizon).
    Its crossings (the object seen, the trigger threshold and the object
    reached while cruising, and the stop, found when a brake first
    engages) and each resolution's braking collision are the
    :func:`_first` step at which the gap or velocity that the trace shows
    passes its test, searched from the closed-form guess; a guess that is
    not finite (-inf or nan, when the collision's discriminant overflows)
    gallops from the interval's start.
    A plan depends on its scenario only through the scenario's outcome key
    (:func:`_outcome_key`), so the scenarios that share a key share one
    plan.  A ghost-free scenario has a single resolution, which a sweep
    keeps, without its plan, until it returns; a ghost plan is kept while
    the sweep runs its seed.  Neither a resolution nor a trace refers to
    its plan, so a trace keeps neither the plan nor its table alive.
    """

    def __init__(self, scenario: Scenario, cfg: SimConfig):
        self._resolutions: dict[int, _Resolved] = {}
        self.m_stop: int | None = None  # found when a brake first engages
        odd = scenario.odd
        veh = odd.vehicle
        eff = scenario.effects
        self.dt = dt = cfg.dt
        self.max_steps = max_steps = cfg.max_steps
        tick_steps = cfg.tick_steps

        self.v0 = v0 = veh.v_r
        self.d_obj = d_obj = odd.d_object
        range_eff = _range(scenario)
        self.d_trigger = d_trigger = core.rss_min_distance(veh)
        mu = odd.mu * eff.mu_factor
        b_eff = core.effective_brake_decel(veh, mu) if mu > 0.0 else 0.0
        # A brake too weak for b_eff*dt to be above 0, or a friction product
        # that underflows to 0, never slows the ego in floats, as a per-dt
        # stepper finds: it brakes as a brake of 0 does.
        self.b_eff = b_eff = b_eff if b_eff * dt > 0.0 else 0.0
        never = max_steps + 1  # any step past the horizon
        # A delay at or past the horizon never applies the brake, also one
        # whose quotient overflows.
        self.delay_steps = _ceil_steps(min((veh.rho + eff.rho_add) / dt, never))

        if v0 == 0.0:
            # Stopped at step 0, before any ghost is read.
            self.n_nat = self.n_hit_cruise = self.draw_limit = 0
            return
        v_dt = v0 * dt

        def first_step_gap_le(threshold: float, stride: int = 1) -> int:
            # Smallest multiple n of stride with cruise gap_n <= threshold, as
            # _Resolved.gap computes it, up to a step past the horizon.  An
            # ego too slow for v0*dt to be above 0 has no guess: it never
            # moves in floats.
            guess = (d_obj - threshold) / (v_dt * stride) if v_dt else None
            return stride * _first(
                lambda k: d_obj - v_dt * (stride * k) <= threshold, 0, never, guess
            )

        # Natural trigger: needs visibility (a perception-tick property) and
        # the gap at or below the trigger threshold (checked every step).
        self.n_nat = max(first_step_gap_le(range_eff, tick_steps), first_step_gap_le(d_trigger))
        self.n_hit_cruise = first_step_gap_le(0.0)  # first collided step while cruising
        # A ghost at or after the cruise collision or the horizon leaves the
        # run untriggered, as no ghost does, so the stream is read no further
        # than ``draw_limit``.  Same-speed variants of a scenario share it, so
        # a later natural trigger reads no further than the first draw.
        self.draw_limit = min(self.n_hit_cruise, max_steps)

    def resolve(self, n_trig: int, scenario_id: str) -> _Resolved:
        """The run that triggers at ``n_trig``, resolved with its KPI report
        when a run first needs it.  A non-finite one is not kept: every call
        raises SimulationError, which names the scenario that asked."""
        res = self._resolutions.get(n_trig)
        if res is None:
            res = self._resolve(n_trig)
            end = res.terminal_step
            x_end, v_end = res.x(end), res.v(end)
            for name, value in (("position", x_end), ("velocity", v_end)):
                if not math.isfinite(value):
                    raise SimulationError(
                        f"non-finite {name} at terminal of scenario '{scenario_id}'"
                    )
            collision = res.terminal is EventKind.COLLISION
            if res.n_trig is None:
                ttc_at_trigger, false_activation = core.NO_CLOSING, False
            else:  # a natural trigger comes within the threshold, a ghost's beyond
                gap = res.gap(res.n_trig)
                ttc_at_trigger = core.ttc(max(0.0, gap), res.v(res.n_trig))
                false_activation = gap > self.d_trigger
            res.kpis = KpiReport(
                ttc_at_trigger=ttc_at_trigger,
                final_gap=max(0.0, res.d_object - x_end),
                collision=collision,
                impact_speed=v_end if collision else 0.0,
                false_activation=false_activation,
            )
            self._resolutions[n_trig] = res
        return res

    def _resolve(self, n_trig: int) -> _Resolved:
        v0, dt, b_eff, d_obj = self.v0, self.dt, self.b_eff, self.d_obj
        max_steps, n_hit_cruise = self.max_steps, self.n_hit_cruise
        if v0 == 0.0:
            return _Resolved(v0, dt, b_eff, d_obj, None, None, 0, 0, EventKind.STOPPED)

        n_eff = n_trig + self.delay_steps
        if n_hit_cruise <= n_eff or n_eff >= max_steps:
            # Cruise into the object or run out the clock: the collision or
            # the horizon comes before any brake force, or before the trigger.
            if n_trig >= min(n_hit_cruise, max_steps):
                n_trig = None  # never triggered
            if n_hit_cruise <= max_steps:
                return _Resolved(v0, dt, b_eff, d_obj, n_trig, None, 0, n_hit_cruise, EventKind.COLLISION)
            return _Resolved(v0, dt, b_eff, d_obj, n_trig, None, 0, max_steps, EventKind.TIMEOUT)

        # Braking engages at n_eff with speed still v0, and stops the ego
        # m_stop braking steps later unless it reaches the object first:
        # braking steps until v == 0, as _Resolved.v computes it, past the
        # horizon for a brake of 0.
        m_stop = self.m_stop
        if m_stop is None:
            guess = v0 / (b_eff * dt) if b_eff else math.inf
            m_stop = self.m_stop = _first(
                lambda m: v0 - m * b_eff * dt <= 0.0, 0, max_steps + 1, guess
            )
        need = d_obj - v0 * dt * n_eff  # > 0 because n_hit_cruise > n_eff
        res = _Resolved(v0, dt, b_eff, d_obj, n_trig, n_eff, m_stop, n_eff + m_stop, EventKind.STOPPED)

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
            # Searched among the braking steps before the stop, where the
            # advance grows; a discriminant that overflowed gives a root of
            # -inf or nan, which gallops from the first step.
            m_coll = _first(lambda m: res._brake_advance(m) >= need, 1, m_stop, root)
            if m_coll < m_stop:
                res.terminal_step, res.terminal = n_eff + m_coll, EventKind.COLLISION
        if res.terminal_step > max_steps:
            res.terminal_step, res.terminal = max_steps, EventKind.TIMEOUT
        return res


def _range(scenario: Scenario) -> float:
    """The perception range under the scenario's effects."""
    return scenario.odd.d_perception * scenario.effects.perception_range_factor


def _first_visible_tick(res: _Resolved, range_eff: float, tick_steps: int) -> int | None:
    """First perception tick (strictly before terminal) seeing the object.

    The gap is nonincreasing along the whole trajectory, so this is a
    search over tick indices, from the tick at which cruising would see it.
    """
    last_tick = (res.terminal_step - 1) // tick_steps
    v_tick = res.v0 * res.dt * tick_steps
    guess = (res.d_object - range_eff) / v_tick if v_tick else None
    k = _first(lambda k: res.gap(k * tick_steps) <= range_eff, 0, last_tick + 1, guess)
    return k * tick_steps if k <= last_tick else None


# A stream draws at most this many values at a time, so its memory does not
# grow with the horizon.  A stream's query at rate p draws
# ceil(_GHOST_SPAN / p) values first, which hold _GHOST_SPAN flags on
# average, so it seldom draws far past its first flag (_FlagStream).  A span
# of 1 drew fewer values at low rates, but its more, smaller draws at high
# rates took longer.
_GHOST_CHUNK = 4096
_GHOST_SPAN = 4.0

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


@functools.cache
def _seeded_type() -> type:
    """A numpy ``ISeedSequence`` that holds a state that :func:`_seed_states`
    computed: ``generate_state(4, uint64)``, the one request that PCG64
    makes, returns it, and any other request raises.  Defined at the first
    draw, which imports numpy."""
    import numpy as np
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, state: bytes):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and dtype is np.uint64:
                return np.frombuffer(self.state, np.uint64)
            raise NotImplementedError(f"a seed state is 4 uint64 words, not {n_words} of {dtype}")

    return Seeded


def _generator(seed: int, run_index: int, state: bytes | None) -> np.random.Generator:
    """What ``default_rng(derive_seed(seed, run_index))`` builds, built from
    the key's seed state: ``state``, which a sweep computed in its batch, or,
    if None, a batch of one."""
    import numpy as np

    if state is None:
        (state,) = _seed_states([derive_seed(seed, run_index)])
    return np.random.Generator(np.random.PCG64(_seeded_type()(state)))


class _FlagStream:
    """The ghost flags of one (seed, run), which every scenario of that seed
    reads: ``u_flag``, the first values of ``default_rng(derive_seed(seed,
    run))``, of which tick t is flagged at rate p when ``u_flag[t] < p``, and
    then also gives that ghost's gap (:func:`_ghost_events`).  The values do
    not depend on the config, which sets only how many ticks a run reads.

    The stream keeps its generator, the count of values ``drawn``, and
    their ``flags`` below ``bound``, as (tick, u) in tick order.  At a rate
    p <= bound the flags below p are the flagged ticks, so a lower rate,
    as a mitigation sets, reads what a higher one drew.  A rate above the
    bound restarts the stream from tick 0 with that rate as its bound.
    ``first`` draws ``ceil(_GHOST_SPAN / rate)`` values first, at most
    ``_GHOST_CHUNK``, and twice as many in each further chunk, up to
    ``_GHOST_CHUNK``, and ``flagged`` ``_GHOST_CHUNK`` at a time: chunked
    any way, the values are the same.
    The generator is built at the first draw (:func:`_generator`, from the
    ``state`` that a sweep hands it), so a stream that draws nothing
    imports nothing; numpy is loaded then.
    """

    __slots__ = ("seed", "run", "state", "bound", "drawn", "flags", "_rng")

    def __init__(self, seed: int, run: int, state: bytes | None):
        self.seed, self.run, self.state = seed, run, state
        self.bound = 0.0
        self.drawn = 0
        self.flags: list[tuple[int, float]] = []
        self._rng = None

    def _draw(self, size: int) -> list[tuple[int, float]]:
        """Draw the next ``size`` values; returns the flags among them."""
        if self._rng is None:
            self._rng = _generator(self.seed, self.run, self.state)
        u = self._rng.random(size)
        hits = (u < self.bound).nonzero()[0]
        offset = self.drawn
        self.drawn += size
        new = [(offset + t, x) for t, x in zip(hits.tolist(), u[hits].tolist())]
        self.flags += new
        return new

    def first(self, rate: float, need: int) -> int | None:
        """The first tick below ``need`` flagged at ``rate``, or None.  Walks
        the flags, and draws further chunks only when they cannot settle it."""
        if rate > self.bound:
            self.bound, self.drawn, self.flags, self._rng = rate, 0, [], None
        for tick, u in self.flags:
            if u < rate:
                return tick if tick < need else None
        # A tiny rate's span overflows to inf, which the comparison also takes.
        size = _GHOST_CHUNK if _GHOST_SPAN / rate >= _GHOST_CHUNK else math.ceil(_GHOST_SPAN / rate)
        while self.drawn < need:
            for tick, u in self._draw(min(need - self.drawn, size)):
                if u < rate:
                    return tick
            size = min(2 * size, _GHOST_CHUNK)
        return None

    def flagged(self, rate: float, need: int) -> list[tuple[int, float]]:
        """Every flag below ``need`` at ``rate``, as (tick, u), a rate that
        ``first`` was asked for, so within the bound; draws on to ``need``."""
        while self.drawn < need:
            self._draw(min(need - self.drawn, _GHOST_CHUNK))
        return [(tick, u) for tick, u in self.flags if u < rate and tick < need]


def _ghost_events(
    scenario: Scenario, cfg: SimConfig, stream: _FlagStream, terminal_step: int
) -> list[tuple[int, float]]:
    """Every ghost of a run before ``terminal_step``, as (step, gap).

    The run's stream is ``u_flag``, the values of ``default_rng(derive_seed(
    scenario.seed, run_index))`` in draw order, one per tick of the horizon
    (:class:`_FlagStream`).  A tick t with ``u = u_flag[t] < ghost_rate``
    shows a ghost at step ``t * tick_steps`` with gap ``u / ghost_rate *
    trigger threshold``.  Given u < p, u / p is uniform on [0, 1) and
    independent of the other ticks, so the uniform that flags a tick also
    gives its gap (Devroye 1986, "recycling" a uniform), and the gap does
    not depend on the horizon.  The same seed keeps runs coupled across
    effect changes: a lower ghost_rate flags a subset of the same ticks,
    each with a larger gap."""
    rate, tick_steps = scenario.effects.ghost_rate, cfg.tick_steps
    d_trigger = core.rss_min_distance(scenario.odd.vehicle)
    return [
        (t * tick_steps, u / rate * d_trigger)
        for t, u in stream.flagged(rate, -(-terminal_step // tick_steps))
    ]


class SimTrace:
    """One run to its terminal, as a view of the run's closed-form resolution.

    The view is a pair of row tuples, built when first needed by
    :func:`_trace_view`; only then are the run's ghosts read.  A ghost
    trace holds the flag stream of its (seed, run), which every scenario of
    that seed reads; a ghost-free trace has no stream.  The rows depend
    only on the resolution and the stream, so the resolution keeps the rows
    of the last view built of it, with their stream, and a trace reads
    them when its stream is that one: the export and the objects, and the
    traces of one resolution and stream, read one view.  ``events`` (every
    :class:`SimEvent`, in time order) and ``states`` (the ego's
    :class:`SimState` at each event step) are those rows, and
    :func:`export_trace_jsonl` writes them as they are.  ``terminal`` is
    the :class:`EventKind` of the last event.
    :func:`compute_kpis` reads the resolution only and builds no view, so a
    sweep never does.
    Equality and hash compare (scenario_id, terminal, events, states).
    """

    __slots__ = ("_scenario", "_cfg", "_res", "_stream")

    def __init__(
        self, scenario: Scenario, cfg: SimConfig, res: _Resolved, stream: _FlagStream | None
    ):
        self._scenario = scenario
        self._cfg = cfg
        self._res = res
        self._stream = stream

    @property
    def scenario_id(self) -> str:
        return self._scenario.id

    @property
    def terminal(self) -> EventKind:
        return self._res.terminal

    @property
    def events(self) -> tuple[SimEvent, ...]:
        return self._built()[0]

    @property
    def states(self) -> tuple[SimState, ...]:
        return self._built()[1]

    def _built(self) -> _Rows:
        res, stream = self._res, self._stream
        view = res.view
        if view is None or view[0] is not stream:
            view = res.view = (stream, _trace_view(self._scenario, self._cfg, res, stream))
        return view[1]

    def _key(self) -> tuple:
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


def _outcome_key(scenario: Scenario, cfg: SimConfig) -> tuple:
    """What a scenario's runs depend on: its ODD (vehicle included), the
    effects that move the ego or its percept, and the config; with ghosts,
    also their rate and the seed of the flag streams.  Scenarios with one
    key have equal runs, reports and views, up to the scenario id.  Flat,
    so that it hashes without a call to a record's ``__hash__``."""
    odd, effects = scenario.odd, scenario.effects
    vehicle = odd.vehicle
    key = (
        odd.d_object, odd.d_perception, odd.mu, odd.odd_tags,
        vehicle.v_r, vehicle.rho, vehicle.a_max_accel, vehicle.a_min_brake,
        effects.perception_range_factor, effects.mu_factor, effects.rho_add,
        cfg.dt, cfg.max_time,
    )
    return key + (effects.ghost_rate, scenario.seed) if effects.ghost_rate else key


class _Shared:
    """What the runs of one :func:`_sharing` block share.  ``scenario`` and
    ``cfg`` are the last call's, with their ghost ``plan`` or their
    ghost-free ``trace``, which every run returns, so that a sweep builds no
    trace per run.  The scenarios of one outcome key share a plan: the
    ghost-free ``outcomes`` table holds each key's one resolution, and
    ``plans`` the ghost plans of the last ``seed``, with its flag
    ``streams``, one per run index, which every scenario of that seed
    reads, until the seed changes.  A sweep runs the scenarios that share a
    seed back to back, each one's runs in a row.  ``states`` holds the seed
    states of a sweep's ghost streams, by seed, one per run index, and
    ``simulate`` hands each stream it creates its own.  ``run0`` keeps each
    run-0 trace by id(scenario) until a call with the same scenario and cfg
    takes it; the trace holds the scenario, its resolution and its stream,
    so the export resolves nothing again.  A nested block shares only the
    enclosing block's ``run0``."""

    __slots__ = (
        "scenario", "cfg", "plan", "trace", "outcomes", "seed", "plans", "streams", "run0",
        "states",
    )

    def __init__(self, run0: dict[int, SimTrace]) -> None:
        self.scenario: Scenario | None = None
        self.cfg: SimConfig | None = None
        self.plan: _Plan | None = None
        self.trace: SimTrace | None = None
        self.outcomes: dict[tuple, _Resolved] = {}
        self.seed: int | None = None
        self.plans: dict[tuple, _Plan] = {}
        self.streams: dict[int, _FlagStream] = {}
        self.run0 = run0
        self.states: dict[int, list[bytes]] = {}

    def enter(self, scenario: Scenario, cfg: SimConfig) -> tuple:
        """Make ``scenario`` at ``cfg`` the current one: find its key's plan
        or resolution, or build it.  Returns the key."""
        key = _outcome_key(scenario, cfg)
        plan, trace = None, None
        if scenario.effects.ghost_rate:
            if self.seed != scenario.seed:
                self.seed, self.plans, self.streams = scenario.seed, {}, {}
            plan = self.plans.get(key)
            if plan is None:
                plan = self.plans[key] = _Plan(scenario, cfg)
        else:  # no stream: every run is the natural one
            res = self.outcomes.get(key)
            if res is None:
                fresh = _Plan(scenario, cfg)
                res = self.outcomes[key] = fresh.resolve(fresh.n_nat, scenario.id)
            trace = SimTrace(scenario, cfg, res, None)
        self.scenario, self.cfg, self.plan, self.trace = scenario, cfg, plan, trace
        return key


_shared: _Shared | None = None


@contextmanager
def _sharing():
    """Runs within the block share a :class:`_Shared` of its own, which dies
    with it, also when it raises, and the enclosing block's run-0 traces."""
    global _shared
    outer, _shared = _shared, _Shared(run0={} if _shared is None else _shared.run0)
    try:
        yield
    finally:
        _shared = outer


def simulate(scenario: Scenario, cfg: SimConfig | None = None, run_index: int = 0) -> SimTrace:
    """Resolve one run to its terminal, as a :class:`SimTrace`.

    ``run_index`` selects the run's random stream within the scenario's
    seed (sweeps use 0, 1, 2, ...); equal inputs give bit-identical traces.
    Within a :func:`_sharing` block, the scenarios of one outcome key at
    equal configs share one plan, their runs that trigger on the same step
    one resolution, and a ghost-free scenario's runs one trace; outside
    one, each call resolves afresh.  A new flag stream takes its seed state
    from the block's ``states``, which only a sweep fills.
    """
    if cfg is None:
        cfg = SimConfig()
    shared = _shared or _Shared({})
    if run_index == 0:
        trace = shared.run0.get(id(scenario))
        if trace is not None and trace._cfg is cfg:
            del shared.run0[id(scenario)]
            return trace
    if shared.scenario is not scenario or (shared.cfg is not cfg and shared.cfg != cfg):
        shared.enter(scenario, cfg)
    trace = shared.trace
    if trace is None:
        plan = shared.plan
        stream = shared.streams.get(run_index)
        if stream is None:
            states = shared.states.get(scenario.seed, ())
            state = states[run_index] if 0 <= run_index < len(states) else None
            stream = shared.streams[run_index] = _FlagStream(scenario.seed, run_index, state)
        tick = stream.first(scenario.effects.ghost_rate, -(-plan.draw_limit // cfg.tick_steps))
        # A ghost at or after the natural trigger is too late.
        n_trig = plan.n_nat if tick is None else min(tick * cfg.tick_steps, plan.n_nat)
        trace = SimTrace(scenario, cfg, plan.resolve(n_trig, scenario.id), stream)
    if run_index == 0:
        shared.run0.setdefault(id(scenario), trace)
    return trace


def _trace_view(
    scenario: Scenario, cfg: SimConfig, res: _Resolved, stream: _FlagStream | None
) -> _Rows:
    """A resolved run's events in time order, as :class:`SimEvent` rows, and
    the ego state at each event step, as :class:`SimState` rows.  Reads the
    ghosts from the run's stream; a ghost-free run has none."""
    dt = cfg.dt
    ghost = EventKind.GHOST_DETECTED
    sense = _STAGE_FOR_KIND[ghost]
    order = _STAGE_ORDER[sense]
    # (step, stage order, stage, kind, gap) of each event.
    found = [
        (step, order, sense, ghost, fake_gap)
        for step, fake_gap in (
            () if stream is None else _ghost_events(scenario, cfg, stream, res.terminal_step)
        )
    ]

    def add(step: int, kind: EventKind) -> None:
        stage = _STAGE_FOR_KIND[kind]
        found.append((step, _STAGE_ORDER[stage], stage, kind, res.gap(step)))

    n_vis = _first_visible_tick(res, _range(scenario), cfg.tick_steps)
    if n_vis is not None:
        add(n_vis, EventKind.OBJECT_DETECTED)
    if res.n_trig is not None:
        add(res.n_trig, EventKind.BRAKE_TRIGGERED)
    if res.n_eff is not None and res.n_eff < res.terminal_step:
        add(res.n_eff, EventKind.BRAKE_EFFECTIVE)
    add(res.terminal_step, res.terminal)

    found.sort(key=operator.itemgetter(0, 1))  # by step, then stage order
    events = tuple(SimEvent(step * dt, stage, kind, gap) for step, _, stage, kind, gap in found)
    states = tuple(
        SimState(n * dt, res.x(n), res.v(n)) for n in dict.fromkeys(event[0] for event in found)
    )
    return events, states


def compute_kpis(trace: SimTrace, scenario: Scenario) -> KpiReport:
    """A run's KPI report, read off its resolution, without building its
    events or states.

    ``scenario`` must be the trace's own or equal to it.  The plan builds
    the report with the resolution (:meth:`_Plan.resolve`), so the runs
    that share a resolution share one report, which it keeps.
    """
    if scenario is not trace._scenario and scenario != trace._scenario:
        raise ContractViolationError(f"compute_kpis: '{scenario.id}' is not the trace's scenario")
    return trace._res.kpis


def _aggregate(scenario: Scenario, kpis: Sequence[KpiReport], odd_fingerprint: str) -> SweepStats:
    ttcs, gaps, collisions, speeds, false_activations = zip(*kpis)
    n = len(kpis)
    # The means add their floats left to right, as sum() did before Python
    # 3.12 compensated, so the bundle's bytes do not depend on the version.
    return SweepStats(
        scenario_id=scenario.id,
        runs=n,
        collision_rate=sum(collisions) / n,
        false_activation_rate=sum(false_activations) / n,
        gap_mean=functools.reduce(operator.add, gaps, 0.0) / n,
        gap_min=min(gaps),
        gap_max=max(gaps),
        impact_speed_mean=functools.reduce(operator.add, speeds, 0.0) / n,
        impact_speed_min=min(speeds),
        impact_speed_max=max(speeds),
        ttc_at_trigger_min=min(ttcs),
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
    it.  It runs in a :func:`_sharing` block of its own, whose tables die
    when it returns or raises; an enclosing block keeps its run-0 traces.
    The scenarios that share a seed (a condition and its mitigated
    variants) run back to back, groups in the order in which each seed
    first appears, so that each (seed, run) flag stream is drawn once.  The
    scenarios of one outcome key (:func:`_outcome_key`) share one plan and
    one aggregate: a later one's stats are the first one's with its own
    id.  A simulation error is re-raised with the scenario id attached; of
    several failing scenarios, the first in that run order is reported.
    """
    if runs_per_scenario < 1:
        raise ParameterError(f"runs_per_scenario must be >= 1, got {runs_per_scenario}")
    if cfg is None:
        cfg = SimConfig()

    # Grouped by seed, the block keeps one seed's flag streams; keeping every
    # (seed, run)'s instead raised the bench's ghost-long peak RSS by 0.18 MB.
    groups: dict[int, list[int]] = {}
    for index, scenario in enumerate(scenarios):
        groups.setdefault(scenario.seed, []).append(index)
    # One pass computes the seed state of every (seed, run) a ghost stream can
    # draw from; the block keeps them, by seed, until the sweep returns.
    ghost_seeds = dict.fromkeys(s.seed for s in scenarios if s.effects.ghost_rate > 0)
    if ghost_seeds:
        runs = range(runs_per_scenario)
        states = iter(_seed_states([derive_seed(seed, i) for seed in ghost_seeds for i in runs]))
        _shared.states = {seed: [next(states) for _ in runs] for seed in ghost_seeds}
    results: dict[int, SweepStats] = {}
    # Most scenarios of a campaign share one ODD: fingerprint each ODD once.
    fingerprints: dict[OddDefinition, str] = {}
    # The stats of each outcome key; a ghost key holds its seed.
    aggregates: dict[tuple, SweepStats] = {}
    for group in groups.values():
        for index in group:
            scenario = scenarios[index]
            try:
                key = _shared.enter(scenario, cfg)  # its runs' simulate calls find it
                kpis = [
                    compute_kpis(simulate(scenario, cfg, i), scenario)
                    for i in range(runs_per_scenario)
                ]
            except SimulationError as exc:
                raise SimulationError(f"scenario '{scenario.id}': {exc}") from exc
            stats = aggregates.get(key)
            if stats is None:
                fingerprint = fingerprints.get(scenario.odd)
                if fingerprint is None:
                    fingerprint = fingerprints[scenario.odd] = scenario.odd.fingerprint()
                stats = aggregates[key] = _aggregate(scenario, kpis, fingerprint)
            elif stats.scenario_id != scenario.id:
                stats = stats._replace(scenario_id=scenario.id)
            results[index] = stats
    return [results[index] for index in range(len(scenarios))]


def export_trace_jsonl(traces: Iterable[SimTrace], path: str | Path) -> None:
    """Write traces as JSON lines, one trace per line: its scenario id, its
    terminal, its events and its ego states, in the order given.

    A line is ``json.dumps`` of that object, assembled from the text of
    every event and state row, which one :func:`errors.json_encoder`
    writes, each distinct row once per call.  A trace whose resolution
    last built its view for the trace's stream (:class:`SimTrace`), as an
    earlier trace of its outcome key did, builds no view."""
    dumps = json_encoder()
    # Event rows have four fields and state rows three, so one memo holds both.
    # No input float is -0.0 (core._require_finite reads it as 0.0), and no
    # zero the engine computes from them is: equal keys print the same.
    items: dict[tuple, str] = {}
    terminals = {kind: dumps(kind) for kind in EventKind}

    def array(rows: tuple[SimEvent, ...] | tuple[SimState, ...]) -> str:
        texts = []
        for row in rows:
            item = items.get(row)
            if item is None:
                item = items[row] = dumps(row._asdict())
            texts.append(item)
        return "[" + ", ".join(texts) + "]"

    with open(path, "w", encoding="utf-8") as f:
        for trace in traces:
            events, states = trace._built()
            f.write(
                '{"scenario_id": ' + dumps(trace.scenario_id)
                + ', "terminal": ' + terminals[trace.terminal]
                + ', "events": ' + array(events) + ', "states": ' + array(states) + "}\n"
            )
