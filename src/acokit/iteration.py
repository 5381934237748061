"""Asynchronous execution schedules and iteration of decomposed operators.

A schedule is a finite-horizon realization of activation sets and delay
maps.  Processor indices are 0-based.  Admissibility at finite horizon
means: delays point strictly into the past (causality), no value older
than the staleness bound is ever read, and every processor activates in
every window of the fairness length.

Runs read a schedule tick by tick through ``schedule.tick(t)``.  A
:class:`Schedule` pulls each tick from an iterator the first time a run
reads it: a sampled schedule draws it from a seeded generator, a
synchronous one builds it, a loaded one reads it from the file's table.
The schedule checks the tick for admissibility and shape before any run
uses it and keeps it, so the runs that share a schedule see the same
ticks and check each one once between them.  :func:`campaign` is the one
place that maps a seed to a sampled schedule and runs starts under it.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
from dataclasses import dataclass

from .errors import PreconditionError, ScheduleRejectedError
from .util import _load_json

log = logging.getLogger("acokit")


class DecomposedOperator:
    """Operator on a finite product domain, split per processor.

    Construct from a callable returning the full next state, or with
    :meth:`from_table` from an explicit state-to-state mapping.

    The callable must be pure and deterministic: equal states give equal
    images and nothing else is read.  :meth:`apply` relies on it: it
    calls the callable once per distinct state, checks that the image is a
    state of the domain and keeps it, one entry per distinct state read,
    for as long as the operator lives.  ``evaluations`` counts the calls
    made to the callable.
    """

    def __init__(self, domains, global_fn):
        self.domains = tuple(tuple(d) for d in domains)
        if not self.domains or any(not d for d in self.domains):
            raise PreconditionError("every processor needs a nonempty domain")
        for dom in self.domains:
            if len(set(dom)) != len(dom):
                raise PreconditionError("domain elements must be distinct")
        self._domain_sets = tuple(  # typed: see _check
            frozenset((type(v), v) for v in d) for d in self.domains)
        self._global = global_fn
        self._images: dict[tuple, tuple] = {}
        self.evaluations = 0

    @classmethod
    def from_table(cls, domains, table):
        op = cls(domains, lambda state: table[state])
        for state, image in table.items():
            op._check(state, "table input {!r} has the wrong shape",
                      "table input holds {!r} outside its component domain")
            op._check(image, "operator produced a bad state {!r}",
                      "operator produced {!r} outside its component domain")
        if len(table) != op.size():
            missing = next(s for s in op.iter_states() if s not in table)
            raise PreconditionError(f"table misses state {missing!r}")
        return op

    @property
    def processors(self) -> int:
        return len(self.domains)

    def size(self) -> int:
        return math.prod(len(d) for d in self.domains)

    def iter_states(self):
        return itertools.product(*self.domains)

    def _check(self, state, wrong_shape: str, outside: str):
        """Raise unless every value is an element of its domain and of that
        element's type (``True`` does not pass for ``1``)."""
        if not isinstance(state, tuple) or len(state) != self.processors:
            raise PreconditionError(wrong_shape.format(state))
        for value, dom in zip(state, self._domain_sets):
            if (type(value), value) not in dom:
                raise PreconditionError(outside.format(value))

    def check_state(self, state):
        self._check(state, "state {!r} has the wrong shape",
                    "{!r} not in component domain")

    def apply(self, state: tuple) -> tuple:
        try:
            return self._images[state]
        except KeyError:
            pass
        self.evaluations += 1
        try:
            out = tuple(self._global(state))
        except KeyError:
            raise PreconditionError(f"state {state!r} outside domain") from None
        self._check(out, "operator maps its domain outside itself: "
                    "image {!r} has the wrong shape",
                    "operator maps its domain outside itself: "
                    "image holds {!r}")
        self._images[state] = out
        return out

    def component(self, i: int, state: tuple):
        return self.apply(state)[i]

    def known_image(self, state: tuple) -> tuple | None:
        """The image :meth:`apply` has already computed for ``state``, or
        ``None``; never calls the callable."""
        return self._images.get(state)


class Schedule:
    """Finite-horizon activation sets and delay maps, read tick by tick.

    Tick ``t`` is ``(active set, delay rows)``: ``rows[i][j]`` is the time
    whose value of processor ``j`` is read by ``i`` when it activates at
    ``t``, and row ``i`` is read only when ``i`` is active.  Ticks are
    pulled in order from ``ticks`` (ticks 1, 2, ...) the first time any
    run reads them, checked with :func:`_tick_violation` against the
    ``staleness_bound`` and ``fairness_window`` the schedule claims, and
    kept once they pass, so every run that shares a schedule sees the same
    ticks and each tick is checked once.  A tick that fails is never kept:
    it and every later tick raise on every read.
    """

    def __init__(self, processors: int, horizon: int, staleness_bound: int,
                 fairness_window: int, ticks):
        if processors < 1:
            raise ScheduleRejectedError("need at least one processor")
        if horizon < 0:
            raise ScheduleRejectedError("horizon must be non-negative")
        if staleness_bound < 1 or fairness_window < 1:
            raise ScheduleRejectedError("staleness bound and fairness window >= 1")
        self.processors = processors
        self.horizon = horizon
        self.staleness_bound = staleness_bound
        self.fairness_window = fairness_window
        self._ticks = iter(ticks)
        self._passed: list[tuple] = []
        self._last_active = [0] * processors
        self._pending = None  # the next tick, pulled but not yet passed

    @property
    def ticks_drawn(self) -> int:
        return len(self._passed)

    def tick(self, t: int) -> tuple:
        """``(active set, delay rows)`` of tick ``t``.  Raises
        :class:`PreconditionError` when tick ``t`` or an earlier one is not
        admissible, :class:`ScheduleRejectedError` when one is malformed or
        the ticks end before it."""
        passed = self._passed
        while len(passed) < t:
            if self._pending is None:
                self._pending = next(self._ticks, None)
                if self._pending is None:
                    raise ScheduleRejectedError(
                        "activations/delays must cover the horizon")
            violation = _tick_violation(
                len(passed) + 1, *self._pending, self._last_active,
                self.staleness_bound, self.fairness_window)
            if violation is not None:
                raise PreconditionError(
                    f"schedule is not admissible: {violation}",
                    witness=violation)
            passed.append(self._pending)
            self._pending = None
        return passed[t - 1]


def make_synchronous_schedule(k: int, horizon: int) -> Schedule:
    """All processors active every tick, reading the immediately preceding
    state."""
    if k < 1 or horizon < 1:
        raise ScheduleRejectedError("k and horizon must be at least 1")
    everyone = frozenset(range(k))
    return Schedule(k, horizon, 1, 1, (
        (everyone, ((t - 1,) * k,) * k) for t in range(1, horizon + 1)))


def sample_schedule(k: int, horizon: int, seed: int, *,
                    activation_prob: float = 0.5,
                    max_staleness: int = 5,
                    fairness_window: int = 8) -> Schedule:
    """A random admissible schedule, deterministic in the seed, whose ticks
    are drawn as runs read them.

    Tick ``t`` first draws its activation set: each processor with the
    given probability, forced when it would otherwise miss a fairness
    window.  Then it draws a delay row for each active processor only,
    uniform over the staleness-bounded past; inactive rows are ``None``.
    Ticks come in order from one generator, so tick ``t`` depends only on
    the seed and the parameters, never on which run reads it first or on
    how long the runs last.
    """
    if not 0 < activation_prob <= 1:
        raise ScheduleRejectedError("activation_prob must be in (0, 1]")
    if max_staleness < 1:
        raise ScheduleRejectedError("max_staleness must be >= 1")
    needed = math.ceil(1 / activation_prob)
    if fairness_window < needed:
        raise ScheduleRejectedError(
            f"fairness_window {fairness_window} below ceil(1/activation_prob)"
            f" = {needed}; fairness would rely entirely on forcing")
    if k < 1 or horizon < 1:
        raise ScheduleRejectedError("k and horizon must be at least 1")

    def draw(rng):
        # rng.choices(range(lo, t), k=k) inlined: the same random() calls,
        # each mapped to lo + floor(random() * n) as choices maps it
        random, floor, ks = rng.random, math.floor, range(k)
        last_active = [0] * k
        for t in itertools.count(1):
            active = [i for i in ks
                      if random() < activation_prob
                      or t - last_active[i] >= fairness_window]
            lo = max(0, t - max_staleness)
            n = float(t - lo)
            rows = [None] * k
            for i in active:
                last_active[i] = t
                rows[i] = tuple([lo + floor(random() * n) for _ in ks])
            yield frozenset(active), tuple(rows)

    return Schedule(k, horizon, max_staleness, fairness_window,
                    draw(random.Random(seed)))


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    violation: tuple | None = None


def _tick_violation(t, active, rows, last_active, staleness_bound,
                    fairness_window):
    """The first admissibility violation at tick ``t``, or None.

    Checks causality and staleness of the rows the active processors read,
    and that no processor has been idle for more than the fairness window;
    only when all hold, records tick ``t``'s activations in
    ``last_active``, so a failing tick fails alike when checked again.  Each check
    first tests the bounds of a whole row (or of ``last_active``) and scans
    element by element, for the first violation, only when that fails.
    A tick of the wrong shape (other than ``k`` rows, an activation index
    outside ``0 .. k-1``, or an active row other than ``k`` long) raises
    :class:`ScheduleRejectedError`.
    """
    k = len(last_active)
    if len(rows) != k:
        raise ScheduleRejectedError("delay table must be k x k per tick")
    oldest = max(0, t - staleness_bound)
    for i in active:
        if not 0 <= i < k or len(rows[i]) != k \
                or min(rows[i]) < oldest or max(rows[i]) >= t:
            return _row_violation(t, active, rows, staleness_bound)
    if t - min(last_active) > fairness_window:
        for i, last in enumerate(last_active):
            if t - last > fairness_window:
                return ("fairness", (last + 1, last + fairness_window), i)
    for i in active:
        last_active[i] = t
    return None


def _row_violation(t, active, rows, staleness_bound):
    """The first causality or staleness violation in the rows the active
    processors read at tick ``t``, once the tick's shape is checked."""
    k = len(rows)
    if not all(0 <= i < k for i in active):
        raise ScheduleRejectedError(f"activation set {set(active)} out of range")
    if any(len(rows[i]) != k for i in active):
        raise ScheduleRejectedError("delay table must be k x k per tick")
    for i in sorted(active):
        for j, b in enumerate(rows[i]):
            if not 0 <= b <= t - 1:
                return ("causality", t, i, j, b)
            if t - b > staleness_bound:
                return ("staleness", t, i, j, b)


def check_admissible_prefix(schedule) -> AdmissibilityReport:
    """Verify causality, bounded staleness, and windowed fairness over the
    whole horizon.

    Reads every tick, which makes the schedule check each one it has not
    checked yet.  Returns the first violation as ``(kind, details...)``
    with kinds ``causality``, ``staleness``, and ``fairness``.
    """
    try:
        for t in range(1, schedule.horizon + 1):
            schedule.tick(t)
    except PreconditionError as exc:
        return AdmissibilityReport(False, exc.witness)
    return AdmissibilityReport(True)


@dataclass(frozen=True)
class Trajectory:
    """States ``x(0..T)`` of a run plus how it ended.

    ``converged_at`` is the first tick after which the state never changed
    (only set when that is certain within the horizon).  ``status`` is one
    of ``converged``, ``cycle``, ``horizon-exhausted``.  An asynchronous
    run records in ``activations`` the processor set active at each tick
    ``1..T``; ``None`` means every processor was active.
    """

    states: tuple[tuple, ...]
    converged_at: int | None
    status: str
    cycle_start: int | None = None
    cycle_length: int | None = None
    activations: tuple[frozenset, ...] | None = None

    def history(self, i: int) -> tuple:
        return tuple(state[i] for state in self.states)

    @property
    def final(self) -> tuple:
        return self.states[-1]


def run_sync(op: DecomposedOperator, start: tuple, max_steps: int) -> Trajectory:
    """Iterate the assembled operator, stopping at a fixed point or the
    first repeated state (reported as a cycle)."""
    op.check_state(tuple(start))
    states = [tuple(start)]
    seen = {states[0]: 0}
    for t in range(1, max_steps + 1):
        nxt = op.apply(states[-1])
        states.append(nxt)
        if nxt == states[-2]:
            return Trajectory(tuple(states), t - 1, "converged")
        if nxt in seen:
            return Trajectory(tuple(states), None, "cycle",
                              cycle_start=seen[nxt],
                              cycle_length=t - seen[nxt])
        seen[nxt] = t
    return Trajectory(tuple(states), None, "horizon-exhausted")


def run_async(op: DecomposedOperator, start: tuple, schedule) -> Trajectory:
    """Run the asynchronous recurrence under a schedule.

    Inactive processors keep their value; active ones apply their component
    to the delayed view dictated by the schedule.  The schedule checks each
    tick for admissibility the first time any run reads it, and raises
    :class:`PreconditionError` for a tick that fails.  The run stops once
    the state has been quiet for ``staleness_bound + fairness_window``
    ticks, after which no stale value can revive a change;
    ``converged_at`` is the last tick a change occurred.

    The run settles at tick ``t`` when the states of ticks
    ``max(0, t - staleness_bound) .. t - 1`` all equal the last state ``x``
    and the operator already knows ``F(x) == x``.  An admissible tick reads
    only those states, so every view is ``x`` and the new state is ``x``
    again, at every later tick too.  From then on the run evaluates
    nothing, but it still reads (draws and checks) every tick up to where
    it would have stopped, so the trajectory and ``op.evaluations`` are
    those of evaluating every view.
    """
    start = tuple(start)
    op.check_state(start)
    if schedule.processors != op.processors:
        raise PreconditionError(
            f"schedule has {schedule.processors} processors, "
            f"operator has {op.processors}")

    staleness = schedule.staleness_bound
    quiet_needed = staleness + schedule.fairness_window
    horizon = schedule.horizon
    tick, apply, known_image = schedule.tick, op.apply, op.known_image
    states = [start]
    activations = []
    last_change = 0
    for t in range(1, horizon + 1):
        prev = states[-1]
        if (last_change == 0 or t - last_change >= staleness) \
                and known_image(prev) == prev:
            stop = min(horizon, last_change + quiet_needed)
            activations.extend(tick(u)[0] for u in range(t, stop + 1))
            states.extend([prev] * (stop + 1 - t))
            break
        active, rows = tick(t)
        activations.append(active)
        nxt = list(prev)
        for i in active:
            # component j as processor i reads it: its value at tick b
            view = tuple([states[b][j] for j, b in enumerate(rows[i])])
            nxt[i] = apply(view)[i]
        nxt = tuple(nxt)
        states.append(nxt)
        if nxt != prev:
            last_change = t
        elif t - last_change >= quiet_needed:
            break
    if len(activations) - last_change >= quiet_needed:
        return Trajectory(tuple(states), last_change, "converged",
                          activations=tuple(activations))
    return Trajectory(tuple(states), None, "horizon-exhausted",
                      activations=tuple(activations))


@dataclass(frozen=True)
class CampaignRun:
    """One run of a campaign: its schedule seed, its start, and its
    trajectory, which carries the activation sets of the ticks it used."""

    seed: int
    start: tuple
    trajectory: Trajectory


def campaign(op: DecomposedOperator, starts, *, schedules: int, seed: int,
             horizon: int, staleness: int, window: int,
             activation_prob: float) -> list[CampaignRun]:
    """Run every start under each of ``schedules`` sampled schedules.

    Schedule ``s`` is drawn from seed ``seed + s`` and shared by all
    starts.  Runs are listed schedule by schedule, starts in the given
    order.  The campaign's :func:`campaign_stats` are logged at INFO.
    """
    check_schedules(schedules)
    starts = [tuple(start) for start in starts]
    runs = []
    for s in range(schedules):
        schedule = sample_schedule(op.processors, horizon, seed + s,
                                   activation_prob=activation_prob,
                                   max_staleness=staleness,
                                   fairness_window=window)
        for start in starts:
            runs.append(CampaignRun(seed + s, start,
                                    run_async(op, start, schedule)))
    log.info("campaign: %s", " ".join(
        f"{name}={value}" for name, value in campaign_stats(op, runs).items()))
    return runs


def check_schedules(schedules: int) -> None:
    """A campaign needs at least one schedule."""
    if schedules < 1:
        raise ScheduleRejectedError(
            f"schedules must be at least 1, got {schedules}")


def campaign_stats(op: DecomposedOperator, runs) -> dict:
    """The deterministic counters of a campaign's runs.

    ``ticks_used`` sums the ticks each run read.  A sampled schedule draws
    exactly the ticks its longest run reads, so ``ticks_drawn`` sums the
    longest run of each schedule.  ``operator_evaluations`` is
    ``op.evaluations``: the calls the operator has made to its callable so
    far (its memo misses), the campaign's included.
    """
    longest: dict[int, int] = {}
    for r in runs:
        used = len(r.trajectory.states) - 1
        longest[r.seed] = max(longest.get(r.seed, 0), used)
    return {
        "runs": len(runs),
        "ticks_used": sum(len(r.trajectory.states) - 1 for r in runs),
        "ticks_drawn": sum(longest.values()),
        "operator_evaluations": op.evaluations,
    }


def load_schedule(source) -> Schedule:
    """Load a schedule file (JSON).

    Fields: ``horizon``, ``activations`` (array per tick of processor
    indices), ``delays`` (sparse triples ``[t, i, j, t']``; absent entries
    default to ``t - 1``).  The staleness bound and fairness window are
    inferred from the data.  A schedule that is not admissible is
    rejected as a whole, before any run reads it.
    """
    doc = _load_json(source)
    try:
        horizon = _integer(doc["horizon"], "horizon")
        raw_acts = doc["activations"]
        if len(raw_acts) != horizon:
            raise ScheduleRejectedError(
                "activations must list one set per tick")
        activations = tuple(
            frozenset(_integer(i, "activation index") for i in a)
            for a in raw_acts)
        k = _integer(doc.get("processors", 0), "processors")
        if not k:
            k = max((max(a) + 1 for a in activations if a), default=1)

        delay_rows = [
            [[t - 1] * k for _ in range(k)] for t in range(1, horizon + 1)]
        for entry in doc.get("delays", []):
            t, i, j, src = (_integer(x, "delay entry") for x in entry)
            if not 1 <= t <= horizon or not 0 <= i < k or not 0 <= j < k:
                raise ScheduleRejectedError(
                    f"delay entry {entry!r} out of range")
            delay_rows[t - 1][i][j] = src
    except (KeyError, TypeError) as exc:
        raise ScheduleRejectedError(
            f"bad schedule description: {exc}") from None

    staleness = max([1] + [t - b for t, row in enumerate(delay_rows, 1)
                           for r in row for b in r])
    last = [0] * k
    window = 1
    for t, active in enumerate(activations, 1):
        for i in range(k):
            if i in active:
                window = max(window, t - last[i])
                last[i] = t
    window = max([window] + [horizon - t for t in last])
    schedule = Schedule(k, horizon, staleness, window,
                        zip(activations, delay_rows))
    report = check_admissible_prefix(schedule)
    if not report.ok:
        raise PreconditionError(
            f"schedule is not admissible: {report.violation}")
    return schedule


def load_operator(source):
    """Load an operator file (JSON): ``domains`` (array per processor),
    ``map`` (pairs ``[input_state, output_state]``), optional ``start``.

    Returns ``(operator, start_or_None)``.
    """
    doc = _load_json(source)
    try:
        domains = [tuple(_scalar(v) for v in dom) for dom in doc["domains"]]
        table = {}
        for pair in doc["map"]:
            if len(pair) != 2:
                raise PreconditionError(f"map entry {pair!r} is not a pair")
            state = tuple(_scalar(v) for v in pair[0])
            if state in table:
                raise PreconditionError(f"map lists state {state!r} twice")
            table[state] = tuple(_scalar(v) for v in pair[1])
        op = DecomposedOperator.from_table(domains, table)
        start = None
        if "start" in doc:
            start = tuple(_scalar(v) for v in doc["start"])
            op.check_state(start)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad operator description: {exc}") from None
    return op, start


def _integer(value, what: str) -> int:
    """A JSON integer; ``true`` does not stand for ``1``."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _scalar(v):
    if isinstance(v, (str, int, bool)):
        return v
    raise PreconditionError(f"operator values must be scalars, got {v!r}")
