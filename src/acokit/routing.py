"""Multipath path-selection instances and their contraction structure.

An instance is a digraph with a destination, per-node permitted simple
paths, and a preorder of path preferences.  Nodes repeatedly replace their
path sets by the minimal one-arc extensions of their neighbors' sets; the
module provides that step, the path-height ultrametric on global states,
the exhaustive strict-contraction check, and decompositions of the step
into independent processors at several granularities.

Paths are tuples of node labels ending at the destination; the empty path
at the destination is the one-node tuple ``(dest,)``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

# numpy is imported inside each function that uses it: most commands run
# no numpy pass and start faster without it; ultrametric likewise inside
# each function that builds or classifies a space

from .errors import (
    PreconditionError,
    PreferenceCycleError,
    ScheduleRejectedError,
    SizeLimitError,
)
from .iteration import (BitRules, DecomposedOperator, campaign,
                        campaign_stats, check_schedules, rule_operator,
                        run_sync)
from .util import (json_object, logger, refuse_assignment, sorted_canonical,
                   typed)

if TYPE_CHECKING:
    from .ultrametric import ProductSpace

PER_NODE = "per-node"
PER_NEXTHOP = "per-source-destination-nexthop"
PER_PATH = "per-path"
GRANULARITIES = (PER_NODE, PER_NEXTHOP, PER_PATH)

Path = tuple

# a processor's values are the subsets of its paths: 2 ** 16 = 65,536
_GROUP_MAX_PATHS = 16


class Preference:
    """Validated preorder over a fixed path universe.

    ``leq(p, q)`` means p is at least as preferred as q.  Built from
    explicit pairs or from hop counts; explicit one-directional pairs are
    strict declarations, and construction fails if the closure would
    collapse one of them into a tie.
    """

    paths: tuple[Path, ...]
    matrix: tuple[tuple[bool, ...], ...]

    def __init__(self, paths, matrix):
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "matrix", matrix)

    __setattr__ = refuse_assignment

    @cached_property
    def _pos(self) -> dict:
        return {p: i for i, p in enumerate(self.paths)}

    def _idx(self, p: Path) -> int:
        try:
            return self._pos[p]
        except KeyError:
            raise PreconditionError(f"unknown path {p!r}") from None

    def leq(self, p: Path, q: Path) -> bool:
        return self.matrix[self._idx(p)][self._idx(q)]

    def lt(self, p: Path, q: Path) -> bool:
        return self.leq(p, q) and not self.leq(q, p)

    @classmethod
    def hop_count(cls, paths) -> "Preference":
        """Fewer arcs strictly preferred, equal arc counts equivalent."""
        paths = tuple(paths)
        matrix = tuple(
            tuple(len(p) <= len(q) for q in paths) for p in paths)
        return cls(paths, matrix)

    @classmethod
    def from_pairs(cls, paths, pairs) -> "Preference":
        """Reflexive-transitive closure of declared ``p <= q`` pairs.

        A pair declared in one direction only is meant strictly; if the
        closure also derives the reverse, the declaration sits on a cycle
        and the relation is rejected with that cycle as witness.
        """
        paths = tuple(paths)
        pos = {p: i for i, p in enumerate(paths)}
        declared = set()
        for p, q in pairs:
            p, q = tuple(p), tuple(q)
            if p not in pos or q not in pos:
                missing = p if p not in pos else q
                raise PreconditionError(
                    f"preference pair references unknown path {missing!r}")
            declared.add((pos[p], pos[q]))

        n = len(paths)
        closure = [[False] * n for _ in range(n)]
        for i in range(n):
            closure[i][i] = True
        for i, j in declared:
            closure[i][j] = True
        for k in range(n):
            ck = closure[k]
            for i in range(n):
                if closure[i][k]:
                    ci = closure[i]
                    for j in range(n):
                        if ck[j]:
                            ci[j] = True

        for i, j in sorted(declared):
            if (j, i) in declared:
                continue  # declared both ways: an intended tie
            if closure[j][i]:
                cycle = _derivation_path(n, declared, j, i)
                witness = (paths[i],) + tuple(paths[x] for x in cycle)
                raise PreferenceCycleError(
                    f"declared strict preference {format_path(paths[i])} < "
                    f"{format_path(paths[j])} lies on a cycle",
                    cycle=witness)

        matrix = tuple(tuple(row) for row in closure)
        return cls(paths, matrix)


def _derivation_path(n, declared, src, dst):
    """Shortest chain of declared pairs from src to dst (both inclusive)."""
    prev = {src: None}
    frontier = [src]
    while frontier and dst not in prev:
        nxt = []
        for u in frontier:
            for (a, b) in sorted(declared):
                if a == u and b not in prev:
                    prev[b] = u
                    nxt.append(b)
        frontier = nxt
    chain = [dst]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    chain.reverse()
    return chain


def format_path(p: Path) -> str:
    """Single-node paths are the empty path at their node."""
    if len(p) == 1:
        return "eps"
    return "(" + " ".join(str(v) for v in p) + ")"


def format_state(state) -> str:
    return "{" + ",".join(sorted(format_path(p) for p in state)) + "}"


class SppInstance:
    """A destination-rooted path selection problem."""

    nodes: tuple
    dest: object
    arcs: tuple[tuple, ...]
    permitted: tuple[tuple, ...]  # (node, sorted tuple of paths) pairs
    preference: Preference
    paths: tuple[Path, ...]

    def __init__(self, nodes, dest, arcs, permitted, preference, paths):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "dest", dest)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "permitted", permitted)
        object.__setattr__(self, "preference", preference)
        object.__setattr__(self, "paths", paths)

    __setattr__ = refuse_assignment

    @cached_property
    def permitted_map(self) -> dict:
        return {node: frozenset(paths) for node, paths in self.permitted}

    @cached_property
    def all_permitted(self) -> tuple[Path, ...]:
        merged = set()
        for _, paths in self.permitted:
            merged.update(paths)
        return tuple(sorted_canonical(merged))

    @cached_property
    def arcs_from(self) -> dict:
        out: dict = {node: [] for node in self.nodes}
        for u, v in self.arcs:
            out[u].append(v)
        return {u: tuple(sorted_canonical(vs)) for u, vs in out.items()}

    @cached_property
    def path_bit(self) -> dict:
        """Bit ``1 << k`` of ``all_permitted[k]``: states as bit masks."""
        return {p: 1 << k for k, p in enumerate(self.all_permitted)}

    @cached_property
    def selection_rule(self) -> BitRules:
        """The selection round as a rule table over :attr:`path_bit`.  The
        empty path is a fact, and each non-empty permitted path q whose
        tail is permitted has one rule ``(q, tail, better)``: ``better``
        ORs the tails of the candidates at ``q[0]`` strictly preferred to
        q.  A round keeps q exactly when its tail is held and no tail in
        ``better`` is."""
        bit, lt = self.path_bit, self.preference.lt
        live = [[q for q in paths if q[1:] in bit]
                for _, paths in self.permitted]
        return BitRules(len(bit), ((bit[self.empty_path], 0, 0),) + tuple(
            (bit[q], bit[q[1:]], sum(bit[r[1:]] for r in node if lt(r, q)))
            for node in live for q in node))

    @cached_property
    def path_heights(self) -> dict:
        """The height of each path ``p``: the number of universe paths
        ``q`` with ``p <= q``, the true entries of ``p``'s row of the
        preference matrix (:func:`make_instance` builds the preference
        over these paths, in this order)."""
        return dict(zip(self.paths, map(sum, self.preference.matrix)))

    @property
    def empty_path(self) -> Path:
        return (self.dest,)


def _simple_paths_to(nodes, arcs, dest) -> tuple[Path, ...]:
    adjacency: dict = {node: [] for node in nodes}
    for u, v in arcs:
        adjacency[u].append(v)
    found = [(dest,)]

    def walk(prefix):
        head = prefix[-1]
        for nxt in adjacency[head]:
            if nxt in prefix:
                continue
            full = prefix + (nxt,)
            if nxt == dest:
                found.append(full)
            else:
                walk(full)

    for node in nodes:
        if node != dest:
            walk((node,))
    return tuple(sorted_canonical(found))


def make_instance(nodes, dest, arcs, permitted=None,
                  preference="hop-count") -> SppInstance:
    """Build and validate an instance.

    ``permitted`` maps nodes to path lists (omitted nodes allow all their
    simple paths); the empty path is always permitted at the destination.
    ``preference`` is ``"hop-count"``, an iterable of explicit weak pairs,
    or a prebuilt :class:`Preference` over the instance's path universe.
    """
    nodes = tuple(sorted_canonical(set(nodes)))
    if dest not in nodes:
        raise PreconditionError(f"destination {dest!r} not among the nodes")
    seen_arcs = set()
    for arc in arcs:
        u, v = arc
        if u not in nodes or v not in nodes:
            raise PreconditionError(f"arc {arc!r} references an unknown node")
        if u == v:
            raise PreconditionError(f"self-arc {arc!r} not allowed")
        seen_arcs.add((u, v))
    arcs = tuple(sorted_canonical(seen_arcs))

    paths = _simple_paths_to(nodes, arcs, dest)
    path_set = set(paths)
    by_source: dict = {node: set() for node in nodes}
    for p in paths:
        by_source[p[0]].add(p)

    if permitted is None:
        permitted = {}
    for node in permitted:
        if node not in by_source:
            raise PreconditionError(f"permitted lists unknown node {node!r}")
    chosen = {}
    for node in nodes:
        if node not in permitted:
            chosen[node] = set(by_source[node])
            continue
        chosen[node] = set()
        for p in permitted[node]:
            p = tuple(p)
            if p not in path_set:
                raise PreconditionError(
                    f"permitted path {format_path(p)} is not a simple "
                    f"path to {dest!r}")
            if p[0] != node:
                raise PreconditionError(
                    f"path {format_path(p)} does not start at {node!r}")
            chosen[node].add(p)
    chosen[dest].add((dest,))

    if isinstance(preference, Preference):
        if preference.paths != paths:
            raise PreconditionError(
                "preference was built over a different path universe")
        pref = preference
    elif preference == "hop-count":
        pref = Preference.hop_count(paths)
    else:
        pref = Preference.from_pairs(paths, preference)

    permitted_pairs = tuple(
        (node, tuple(sorted_canonical(chosen[node]))) for node in nodes)
    return SppInstance(nodes, dest, arcs, permitted_pairs, pref, paths)


def load_instance(source) -> SppInstance:
    """Load an instance file (JSON): ``nodes``, ``dest``, ``arcs``,
    optional ``permitted`` (node to path arrays), ``preference`` of kind
    ``hop-count`` or ``explicit`` with weak pairs."""
    with json_object(source, "bad instance description", ValueError) as doc:
        nodes = typed(doc["nodes"], [str], "nodes must be an array of strings")
        dest = typed(doc["dest"], str, "dest must be a string")
        what = "arcs must be an array of node label pairs"
        arcs = [tuple(typed(arc, [str], what, 2))
                for arc in typed(doc["arcs"], list, what)]
        permitted = None
        if "permitted" in doc:
            what = "permitted must map nodes to arrays of paths"
            permitted = typed(doc["permitted"], dict, what)
            for plist in permitted.values():
                typed(plist, [[str]], what)
        spec = typed(doc.get("preference", {"kind": "hop-count"}), dict,
                     "preference must be an object")
        preference = kind = typed(spec["kind"], str,
                                  "preference kind must be a string")
        if kind == "explicit":
            what = "pairs must be an array of path pairs"
            preference = typed(spec.get("pairs", []), list, what)
            for pair in preference:
                typed(pair, [[str]], what, 2)
    if kind not in ("hop-count", "explicit"):
        raise PreconditionError(f"unknown preference kind {kind!r}")
    return make_instance(nodes, dest, arcs, permitted, preference)


class InflationReport(NamedTuple):
    ok: bool
    witness: tuple | None = None  # (arc, path) failing strictness


def check_strictly_inflationary(instance: SppInstance) -> InflationReport:
    """Every permitted one-arc extension must be strictly worse than the
    path it extends."""
    pref = instance.preference
    for i in instance.nodes:
        if i == instance.dest:
            continue
        for j in instance.arcs_from[i]:
            for p in sorted_canonical(instance.permitted_map.get(j, ())):
                if i in p:
                    continue
                q = (i,) + p
                if q not in instance.permitted_map.get(i, frozenset()):
                    continue
                if not pref.lt(p, q):
                    return InflationReport(False, ((i, j), p))
    return InflationReport(True)


def validate_state(instance: SppInstance, state) -> frozenset:
    state = frozenset(tuple(p) for p in state)
    for p in state:
        if p[0] not in instance.permitted_map or \
                p not in instance.permitted_map[p[0]]:
            raise PreconditionError(
                f"state contains non-permitted path {format_path(p)}")
    return state


def sigma_step(instance: SppInstance, state) -> frozenset:
    """One selection round: each node keeps the minimal permitted simple
    extensions of its neighbors' current paths; the destination keeps the
    empty path.  An empty candidate set yields the empty set."""
    state = validate_state(instance, state)
    bit = instance.path_bit
    out = instance.selection_rule.step(sum(bit[p] for p in state))
    return frozenset(p for p, b in bit.items() if out & b)


def state_distance(instance: SppInstance, m, n) -> int:
    """Zero for equal states, otherwise the largest height in the
    symmetric difference."""
    heights = instance.path_heights
    delta = validate_state(instance, m) ^ validate_state(instance, n)
    return max((heights[p] for p in delta), default=0)


class ContractionCheck(NamedTuple):
    """``pairs_checked`` counts the pairs of distinct states the check
    covers; they are decided height by height, never listed one by one."""

    ok: bool
    witness: tuple | None = None  # (state, state) pair not contracted strictly
    pairs_checked: int = 0


def verify_strict_contraction(instance: SppInstance) -> ContractionCheck:
    """Exhaustively check that one selection round strictly shrinks the
    distance between every pair of distinct states.

    States are bit masks over the permitted paths.  Two states lie within
    height ``h`` when they agree on every path above ``h``, so at each
    path height ``h`` the states that agree above it must have images that
    agree at and above it.  The witness is the smallest violating pair of
    masks ``a < b``.  More than :data:`~acokit.iteration.IMAGES_MAX_WIDTH`
    permitted paths raise :class:`SizeLimitError` before any other work.
    """
    import numpy as np
    from .ultrametric import _min_split
    sig = instance.selection_rule.images()  # checks the size cap
    universe = instance.all_permitted
    p_count = len(universe)
    heights = instance.path_heights
    hvec = np.array([heights[p] for p in universe])
    bits = 1 << np.arange(p_count, dtype=np.int64)
    total = 1 << p_count

    def to_state(mask):
        return frozenset(
            universe[idx] for idx in range(p_count) if mask >> idx & 1)

    masks = np.arange(total, dtype=np.int64)
    levels = sorted(set(hvec.tolist()))
    # row by row: one 2-D array of all rows measured 1.5x slower at 12 paths
    pair = _min_split(
        (masks & bits[hvec > h].sum() for h in levels),
        (sig & bits[hvec >= h].sum() for h in levels))
    logger().debug("verify_strict_contraction: states=%d radii=%d "
                   "evaluations=%d verdict=%s", total, len(levels), total,
                   "certified" if pair is None else "refuted")
    pairs = total * (total - 1) // 2
    if pair is None:
        return ContractionCheck(True, None, pairs)
    return ContractionCheck(False, (to_state(pair[0]), to_state(pair[1])), pairs)


def _groups(instance: SppInstance, granularity: str):
    """Processor partition of the permitted paths for a granularity."""
    if granularity == PER_NODE:
        return tuple(
            (node, tuple(sorted_canonical(instance.permitted_map[node])))
            for node in instance.nodes)
    if granularity == PER_NEXTHOP:
        keyed: dict = {}
        for p in instance.all_permitted:
            key = (p[0], p[1]) if len(p) > 1 else (p[0],)
            keyed.setdefault(key, []).append(p)
        return tuple(
            (key, tuple(sorted_canonical(keyed[key])))
            for key in sorted_canonical(keyed))
    if granularity == PER_PATH:
        return tuple((p, (p,) if p in instance.path_bit else ())
                     for p in instance.paths)
    raise PreconditionError(f"unknown granularity {granularity!r}")


def _group_domains(instance: SppInstance, groups) -> list[dict]:
    """Per processor, its values in domain order, each mapped to the
    :attr:`~SppInstance.path_bit` mask of its paths.  The values are the
    subsets of the group by size, then canonically: the order in which
    ``itertools.combinations`` yields them, as the members are sorted
    canonically."""
    for key, members in groups:
        if len(members) > _GROUP_MAX_PATHS:
            raise SizeLimitError(
                f"processor {key!r} has {len(members)} permitted paths; "
                f"its subsets are capped at {_GROUP_MAX_PATHS} paths")
    bit, combinations = instance.path_bit, itertools.combinations
    values = []
    for _, members in groups:
        bits = [bit[p] for p in members]
        values.append({
            frozenset(comb): sum(held)
            for size in range(len(members) + 1)
            for comb, held in zip(combinations(members, size),
                                  combinations(bits, size))})
    return values


def components_to_state(comps) -> frozenset:
    merged = set()
    for comp in comps:
        merged.update(comp)
    return frozenset(merged)


def state_to_components(instance: SppInstance, granularity: str,
                        state) -> tuple:
    state = validate_state(instance, state)
    groups = _groups(instance, granularity)
    return tuple(
        frozenset(p for p in members if p in state)
        for _, members in groups)


def decompose(instance: SppInstance, granularity: str) -> DecomposedOperator:
    """Split the selection round into one processor per group of paths.

    Component values are the subsets of the group actually held; their
    union reassembles the global state, and the assembled operator equals
    :func:`sigma_step` at every granularity.  It evaluates the round on
    bit masks (:func:`~acokit.iteration.rule_operator`).
    """
    return rule_operator(instance.selection_rule, _group_domains(
        instance, _groups(instance, granularity)))


def state_space(instance: SppInstance, granularity: str) -> ProductSpace:
    """Product ultrametric matching :func:`decompose`: per group, the
    distance between two held subsets is their :func:`state_distance`."""
    from .ultrametric import FiniteUltrametricSpace, ProductSpace, RadiusScale
    scale = RadiusScale.numeric(instance.path_heights.values())

    def dist(x, y):
        return state_distance(instance, x, y)

    return ProductSpace(
        FiniteUltrametricSpace(tuple(dom), scale, dist)
        for dom in _group_domains(instance, _groups(instance, granularity)))


class AsyncRun(NamedTuple):
    seed: int
    status: str
    converged_at: int | None
    final: frozenset


class SolveResult(NamedTuple):
    """How a solve ended.  ``trajectory`` is the synchronous run; an
    asynchronous campaign keeps none.  ``finals`` lists the distinct final
    states of the asynchronous runs and ``stats`` their
    :func:`~acokit.iteration.campaign_stats`."""

    mode: str
    granularity: str
    status: str
    fixed_point: frozenset | None
    stable: bool | None
    trajectory: object = None
    cycle: tuple = ()
    runs: tuple[AsyncRun, ...] = ()
    finals: tuple = ()
    stats: dict | None = None


def solve(instance: SppInstance, mode: str = "sync", *,
          granularity: str = PER_NODE,
          start=None,
          max_steps: int | None = None,
          schedules: int = 100,
          seed: int = 0,
          horizon: int = 200,
          staleness: int = 5,
          window: int = 8,
          activation_prob: float = 0.5,
          force: bool = False) -> SolveResult:
    """Run the selection process to a stable assignment.

    Instances that are not strictly inflationary are refused unless
    ``force`` is set; forced runs may oscillate, which is reported as a
    cycle (sync) or horizon exhaustion (async).  An async campaign whose
    runs all converge, but not to one state, is ``divergent``.  An async
    campaign of fewer than one schedule, or given ``max_steps``, which
    bounds sync runs only, is rejected before any other work.
    """
    if mode == "async":
        check_schedules(schedules)
        if max_steps is not None:
            raise ScheduleRejectedError(
                "max_steps bounds sync runs only; an async run stops at its "
                "horizon (--horizon)")
    report = check_strictly_inflationary(instance)
    if not report.ok and not force:
        arc, p = report.witness
        raise PreconditionError(
            "instance is not strictly inflationary "
            f"(arc {arc}, path {format_path(p)}); pass force=True for an "
            "exploratory run", witness=report.witness)

    op = decompose(instance, granularity)
    if start is None:
        start_state = frozenset()
    else:
        start_state = validate_state(instance, start)
    start_comps = state_to_components(instance, granularity, start_state)

    if mode == "sync":
        steps = max_steps if max_steps is not None else op.size() + 1
        traj = run_sync(op, start_comps, steps)
        if traj.status == "converged":
            fixed = components_to_state(traj.final)
            stable = sigma_step(instance, fixed) == fixed
            return SolveResult(mode, granularity, "converged", fixed, stable,
                               trajectory=traj)
        if traj.status == "cycle":
            cycle_states = tuple(
                components_to_state(s)
                for s in traj.states[traj.cycle_start:
                                     traj.cycle_start + traj.cycle_length])
            return SolveResult(mode, granularity, "cycle", None, None,
                               trajectory=traj, cycle=cycle_states)
        return SolveResult(mode, granularity, "horizon-exhausted", None, None,
                           trajectory=traj)

    if mode != "async":
        raise PreconditionError(f"unknown mode {mode!r}")
    records = campaign(op, [start_comps], schedules=schedules, seed=seed,
                       horizon=horizon, staleness=staleness, window=window,
                       activation_prob=activation_prob)
    runs = tuple(
        AsyncRun(r.seed, r.status, r.converged_at,
                 components_to_state(r.final)) for r in records)
    finals = tuple(sorted_canonical({r.final for r in runs}))
    fixed = stable = None
    if any(r.status != "converged" for r in runs):
        status = "horizon-exhausted"
    elif len(finals) > 1:
        status = "divergent"
    else:
        status, fixed = "converged", finals[0]
        stable = sigma_step(instance, fixed) == fixed
    return SolveResult(mode, granularity, status, fixed, stable, runs=runs,
                       finals=finals, stats=campaign_stats(op, records))
