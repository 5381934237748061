"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain Python data
(tables, node and arc lists, program text) plus whatever the generator
knows by construction, such as a logic program's model.  Nothing here
imports acokit: the expected answers must not come from the code under
test.
"""

from __future__ import annotations

import itertools
import random

# The operator ROADMAP open item 1 names: a box chain exists, but no
# max-product of per-component height metrics qualifies.
GAP_WITNESS = {
    (0, 0): (1, 0), (0, 1): (2, 0), (1, 0): (2, 1),
    (1, 1): (2, 0), (2, 0): (2, 1), (2, 1): (2, 1),
}
DOMAINS_3X2 = ((0, 1, 2), (0, 1))
DOMAINS_2X2X2 = ((0, 1), (0, 1), (0, 1))
LEVELS = 3  # strata of a generated logic program
SPACE_TOP = 4  # largest height in a generated ultrametric space file


def rng_for(seed: int, *labels) -> random.Random:
    """Independent stream per input family; string seeds hash with SHA-512,
    so the stream does not depend on ``PYTHONHASHSEED``."""
    return random.Random("/".join([str(seed), *map(str, labels)]))


def states_of(domains):
    return list(itertools.product(*domains))


# -- operators --------------------------------------------------------------

def one_fixed_point_table(rng, domains) -> dict:
    """Uniform over the self-maps with exactly one fixed point."""
    states = states_of(domains)
    fixed = rng.choice(states)
    table = {}
    for s in states:
        if s == fixed:
            table[s] = s
        else:
            table[s] = rng.choice([t for t in states if t != s])
    return table


def certified_table(rng, domains) -> dict:
    """A map certified by construction.

    Shrinks the whole box one value at a time down to a random fixed
    point, then sends every state of each shell into the box inside it.
    """
    states = states_of(domains)
    fixed = rng.choice(states)
    box = [list(d) for d in domains]
    chain = [tuple(tuple(c) for c in box)]
    while any(len(c) > 1 for c in box):
        i = rng.choice([i for i, c in enumerate(box) if len(c) > 1])
        box[i].remove(rng.choice([v for v in box[i] if v != fixed[i]]))
        chain.append(tuple(tuple(c) for c in box))
    table = {fixed: fixed}
    for outer, inner in zip(chain, chain[1:]):
        inner_states = list(itertools.product(*inner))
        for s in itertools.product(*outer):
            if s not in table and not all(v in c for v, c in zip(s, inner)):
                table[s] = rng.choice(inner_states)
    return table


def operator_doc(domains, table) -> dict:
    return {"domains": [list(d) for d in domains],
            "map": [[list(s), list(t)] for s, t in table.items()]}


# -- routing instances ------------------------------------------------------

def _labels(rng, count, prefix):
    """Distinct random node names, so the canonical path order (and with it
    the processor order) changes with the seed."""
    names = rng.sample(range(100, 1000), count)
    return [f"{prefix}{n}" for n in names]


def ring(rng, n: int):
    """Bidirectional ring of ``n`` nodes, one of them the destination."""
    others = _labels(rng, n - 1, "r")
    cycle = ["d"] + others
    arcs = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        arcs += [(a, b), (b, a)]
    return cycle, arcs


def grid(rng, rows: int, cols: int):
    """Bidirectional grid with the destination in a corner."""
    names = iter(_labels(rng, rows * cols - 1, "g"))
    label = {}
    for i in range(rows):
        for j in range(cols):
            label[i, j] = "d" if (i, j) == (0, 0) else next(names)
    arcs = []
    for (i, j), u in label.items():
        for di, dj in ((0, 1), (1, 0)):
            v = label.get((i + di, j + dj))
            if v is not None:
                arcs += [(u, v), (v, u)]
    return list(label.values()), arcs


def gated_ring(rng, n: int):
    """Ring of ``n`` nodes where only one of them has an arc to ``d``.

    Every ring node then has two simple paths to ``d`` except the gate,
    which has one, so the instance has ``2n`` paths counting ``eps``.
    """
    cycle = _labels(rng, n, "n")
    arcs = [(cycle[0], "d")]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        arcs += [(a, b), (b, a)]
    return ["d"] + cycle, arcs


def simple_paths(nodes, arcs, dest="d"):
    out = {u: [] for u in nodes}
    for u, v in arcs:
        out[u].append(v)
    found = [(dest,)]

    def walk(prefix):
        for nxt in out[prefix[-1]]:
            if nxt in prefix:
                continue
            if nxt == dest:
                found.append(prefix + (nxt,))
            else:
                walk(prefix + (nxt,))

    for u in nodes:
        if u != dest:
            walk((u,))
    return found


def longest_first_pairs(nodes, arcs, dest="d"):
    """Explicit preference declaring every longer path strictly preferred
    to every shorter one: the reverse of hop count."""
    paths = simple_paths(nodes, arcs, dest)
    return [(p, q) for p in paths for q in paths if len(p) > len(q)]


def instance_doc(nodes, arcs, pairs=None, dest="d") -> dict:
    doc = {"nodes": list(nodes), "dest": dest,
           "arcs": [list(a) for a in arcs]}
    if pairs is None:
        doc["preference"] = {"kind": "hop-count"}
    else:
        doc["preference"] = {"kind": "explicit",
                             "pairs": [[list(p), list(q)] for p, q in pairs]}
    return doc


# -- logic programs ---------------------------------------------------------

def stratified_program(rng, n_atoms: int, negation_only: bool = False):
    """A program built stratum by stratum, with its perfect model.

    The shape is fixed by the arguments (atom ``i`` heads ``1 + i % 2``
    clauses, body lengths and signs follow a fixed pattern); the seed
    picks names and which atoms the literals name, so the work a program
    costs hardly depends on the seed.  Every body atom sits on a strictly
    lower level than its head, so T_P strictly contracts under these
    levels and synchronous and asynchronous iteration from the empty
    interpretation both reach the model.  With ``negation_only`` every
    literal is negated, so the minimal strata keep each head above its
    whole body and T_P is a strict contraction under them too.  Otherwise
    two extra atoms support only each other (``p :- q.  q :- p.``): they
    stay false from the empty interpretation, but T_P is then a
    contraction that is not strict on the orbit of ``{p}``.  The model is
    closed level by level as the clauses are written, the textbook
    construction, and needs none of the program's machinery.
    """
    names = [f"a{t}" for t in rng.sample(range(100, 1000), n_atoms)]
    cycle = [] if negation_only else names[-2:]
    atoms = names[:len(names) - len(cycle)]
    level = {a: i * LEVELS // len(atoms) for i, a in enumerate(atoms)}
    clauses = []
    for i, head in enumerate(atoms):
        below = [a for a in atoms if level[a] < level[head]]
        for j in range(1 + i % 2):
            body = [(rng.choice(below), not negation_only and (i + k) % 3 != 0)
                    for k in range((i + j) % 4) if below]
            clauses.append((head, tuple(dict.fromkeys(body))))
    if cycle:
        p, q = cycle
        clauses += [(p, ((q, True),)), (q, ((p, True),))]
    model = set()
    for lvl in range(LEVELS):
        for head, body in clauses:
            if level.get(head) == lvl and all(
                    (a in model) == pos for a, pos in body):
                model.add(head)
    return clauses, frozenset(model)


def program_text(clauses) -> str:
    lines = []
    for head, body in clauses:
        if body:
            lits = ", ".join(a if pos else f"not {a}" for a, pos in body)
            lines.append(f"{head} :- {lits}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines) + "\n"


# -- ultrametric space files --------------------------------------------------

def height_space_doc(rng, n: int, top: int = SPACE_TOP) -> dict:
    """A valid ultrametric: distance is the larger of two random heights."""
    elements = [f"e{i}" for i in range(n)]
    h = {e: rng.randint(1, top) for e in elements}
    dist = [[m, e, str(max(h[m], h[e]))]
            for m, e in itertools.combinations(elements, 2)]
    return {"elements": elements,
            "scale": [str(v) for v in range(top + 1)], "dist": dist}


def broken_space_doc(rng, n: int) -> dict:
    """A height space with one distance raised above the strong triangle
    bound, so the axiom check must fail."""
    doc = height_space_doc(rng, n, SPACE_TOP - 1)
    doc["scale"] = [str(v) for v in range(SPACE_TOP + 1)]
    doc["dist"][rng.randrange(len(doc["dist"]))][2] = str(SPACE_TOP)
    return doc
