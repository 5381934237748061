import glob
import itertools
import os

import pytest
from hypothesis import HealthCheck, settings

from acokit import logic, routing
from acokit.aco import box_contains, box_members, box_size

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# CLI subprocesses import acokit from this checkout as well
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))


# map inputs of the constant-(0, 0) operator over [[0, 1], [0, 1]]: one
# of the wrong type, one outside the domain, one listed twice
BAD_MAP_INPUTS = [
    ([[0, 0], [0, 1], [True, 0], [1, 1]],
     "table input holds True outside its component domain"),
    ([[0, 0], [0, 1], [1, 0], [1, 1], [5, 5]],
     "table input holds 5 outside its component domain"),
    ([[0, 0], [0, 1], [1, 0], [1, 1], [1, 0]],
     "map lists state (1, 0) twice"),
]


def chain_table(domains, choice, subset):
    """A random chain of boxes, outermost first, and a map sending each
    state into the box next inside the innermost one holding it; returns
    the map and the chain's fixed point.  ``choice(xs)`` picks one of
    ``xs`` and ``subset(xs)`` a nonempty proper subset."""
    chain = [domains]
    while box_size(chain[-1]) > 1:
        box = chain[-1]
        i = choice([i for i, comp in enumerate(box) if len(comp) > 1])
        keep = tuple(sorted(subset(box[i])))
        chain.append(box[:i] + (keep,) + box[i + 1:])
    table = {}
    for s in itertools.product(*domains):
        depth = max(d for d, box in enumerate(chain) if box_contains(box, s))
        target = chain[min(depth + 1, len(chain) - 1)]
        table[s] = tuple(choice(comp) for comp in target)
    return table, next(box_members(chain[-1]))


def gated_ring(n):
    """Ring of ``n`` nodes of which only the first has an arc to ``d``."""
    cycle = [str(i) for i in range(1, n + 1)]
    arcs = {(cycle[0], "d")}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if a != b:
            arcs |= {(a, b), (b, a)}
    return ["d"] + cycle, sorted(arcs)


def ball_from_labels(space, center, r) -> frozenset:
    """The elements whose ``space.ball_labels()`` label at radius index
    ``r`` is the label of ``center``."""
    row = space.ball_labels()[r]
    label = row[space.index_of(center)]
    return frozenset(e for e, x in zip(space.elements, row) if x == label)


def corpus_path(*parts) -> str:
    return os.path.abspath(os.path.join(CORPUS, *parts))


@pytest.fixture(scope="session")
def ring3():
    return routing.load_instance(corpus_path("ring3.json"))


@pytest.fixture(scope="session")
def multi2():
    return routing.load_instance(corpus_path("multi2.json"))


@pytest.fixture(scope="session")
def single_arc():
    return routing.load_instance(corpus_path("single_arc.json"))


@pytest.fixture(scope="session")
def disagree_repaired():
    return routing.load_instance(corpus_path("disagree_repaired.json"))


def logic_corpus_paths():
    return sorted(glob.glob(corpus_path("logic", "*.pl")))


@pytest.fixture(scope="session")
def logic_corpus():
    return [(os.path.basename(p), logic.load_program(p))
            for p in logic_corpus_paths()]
