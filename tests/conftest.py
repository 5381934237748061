import glob
import os

import pytest
from hypothesis import HealthCheck, settings

from acokit import logic, routing

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
