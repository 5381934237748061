"""Every result record of the package is immutable."""

from fractions import Fraction

import pytest

from acokit.aco import AcoCertificate, BoxCheck, BoxSequence, CensusResult
from acokit.iteration import AdmissibilityReport, CampaignRun, Trajectory
from acokit.logic import (Clause, GroundProgram, Literal, PerfectModelResult,
                          Stratification, StratificationResult)
from acokit.routing import (AsyncRun, ContractionCheck, InflationReport,
                            Preference, SolveResult, SppInstance)
from acokit.ultrametric import (AxiomReport, AxiomViolation,
                                CompletenessReport, ContractionReport,
                                RadiusScale)

_TRAJECTORY = Trajectory(((0,), (1,)), 1, "converged")
_BOXES = BoxSequence((((0,),), ((0, 1),)), (0,))
_CLAUSE = Clause("p", (Literal("q", False),))
_STRATA = Stratification((("p", 1), ("q", 0)))
_PATHS = (("d",), ("a", "d"))
_PREFERENCE = Preference(_PATHS, ((True, True), (False, True)))

# every field of each record, with a sample value
SAMPLES = [
    (BoxSequence, dict(boxes=_BOXES.boxes, fixed_point=(0,))),
    (BoxCheck, dict(ok=False, violated="condition-1", witness=((0,),))),
    (AcoCertificate, dict(verdict="certified", box_sequence=_BOXES,
                          refutation=None, sampling={"runs": 2},
                          stats={"runs": 2})),
    (CensusResult, dict(total=256, agreements=256, aco_count=16,
                        mismatches=())),
    (AdmissibilityReport, dict(ok=False, violation=("causality", 1, 0, 0, 1))),
    (Trajectory, dict(states=((0,), (1,)), converged_at=None, status="cycle",
                      cycle_start=0, cycle_length=2,
                      activations=(frozenset({0}),))),
    (CampaignRun, dict(seed=3, start=(0,), final=(1,), status="converged",
                       converged_at=1, ticks=14, evaluated=2)),
    (Clause, dict(head="p", body=(Literal("q", True),))),
    (GroundProgram, dict(atoms=("p", "q"), clauses=(_CLAUSE,),
                         declared_strata=(("p", 1), ("q", 0)))),
    (Stratification, dict(levels=(("p", 1), ("q", 0)))),
    (StratificationResult, dict(stratification=_STRATA, witness=None)),
    (PerfectModelResult, dict(model=frozenset({"p"}),
                              trajectory=(frozenset(), frozenset({"p"})),
                              status="converged", stratification=_STRATA)),
    (Preference, dict(paths=_PATHS, matrix=_PREFERENCE.matrix)),
    (SppInstance, dict(nodes=("a", "d"), dest="d", arcs=(("a", "d"),),
                       permitted=(("a", (("a", "d"),)), ("d", (("d",),))),
                       preference=_PREFERENCE, paths=_PATHS)),
    (InflationReport, dict(ok=False, witness=(("a", "d"), ("d",)))),
    (ContractionCheck, dict(ok=True, witness=None, pairs_checked=6)),
    (AsyncRun, dict(seed=1, status="converged", converged_at=2,
                    final=frozenset({("d",)}))),
    (SolveResult, dict(mode="async", granularity="per-node",
                       status="converged", fixed_point=frozenset({("d",)}),
                       stable=True, trajectory=_TRAJECTORY, cycle=(),
                       runs=(), finals=(frozenset({("d",)}),),
                       stats={"runs": 1})),
    (AxiomViolation, dict(axiom="symmetry", witness=("a", "b"))),
    (AxiomReport, dict(ok=True, violations=())),
    (CompletenessReport, dict(ok=True, witness=())),
    (ContractionReport, dict(classification="contraction", witness=("a",))),
    (RadiusScale, dict(values=(0, Fraction(1, 2), 1))),
]


@pytest.mark.parametrize("cls, fields", SAMPLES,
                         ids=[cls.__name__ for cls, _ in SAMPLES])
def test_every_record_is_immutable(cls, fields):
    assert set(fields) == set(cls.__annotations__)
    record = cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
