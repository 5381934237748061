"""Asynchronously contracting operators over finite state spaces.

Certification via nested-box sequences and ultrametric contraction, a
deterministic schedule simulator, and two worked instances: multipath
path selection and locally stratified logic programs.
"""

from .aco import (
    AcoCertificate,
    BoxSequence,
    boxes_from_ultrametric,
    certify_aco,
    equivalence_census,
    search_box_sequence,
    search_ultrametric,
    ultrametric_from_boxes,
    verify_box_sequence,
)
from .iteration import (
    DecomposedOperator,
    Schedule,
    Trajectory,
    campaign,
    check_admissible_prefix,
    make_synchronous_schedule,
    run_async,
    run_sync,
    sample_schedule,
)
from .ultrametric import (
    FiniteUltrametricSpace,
    ProductSpace,
    RadiusScale,
    check_axioms,
    check_isosceles,
    check_spherical_completeness,
    classify_contraction,
    height_distance,
    height_space,
    string_distance,
)

__version__ = "0.1.0"

__all__ = [
    "AcoCertificate",
    "BoxSequence",
    "DecomposedOperator",
    "FiniteUltrametricSpace",
    "ProductSpace",
    "RadiusScale",
    "Schedule",
    "Trajectory",
    "boxes_from_ultrametric",
    "campaign",
    "certify_aco",
    "check_admissible_prefix",
    "check_axioms",
    "check_isosceles",
    "check_spherical_completeness",
    "classify_contraction",
    "equivalence_census",
    "height_distance",
    "height_space",
    "make_synchronous_schedule",
    "run_async",
    "run_sync",
    "sample_schedule",
    "search_box_sequence",
    "search_ultrametric",
    "string_distance",
    "ultrametric_from_boxes",
    "verify_box_sequence",
]
