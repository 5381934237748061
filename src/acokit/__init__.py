"""Asynchronously contracting operators over finite state spaces.

Certification via nested-box sequences and ultrametric contraction, a
deterministic schedule simulator, and two worked instances: multipath
path selection and locally stratified logic programs.

The public names below are resolved on first access: ``import acokit``
loads no submodule, and each name is read from its submodule every time,
so a function patched there is the one seen here.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "AcoCertificate",
    "BoxSequence",
    "DecomposedOperator",
    "FiniteUltrametricSpace",
    "HeightMetric",
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

# the submodule that defines each public name
_SOURCES = {
    **dict.fromkeys((
        "AcoCertificate", "BoxSequence", "HeightMetric",
        "boxes_from_ultrametric",
        "certify_aco", "equivalence_census", "search_box_sequence",
        "search_ultrametric", "ultrametric_from_boxes",
        "verify_box_sequence"), "aco"),
    **dict.fromkeys((
        "DecomposedOperator", "Schedule", "Trajectory", "campaign",
        "check_admissible_prefix", "make_synchronous_schedule", "run_async",
        "run_sync", "sample_schedule"), "iteration"),
    **dict.fromkeys((
        "FiniteUltrametricSpace", "ProductSpace", "RadiusScale",
        "check_axioms", "check_isosceles", "check_spherical_completeness",
        "classify_contraction", "height_distance", "height_space",
        "string_distance"), "ultrametric"),
}


def __getattr__(name):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
