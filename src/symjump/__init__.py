"""Exact index iteration for symplectic paths.

Certified angle arithmetic, basic normal forms, index/nullity iteration,
common index jump tuples, and the two-elliptic-geodesics analysis
pipeline for systems of closed geodesics on pinched spheres.

Each export is imported from its submodule on first access (PEP 562), so
``import symjump`` loads no submodule and a run loads only those it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "AngleSide", "AnalysisReport", "BasicForm", "CandidateRecord",
    "ConditionCheck", "ConstraintViolation", "Decomposition",
    "DeltaReport", "ExactAngle", "GeodesicSystem",
    "HyperbolicBlock", "IrrationalAngle", "IterationRow", "JumpTuple",
    "Matrix", "MeanIndex", "N1Block", "N2Block", "NoTupleFound", "PathSeed",
    "PathVerification", "PeakConstraintRecord", "PinchRecord", "QuadraticAngle",
    "RationalAngle", "RotationBlock", "ScenarioError", "ScenarioOptions",
    "SecondGeodesicResult", "SymjumpError", "TupleVerification",
    "UndecidableComparison", "ZeroEntry",
    "angle_period", "betti_constant", "bott_gap", "c_total", "classify",
    "complement_angle", "compute_delta", "decimal_angle",
    "derive_peak_constraints", "diamond_sum", "elliptic_height", "emit_report",
    "find_complementary_tuples", "find_jump_tuples", "find_peak_geodesic",
    "index_at_even_jump", "index_iterate", "iteration_rows", "jump_tuples_at",
    "mean_index", "nullity_at_even_jump", "nullity_iterate", "parse_report",
    "parse_scenario",
    "quadratic_angle", "rational_angle", "realize", "run_analysis",
    "same_angle", "second_geodesic", "splitting_numbers",
    "splitting_plus_at_one", "symplectic_form", "validate_pinching_bounds",
    "verify_tuple",
]

# The submodule that defines each name of __all__.
_HOME = {name: module for module, names in {
    "angles": ("ExactAngle", "IrrationalAngle", "QuadraticAngle", "RationalAngle",
               "complement_angle", "decimal_angle", "quadratic_angle", "rational_angle",
               "same_angle"),
    "analysis": ("AnalysisReport", "CandidateRecord", "PeakConstraintRecord", "PinchRecord",
                 "SecondGeodesicResult", "ZeroEntry", "betti_constant",
                 "derive_peak_constraints", "find_peak_geodesic", "nullity_at_even_jump",
                 "run_analysis", "second_geodesic", "validate_pinching_bounds"),
    "errors": ("ConstraintViolation", "NoTupleFound", "ScenarioError", "SymjumpError",
               "UndecidableComparison"),
    "iteration": ("GeodesicSystem", "IterationRow", "MeanIndex", "PathSeed", "bott_gap",
                  "index_iterate", "iteration_rows", "mean_index", "nullity_iterate"),
    "jumps": ("AngleSide", "ConditionCheck", "DeltaReport", "JumpTuple", "PathVerification",
              "TupleVerification", "angle_period", "compute_delta",
              "find_complementary_tuples", "find_jump_tuples", "index_at_even_jump",
              "jump_tuples_at", "verify_tuple"),
    "normal_forms": ("BasicForm", "Decomposition", "HyperbolicBlock", "Matrix", "N1Block",
                     "N2Block", "RotationBlock", "c_total", "classify", "diamond_sum",
                     "elliptic_height", "realize", "splitting_numbers",
                     "splitting_plus_at_one", "symplectic_form"),
    "scenario": ("ScenarioOptions", "emit_report", "parse_report", "parse_scenario"),
}.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
