"""Exact index iteration for symplectic paths.

Certified angle arithmetic, basic normal forms, index/nullity iteration,
common index jump tuples, and the two-elliptic-geodesics analysis
pipeline for systems of closed geodesics on pinched spheres.
"""

from .angles import (ExactAngle, IrrationalAngle, QuadraticAngle, RationalAngle,
                     complement_angle, decimal_angle, quadratic_angle,
                     rational_angle, same_angle)
from .analysis import (AnalysisReport, CandidateRecord, GeodesicSystem,
                       PeakConstraintRecord, PinchRecord, SecondGeodesicResult,
                       ZeroEntry, betti_constant, derive_peak_constraints,
                       find_peak_geodesic, nullity_at_even_jump, run_analysis,
                       second_geodesic, validate_pinching_bounds)
from .errors import (ConstraintViolation, NoTupleFound, ScenarioError,
                     SymjumpError, UndecidableComparison)
from .iteration import (IterationRow, MeanIndex, PathSeed, bott_gap,
                        index_iterate, iteration_rows, mean_index,
                        nullity_iterate)
from .jumps import (AngleSide, ConditionCheck, DeltaReport, JumpTuple,
                    PathVerification, TupleVerification, angle_period,
                    compute_delta, find_complementary_tuples, find_jump_tuples,
                    index_at_even_jump, jump_tuples_at, verify_tuple)
from .normal_forms import (BasicForm, Decomposition, HyperbolicBlock, Matrix,
                           N1Block, N2Block, RotationBlock, c_total, classify,
                           diamond_sum, elliptic_height, realize,
                           splitting_numbers, splitting_plus_at_one,
                           symplectic_form)
from .scenario import ScenarioOptions, emit_report, parse_report, parse_scenario

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
