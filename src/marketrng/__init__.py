"""Randomness testing of binarised market return series.

Treats binary return sequences as the output of a random number
generator and applies the overlapping-permutations (generalized
serial) test, with chi-square significance assessment, a bit-exact
PCG64 baseline, and batch reporting utilities.
"""

from marketrng.serial import BinarySequence, ExperimentStream, psi_profile, second_differences
from marketrng.chi2 import ChiSquareAssessment, assess, chi2_critical, chi2_sf
from marketrng.pipeline import (
    Panel,
    Returns,
    build_stream,
    clean_panel,
    compute_return_series,
    monthly_column_sums,
    parse_prices,
)
from marketrng.rng import SyntheticSpec, pcg64_words, rng_selftest, shape_synthetic
from marketrng.report import (
    StreamReport,
    emit_tables,
    kde_curve,
    recurrence_matrix,
    summarize_stream,
)

__version__ = "0.1.0"

__all__ = [
    "BinarySequence",
    "psi_profile",
    "second_differences",
    "ChiSquareAssessment",
    "assess",
    "chi2_critical",
    "chi2_sf",
    "Panel",
    "Returns",
    "ExperimentStream",
    "build_stream",
    "clean_panel",
    "compute_return_series",
    "monthly_column_sums",
    "parse_prices",
    "SyntheticSpec",
    "pcg64_words",
    "rng_selftest",
    "shape_synthetic",
    "StreamReport",
    "emit_tables",
    "kde_curve",
    "recurrence_matrix",
    "summarize_stream",
    "__version__",
]
