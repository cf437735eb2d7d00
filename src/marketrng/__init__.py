"""Randomness testing of binarised market return series.

Treats binary return sequences as the output of a random number
generator and applies the overlapping-permutations (generalized
serial) test, with chi-square significance assessment, a bit-exact
PCG64 baseline, and batch reporting utilities.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it; a name imports its module on first use.
_MODULES = {
    "BinarySequence": "serial", "psi_profile": "serial", "second_differences": "serial",
    "ChiSquareAssessment": "chi2", "assess": "chi2", "chi2_critical": "chi2", "chi2_sf": "chi2",
    "Panel": "pipeline", "Returns": "pipeline", "ExperimentStream": "serial",
    "build_stream": "pipeline", "clean_panel": "pipeline", "compute_return_series": "pipeline",
    "monthly_column_sums": "pipeline", "parse_prices": "pipeline",
    "SyntheticSpec": "rng", "pcg64_words": "rng", "rng_selftest": "rng", "shape_synthetic": "rng",
    "StreamReport": "report", "emit_tables": "report", "kde_curve": "report",
    "recurrence_matrix": "report", "summarize_stream": "report",
}

__all__ = [*_MODULES, "__version__"]


def __getattr__(name):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULES[name]}"), name)
    globals()[name] = value  # later lookups find it without calling __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_MODULES})
