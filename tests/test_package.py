"""The package's public surface."""

import numpy as np
import pytest

import marketrng
from marketrng.rng import logistic_bit_matrix


def test_every_exported_name_resolves():
    missing = [name for name in marketrng.__all__ if not hasattr(marketrng, name)]
    assert not missing
    assert len(set(marketrng.__all__)) == len(marketrng.__all__)


def _panel():
    return marketrng.parse_prices(["id,date,close,adjfactor,retfactor", "AAA,2001-01-31,10,1,1"]).records


def _report():
    return marketrng.summarize_stream(np.ones((2, 3)), trim_fractions=())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: marketrng.clean_panel(_panel(), "weekly"), "frequency must be one of"),
        (lambda tmp: marketrng.clean_panel(_panel(), gap_scope="x"), "gap_scope must be"),
        (lambda tmp: marketrng.summarize_stream(np.ones((2, 3)), trim_mode="x"), "unknown trim_mode"),
        (lambda tmp: marketrng.summarize_stream(np.ones((2, 3)), sequence_ids=["a"]), "sequence_ids must match"),
        (lambda tmp: marketrng.emit_tables(_report(), tmp, fmt="html"), "unknown table format"),
        (lambda tmp: logistic_bit_matrix(np.array([0.3, 0.7]), 0), "n_bits must be positive"),
        (lambda tmp: marketrng.SyntheticSpec("x", (20,)), "unknown synthetic kind"),
        (lambda tmp: marketrng.SyntheticSpec("firm_like", ()), "need at least one sequence length"),
        (lambda tmp: marketrng.SyntheticSpec("firm_like", (20.7, 30)), "lengths must be integers"),
        (lambda tmp: marketrng.BinarySequence(np.zeros((2, 8), dtype=np.uint8)), "bits must be one-dimensional"),
    ],
    ids=[
        "clean-frequency", "clean-gap-scope", "summarize-trim-mode", "summarize-sequence-ids",
        "tables-format", "logistic-n-bits", "spec-kind", "spec-no-lengths", "spec-float-length",
        "sequence-2d",
    ],
)
def test_public_guards_raise_value_error(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
    assert not any(tmp_path.iterdir())  # emit_tables refuses before it writes
