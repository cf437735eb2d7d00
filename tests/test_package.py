"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import marketrng
from marketrng import cli, config, pipeline, report, rng, serial
from marketrng.rng import logistic_bit_matrix


def test_every_exported_name_resolves():
    missing = [name for name in marketrng.__all__ if not hasattr(marketrng, name)]
    assert not missing
    assert len(set(marketrng.__all__)) == len(marketrng.__all__)


def _fresh_python(code, **env):
    """Run ``code`` in a fresh interpreter that imports this ``marketrng``; its stdout lines."""
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "PYTHONPATH")}
    base["PYTHONPATH"] = str(Path(marketrng.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-c", code], env=base | env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_each_public_name_is_its_defining_modules_object():
    code = """
import sys, marketrng
for name in marketrng.__all__[:-1]:
    value = getattr(marketrng, name)
    assert value is vars(sys.modules[value.__module__])[name], name
assert marketrng.__all__[-1] == "__version__"
assert set(marketrng.__all__) <= set(dir(marketrng))
namespace = {}
exec("from marketrng import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == sorted(marketrng.__all__)
try:
    marketrng.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _fresh_python(code) == ["module 'marketrng' has no attribute 'no_such_name'"]


def test_importing_the_package_loads_no_module_and_sets_nothing():
    code = (
        "import os, sys, marketrng; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('marketrng.'))); "
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    assert _fresh_python(code) == ["[]", "None"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_the_cli_runs_one_blas_thread_unless_the_user_set_a_count():
    code = "import os, marketrng.cli; print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    assert _fresh_python(code) == ["1 1"]
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts no more threads than there are CPUs")
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="2") == ["2 2"]


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


def test_each_closed_set_of_names_has_one_owner():
    assert config.CHOICES["trim_mode"] is report.TRIM_MODES
    assert config.CHOICES["gap_scope"] is pipeline.GAP_SCOPES
    assert config.STREAM_KINDS is serial.STREAM_KINDS
    assert rng.SYNTHETIC_KINDS == tuple(f"{short}_like" for short in serial.STREAM_KINDS)
    assert config.RunConfig().stream_kinds == tuple(serial.STREAM_KINDS)


def test_every_subcommand_takes_exactly_its_flag_table_row():
    subparsers = cli._build_parser()._subparsers._group_actions[0].choices
    assert list(subparsers) == list(cli._COMMAND_FLAGS)
    for name, flags in cli._COMMAND_FLAGS.items():
        options = [option for action in subparsers[name]._actions for option in action.option_strings]
        assert sorted(options) == sorted(["-h", "--help", *flags]), name
