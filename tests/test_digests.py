"""Byte-identity guard: each benchmark workload's seed-0 outputs keep their stored digest.

For fixed inputs, ``report.json``, the tables, ``cleaned.csv`` and
``audit.csv`` must stay byte-identical.  ``perfbench/run.py`` runs a
workload's commands in this process and hashes its whole output tree;
``perfbench/digests.json`` holds the digest each workload gave when it
was recorded.  perfbench is loaded read-only from the checkout, beside
this directory, and runs against whichever ``marketrng`` is imported.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def run_py():
    """perfbench/run.py as a module; it imports its neighbours ``check`` and ``inputs`` by bare name."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    yield module
    for name in ("check", "inputs"):
        sys.modules.pop(name, None)


def test_every_workload_has_a_seed_zero_digest(run_py):
    assert sorted(run_py.WORKLOADS) == sorted(DIGESTS)
    assert all("0" in DIGESTS[w] for w in DIGESTS)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_zero_outputs_match_stored_digest(run_py, workload, tmp_path):
    run_py.inputs.write_inputs(workload, 0, tmp_path)
    all_exit_zero, _, _, digest = run_py.in_process(workload, tmp_path)
    assert all_exit_zero
    assert digest == DIGESTS[workload]["0"]
