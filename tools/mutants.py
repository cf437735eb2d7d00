"""Hand-written mutants of marketrng, each run against its own module's tests.

A mutant is one string edit to one source file.  Each runs on a fresh
copy of the checkout against the test file that owns its module, with
``pytest -x``, and is killed when that file fails.  A mutant marked
equivalent changes no output, so it is expected to survive; the note
beside it says why.  Before any mutant runs, the unmutated copy must pass
every test file named below.  Stdlib only, and not part of tier-1.

    python tools/mutants.py

Exit status 0 when the copy passes and every mutant meets its
expectation (killed, or survived where marked equivalent), 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 1800  # a mutant that hangs its test file counts as killed


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in ``file``
    new: str
    tests: str  # the test file that owns the module
    equivalent: str = ""  # why no output changes; empty for a mutant the tests must kill


MUTANTS = (
    Mutant(
        "psi-window-bound",
        "src/marketrng/serial.py",
        "if not 1 <= max_nu <= MAX_WINDOW:",
        "if not 1 <= max_nu <= MAX_WINDOW + 1:",
        "tests/test_serial.py",
    ),
    Mutant(
        "trim-fraction-one",
        "src/marketrng/report.py",
        "if not 0.0 <= p < 1.0:",
        "if not 0.0 <= p <= 1.0:",
        "tests/test_report.py",
    ),
    Mutant(
        "assess-tie",
        "src/marketrng/chi2.py",
        "significant=bool(statistic > crit),",
        "significant=bool(statistic >= crit),",
        "tests/test_chi2.py",
    ),
    Mutant(
        "significant-fraction-tie",
        "src/marketrng/report.py",
        "significant_fraction[nu] = float((column > crit).mean())",
        "significant_fraction[nu] = float((column >= crit).mean())",
        "tests/test_report.py",
    ),
    Mutant(
        "median-row-sort-unstable",
        "src/marketrng/pipeline.py",
        'table.sort(axis=1, kind="stable")',
        "table.sort(axis=1)",
        "tests/test_pipeline_reference.py",
    ),
    Mutant(
        "critical-band-narrow",
        "src/marketrng/chi2.py",
        "eps = 1e-11 * max(",
        "eps = 1e-13 * max(",
        "tests/test_chi2.py",
    ),
    Mutant(
        "config-unchecked",
        "src/marketrng/config.py",
        "def __post_init__(self)",
        "def _post_init(self)",
        "tests/test_cli.py",
    ),
    Mutant(
        "report-d2-first-key",
        "src/marketrng/report.py",
        "text.rpartition(_ITEM2 + '\"per_sequence_d2\": [')",
        "text.partition(_ITEM2 + '\"per_sequence_d2\": [')",
        "tests/test_report.py",
    ),
    Mutant(
        "assess-p-at-zero",
        "src/marketrng/chi2.py",
        "p = 1.0 if statistic <= 0.0 else",
        "p = 1.0 if statistic < 0.0 else",
        "tests/test_chi2.py",
        equivalent="chi2_sf(0, dof) is 1.0, the value the branch gives",
    ),
    Mutant(
        "newton-tolerance",
        "src/marketrng/chi2.py",
        "if abs(step) < 2.0**-40:",
        "if abs(step) < 2.0**-20:",
        "tests/test_chi2.py",
        equivalent="the Newton root only narrows the band that bisection then searches",
    ),
    Mutant(
        "acklam-p-low",
        "src/marketrng/chi2.py",
        "p_low = 0.02425",
        "p_low = 0.05",
        "tests/test_chi2.py",
        equivalent="the normal quantile only positions the initial bracket",
    ),
)


def _copy_checkout(dest: Path) -> None:
    skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work")
    shutil.copytree(ROOT, dest, ignore=skip)


def _run_tests(copy: Path, tests: str) -> tuple[bool, float]:
    """Whether ``tests`` pass on ``copy``, and the seconds the run took."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            raise SystemExit(f"{m.name}: {m.old!r} occurs {count} times in {m.file}, not once")

    with tempfile.TemporaryDirectory(prefix="marketrng-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        _copy_checkout(copy)
        ok = True
        for tests in sorted({m.tests for m in MUTANTS}):
            passed, seconds = _run_tests(copy, tests)
            print(f"{'passes' if passed else 'FAILS':10} unmutated copy  {tests} ({seconds:.1f} s)", flush=True)
            ok &= passed
        if not ok:
            print("the unmutated copy must pass before mutants mean anything")
            return 1

        for m in MUTANTS:
            path = copy / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            survived, seconds = _run_tests(copy, m.tests)
            path.write_text(original)
            met = survived == bool(m.equivalent)
            ok &= met
            status = "survived" if survived else "killed"
            note = " (marked equivalent)" if m.equivalent else ""
            flag = "" if met else "  <-- unexpected"
            print(f"{status:10} {m.name:28} {m.tests} ({seconds:.1f} s){note}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
