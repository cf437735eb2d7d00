"""Benchmark of the marketrng batch CLI: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload sim-pcg64 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root.  ``--trace 0`` runs the workload's CLI
commands in fresh processes with ``--jobs 2`` for ``--seconds`` and
reports wall time, process-tree CPU, peak RSS and import (set-up) time.
``--trace 1`` runs it in this process with ``--jobs 1``, once plain and
once with every layer entry point wrapped, and reports per-layer self
times and counts.  Every output is checked; the last line printed is a
JSON object with the keys correct, attempted, failed and metrics.  See
README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

JOBS = 2  # nproc of the reference host
SETUP_REPEATS = 7
ENTRY = "import sys; from marketrng.cli import main; sys.exit(main())"

WORKLOADS = {
    "sim-pcg64": [["simulate", "--config", "sim.json", "--out", "out"]],
    "sim-logistic": [["simulate", "--config", "sim.json", "--out", "out"]],
    "panel-ingest-test": [
        ["ingest", "--input", "panel.csv", "--out", "out/ingest"],
        ["test", "--input", "out/ingest/cleaned.csv", "--stream", "firm,year",
         "--boundary-mode", "ignore", "--out", "out/test"],
    ],
    "panel-year-respect": [
        ["test", "--input", "panel.csv", "--stream", "year", "--boundary-mode", "respect",
         "--out", "out"],
    ],
}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def stored_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    return table.get(workload, {}).get(str(seed))


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(args: list[str], cwd: Path, env, log) -> tuple[int, float, float, float]:
    """One CLI command in a fresh process: exit code, wall, tree CPU, peak RSS (MB).

    wait4 reports the child's usage including its reaped descendants (the
    pool workers), and ru_maxrss as the largest RSS of any of them.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", ENTRY, *args, "--jobs", str(JOBS)],
        cwd=cwd, env=env, stdout=log, stderr=log,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup(cwd: Path, env, problems: list[str]) -> list[float]:
    """Wall time of fresh interpreters that only import marketrng.cli."""
    cmd = [sys.executable, "-c", "import marketrng.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one warms the bytecode cache
        start = time.perf_counter()
        rc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
        if rc != 0:
            problems.append(f"importing marketrng.cli exited {rc}")
            return [time.perf_counter() - start]
        if i:
            times.append(time.perf_counter() - start)
    return times


def verify_outputs(workload: str, work: Path, seed: int) -> list[str]:
    """Structural counts plus the naive d2 oracle on the outputs in work/out."""
    out = work / "out"
    problems = check.structure(workload, out)
    if problems:
        return problems
    if workload.startswith("sim-"):
        from marketrng.rng import SyntheticSpec, shape_synthetic

        config = inputs.sim_config(seed, workload.removeprefix("sim-"))
        spec = SyntheticSpec.firm_like(inputs.SIM_COUNT, inputs.SIM_LENGTH)
        stream = shape_synthetic(spec, generator=config["synthetic"]["generator"],
                                 master_seed=seed, burn_in=config["synthetic"]["burn_in"])
        return check.oracle_sim(stream.sequences, out / "firm_separated/report.json", seed)
    kept = check.panel_returns((work / "panel.csv").read_text(encoding="utf-8").splitlines())
    if workload == "panel-ingest-test":
        return [
            *check.oracle_panel(kept, out / "test/firm_separated/report.json", False, seed),
            *check.oracle_panel(kept, out / "test/year_separated/report.json", False, seed),
        ]
    return check.oracle_panel(kept, out / "year_separated/report.json", True, seed)


def untraced(workload: str, work: Path, seed: int, seconds: float, problems: list[str]) -> dict:
    env = cli_env()
    setup = measure_setup(work, env, problems)
    samples = []  # (exit codes ok, wall, cpu, rss, digest)
    with open(work / "cli.log", "w", encoding="utf-8") as log:
        # Only the commands count towards --seconds, not the checks between them.
        while not samples or sum(s[1] for s in samples) < seconds:
            shutil.rmtree(work / "out", ignore_errors=True)
            runs = [run_cli(cmd, work, env, log) for cmd in WORKLOADS[workload]]
            ok = all(rc == 0 for rc, *_ in runs)
            digest = check.digest_tree(work / "out")
            if not samples and ok:
                problems.extend(verify_outputs(workload, work, seed))
            samples.append((
                ok,
                sum(r[1] for r in runs),
                sum(r[2] for r in runs),
                max(r[3] for r in runs),
                digest,
            ))
    expected = stored_digest(workload, seed)
    if expected is None:
        print(f"no stored digest for seed {seed}; checking run-to-run agreement and the oracle")
        expected = samples[0][4]
    failed = sum(1 for ok, *_, digest in samples if not ok or digest != expected)
    print(f"outputs digest {samples[0][4]} ({'matches' if failed == 0 else 'DIFFERS from'} "
          f"expected {expected})")
    values = {
        "wall_s": [s[1] for s in samples],
        "cpu_s": [s[2] for s in samples],
        "peak_rss_mb": [s[3] for s in samples],
        "setup_s": setup,
    }
    _print_table(values, END_TO_END, len(samples), failed)
    return _result(problems, len(samples), failed,
                   {name: (statistics.median(v), END_TO_END[name]) for name, v in values.items()})


def in_process(workload: str, work: Path, tracer=None) -> tuple[bool, float, float, str]:
    """One run of the workload through marketrng.cli.main in this process.

    Returns (all exit codes 0, wall, chi2_critical hit ratio, outputs digest).
    """
    import marketrng.chi2
    import marketrng.cli

    shutil.rmtree(work / "out", ignore_errors=True)
    marketrng.chi2.chi2_critical.cache_clear()
    gc.collect()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            patch = tracer.run() if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with patch:
                codes = [marketrng.cli.main([*cmd, "--jobs", "1"]) for cmd in WORKLOADS[workload]]
            wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    info = marketrng.chi2.chi2_critical.cache_info()
    ratio = info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0
    return all(c == 0 for c in codes), wall, ratio, check.digest_tree(work / "out")


def expected_counts(workload: str) -> dict[str, int]:
    """Counts a traced run must report, derived from the fixed input layout."""
    if workload.startswith("sim-"):
        windows = sum(inputs.SIM_LENGTH - nu + 1 for nu in range(1, 9))
        return {
            "serial.profile_calls": inputs.SIM_COUNT,
            "serial.windows": inputs.SIM_COUNT * windows,
            "rng.bits": inputs.SIM_COUNT * inputs.SIM_LENGTH,
        }
    counts = inputs.expected_panel_counts()
    expected = {
        "pipeline.rows_parsed": counts["rows_parsed"],
        "pipeline.rows_rejected": counts["rows_rejected"],
        "pipeline.instruments_dropped": counts["instruments_dropped"],
        "serial.profile_calls": inputs.YEARS,
    }
    if workload == "panel-ingest-test":  # test re-parses cleaned.csv
        expected["pipeline.rows_parsed"] += counts["rows_kept"]
        expected["serial.profile_calls"] += counts["instruments_kept"]
    return expected


def traced(workload: str, work: Path, seed: int, seconds: float, problems: list[str]) -> dict:
    import tracing

    tracer = tracing.Tracer()
    expected = stored_digest(workload, seed)
    runs = []
    spent = 0.0
    while not runs or spent < seconds:
        plain_ok, plain_wall, _, plain_digest = in_process(workload, work)
        ok, wall, ratio, digest = in_process(workload, work, tracer)
        if not runs and ok:
            problems.extend(verify_outputs(workload, work, seed))
        expected = expected or plain_digest
        metrics = tracer.layer_metrics(len(runs), wall)
        out = work / "out"
        metrics["serial.windows_per_s"] = _rate(metrics["serial.windows"], metrics["serial.profile_s"])
        metrics["rng.bits_per_s"] = _rate(metrics["rng.bits"], metrics["rng.shape_s"])
        metrics["chi2.critical_hit_ratio"] = ratio
        metrics["report.bytes_written"] = float(sum(
            p.stat().st_size for p in out.rglob("*")
            if p.is_file() and p.name not in ("cleaned.csv", "audit.csv")
        ))
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_s"] = wall - plain_wall
        runs.append((plain_ok and plain_digest == expected, ok and digest == expected, metrics))
        spent += plain_wall + wall
    tracer.write(work / "spans.csv")

    for name, want in expected_counts(workload).items():
        got = {r[2][name] for r in runs}
        if got != {want}:
            problems.append(f"count {name}: expected {want}, traced runs gave {sorted(got)}")
    for name in tracing.COUNTS:
        if len({r[2][name] for r in runs}) != 1:
            problems.append(f"count {name} differs between traced runs")
    first = runs[0][2]
    accounted = sum(first[f"{n}_s"] for n in tracing.TIMED) + first["cli.self_s"]
    if abs(accounted - first["trace.wall_s"]) > 1e-6 or first["cli.self_s"] < 0:
        problems.append(f"self times sum to {accounted}, traced wall is {first['trace.wall_s']}")

    units = tracing.UNITS
    medians = {n: statistics.median(r[2][n] for r in runs) for n in units}
    attempted = 2 * len(runs)
    failed = sum((not a) + (not b) for a, b, _ in runs)
    print(f"traced {len(runs)} time(s); spans written to {work / 'spans.csv'}")
    wall = medians["trace.wall_s"]
    print(f"{'metric':32} {'unit':6} {'median':>14} {'share':>7}")
    for n, unit in units.items():
        share = f"{100 * medians[n] / wall:6.1f}%" if unit == "s" and wall else ""
        print(f"{n:32} {unit:6} {medians[n]:14.6g} {share:>7}")
    print(f"error_rate {failed}/{attempted}")
    return _result(problems, attempted, failed, {n: (medians[n], u) for n, u in units.items()})


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _print_table(values: dict, units: dict, n_samples: int, failed: int) -> None:
    print(f"{'metric':14} {'unit':5} {'median':>10} {'min':>10} {'max':>10} {'n':>3}")
    for name, v in values.items():
        print(f"{name:14} {units[name]:5} {statistics.median(v):10.4f} {min(v):10.4f} "
              f"{max(v):10.4f} {len(v):3d}")
    print(f"{'error_rate':14} {'1':5} {failed / n_samples:10.4f}   ({failed} of {n_samples} runs)")


def _result(problems: list[str], attempted: int, failed: int, metrics: dict) -> dict:
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed if not problems else max(failed, 1),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    for name, digest in inputs.write_inputs(workload, seed, work).items():
        print(f"input {name} sha256 {digest} ({time.perf_counter() - start:.2f} s to generate)")
    problems: list[str] = []
    if workload.startswith("sim-"):
        rc = subprocess.run([sys.executable, "-c", ENTRY, "rng-selftest"], cwd=work,
                            env=cli_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
        if rc != 0:
            problems.append(f"rng-selftest exited {rc}")
    if trace:
        return traced(workload, work, seed, seconds, problems)
    return untraced(workload, work, seed, seconds, problems)


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), proc.stderr, sep="\n", end="", flush=True)
            if proc.returncode != 0 or not lines:
                merged["correct"] = False
                merged["failed"] += 1
                merged["attempted"] += 1
                continue
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "marketrng" / "cli.py").is_file():
        print(f"error: no marketrng sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
