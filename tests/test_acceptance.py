"""Acceptance criteria for the whole package.

Each test prints one PASS/FAIL line.  The criteria rest on
internal-consistency reproductions of published benchmark statistics,
null-hypothesis behaviour of the PCG64 baseline, oracle equivalence, and
exact invariances; the empirical Nasdaq panel itself is proprietary and
is not required by any test here.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

import reference_pipeline
import reference_values as ref
from marketrng.chi2 import chi2_critical
from marketrng.cli import main
from marketrng.pipeline import Returns, build_stream, compute_return_series, parse_prices
from marketrng.report import summarize_stream
from marketrng.rng import SyntheticSpec, shape_synthetic
from marketrng.serial import BinarySequence, psi_profile, second_differences

NULL_RUN_MASTER_SEED = 42
NULL_RUN_COUNT = 4225
NULL_RUN_LENGTH = 227


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def null_run():
    """Deterministic firm-like PCG64 run shared by two criteria."""
    start = time.perf_counter()
    stream = shape_synthetic(
        SyntheticSpec.firm_like(NULL_RUN_COUNT, NULL_RUN_LENGTH),
        generator="pcg64",
        master_seed=NULL_RUN_MASTER_SEED,
    )
    profiles = [psi_profile(s, max_nu=8) for s in stream.sequences]
    report = summarize_stream(
        profiles, sequence_ids=[s.source_id for s in stream.sequences]
    )
    elapsed = time.perf_counter() - start
    return elapsed, profiles, report


def test_counting_oracle():
    """1,000 random sequences match a brute-force window enumerator."""
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(4, 65))
        bits = rng.integers(0, 2, size=n)
        seq = BinarySequence(bits=bits.astype(np.uint8), source_id="oracle")
        profile = psi_profile(seq, max_nu=4)
        for nu in range(1, 5):
            brute = {}
            for i in range(n - nu + 1):
                key = tuple(int(b) for b in bits[i : i + nu])
                brute[key] = brute.get(key, 0) + 1
            expected = np.zeros(2**nu, dtype=np.int64)
            for key, value in brute.items():
                expected[int("".join(map(str, key)), 2)] = value
            windows = n - nu + 1  # psi2 from the counts in exact integer form
            if profile[nu - 1] != (2**nu * int(expected @ expected)) / windows - windows:
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        "counting oracle: exact match on 1,000 random sequences",
        mismatches == 0 and elapsed < 5.0,
        f"mismatches={mismatches}, {elapsed:.2f}s",
    )


def test_cross_table_consistency():
    """Second differences of the published psi rows reproduce the d2 rows."""
    worst = 0.0
    for year in (2001, 2002):
        d2 = second_differences(np.array(ref.YEAR_PSI[year], dtype=float))
        for nu, expected in zip(ref.D2_NUS, ref.YEAR_D2[year]):
            worst = max(worst, abs(d2[nu - 3] - expected))
    _report(
        "cross-table consistency: 2001/2002 second differences within 0.02",
        worst <= 0.02 + 1e-12,
        f"worst deviation {worst:.4f}",
    )


def test_combined_chi2_reproduction():
    """Year-level combined sums and significance shares are reproduced."""
    years = sorted(ref.YEAR_D2)
    profiles = []
    for year in years:
        psi = [0.0, 0.0]
        for value in ref.YEAR_D2[year]:
            psi.append(2.0 * psi[-1] - psi[-2] + value)
        profiles.append(psi)
    report = summarize_stream(
        profiles, sequence_ids=[str(y) for y in years], kind="year_separated"
    )
    sum_errors = [
        abs(report.combined[nu].statistic - expected)
        for nu, expected in zip(ref.D2_NUS, ref.YEAR_D2_SUMS)
    ]
    fractions = [round(report.significant_fraction[nu], 2) for nu in ref.D2_NUS]
    ok_sums = max(sum_errors) <= 0.05
    ok_fracs = fractions == ref.YEAR_SIGNIFICANT_FRACTIONS
    _report(
        "combined chi-square reproduction: sums within 0.05, shares exact",
        ok_sums and ok_fracs,
        f"max sum error {max(sum_errors):.4f}, shares {fractions}",
    )


def test_null_behaviour(null_run):
    """4,225 PCG64 sequences of length 227 behave like the chi-square null."""
    elapsed, _profiles, report = null_run
    problems = []
    for nu in report.d2_nus:
        xi = 2 ** (nu - 2)
        rel = abs(report.d2_summary[nu]["mean"] / xi - 1.0)
        bound = 0.15 if nu in (3, 4) else 0.05
        if rel > bound:
            problems.append(f"mean nu={nu} off by {rel:.3f}")
        fraction = report.significant_fraction[nu]
        if not 0.035 <= fraction <= 0.065:
            problems.append(f"fraction nu={nu} = {fraction:.4f}")
        if report.combined[nu].significant:
            problems.append(f"combined nu={nu} significant")
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s")
    _report(
        "null behaviour: PCG64 firm-like run matches chi-square expectations",
        not problems,
        "; ".join(problems) if problems else f"{elapsed:.1f}s",
    )


def test_chi_square_numerics():
    """Critical values match an independent inverse-CDF oracle."""
    expected_table = [5.991, 9.488, 15.507, 26.296, 46.194, 83.675]
    problems = []
    for xi, printed in zip(ref.XIS, expected_table):
        mine = chi2_critical(0.05, xi)
        oracle = stats.chi2.isf(0.05, xi)
        if abs(mine - oracle) > 1e-6:
            problems.append(f"xi={xi}: |{mine} - {oracle}| > 1e-6")
        if abs(mine - printed) > 5e-4:
            problems.append(f"xi={xi}: far from printed {printed}")
    big = 4225 * 64
    mine = chi2_critical(0.05, big)
    oracle = stats.chi2.isf(0.05, big)
    if abs(mine - oracle) / oracle > 1e-3:
        problems.append(f"dof={big} relative error too large")
    _report(
        "chi-square numerics: criticals match the oracle",
        not problems,
        "; ".join(problems),
    )


def test_inefficient_subset_mechanism(null_run):
    """1% planted periodic sequences flip the combined verdict; trimming restores it."""
    _elapsed, profiles, _report_obj = null_run
    plant_bits = np.tile(np.array([0, 1], dtype=np.uint8), (NULL_RUN_LENGTH + 1) // 2)[
        :NULL_RUN_LENGTH
    ]
    plant_profile = psi_profile(
        BinarySequence(bits=plant_bits, source_id="plant"), max_nu=8
    )
    n_plants = int(0.01 * NULL_RUN_COUNT)  # matches the 1% trim's drop count
    mixed = profiles[: NULL_RUN_COUNT - n_plants] + [plant_profile] * n_plants
    ids = [f"sim{i:05d}" for i in range(NULL_RUN_COUNT - n_plants)] + [
        f"plant{i:02d}" for i in range(n_plants)
    ]
    report = summarize_stream(mixed, sequence_ids=ids, trim_fractions=(0.0, 0.01))
    problems = []
    for nu in range(3, 9):
        untrimmed, trimmed = report.trim_ladder[nu]
        if not untrimmed.significant:
            problems.append(f"nu={nu} not significant before trimming")
        if trimmed.significant:
            problems.append(f"nu={nu} still significant after 1% trim")
    _report(
        "inefficient subset: planted 1% flips the verdict, 1% trim restores it",
        not problems,
        "; ".join(problems),
    )


def test_invariance_suite():
    """Complement, reversal, monotone-transform, and scaling invariances."""
    rng = np.random.default_rng(777)
    problems = []

    def same_profile(a, b):
        return a.tolist() == b.tolist() and second_differences(a).tolist() == second_differences(b).tolist()

    for _ in range(1000):
        n = int(rng.integers(8, 96))
        seq = BinarySequence(bits=rng.integers(0, 2, size=n).astype(np.uint8))
        base = psi_profile(seq, max_nu=8)
        flipped = psi_profile(BinarySequence(bits=1 - seq.bits), max_nu=8)
        if not same_profile(base, flipped):
            problems.append("complement")
            break

    for _ in range(1000):
        n = int(rng.integers(8, 96))
        bits = rng.integers(0, 2, size=n).astype(np.uint8)
        base = psi_profile(BinarySequence(bits=bits), max_nu=8)
        rev = psi_profile(BinarySequence(bits=bits[::-1].copy()), max_nu=8)
        if not same_profile(base, rev):
            problems.append("reversal")
            break

    def median_bits(values):
        code = np.zeros(values.size, dtype=np.int64)
        returns = Returns(["X"], code, np.full(values.size, "2001-01-31", dtype="M8[D]"), values)
        return build_stream(returns, "firm_separated").sequences[0].bits

    transforms = [np.exp, lambda x: 5.0 * x + 2.0, lambda x: x**3, np.arctan]
    for _ in range(1000):
        n = int(rng.integers(2, 80))
        returns = rng.uniform(-4.0, 4.0, size=n)
        reference = median_bits(returns)
        transform = transforms[int(rng.integers(0, len(transforms)))]
        if median_bits(transform(returns)).tolist() != reference.tolist():
            problems.append("monotone transform")
            break

    header = "id,date,close,adjfactor,retfactor"
    base_rows, scaled_rows, expected = [header], [header], []
    for i in range(1000):
        n = int(rng.integers(2, 50))
        prices = rng.uniform(1.0, 300.0, size=n)
        c = 2.0 ** int(rng.integers(-20, 21))  # power-of-two: exact in binary fp
        for m, (p, q) in enumerate(zip(prices.tolist(), (prices * c).tolist())):
            day = f"{2001 + m // 12}-{m % 12 + 1:02d}-01"
            base_rows.append(f"P{i:04d},{day},{p!r},1.0,1.0")
            scaled_rows.append(f"P{i:04d},{day},{q!r},1.0,1.0")
        expected.append(reference_pipeline.log_returns(prices))
        if reference_pipeline.log_returns(prices * c).tolist() != expected[-1].tolist():
            problems.append("price scaling")
    a = compute_return_series(parse_prices(base_rows).records).values
    b = compute_return_series(parse_prices(scaled_rows).records).values
    if a.tolist() != b.tolist() or a.tolist() != np.concatenate(expected).tolist():
        problems.append("price scaling")

    base_rows, scaled_rows = [header], [header]
    for i in range(1000):
        close = float(rng.uniform(0.5, 500.0))
        adj = float(rng.uniform(0.1, 10.0))
        ret = float(rng.uniform(0.1, 10.0))
        c = 2.0 ** int(rng.integers(-20, 21))
        base_rows.append(f"A{i:04d},2001-01-31,{close!r},{adj!r},{ret!r}")
        scaled_rows.append(f"A{i:04d},2001-01-31,{close!r},{adj * c!r},{ret * c!r}")
    a = parse_prices(base_rows).records.adjusted_prices()
    b = parse_prices(scaled_rows).records.adjusted_prices()
    if a.size != 1000 or a.tolist() != b.tolist():
        problems.append("factor scaling")

    _report(
        "invariance suite: 1,000 exact instances per invariance",
        not problems,
        "; ".join(sorted(set(problems))),
    )


def test_simulate_determinism(tmp_path):
    """Two simulate runs from one master seed are byte-identical."""
    config = {
        "synthetic": {"kind": "firm_like", "count": 60, "length": 120, "generator": "pcg64"},
        "master_seed": 7,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for label in ("a", "b"):
        out = tmp_path / label
        status = main(
            ["simulate", "--config", str(config_path), "--jobs", "1", "--out", str(out)]
        )
        assert status == 0
        outputs.append((out / "firm_separated" / "report.json").read_bytes())
    _report(
        "determinism: byte-identical report.json across simulate runs",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes",
    )
