"""Two-level null oracle: under PCG64 the whole serial test is calibrated.

The second-level test of TestU01 (L'Ecuyer & Simard 2007) and of NIST
SP 800-22 section 4.2.2: run the statistic many times on a good
generator and test what it produces.  100 master seeds each give a
stream of 100 sequences of 227 bits (the paper's firm length), taken
through ``shape_synthetic``, ``psi_profile`` and ``summarize_stream`` as
``simulate`` takes them.

- The combined-statistic p-values of the 100 streams must pass a KS test
  for uniformity at every nu = 3..8, at KS p >= ``KS_FLOOR``.
- The 10,000 per-sequence d2 values at each nu must have mean 2**(nu-2)
  and variance 2 * 2**(nu-2), the chi-square moments, within ``Z_MAX``
  standard errors.  Per-sequence p-values are not KS-tested: at nu = 3
  (two degrees of freedom) d2 takes few distinct values at 227 bits, so
  a continuous KS test fails on a good generator.
- A negative control must fail: the same PCG64 bits with one fixed 8-bit
  pattern written over two random aligned bytes of every sequence.
- Known defect, a strict xfail: in respect mode the same moment check
  fails on year-shaped PCG64 sequences of 1,900 segments of 12 bits (the
  monthly year stream), where d2 is over-dispersed.

Two exact oracles need no seed.  Every 12- and 16-bit sequence, and
separately every balanced one (as many ones as zeros, the shape a
median split gives), is profiled one by one; the i.i.d. mean of d2 is
2**(nu-2) exactly, and the exceedance counts at alpha = 0.05 and the
variance ratios are pinned.  Last, ``test`` runs once on a panel of
Gaussian random-walk prices, where the efficient-market null holds by
construction: the firm stream must not reject it, and the year stream,
whose segments are each binarised against their own median, does (a
strict xfail).

The thresholds were fixed before the first run.  A one-rate of 0.52 is
not a usable negative control: for independent bits with one-rate p the
second difference carries only n * r**(nu-2) * (r-1)**2 of excess, with
r = 2 * (p**2 + (1-p)**2), about 6e-4 per 227-bit sequence, so d2 is
blind to a pure bias by construction.
"""

import contextlib
import io
import json
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats

from marketrng import (
    BinarySequence,
    SyntheticSpec,
    chi2_critical,
    psi_profile,
    second_differences,
    shape_synthetic,
    summarize_stream,
)
from marketrng.cli import main

SEEDS, COUNT, LENGTH = 100, 100, 227
NUS = range(3, 9)
KS_FLOOR = 1e-3  # per nu; six looks keep the family-wise false alarm under 0.6%
Z_MAX = 5.0  # standard errors allowed for each moment
PATTERN = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
YEARS, SEGMENTS, SEGMENT_BITS = 400, 1900, 12  # year-shaped sequences, respect mode


def pcg64_rows(master_seed):
    spec = SyntheticSpec.firm_like(COUNT, LENGTH)
    return [s.bits for s in shape_synthetic(spec, "pcg64", master_seed=master_seed).sequences]


def injected_rows(master_seed):
    """PCG64 rows with ``PATTERN`` written over two random aligned bytes of each."""
    places = np.random.default_rng([master_seed, 8])
    rows = []
    for bits in pcg64_rows(master_seed):
        bits = bits.copy()
        for byte in places.choice(LENGTH // 8, 2, replace=False).tolist():
            bits[8 * byte : 8 * byte + 8] = PATTERN
        rows.append(bits)
    return rows


@lru_cache(maxsize=None)
def second_level(source):
    """Combined p-values (seeds x nus) and per-sequence d2 (seeds * count x nus)."""
    rows_of = {"pcg64": pcg64_rows, "injected": injected_rows}[source]
    p_values, d2 = [], []
    for seed in range(SEEDS):
        psi = [psi_profile(BinarySequence(bits), max_nu=max(NUS)) for bits in rows_of(seed)]
        report = summarize_stream(psi, trim_fractions=())
        p_values.append([report.combined[nu].p_value for nu in NUS])
        d2.append(report.per_sequence_d2)
    return np.array(p_values), np.vstack(d2)


def ks_p_values(source):
    p_values, _ = second_level(source)
    return np.array([stats.kstest(column, "uniform").pvalue for column in p_values.T])


def moment_z_scores(d2):
    """(mean, variance) deviations of d2 (sequences x nus) from chi-square moments, in standard errors.

    For chi-square with k degrees of freedom the sample mean of m values
    has variance 2k/m, and the sample variance about (8k**2 + 48k)/m,
    from the fourth central moment 12k(k + 4).
    """
    m, k = d2.shape[0], 2.0 ** (np.array(NUS) - 2)
    z_mean = (d2.mean(axis=0) - k) / np.sqrt(2 * k / m)
    z_var = (d2.var(axis=0, ddof=1) - 2 * k) / np.sqrt((8 * k**2 + 48 * k) / m)
    return z_mean, z_var


def test_combined_p_values_are_uniform():
    assert np.all(ks_p_values("pcg64") >= KS_FLOOR), ks_p_values("pcg64")


def assert_chi_square_moments(d2):
    z_mean, z_var = moment_z_scores(d2)
    assert np.all(np.abs(z_mean) <= Z_MAX), z_mean
    assert np.all(np.abs(z_var) <= Z_MAX), z_var


def test_per_sequence_d2_has_chi_square_moments():
    assert_chi_square_moments(second_level("pcg64")[1])


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="d2 is over-dispersed on 12-bit segments in respect mode (ROADMAP 2)"
)
def test_segmented_year_d2_has_chi_square_moments():
    spec = SyntheticSpec.firm_like(YEARS, SEGMENTS * SEGMENT_BITS)
    bounds = tuple(range(SEGMENT_BITS, SEGMENTS * SEGMENT_BITS, SEGMENT_BITS))
    psi = [
        psi_profile(BinarySequence(s.bits, segment_bounds=bounds), max(NUS), respect_boundaries=True)
        for s in shape_synthetic(spec, "pcg64", master_seed=2).sequences
    ]
    assert_chi_square_moments(second_differences(np.array(psi)))


def test_injected_pattern_fails_both_checks():
    z_mean, z_var = moment_z_scores(second_level("injected")[1])
    assert np.any(ks_p_values("injected") < KS_FLOOR)
    assert np.any(np.abs(z_mean) > Z_MAX) and np.any(np.abs(z_var) > Z_MAX)


@lru_cache(maxsize=None)
def exact_d2(bits, balanced):
    """d2(3..8) of every ``bits``-bit sequence, or of every balanced one, in counting order."""
    rows = ((np.arange(2**bits)[:, None] >> np.arange(bits - 1, -1, -1)) & 1).astype(np.uint8)
    if balanced:
        rows = rows[rows.sum(axis=1) == bits // 2]
    return second_differences(np.array([psi_profile(BinarySequence(row), max(NUS)) for row in rows]))


DOF = 2.0 ** (np.array(NUS) - 2)
EXACT = {  # (bits, balanced): (sequences with d2 > the alpha = 0.05 critical value, var(d2) / 2 dof), nu = 3..8
    (12, False): ([238, 224, 88, 72, 100, 14], [1.1906, 1.1773, 1.1021, 1.0932, 1.1274, 1.0801]),
    (12, True): ([38, 66, 2, 14, 6, 2], [0.9550, 0.9213, 0.9054, 0.7448, 0.7450, 0.5111]),
    (16, False): ([3452, 3234, 2418, 1414, 1222, 1400], [1.1641, 1.1678, 1.1567, 1.1594, 1.1393, 1.1348]),
    (16, True): ([420, 530, 238, 160, 66, 190], [0.9640, 0.9799, 0.9473, 0.8739, 0.8182, 0.6917]),
}
EXACT_IDS = [f"{bits}-bit-{'balanced' if balanced else 'iid'}" for bits, balanced in EXACT]


@pytest.mark.parametrize("bits", [12, 16])
def test_exact_iid_mean_of_d2_is_its_dof(bits):
    np.testing.assert_allclose(exact_d2(bits, False).mean(axis=0), DOF, rtol=1e-11, atol=0)


@pytest.mark.parametrize("shape", EXACT, ids=EXACT_IDS)
def test_exact_exceedance_counts(shape):
    critical = [chi2_critical(0.05, int(dof)) for dof in DOF]
    assert (exact_d2(*shape) > critical).sum(axis=0).tolist() == EXACT[shape][0]


@pytest.mark.parametrize("shape", EXACT, ids=EXACT_IDS)
def test_exact_variance_ratio(shape):
    ratio = exact_d2(*shape).var(axis=0) / (2 * DOF)  # every sequence: the population variance
    assert np.round(ratio, 4).tolist() == EXACT[shape][1]


PANEL_SEED, PANEL_FIRMS, PANEL_MONTHS = 0, 300, 60
P_FLOOR = 1e-3  # the combined nu = 3 p-value a stream must reach on null prices


@pytest.fixture(scope="module")
def null_panel_reports(tmp_path_factory):
    """The combined nu = 3 p-value of each stream of one ``test`` run on random-walk prices, by kind."""
    work = tmp_path_factory.mktemp("null_panel")
    steps = np.random.default_rng(PANEL_SEED).normal(0.0, 0.05, (PANEL_FIRMS, PANEL_MONTHS))
    closes = 50.0 * np.exp(np.cumsum(steps, axis=1))
    month_ends = (np.arange(PANEL_MONTHS) + np.datetime64("2001-02")).astype("M8[D]") - 1  # 2001-01-31 on
    lines = ["id,date,close,adjfactor,retfactor"]
    for firm, row in enumerate(closes.tolist()):
        lines += [f"F{firm:03d},{day},{close!r},1.0,1.0" for day, close in zip(month_ends.tolist(), row)]
    (work / "panel.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = ["--stream", "year,firm", "--boundary-mode", "respect", "--out", str(work / "out")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["test", "--input", str(work / "panel.csv"), *args]) == 0
    return {
        kind: json.loads((work / "out" / kind / "report.json").read_text())["report"]["combined"]["3"]["p_value"]
        for kind in ("firm_separated", "year_separated")
    }


def test_firm_stream_is_calibrated_on_a_null_panel(null_panel_reports):
    assert null_panel_reports["firm_separated"] > P_FLOOR


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="each firm-year is binarised against its own median, so pooled segments lack runs (ROADMAP 1)",
)
def test_year_stream_is_calibrated_on_a_null_panel(null_panel_reports):
    assert null_panel_reports["year_separated"] > P_FLOOR
