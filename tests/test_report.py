"""Reports: summaries, combined chi-square, trimming, KDE, recurrence."""

import dataclasses
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_report
import reference_values as ref
from reference_report import trim_top_contributors
from marketrng import report as report_module
from marketrng.chi2 import chi2_critical
from marketrng.report import (
    StreamReport,
    default_kde_grid,
    emit_tables,
    kde_curve,
    read_report_json,
    recurrence_matrix,
    summarize_stream,
    write_kde,
    write_recurrence,
    write_report_json,
)
from marketrng.rng import SyntheticSpec, shape_synthetic
from marketrng.serial import BinarySequence, psi_profile, second_differences


def profile_with_d2(targets):
    """A psi2 row for nu = 1..len(targets) + 2 whose second differences are ``targets``.

    They are exact where the arithmetic is, as for small integers.
    """
    psi = [0.0, 0.0]
    for value in targets:
        psi.append(2.0 * psi[-1] - psi[-2] + value)
    return np.array(psi)


def d2_rows(psi_rows):
    """d2(3..max_nu) of each psi2 row from the scalar formula, the oracle for the report."""
    return [[p[nu - 1] - 2.0 * p[nu - 2] + p[nu - 3] for nu in range(3, len(p) + 1)] for p in psi_rows]


def year_profiles():
    years = sorted(ref.YEAR_D2)
    return [profile_with_d2(ref.YEAR_D2[y]) for y in years], [str(y) for y in years]


class TestSummarize:
    def test_single_profile(self):
        profile = profile_with_d2([5.0, 9.0, 17.0, 33.0, 65.0, 129.0])
        report = summarize_stream([profile])
        for nu in range(3, 9):
            summary = report.d2_summary[nu]
            assert summary["mean"] == summary["max"] == second_differences(profile)[nu - 3]
            assert summary["sd"] == 0.0

    def test_reference_combined_sums(self):
        profiles, ids = year_profiles()
        report = summarize_stream(profiles, sequence_ids=ids, kind="year_separated")
        for nu, expected in zip(ref.D2_NUS, ref.YEAR_D2_SUMS):
            assert report.combined[nu].statistic == pytest.approx(expected, abs=0.05)

    def test_reference_significant_fractions(self):
        profiles, ids = year_profiles()
        report = summarize_stream(profiles, sequence_ids=ids, kind="year_separated")
        for nu, expected in zip(ref.D2_NUS, ref.YEAR_SIGNIFICANT_FRACTIONS):
            assert round(report.significant_fraction[nu], 2) == expected

    def test_reference_nu6_fraction_is_18_of_19(self):
        profiles, ids = year_profiles()
        report = summarize_stream(profiles, sequence_ids=ids)
        assert report.significant_fraction[6] == pytest.approx(18.0 / 19.0)

    def test_d2_equal_to_its_critical_value_is_not_significant(self):
        crit = chi2_critical(0.05, 2)  # d2(3) of the first row is crit - 2 * 0 + 0, exactly
        report = summarize_stream([[0.0, 0.0, crit], [0.0, 0.0, 0.0]])
        assert report.per_sequence_d2[0, 0] == crit
        assert report.significant_fraction[3] == 0.0

    def test_combined_statistic_equals_column_sum(self):
        profiles, ids = year_profiles()
        report = summarize_stream(profiles, sequence_ids=ids)
        for j, nu in enumerate(report.d2_nus):
            column_sum = float(report.per_sequence_d2[:, j].sum())
            assert report.combined[nu].statistic == pytest.approx(column_sum, rel=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            summarize_stream([])

    def test_mismatched_max_nu_rejected(self):
        a = profile_with_d2([1.0] * 6)
        b = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            summarize_stream([a, b])

    @pytest.mark.parametrize(
        "psi",
        [np.zeros(8), np.zeros((0, 8)), np.zeros((3, 0)), np.zeros((2, 2)), np.zeros((2, 8, 1))],
        ids=["one-row-1d", "no-rows", "no-columns", "below-nu-3", "3d"],
    )
    def test_input_that_is_no_psi_matrix_rejected(self, psi):
        with pytest.raises(ValueError, match="psi"):
            summarize_stream(psi)

    def test_list_of_rows_equals_stacked_matrix(self):
        stream = shape_synthetic(SyntheticSpec.firm_like(40, 120), "pcg64", master_seed=3)
        rows = [psi_profile(s, max_nu=8) for s in stream.sequences]
        for mode in ("per_nu", "joint"):
            by_rows = summarize_stream(rows, trim_mode=mode).to_dict()
            assert by_rows == summarize_stream(np.vstack(rows), trim_mode=mode).to_dict()


def trim_steps(values, fractions, xi, ids=None, trim_mode="per_nu"):
    """The ladder summarize_stream gives a d2 column at the window size of 2**(nu-2) == xi.

    Every window size of each profile holds the same value, so ``values``
    is the column at every nu.
    """
    report = summarize_stream(
        [profile_with_d2([v] * 6) for v in values],
        trim_fractions=fractions,
        sequence_ids=ids,
        trim_mode=trim_mode,
    )
    return report.trim_ladder[int(xi).bit_length() + 1]


PSI_VALUES = st.sampled_from([-2.0, 0.0, 0.1, 1.0 / 3.0, 7.25]) | st.floats(-50.0, 500.0)
PSI_ROWS = st.lists(PSI_VALUES, min_size=8, max_size=8)


@st.composite
def psi_matrices(draw):
    """Up to 80 psi2 rows (nu = 1..8), often repeating a few, so that d2 values tie."""
    palette = draw(st.lists(PSI_ROWS, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(palette) | PSI_ROWS, min_size=1, max_size=80))


# psi2 rows, trim fractions, and a random source to shuffle ids with.
LADDER_CASES = given(
    psi_matrices(),
    st.lists(st.floats(0.0, 0.49), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
)


@LADDER_CASES
def test_per_nu_ladder_matches_trim_top_contributors(psi_rows, fractions, random):
    # Repeated psi2 rows force d2 ties; shuffled ids make id order differ
    # from position order, so a tie broken by position would show.
    ids = [f"s{k:03d}" for k in range(len(psi_rows))]
    random.shuffle(ids)
    nus = range(3, 9)
    report = summarize_stream(psi_rows, trim_fractions=fractions, sequence_ids=ids)
    rows = d2_rows(psi_rows)
    for j, nu in enumerate(nus):
        column = [row[j] for row in rows]
        for step, p in zip(report.trim_ladder[nu], fractions, strict=True):
            expected = trim_top_contributors(column, p, 2 ** (nu - 2), ids=ids)
            assert step.dropped == expected.dropped and step.dof == expected.dof
            assert step.statistic == expected.statistic
            assert step.p_value == expected.assessment.p_value
            assert step.significant == expected.assessment.significant
            # Largest values first, ties by ascending id.
            ranked = sorted(zip((-v for v in column), ids))
            assert expected.dropped_ids == tuple(i for _, i in ranked[: expected.dropped])


@LADDER_CASES
def test_joint_ladder_matches_dropped_id_set(psi_rows, fractions, random):
    # Rank rows by total d2 (ties by ascending id), drop the top k ids,
    # and sum what is left in position order as one numpy sum.
    ids = [f"s{k:03d}" for k in range(len(psi_rows))]
    random.shuffle(ids)
    nus = range(3, 9)
    report = summarize_stream(
        psi_rows, trim_fractions=fractions, sequence_ids=ids, trim_mode="joint"
    )
    rows = d2_rows(psi_rows)
    totals = [float(np.array(row).sum()) for row in rows]
    joint = sorted(range(len(rows)), key=lambda r: (-totals[r], ids[r]))
    for j, nu in enumerate(nus):
        for step, p in zip(report.trim_ladder[nu], fractions, strict=True):
            k = int(np.floor(p * len(rows)))
            drop = {ids[r] for r in joint[:k]}
            kept = np.array([row[j] for row, i in zip(rows, ids) if i not in drop])
            assert step.dropped == k and step.dof == (len(rows) - k) * 2 ** (nu - 2)
            assert step.statistic == float(kept.sum())


@pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5])
def test_bad_trim_fraction_rejected_in_both_modes(fraction):
    profiles, ids = year_profiles()
    for mode in ("per_nu", "joint"):
        with pytest.raises(ValueError, match=r"trim fraction must lie in \[0, 1\)"):
            summarize_stream(profiles, sequence_ids=ids, trim_fractions=(fraction,), trim_mode=mode)


class TestTrim:
    def test_zero_fraction_is_identity(self):
        values = [10.0, 5.0, 1.0, 1.0, 1.0]
        (result,) = trim_steps(values, (0.0,), xi=2)
        assert result.statistic == sum(values)
        assert result.dof == 10
        assert result.dropped == 0

    def test_hand_example(self):
        (result,) = trim_steps([10.0, 5.0, 1.0, 1.0, 1.0], (0.2,), xi=4)
        assert result.statistic == 8.0
        assert result.dof == 4 * 4
        assert result.dropped == 1

    def test_tie_break_ascending_id(self):
        # Totals 7, 7, 1 for ids b, a, c: the tie at the cut drops "a".
        # Its row differs from b's within the total, so the nu = 3 and
        # nu = 4 sums show which of the two was dropped.
        rows = [[3.0, 4.0, 0.0, 0.0, 0.0, 0.0], [4.0, 3.0, 0.0, 0.0, 0.0, 0.0], [1.0] + [0.0] * 5]
        report = summarize_stream(
            [profile_with_d2(row) for row in rows],
            trim_fractions=(1.0 / 3.0,),
            sequence_ids=["b", "a", "c"],
            trim_mode="joint",
        )
        assert report.trim_ladder[3][0].dropped == 1
        assert report.trim_ladder[3][0].statistic == 3.0 + 1.0
        assert report.trim_ladder[4][0].statistic == 4.0

    def test_ladder_monotone_non_increasing(self):
        rng = np.random.default_rng(40)
        values = rng.chisquare(8, size=300)
        stats = [step.statistic for step in trim_steps(values, (0.0, 0.01, 0.02, 0.05, 0.1), xi=8)]
        assert all(a >= b for a, b in zip(stats, stats[1:]))

    def test_removing_largest_never_increases(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            values = rng.chisquare(2, size=40)
            full = values.sum()
            (trimmed,) = trim_steps(values, (1.0 / 40.0,), xi=2)
            assert trimmed.statistic <= full

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            trim_steps([1.0], (1.0,), xi=2)

    def test_planted_periodic_mechanism(self):
        # Two perfectly periodic sequences among 198 PCG sequences (1%)
        # push every combined statistic over its critical value; trimming
        # the top 1% of contributors restores non-significance.
        stream = shape_synthetic(SyntheticSpec.firm_like(198, 240), "pcg64", master_seed=0)
        plants = [
            BinarySequence(bits=np.tile(np.array([0, 1], np.uint8), 120), source_id=f"plant{i}")
            for i in range(2)
        ]
        sequences = stream.sequences + plants
        profiles = [psi_profile(s, max_nu=8) for s in sequences]
        report = summarize_stream(
            profiles,
            sequence_ids=[s.source_id for s in sequences],
            trim_fractions=(0.0, 0.01),
        )
        for nu in report.d2_nus:
            assert report.trim_ladder[nu][0].significant
            assert not report.trim_ladder[nu][1].significant

    def test_joint_trim_mode_drops_same_sequences(self):
        profiles, ids = year_profiles()
        report = summarize_stream(
            profiles,
            sequence_ids=ids,
            trim_fractions=(2.0 / 19.0,),
            trim_mode="joint",
        )
        drops = {nu: report.trim_ladder[nu][0].dropped for nu in report.d2_nus}
        assert all(v == 2 for v in drops.values())


class TestNullBehaviourDeskScale:
    def test_pcg_stream_has_null_fractions_and_sums(self):
        stream = shape_synthetic(SyntheticSpec.firm_like(600, 250), "pcg64", master_seed=0)
        profiles = [psi_profile(s, max_nu=8) for s in stream.sequences]
        report = summarize_stream(profiles, sequence_ids=[s.source_id for s in stream.sequences])
        for nu in report.d2_nus:
            assert 0.03 <= report.significant_fraction[nu] <= 0.07
            assert not report.combined[nu].significant


class TestRecurrence:
    def test_constant_series_is_zero(self):
        m = recurrence_matrix([3.0, 3.0, 3.0])
        assert not m.any()

    def test_two_point_example(self):
        m = recurrence_matrix([1.0, 3.0])
        assert m.tolist() == [[0.0, 2.0], [2.0, 0.0]]

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(50)
        series = rng.standard_normal(40)
        m = recurrence_matrix(series)
        assert np.array_equal(m, m.T)
        assert not np.diag(m).any()

    def test_too_short(self):
        with pytest.raises(ValueError):
            recurrence_matrix([1.0])

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.lists(
                st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-5])
                | st.floats(allow_subnormal=True),
                min_size=n * n,
                max_size=n * n,
            ).map(lambda values: np.array(values).reshape(n, n))
        )
    )
    def test_csv_rows_match_per_value_format(self, matrix):
        with tempfile.TemporaryDirectory() as tmp, np.errstate(invalid="ignore", over="ignore"):
            csv_path, _ = write_recurrence(matrix, Path(tmp) / "m")
            text = csv_path.read_text(encoding="utf-8")
        assert text == "".join(",".join(f"{v:.6g}" for v in row) + "\n" for row in matrix)

    def test_dotted_base_names_keep_their_own_files(self, tmp_path):
        a = write_recurrence(recurrence_matrix([1.0, 2.0]), tmp_path / "rec_BRK.A")
        b = write_recurrence(recurrence_matrix([1.0, 5.0]), tmp_path / "rec_BRK.B")
        assert [p.name for p in a + b] == ["rec_BRK.A.csv", "rec_BRK.A.pgm", "rec_BRK.B.csv", "rec_BRK.B.pgm"]
        assert a[0].read_text(encoding="utf-8") == "0,1\n1,0\n"
        assert b[0].read_text(encoding="utf-8") == "0,4\n4,0\n"

    @pytest.mark.parametrize("values_per_write", [7, 50, 1 << 16])
    @pytest.mark.parametrize(
        "matrix",
        [
            recurrence_matrix(np.random.default_rng(52).standard_normal(23)),
            np.random.default_rng(53).standard_normal((13, 13)),
            np.full((9, 9), 0.37),
            np.zeros((11, 11)),
        ],
        ids=["recurrence", "signed", "constant", "zero"],
    )
    def test_blocks_match_whole_matrix_writer(self, tmp_path, monkeypatch, matrix, values_per_write):
        monkeypatch.setattr(report_module, "_VALUES_PER_WRITE", values_per_write)
        new = write_recurrence(matrix, tmp_path / "new")
        old = reference_report.write_recurrence(matrix, tmp_path / "old")
        assert [p.read_bytes() for p in new] == [p.read_bytes() for p in old]

    def test_memory_is_bounded_by_one_block(self, tmp_path):
        matrix = recurrence_matrix(np.random.default_rng(54).standard_normal(600))
        tracemalloc.start()
        try:
            write_recurrence(matrix, tmp_path / "m")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Formatting the whole 600 x 600 matrix at once peaks near 15 MB;
        # one block of 2**16 values as Python floats and text, near 3 MB.
        assert peak < 6e6


class TestKde:
    def test_symmetric_samples_give_symmetric_density(self):
        samples = np.array([-2.0, -1.0, 1.0, 2.0])
        grid = np.linspace(-4.0, 4.0, 201)
        density = kde_curve(samples, grid)
        assert np.allclose(density, density[::-1], atol=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(51)
        samples = rng.standard_normal(200)
        sd = samples.std(ddof=1)
        grid = np.linspace(-10.0 * sd, 10.0 * sd, 4001)
        density = kde_curve(samples, grid)
        integral = np.trapezoid(density, grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_bimodal_clusters_have_equal_peaks(self):
        samples = np.array([-5.0, -5.0, -5.0, 5.0, 5.0, 5.0])
        grid = np.linspace(-8.0, 8.0, 1601)
        density = kde_curve(samples, grid)
        left = density[grid < 0].max()
        right = density[grid > 0].max()
        assert abs(left - right) < 1e-9

    def test_length_rescaling(self):
        samples = np.array([10.0, 20.0, 30.0, 44.0])
        grid = default_kde_grid(samples, length=100.0)
        scaled = kde_curve(samples, grid, length=100.0)
        direct = kde_curve(samples / 100.0, grid)
        assert np.allclose(scaled, direct, atol=1e-12)

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError):
            kde_curve([1.0, 1.0, 1.0], np.linspace(-1, 1, 10))
        with pytest.raises(ValueError, match="zero spread"):
            default_kde_grid([4.0, 4.0], length=2.0)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least two samples"):
            kde_curve([1.0], np.linspace(-1, 1, 10))
        with pytest.raises(ValueError, match="at least two samples"):
            default_kde_grid([1.0])

    def test_iqr_collapse_falls_back_to_sd(self):
        samples = np.array([0.0] * 8 + [1.0])
        grid = np.linspace(-1.0, 2.0, 101)
        density = kde_curve(samples, grid)
        assert np.all(np.isfinite(density))

    ODD_FLOATS = st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-5])

    @given(st.lists(st.tuples(*[ODD_FLOATS | st.floats(allow_subnormal=True)] * 2), max_size=20))
    def test_rows_match_per_value_format(self, points):
        grid, density = np.array([x for x, _ in points]), np.array([d for _, d in points])
        with tempfile.TemporaryDirectory() as tmp:
            text = write_kde(grid, density, Path(tmp) / "kde.csv").read_text(encoding="utf-8")
        assert text == "x,density\n" + "".join(f"{x:.8g},{d:.8g}\n" for x, d in zip(grid, density))


class TestEmission:
    def _report(self):
        profiles, ids = year_profiles()
        return summarize_stream(profiles, sequence_ids=ids, kind="year_separated")

    def test_tables_are_deterministic(self, tmp_path):
        report = self._report()
        emit_tables(report, tmp_path / "a")
        emit_tables(report, tmp_path / "b")
        for name in ("psi_summary.csv", "d2_summary.csv", "trim_ladder.csv"):
            a = (tmp_path / "a" / "tables" / name).read_bytes()
            b = (tmp_path / "b" / "tables" / name).read_bytes()
            assert a == b

    def test_psi_window_one_uses_scientific_notation(self, tmp_path):
        report = self._report()
        emit_tables(report, tmp_path)
        lines = (tmp_path / "tables" / "psi_summary.csv").read_text().splitlines()
        mean_row = lines[1].split(",")
        assert mean_row[0] == "mean"
        assert "e" in mean_row[1]  # nu=1 column
        assert float(mean_row[1]) == pytest.approx(report.psi_summary[1]["mean"], rel=0.01)
        assert "e" not in mean_row[2]

    def test_csv_round_trip_to_printed_precision(self, tmp_path):
        report = self._report()
        emit_tables(report, tmp_path)
        lines = (tmp_path / "tables" / "d2_summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        for j, nu in enumerate(report.d2_nus):
            assert header[1 + j] == f"nu_{nu}"
            mean_cell = rows["mean"][j].rstrip("*")
            assert float(mean_cell) == pytest.approx(report.d2_summary[nu]["mean"], abs=0.005)
        year_cells = rows["2001"]
        for j, expected in enumerate(ref.YEAR_D2[2001]):
            assert float(year_cells[j].rstrip("*")) == pytest.approx(expected, abs=0.005)

    def test_significance_marks(self, tmp_path):
        report = self._report()
        emit_tables(report, tmp_path)
        lines = (tmp_path / "tables" / "d2_summary.csv").read_text().splitlines()
        rows = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        # 2002's nu=3 value 4.24 retains the null (below 5.991): marked.
        assert rows["2002"][0].endswith("*")
        assert not rows["2001"][0].endswith("*")
        # Five equal profiles retain the null at small nu only, so the
        # combined and ladder rows mix marked and unmarked cells.
        mixed = summarize_stream([profile_with_d2([1.0, 2.0, 4.0, 8.0, 16.0, 200.0])] * 5)
        assert len({a.significant for a in mixed.combined.values()}) == 2
        for rep, out in ((report, tmp_path), (mixed, tmp_path / "mixed")):
            emit_tables(rep, out)
            tables = out / "tables"
            combined = (tables / "d2_summary.csv").read_text().splitlines()[4].split(",")
            assert combined[0] == "combined_chi2"
            for cell, nu in zip(combined[1:], rep.d2_nus):
                assert cell.endswith("*") == (not rep.combined[nu].significant)
            ladder = (tables / "trim_ladder.csv").read_text().splitlines()[1:]
            for i, line in enumerate(ladder):
                for cell, nu in zip(line.split(",")[1:], rep.d2_nus):
                    assert cell.endswith("*") == (not rep.trim_ladder[nu][i].significant)
            assert "*" not in (tables / "psi_summary.csv").read_text()

    def test_markdown_column_count(self, tmp_path):
        report = self._report()
        emit_tables(report, tmp_path, fmt="markdown")
        lines = (tmp_path / "tables" / "psi_summary.md").read_text().splitlines()
        expected_columns = len(report.nus) + 1
        for line in lines:
            assert line.count("|") == expected_columns + 1
        d2_lines = (tmp_path / "tables" / "d2_summary.md").read_text().splitlines()
        assert d2_lines[0].count("|") == len(report.d2_nus) + 1 + 1
        assert not any("*" in line for line in d2_lines)  # the mark is CSV-only

    def test_report_json_round_trip(self, tmp_path):
        report = self._report()
        path = write_report_json(report, tmp_path / "report.json", config={"alpha": 0.05})
        loaded, config = read_report_json(path)
        assert config == {"alpha": 0.05}
        assert loaded.to_dict() == report.to_dict()
        assert np.array_equal(loaded.per_sequence_d2, report.per_sequence_d2)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.floats(-1e3, 1e6, allow_nan=False), min_size=3, max_size=8), min_size=1, max_size=4
        ),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=40),
        names=st.lists(st.sampled_from(["a", "b", "B", "10", "9", "a b"]), min_size=40, max_size=40),
        kind=st.sampled_from(["firm_separated", "year_separated"]),
        trim_mode=st.sampled_from(["per_nu", "joint"]),
        trims=st.lists(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True), max_size=5),
        alpha=st.floats(1e-9, 0.5),
    )
    def test_report_json_rebuilds_to_the_same_bytes(self, rows, picks, names, kind, trim_mode, trims, alpha):
        # Reading a report rebuilds every field but its inputs and compares;
        # a float recomputed differently would make a valid report unreadable.
        width = min(map(len, rows))
        psi = np.array([rows[i % len(rows)][:width] for i in picks])  # repeated rows tie
        report = summarize_stream(psi, alpha, trims, names[: len(picks)], kind=kind, trim_mode=trim_mode)
        with tempfile.TemporaryDirectory() as tmp:
            first = write_report_json(report, Path(tmp) / "first.json", config={"alpha": alpha})
            loaded, config = read_report_json(first)
            again = write_report_json(loaded, Path(tmp) / "again.json", config=config)
            assert again.read_bytes() == first.read_bytes()

    def test_report_json_deterministic(self, tmp_path):
        report = self._report()
        a = write_report_json(report, tmp_path / "a.json")
        b = write_report_json(report, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_recurrence_files(self, tmp_path):
        m = recurrence_matrix([1.0, 3.0, 2.0])
        paths = write_recurrence(m, tmp_path / "recurrence_X")
        csv_text = paths[0].read_text().splitlines()
        assert csv_text[0].split(",")[1] == "2"
        pgm = paths[1].read_bytes()
        assert pgm.startswith(b"P5\n3 3\n255\n")
        assert len(pgm) == len(b"P5\n3 3\n255\n") + 9
        assert pgm[-9:][0] == 0  # zero diagonal start

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_recurrence_rejects_non_square(self, tmp_path, shape):
        with pytest.raises(ValueError, match="square"):
            write_recurrence(np.zeros(shape), tmp_path / "recurrence_X")
        assert not any(tmp_path.iterdir())


def plain_dump(report, config=None):
    """The text ``json.dump(payload, sort_keys=True, indent=2)`` and a newline write, from ``asdict``."""
    data = dataclasses.asdict(report)
    data["n_sequences"] = len(report.sequence_ids)
    data["per_sequence_d2"] = report.per_sequence_d2.tolist()
    payload = {"report": data} if config is None else {"report": data, "config": config}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Ids that could break a splice: separators and brackets as the encoder
# writes them, quotes, backslashes, control and non-ASCII characters, and
# the writer's own placeholders.
AWKWARD_IDS = [
    "a, b", 'x"],"y', '"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "\u00e9t\u00e9",
    "\u682a\u5f0f", "\U0001f600", "<sequence_ids>", "<per_sequence_d2>", "]", "[", "", " ",
]


class TestReportJsonWriter:
    """write_report_json writes the bytes of json.dump(sort_keys=True, indent=2), and they load."""

    def _check(self, report, tmp_path, config=None, loads=True):
        path = write_report_json(report, tmp_path / "report.json", config=config)
        assert path.read_text(encoding="utf-8") == plain_dump(report, config)
        if loads:
            loaded, echo = read_report_json(path)
            assert loaded.to_dict() == report.to_dict() and echo == config

    @pytest.mark.parametrize("trim_mode", ["per_nu", "joint"])
    def test_awkward_ids(self, tmp_path, trim_mode):
        rng = np.random.default_rng(5)
        psi = rng.random((len(AWKWARD_IDS), 8)) * 40.0
        report = summarize_stream(psi, sequence_ids=AWKWARD_IDS, trim_mode=trim_mode, trim_fractions=(0.0, 0.1, 0.5))
        report.extras["skipped_sequences"] = AWKWARD_IDS
        report.extras["audit"] = [{"id": name, "reason": "gap", "detail": name} for name in AWKWARD_IDS]
        self._check(report, tmp_path, config={"input_path": "<sequence_ids>", "ids": AWKWARD_IDS})

    @pytest.mark.parametrize("trim_mode", ["per_nu", "joint"])
    def test_one_sequence_at_max_nu_three(self, tmp_path, trim_mode):
        report = summarize_stream([[0.5, 1.25, 7.0]], sequence_ids=["only"], trim_mode=trim_mode)
        assert report.per_sequence_d2.shape == (1, 1)
        self._check(report, tmp_path)

    def test_year_report_with_audit_extras(self, tmp_path):
        report = TestEmission()._report()
        report.extras["skipped_sequences"] = ["2000"]
        report.extras["audit"] = [
            {"id": "AAA", "reason": "short_segment", "detail": "5 return(s) in 2003"},
            {"id": "2000", "reason": "empty_year", "detail": "no qualifying segment"},
        ]
        self._check(report, tmp_path, config={"stream": ["year"], "boundary_mode": "respect"})

    def test_config_holding_the_long_lists_keys(self, tmp_path):
        # Config keys sit as deep as the report's own and sort before them, so each list goes in at its last line.
        opens = ['\n    "per_sequence_d2": [', '\n    "sequence_ids": [']
        report = summarize_stream(np.random.default_rng(7).random((2, 8)) * 40.0, sequence_ids=opens)
        report.extras["skipped_sequences"] = opens
        self._check(report, tmp_path, config={"per_sequence_d2": [], "sequence_ids": [], "ids": opens})

    @pytest.mark.parametrize("n, rows_per_write", [(5, 1), (5, 2), (6, 3), (6, 6), (1100, 512)])
    def test_blocks_of_rows(self, tmp_path, monkeypatch, n, rows_per_write):
        monkeypatch.setattr(report_module, "_ROWS_PER_WRITE", rows_per_write)
        psi = np.random.default_rng(n).normal(size=(n, 5)) * 10.0
        self._check(summarize_stream(psi, sequence_ids=[f"s{j}" for j in range(n)]), tmp_path)

    def test_report_without_sequences_is_refused(self, tmp_path):
        # summarize_stream and read_report_json refuse such a report, so none is written.
        psi = np.random.default_rng(3).normal(size=(4, 8)) * 10.0
        empty = dataclasses.replace(summarize_stream(psi), sequence_ids=[], per_sequence_d2=np.empty((0, 6)))
        with pytest.raises(ValueError, match="no sequences"):
            write_report_json(empty, tmp_path / "out" / "report.json")
        assert not any(tmp_path.iterdir())

    def test_non_finite_values_are_spelled_as_json_spells_them(self, tmp_path):
        report = TestEmission()._report()
        report.per_sequence_d2 = report.per_sequence_d2.copy()
        report.per_sequence_d2[0, :3] = [np.nan, np.inf, -np.inf]
        report.per_sequence_d2[1, 0] = -0.0
        self._check(report, tmp_path, loads=False)  # read_report_json rejects non-finite d2

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        max_nu=st.integers(3, 8),
        names=st.lists(st.text(max_size=6), min_size=6, max_size=6),
        trim_mode=st.sampled_from(["per_nu", "joint"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_ids_and_shape(self, n, max_nu, names, trim_mode, seed):
        psi = np.random.default_rng(seed).normal(size=(n, max_nu)) * 10.0
        report = summarize_stream(psi, sequence_ids=names[:n], trim_mode=trim_mode)
        with tempfile.TemporaryDirectory() as tmp:
            self._check(report, Path(tmp), config={"names": names})
