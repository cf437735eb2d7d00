"""Market pipeline: parsing, cleaning, returns, binarisation, streams, and the cleaned.csv writer."""

import csv
import dataclasses
import datetime as dt
import io
import math
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_pipeline as ref
from test_pipeline_reference import sorted_rows
from marketrng import pipeline
from marketrng.pipeline import (
    FormatError,
    Panel,
    Returns,
    build_stream,
    clean_panel,
    compute_return_series,
    monthly_column_sums,
    parse_prices,
)
from marketrng.serial import BinarySequence, psi_profile

HEADER = "id,date,close,adjfactor,retfactor"


def month_end(year, month):
    if month == 12:
        return dt.date(year, 12, 31)
    return dt.date(year, month + 1, 1) - dt.timedelta(days=1)


def monthly_records(instrument, start_year, start_month, closes):
    """(id, date, close, adjfactor, retfactor) rows, one per month."""
    records = []
    year, month = start_year, start_month
    for close in closes:
        records.append((instrument, month_end(year, month), float(close), 1.0, 1.0))
        month += 1
        if month > 12:
            month = 1
            year += 1
    return records


def panel_of(records):
    """The Panel that parse_prices makes of the given rows, in that order."""
    rows = [HEADER] + [f"{i},{d.isoformat()},{c!r},{a!r},{r!r}" for i, d, c, a, r in records]
    result = parse_prices(rows)
    assert len(result.records) == len(records) and not result.rejects
    return result.records


def returns_of(price_lists):
    """compute_return_series values of one instrument per price list, in list order."""
    records = []
    for k, prices in enumerate(price_lists):
        records += monthly_records(f"I{k:04d}", 2001, 1, prices)
    values = compute_return_series(panel_of(records)).values
    return np.split(values, np.cumsum([len(p) - 1 for p in price_lists])[:-1])


def panel_rows(panel):
    """The panel as (id, date, close, adjfactor, retfactor) tuples."""
    return list(
        zip(
            [panel.ids[k] for k in panel.instrument.tolist()],
            panel.date.tolist(),
            panel.close.tolist(),
            panel.adjfactor.tolist(),
            panel.retfactor.tolist(),
        )
    )


class TestParsePrices:
    def test_single_valid_row(self):
        text = f"{HEADER}\nAAA,2001-01-31,10.5,1.0,1.0\n"
        result = parse_prices(io.StringIO(text))
        assert len(result.records) == 1 and not result.rejects
        rec = panel_rows(result.records)[0]
        assert rec[0] == "AAA"
        assert rec[1] == dt.date(2001, 1, 31)
        assert rec[2] == 10.5

    def test_empty_close_is_rejected_with_line(self):
        text = f"{HEADER}\nAAA,2001-01-31,,1.0,1.0\n"
        result = parse_prices(io.StringIO(text))
        assert not result.records
        assert len(result.rejects) == 1
        assert result.rejects[0].line == 2

    def test_crlf_and_lf_parse_identically(self):
        rows = [HEADER, "AAA,2001-01-31,10,1,1", "BBB,2001-01-31,20,1,1"]
        lf = parse_prices(io.StringIO("\n".join(rows) + "\n"))
        crlf = parse_prices(io.StringIO("\r\n".join(rows) + "\r\n"))
        assert panel_rows(lf.records) == panel_rows(crlf.records)
        assert lf.rejects == crlf.rejects

    def test_accepted_rows_keep_line_numbers(self):
        # A blank line, a quoted field over two lines, and a reject: the
        # reject names the physical line it ends on, and the rows around it are kept.
        text = f'{HEADER}\nAAA,2001-01-31,10,1,1\n\nBBB,2001-01-31,10,1,"1\n"\nCCC,x,1,1,1\nDDD,2001-01-31,10,1,1\n'
        result = parse_prices(io.StringIO(text))
        assert sorted(row[0] for row in panel_rows(result.records)) == ["AAA", "BBB", "DDD"]
        assert [r.line for r in result.rejects] == [6]

    def test_missing_header_is_format_error(self):
        with pytest.raises(FormatError):
            parse_prices(io.StringIO("AAA,2001-01-31,10,1,1\n"))

    def test_empty_file_is_format_error(self):
        with pytest.raises(FormatError):
            parse_prices(io.StringIO(""))

    def test_extra_columns_ignored(self):
        text = "id,date,close,adjfactor,retfactor,volume\nAAA,2001-01-31,10,1,1,12345\n"
        result = parse_prices(io.StringIO(text))
        assert len(result.records) == 1

    def test_bad_values_rejected(self):
        text = "\n".join(
            [
                HEADER,
                "AAA,2001-13-31,10,1,1",  # bad month
                "BBB,2001-01-31,-5,1,1",  # non-positive close
                "CCC,2001-01-31,10,0,1",  # zero factor
                ",2001-01-31,10,1,1",  # empty id
            ]
        )
        result = parse_prices(io.StringIO(text))
        assert not result.records
        assert [r.line for r in result.rejects] == [2, 3, 4, 5]

    @pytest.mark.parametrize("text", ["20010228", " 20010228 ", "2001-W13-6", "2001-02-28T00:00", "２００１-02-28"])
    def test_only_dddd_dd_dd_dates_on_every_python(self, text):
        # From Python 3.11 on, date.fromisoformat also takes the basic and
        # week forms; the row rules refuse them with 3.10's own message.
        for stream in ([HEADER, f"AAA,{text},10,1,1"], io.StringIO(f"{HEADER}\nAAA,{text},10,1,1\n")):
            result = parse_prices(stream)
            assert not result.records
            assert [(r.line, r.reason) for r in result.rejects] == [
                (2, f"Invalid isoformat string: {text.strip()!r}")
            ]

    def test_missing_price_reason_is_the_same_on_every_python(self):
        # 3.10 words float(None)'s message "a string or a number"; the
        # reason is 3.11's text everywhere, and a bad earlier field still wins.
        result = parse_prices([HEADER, "AAA,2001-01-31,10", "BBB,2001-01-31,abc"])
        assert [r.reason for r in result.rejects] == [
            "float() argument must be a string or a real number, not 'NoneType'",
            "could not convert string to float: 'abc'",
        ]

    def test_padded_iso_date_is_kept_and_bad_day_keeps_its_reason(self):
        result = parse_prices([HEADER, "AAA, 2001-02-28 ,10,1,1", "BBB,2001-02-30,10,1,1"])
        assert panel_rows(result.records)[0][:2] == ("AAA", dt.date(2001, 2, 28))
        assert [r.reason for r in result.rejects] == ["day is out of range for month"]


class TestCleanPanel:
    def test_contiguous_months_kept(self):
        records = monthly_records("AAA", 2001, 1, range(1, 25))
        kept, dropped = clean_panel(panel_of(records), "monthly")
        assert "AAA" in kept.ids and not dropped

    def test_gap_dropped(self):
        closes = list(range(1, 13))
        records = monthly_records("AAA", 2001, 1, closes)
        records = [r for r in records if r[1].month != 7]  # knock out July
        kept, dropped = clean_panel(panel_of(records), "monthly")
        assert not kept.ids
        assert dropped[0]["reason"] == "gap"

    def test_eleven_months_is_short(self):
        records = monthly_records("AAA", 2001, 1, range(1, 12))
        kept, dropped = clean_panel(panel_of(records), "monthly")
        assert not kept.ids
        assert dropped[0]["reason"] == "short"

    def test_twelve_months_is_enough(self):
        records = monthly_records("AAA", 2001, 1, range(1, 13))
        kept, _ = clean_panel(panel_of(records), "monthly")
        assert "AAA" in kept.ids

    def test_duplicate_period_dropped(self):
        records = monthly_records("AAA", 2001, 1, range(1, 13))
        records.append(records[0])
        kept, dropped = clean_panel(panel_of(records), "monthly")
        assert not kept.ids and dropped[0]["reason"] == "duplicate"

    def test_daily_gap_uses_inferred_calendar(self):
        # Calendar = union of observed dates; BBB missing one trading day.
        days = [dt.date(2001, 1, 2) + dt.timedelta(days=i) for i in range(400)]
        trading = [d for d in days if d.weekday() < 5][:300]
        recs = []
        for d in trading:
            recs.append(("AAA", d, 10.0, 1.0, 1.0))
        for d in trading:
            if d != trading[100]:
                recs.append(("BBB", d, 20.0, 1.0, 1.0))
        kept, dropped = clean_panel(panel_of(recs), "daily")
        assert "AAA" in kept.ids
        assert [d["id"] for d in dropped] == ["BBB"]
        assert dropped[0]["reason"] == "gap"

    def test_daily_short_dropped(self):
        days = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(200)]
        recs = [("AAA", d, 10.0, 1.0, 1.0) for d in days]
        kept, dropped = clean_panel(panel_of(recs), "daily")
        assert not kept.ids and dropped[0]["reason"] == "short"

    def test_late_listing_not_penalised_in_life_scope(self):
        recs = monthly_records("AAA", 2001, 1, range(1, 25))
        recs += monthly_records("BBB", 2002, 1, range(1, 13))
        kept, dropped = clean_panel(panel_of(recs), "monthly", gap_scope="life")
        assert set(kept.ids) == {"AAA", "BBB"} and not dropped

    def test_dataset_scope_drops_partial_coverage(self):
        recs = monthly_records("AAA", 2001, 1, range(1, 25))
        recs += monthly_records("BBB", 2002, 1, range(1, 13))
        kept, dropped = clean_panel(panel_of(recs), "monthly", gap_scope="dataset")
        assert set(kept.ids) == {"AAA"}
        assert dropped[0]["id"] == "BBB" and dropped[0]["reason"] == "gap"

    def test_cleaning_is_idempotent(self):
        recs = monthly_records("AAA", 2001, 1, range(1, 25))
        recs += monthly_records("BBB", 2001, 1, [1, 2, 3])
        gapped = monthly_records("CCC", 2001, 1, range(1, 15))
        recs += [r for r in gapped if r[1].month != 5]
        kept, _ = clean_panel(panel_of(recs), "monthly")
        kept_again, dropped_again = clean_panel(kept, "monthly")
        assert panel_rows(kept_again) == panel_rows(kept) and not dropped_again


class TestPriceMath:
    def test_adjust_examples(self):
        day = dt.date(2001, 1, 31)
        panel = panel_of([("A", day, 100, 1, 1), ("B", day, 100, 2, 1), ("C", day, 50, 1, 1.25)])
        assert panel.adjusted_prices().tolist() == [100, 200, 40]

    def test_adjust_rejects_non_positive(self):
        result = parse_prices([HEADER, "A,2001-01-31,-1.0,1.0,1.0"])
        assert not result.records and result.rejects[0].reason == "non-positive close"
        panel = panel_of(monthly_records("A", 2001, 1, [1.0, 2.0]))
        with pytest.raises(ValueError):
            compute_return_series(dataclasses.replace(panel, close=-panel.close))

    def test_adjust_factor_scaling_invariance(self):
        # Power-of-two scales are exact in binary floating point; other
        # scales are verified at solver precision.
        rng = np.random.default_rng(21)
        for _ in range(1000):
            close = float(rng.uniform(0.5, 500.0))
            adj = float(rng.uniform(0.1, 10.0))
            ret = float(rng.uniform(0.1, 10.0))
            day = dt.date(2001, 1, 31)
            c = 2.0 ** int(rng.integers(-20, 21))
            arbitrary = float(rng.uniform(0.01, 100.0))
            base, scaled, scaled2 = panel_of(
                [
                    ("A", day, close, adj, ret),
                    ("B", day, close, adj * c, ret * c),
                    ("C", day, close, adj * arbitrary, ret * arbitrary),
                ]
            ).adjusted_prices().tolist()
            assert scaled == base
            assert scaled2 == pytest.approx(base, rel=1e-12)

    def test_log_returns_examples(self):
        for log_returns in (ref.log_returns, lambda prices: returns_of([prices])[0]):
            assert log_returns([1.0, math.e]).tolist() == pytest.approx([1.0])
            assert log_returns([7.5] * 6).tolist() == [0.0] * 5
            assert log_returns([100.0, 110.0])[0] == pytest.approx(math.log(1.1))

    def test_log_returns_errors(self):
        with pytest.raises(ValueError):
            ref.log_returns([1.0])
        with pytest.raises(ValueError):
            ref.log_returns([1.0, -2.0])
        with pytest.raises(ValueError):
            compute_return_series(panel_of(monthly_records("A", 2001, 1, [1.0])))
        panel = panel_of(monthly_records("A", 2001, 1, [1.0, 2.0]))
        with pytest.raises(ValueError):
            compute_return_series(dataclasses.replace(panel, close=np.array([1.0, -2.0])))

    def test_log_returns_scaling_invariance(self):
        rng = np.random.default_rng(22)
        prices, scaled = [], []
        for _ in range(1000):
            prices.append(rng.uniform(1.0, 200.0, size=int(rng.integers(2, 40))))
            scaled.append(prices[-1] * 2.0 ** int(rng.integers(-20, 21)))
        for p, c, got, got_scaled in zip(prices, scaled, returns_of(prices), returns_of(scaled)):
            assert ref.log_returns(c).tolist() == ref.log_returns(p).tolist()
            assert got_scaled.tolist() == got.tolist() == ref.log_returns(p).tolist()


def median_bits(values):
    """The bits build_stream gives one instrument whose returns are ``values``, in order."""
    n = len(values)
    code = np.zeros(n, dtype=np.int64)
    returns = Returns(["X"], code, np.full(n, "2001-01-31", dtype="M8[D]"), np.asarray(values, dtype=float))
    return build_stream(returns, "firm_separated").sequences[0].bits


class TestBinarise:
    def test_hand_example(self):
        assert median_bits([0.1, -0.2, 0.3, 0.05]).tolist() == [1, 0, 1, 0]

    def test_constant_input_degenerate(self):
        assert median_bits([0.5, 0.5, 0.5]).tolist() == [0, 0, 0]

    def test_balance_property(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            n = int(rng.integers(2, 200))
            returns = rng.standard_normal(n)
            bits = median_bits(returns)
            ones = int(bits.sum())
            assert abs(ones - (n - ones)) <= 1

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(24)
        transforms = [np.exp, lambda x: 3.0 * x + 7.0, lambda x: x**3, np.arctan]
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            returns = rng.uniform(-3.0, 3.0, size=n)
            reference = median_bits(returns)
            transform = transforms[int(rng.integers(0, len(transforms)))]
            assert median_bits(transform(returns)).tolist() == reference.tolist()

    def test_too_short(self):
        with pytest.raises(ValueError):
            median_bits([0.1])


def toy_series(n_firms=3, start=2001, years=2, seed=0):
    rng = np.random.default_rng(seed)
    series = []
    for i in range(n_firms):
        name = f"F{i:02d}"
        closes = np.exp(np.cumsum(rng.standard_normal(years * 12 + 1) * 0.05)) * 100
        series.extend(monthly_records(name, start, 1, closes))
    return compute_return_series(panel_of(series))


class TestBuildStream:
    def test_firm_and_year_counts(self):
        series = toy_series(n_firms=1, years=2)
        firm = build_stream(series, "firm_separated")
        year = build_stream(series, "year_separated")
        assert len(firm.sequences) == 1
        assert len(year.sequences) == 2  # one per calendar year

    def test_firm_stream_monobit_is_tiny(self):
        series = toy_series(n_firms=4, years=3, seed=5)
        stream = build_stream(series, "firm_separated")
        for s in stream.sequences:
            profile = psi_profile(s, max_nu=3)
            assert profile[0] <= 1.0 / len(s) + 1e-12

    def test_year_sequences_near_balanced(self):
        series = toy_series(n_firms=5, years=3, seed=6)
        stream = build_stream(series, "year_separated")
        for s in stream.sequences:
            ones = int(s.bits.sum())
            zeros = len(s) - ones
            odd_segments = int((s.segment_lengths() % 2 == 1).sum())
            assert abs(ones - zeros) <= odd_segments

    def test_year_segment_bounds_firm_major(self):
        series = toy_series(n_firms=3, years=2, seed=7)
        stream = build_stream(series, "year_separated")
        years = np.array([d.year for d in series.date.tolist()])
        assert [s.source_id for s in stream.sequences] == ["2001", "2002"]  # 2003: one return a firm
        for seq in stream.sequences:
            # One segment per firm with two or more returns that year, in
            # ascending id order, each binarised against its own median.
            in_year = years == int(seq.source_id)
            segments = [series.values[(series.instrument == k) & in_year] for k in range(len(series.ids))]
            segments = [v for v in segments if v.size >= 2]
            assert seq.segment_bounds == tuple(np.cumsum([v.size for v in segments])[:-1].tolist())
            want = [ref.binarise_median(v).bits.tolist() for v in segments]
            assert [b.tolist() for b in np.split(seq.bits, list(seq.segment_bounds))] == want

    def test_single_return_segments_skipped_and_audited(self):
        # Firm listed in November: December is its only return that year.
        records = monthly_records("AAA", 2001, 11, [100, 101, 102, 103, 104, 105])
        series = compute_return_series(panel_of(records))
        stream = build_stream(series, "year_separated")
        assert [s.source_id for s in stream.sequences] == ["2002"]
        assert stream.audit and stream.audit[0]["reason"] == "short_segment"

    def test_year_of_short_segments_is_audited(self):
        # Both firms list in November 2001 and delist in January 2003, so
        # 2001 and 2003 hold one return per firm and no sequence.
        records = []
        for name in ("AAA", "BBB"):
            records += monthly_records(name, 2001, 11, 100.0 + np.arange(15.0))
        stream = build_stream(compute_return_series(panel_of(records)), "year_separated")
        assert [s.source_id for s in stream.sequences] == ["2002"]
        assert [(a["id"], a["reason"]) for a in stream.audit] == [
            ("AAA", "short_segment"),
            ("AAA", "short_segment"),
            ("BBB", "short_segment"),
            ("BBB", "short_segment"),
            ("2001", "empty_year"),
            ("2003", "empty_year"),
        ]
        assert stream.audit[-1]["detail"] == "no qualifying segment"

    def test_stream_deterministic(self):
        def view(kind):
            stream = build_stream(toy_series(seed=8), kind)
            return [(s.source_id, s.bits.tolist(), s.segment_bounds) for s in stream.sequences], stream.audit

        for kind in ("firm_separated", "year_separated"):
            assert view(kind) == view(kind)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_stream({}, "banana")


class TestMonthlyColumnSums:
    def test_two_firm_example(self):
        bits = np.concatenate([np.tile([1, 0], 6), np.tile([0, 1], 6)])
        s = BinarySequence(bits=bits, source_id="2001", segment_bounds=(12,))
        result = monthly_column_sums(s, 12)
        assert result.values.tolist() == [1] * 12
        assert result.rows_included == 2

    def test_conservation(self):
        rng = np.random.default_rng(30)
        segments = [rng.integers(0, 2, size=12) for _ in range(7)]
        bits = np.concatenate(segments)
        bounds = tuple(np.cumsum([12] * 6))
        s = BinarySequence(bits=bits, source_id="y", segment_bounds=bounds)
        result = monthly_column_sums(s, 12)
        assert result.values.sum() == bits.sum()

    def test_incomplete_segments_excluded(self):
        bits = np.concatenate([np.ones(12, dtype=np.uint8), np.zeros(5, dtype=np.uint8)])
        s = BinarySequence(bits=bits, source_id="y", segment_bounds=(12,))
        result = monthly_column_sums(s, 12)
        assert result.rows_included == 1 and result.rows_excluded == 1
        assert result.values.tolist() == [1] * 12

    def test_no_complete_segment_is_error(self):
        s = BinarySequence(bits=np.ones(5, dtype=np.uint8), source_id="y")
        with pytest.raises(ValueError):
            monthly_column_sums(s, 12)

    @given(
        st.lists(st.integers(1, 16), min_size=1, max_size=30),
        st.integers(1, 13),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_segment_loop(self, sizes, months, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=sum(sizes)).astype(np.uint8)
        s = BinarySequence(bits=bits, source_id="y", segment_bounds=tuple(np.cumsum(sizes)[:-1].tolist()))
        # The per-segment loop that the vectorised version replaced.
        rows = [seg for seg in np.split(s.bits, list(s.segment_bounds)) if seg.size == months]
        if not rows:
            with pytest.raises(ValueError, match=f"no segment of {months} returns"):
                monthly_column_sums(s, months)
            return
        result = monthly_column_sums(s, months)
        expected = np.sum(np.vstack(rows).astype(np.int64), axis=0)
        assert result.values.dtype == expected.dtype and result.values.tolist() == expected.tolist()
        assert (result.rows_included, result.rows_excluded) == (len(rows), len(sizes) - len(rows))

    def test_non_positive_months_is_error(self):
        s = BinarySequence(bits=np.ones(12, dtype=np.uint8), source_id="y")
        with pytest.raises(ValueError, match="months_per_row must be positive"):
            monthly_column_sums(s, 0)

    def test_binomial_concentration(self):
        rng = np.random.default_rng(31)
        firms = 400
        bits = rng.integers(0, 2, size=firms * 12).astype(np.uint8)
        bounds = tuple(np.cumsum([12] * (firms - 1)))
        s = BinarySequence(bits=bits, source_id="y", segment_bounds=bounds)
        sums = monthly_column_sums(s, 12).values
        # Binomial(400, 1/2): 5 sigma band around 200.
        assert np.all(np.abs(sums - firms / 2) < 5 * np.sqrt(firms) / 2)


class TestReturnSeries:
    def test_validation(self):
        day = dt.date(2001, 2, 28)
        with pytest.raises(ValueError):  # dates not strictly increasing
            compute_return_series(panel_of([("A", day, 1.0, 1.0, 1.0), ("A", day, 2.0, 1.0, 1.0)]))
        with pytest.raises(ValueError):  # a single price gives no return
            compute_return_series(panel_of([("A", day, 1.0, 1.0, 1.0)]))

    def test_compute_return_series(self):
        records = monthly_records("AAA", 2001, 1, [100.0, 110.0, 121.0])
        series = compute_return_series(panel_of(records))
        assert series.values.tolist() == pytest.approx([math.log(1.1)] * 2)
        assert series.date[0] == month_end(2001, 2)

    def test_price_ratio_past_the_double_range_gives_a_finite_return(self):
        # 1e200 / 1e-200 overflows to inf, its inverse underflows to 0, and
        # 1e-160 / 1e160 is subnormal with few bits left: those returns are
        # the difference of the logs, and the others keep their bits.
        prices = [1e-200, 1e200, 1e-200, 1.0, 2.0, 1e160, 1e-160]
        values = compute_return_series(panel_of(monthly_records("AAA", 2001, 1, prices))).values
        extreme = [math.log(1e200) - math.log(1e-200), math.log(1e-200) - math.log(1e200)]
        assert values[[0, 1, 5]].tolist() == pytest.approx(extreme + [math.log(1e-160) - math.log(1e160)], rel=1e-15)
        assert values[2:5].tolist() == np.log(np.array([1.0 / 1e-200, 2.0 / 1.0, 1e160 / 2.0])).tolist()


@settings(max_examples=200)
@given(st.text(alphabet=st.sampled_from('ab ,"\r\n\t\u00e9'), min_size=1, max_size=6))
def test_id_field_quoting_matches_csv_writer(name):
    text = io.StringIO()
    csv.writer(text).writerow([name, "x"])  # the default "\r\n" terminator: \r and \n quote
    assert pipeline._csv_field(name) + ",x\r\n" == text.getvalue()


# Decimals of k places with at most 15 significant digits, the prices
# that cleaned.csv writes from their digits rather than by repr.
PRICE_DECIMALS = st.builds(lambda m, k: m / 10**k, st.integers(1, 10**15 - 1), st.integers(0, 15))
# Floats whose repr takes each form: repeats, subnormals, exponent form
# from 1e16 up and below 1e-4, zeros of both signs, non-finite values,
# and price-like decimals.
WRITER_FLOATS = (
    st.sampled_from(
        [1.0, 1.0, 0.1, 2.5, 5e-324, 2.2250738585072014e-308, 1e16, 1.2345678901234567e17, 9999999999999998.0,
         1e-4, 9.99e-5, 3e-7, 0.0, -0.0, float("inf"), float("nan"), 45.6001, 1.02, 12.5, 0.0001, 2.0]
    )
    | PRICE_DECIMALS
    | st.floats(allow_subnormal=True)
)


@st.composite
def cleaned_panels(draw, floats=WRITER_FLOATS):
    n = draw(st.integers(0, 40))
    column = st.lists(floats, min_size=n, max_size=n)
    close, adjfactor, retfactor = (np.array(draw(column), dtype=np.float64) for _ in range(3))
    ids = ["A", "F0001", "\u00e9t\u00e9", "a b"]
    dates = np.array([dt.date(2001, 1, 31), dt.date(2001, 2, 28), dt.date(1999, 12, 31)], dtype="M8[D]")
    codes = (draw(st.lists(st.integers(0, k), min_size=n, max_size=n)) for k in (3, 2))
    instrument, date = (np.array(c, dtype=np.int64) for c in codes)
    return Panel(ids, instrument, dates[date], close, adjfactor, retfactor)


@settings(max_examples=200)
@given(cleaned_panels(), st.sampled_from([1, 2, 3, 5, 64]))
def test_cleaned_writer_matches_per_row_writer(panel, rows_per_write):
    # Small blocks make runs of equal prices straddle block edges.
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        with mock.patch.object(pipeline, "_ROWS_PER_WRITE", rows_per_write):
            pipeline.write_cleaned(new, panel)
        ref.write_cleaned(old, panel)
        assert new.read_bytes() == old.read_bytes()


# repr writes these in exponent form: below 1e-4 and from 1e16 up.
EXPONENT_FORMS = [1e-05, 9.99e-05, 1e16, 1e300]
POSITIVE_FLOATS = (
    st.sampled_from(EXPONENT_FORMS) | PRICE_DECIMALS | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
)


def exponent_form_panel():
    """Four rows; each price column holds every exponent form, and every adjusted price is in range."""
    prices = np.array(EXPONENT_FORMS)
    codes = np.array([0, 1, 0, 1], dtype=np.int64)
    dates = np.array([dt.date(2001, 1, 31), dt.date(2001, 2, 28)], dtype="M8[D]")
    return Panel(["A", "B"], codes, dates[codes], prices, prices[::-1].copy(), prices.copy())


@settings(max_examples=200)
@given(cleaned_panels(POSITIVE_FLOATS))
@example(exponent_form_panel())
def test_cleaned_csv_reads_back_bit_for_bit(panel):
    # test reads the cleaned.csv that ingest writes, so every price repr
    # writes, exponent forms included, must parse back to the same double.
    with np.errstate(over="ignore", under="ignore"):
        adjusted = panel.adjusted_prices()
    panel = panel.take(np.flatnonzero((adjusted > 0.0) & (adjusted < np.inf)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cleaned.csv"
        pipeline.write_cleaned(path, panel)
        with open(path, encoding="utf-8-sig", newline="") as handle:
            parsed = parse_prices(handle)
    assert parsed.rejects == []
    # Lines the numpy pass cannot prove, such as exponent forms, are parsed
    # after the rest of their block, so rows are compared as multisets.
    assert sorted_rows(parsed.records) == sorted_rows(panel)


# Each side of the edges of the formatter's digit path: 1e-4 is its
# least value, 1e15 is past it, 999999999999999.9 needs 16 digits.
FORMAT_EDGES = [1e-4, float(np.nextafter(1e-4, 0)), 1e15, float(np.nextafter(1e15, 0)), 999999999999999.9, 0.1 + 0.2]


def test_cleaned_price_fields_equal_repr(monkeypatch):
    seen = Counter()
    reprs = []  # the values the writer formats by repr; the rest take the digit path
    monkeypatch.setattr(pipeline, "repr", lambda x: reprs.append(x) or repr(x), raising=False)

    @settings(max_examples=300)
    @given(st.lists(st.floats() | PRICE_DECIMALS | st.sampled_from(FORMAT_EDGES), min_size=1, max_size=40))
    def check(values):
        n = len(values)
        prices = np.array(values, dtype=np.float64)
        zeros = np.zeros(n, dtype=np.int64)
        days = np.full(n, "2001-01-31", dtype="M8[D]")
        panel = Panel(["A"], zeros, days, prices, prices[::-1].copy(), prices)
        reprs.clear()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cleaned.csv"
            pipeline.write_cleaned(path, panel)
            lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [line.split(",")[2:] for line in lines] == [
            [repr(c), repr(a), repr(r)] for c, a, r in zip(values, values[::-1], values)
        ]
        by_repr = {float(x).hex() for x in reprs}
        seen.update("repr" if float(v).hex() in by_repr else "digits" for v in values)

    check()
    assert seen["repr"] and seen["digits"], seen
