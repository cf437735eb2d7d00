"""Differential tests: the columnar pipeline against the per-row reference.

Random price CSVs, with the malformed rows, header variants and layouts
the parser must handle, go through both ``marketrng.pipeline`` and the
scalar copy in ``reference_pipeline``.  Rejects, dropped instruments,
cleaned rows, returns and both experiment streams must agree exactly;
floats are compared bit for bit.
"""

import csv
import datetime as dt
import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_pipeline as ref
from marketrng import pipeline
from marketrng.pipeline import (
    Returns,
    build_stream,
    clean_panel,
    compute_return_series,
    parse_prices,
)

REQUIRED = ("id", "date", "close", "adjfactor", "retfactor")
FIRM_NAMES = ("A", "B", "C", "a", "AB", " D", "D", "E\x00")

# Field overrides that make a row malformed (the first seven are the
# benchmark panel's kinds), plus rows that are valid in unusual forms.
MALFORMED = (
    {"close": ""},
    {"close": "-3.5"},
    {"adjfactor": "nan"},
    {"retfactor": "abc"},
    {"id": ""},
    {"date": "2001-02-30"},
    "short",
    "short after date",
    {"close": "inf"},
    {"close": "0"},
    {"retfactor": "-1"},
    {"date": "31/01/2001"},
    {"date": "20010228"},  # basic and week forms: date.fromisoformat takes them from 3.11 on
    {"date": "2001-W13-6"},
    {"close": "1e300", "adjfactor": "1e10", "retfactor": "1"},
    {"close": "1e-300", "adjfactor": "1e-100", "retfactor": "1e10"},
    {"id": "   "},
    "blank",
    "whitespace",
    "extra",
    "quoted",
    "newline",
)


def month_dates(day_choice):
    """One date in each month of 2001-2003, picked by ``day_choice``."""
    dates = []
    for k in range(36):
        year, month = 2001 + k // 12, k % 12 + 1
        end = (dt.date(year + month // 12, month % 12 + 1, 1) - dt.timedelta(days=1)).day
        dates.append(dt.date(year, month, min(day_choice[k], end)))
    return dates


def trading_days():
    """Weekdays from June 2001, so daily histories cross a year end."""
    days = [dt.date(2001, 6, 1) + dt.timedelta(days=i) for i in range(460)]
    return [d for d in days if d.weekday() < 5]


@st.composite
def price_csv(draw, frequency):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shuffle = draw(st.randoms(use_true_random=False))

    # Header: required columns in any order and case, extra columns, and
    # repeated names (the last column of a name holds the value).
    names = [draw(st.sampled_from([c, c.upper(), c.title(), f" {c} "])) for c in REQUIRED]
    if draw(st.booleans()):
        names.append("volume")
    if draw(st.booleans()):
        dup = draw(st.sampled_from(REQUIRED))
        names.insert(draw(st.integers(0, len(names))), dup.upper())
    if draw(st.booleans()):
        shuffle.shuffle(names)
    keys = [n.strip().lower() for n in names]
    holder = {k: max(j for j, kk in enumerate(keys) if kk == k) for k in REQUIRED}

    def fields(values, overrides=()):
        values = {**values, **dict(overrides)}
        return [values[k] if holder.get(k) == j else ("7" if k == "volume" else "x")
                for j, k in enumerate(keys)]

    if frequency == "monthly":
        calendar = month_dates(draw(st.lists(st.sampled_from([1, 15, 28, 31]), min_size=36, max_size=36)))
        lengths, bad_rate = st.integers(10, 30), 0.05
    else:
        calendar = trading_days()
        lengths, bad_rate = st.integers(230, len(calendar)), 0.01
    rows = []  # (kind, fields); kind "row" for a record, else a raw line
    for name in draw(st.lists(st.sampled_from(FIRM_NAMES), min_size=1, max_size=4, unique=True)):
        length = draw(lengths)
        start = draw(st.integers(0, len(calendar) - length))
        style = draw(st.sampled_from(["walk", "steps", "flat", "rounded"]))
        if style == "walk":
            prices = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.05, length)))
        elif style == "steps":  # exact powers of two: many tied returns
            prices = 64.0 * 2.0 ** np.cumsum(rng.integers(-1, 2, length))
        elif style == "flat":
            prices = np.full(length, 12.5)
        else:
            prices = np.round(20.0 + rng.integers(0, 4, length) * 0.5, 2)
        # Some firms get a hole or a second record in one period.
        hole = int(rng.integers(1, length - 1)) if rng.random() < 0.25 else -1
        twice = int(rng.integers(0, length)) if rng.random() < 0.2 else -1
        for t in range(length):
            if t == hole:
                continue
            day = calendar[start + t]
            text = day.isoformat() if rng.random() < 0.8 else f" {day.isoformat()} "  # padded: row path
            adj = "2" if rng.random() < 0.1 else "1"
            values = {"id": name, "date": text, "close": repr(float(prices[t]) / float(adj)),
                      "adjfactor": adj, "retfactor": "1.02" if rng.random() < 0.05 else "1"}
            bad = MALFORMED[int(rng.integers(0, len(MALFORMED)))] if rng.random() < bad_rate else None
            if bad in ("quoted", "extra", "newline"):  # valid rows in an unusual form
                row = fields(values, {"retfactor": values["retfactor"] + "\n"} if bad == "newline" else {})
                rows.append((bad, row + ["9", "x,y"] if bad == "extra" else row))
            else:
                rows.append(("row", fields(values)))
            if bad == "short":
                rows.append(("row", fields(values)[: int(rng.integers(1, len(keys)))]))
            elif bad == "short after date":  # id and date present, a price field missing
                rows.append(("row", fields(values)[: max(holder["id"], holder["date"]) + 1]))
            elif bad in ("blank", "whitespace"):
                rows.append((bad, None))
            elif isinstance(bad, dict):
                rows.append(("row", fields(values, bad)))
            if t == twice:
                other = day.replace(day=1 if day.day > 1 else 2) if frequency == "monthly" else day
                rows.append(("row", fields(values, {"date": other.isoformat()})))
    if draw(st.booleans()):
        shuffle.shuffle(rows)

    end = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    plain = csv.writer(out, lineterminator=end)
    quoted = csv.writer(out, lineterminator=end, quoting=csv.QUOTE_ALL)
    plain.writerow(names)
    for kind, row in rows:
        if kind == "blank":
            out.write(end)
        elif kind == "whitespace":
            out.write(" " + end)
        else:
            (quoted if kind == "quoted" else plain).writerow(row)
    return out.getvalue()


def reference_run(text, frequency, gap_scope):
    parsed = ref.parse_prices(io.StringIO(text, newline=""))
    kept, dropped = ref.clean_panel(parsed.records, frequency, gap_scope)
    rows = [
        (r.instrument_id, r.date, repr(r.close_unadjusted), repr(r.adj_factor), repr(r.ret_factor))
        for name in sorted(kept) for r in kept[name]
    ]
    series = {name: ref.compute_return_series(recs, frequency) for name, recs in kept.items()}
    returns = [(name, s.dates, s.returns.tobytes()) for name, s in sorted(series.items())]
    return parsed.rejects, dropped, rows, returns, series


def columnar_run(text, frequency, gap_scope):
    parsed = parse_prices(io.StringIO(text, newline=""))
    kept, dropped = clean_panel(parsed.records, frequency, gap_scope)
    rows = list(
        zip(
            [kept.ids[k] for k in kept.instrument.tolist()],
            kept.date.tolist(),
            map(repr, kept.close.tolist()),
            map(repr, kept.adjfactor.tolist()),
            map(repr, kept.retfactor.tolist()),
        )
    )
    if not kept.ids:
        return parsed.rejects, dropped, rows, [], None
    series = compute_return_series(kept)
    returns = []
    for k, name in enumerate(series.ids):
        mine = series.instrument == k
        returns.append((name, tuple(series.date[mine].tolist()),
                        series.values[mine].tobytes()))
    return parsed.rejects, dropped, rows, returns, series


def stream_view(stream):
    return [(s.source_id, s.bits.tolist(), s.segment_bounds) for s in stream.sequences], stream.audit


def check_against_reference(text, frequency, gap_scope):
    """Assert agreement; return tags naming the cases the input covered."""
    expected = reference_run(text, frequency, gap_scope)
    got = columnar_run(text, frequency, gap_scope)
    assert got[0] == expected[0]  # rejects: line numbers and reasons
    assert got[1] == expected[1]  # dropped instruments, in id order
    assert got[2] == expected[2]  # cleaned rows
    assert got[3] == expected[3]  # returns, bit for bit
    tags = {f"reject:{r.reason.split(':')[0]}" for r in got[0]}
    tags |= {f"drop:{d['reason']}" for d in got[1]}
    if got[4] is not None:
        tags.add("kept")
        for kind in ("firm_separated", "year_separated"):
            stream = build_stream(got[4], kind)
            assert stream_view(stream) == stream_view(ref.build_stream(expected[4], kind))
            tags |= {f"audit:{a['reason']}" for a in stream.audit}
        values = got[4].values
        segments = [n for s in stream.sequences for n in s.segment_lengths().tolist()]
        tags |= {"odd segment" if n % 2 else "even segment" for n in segments}
        if np.unique(values).size < values.size:
            tags.add("tied returns")
    return tags


def run_differential(frequency, max_examples):
    seen = Counter()

    @settings(max_examples=max_examples)
    @given(text=price_csv(frequency), gap_scope=st.sampled_from(["life", "dataset"]))
    def check(text, gap_scope):
        seen.update(check_against_reference(text, frequency, gap_scope))

    check()
    return seen


def test_monthly_matches_reference():
    seen = run_differential("monthly", 200)
    # The generated inputs must reach every branch, or the check is vacuous.
    for tag in (
        "kept", "drop:duplicate", "drop:gap", "drop:short", "audit:short_segment", "audit:empty_year",
        "odd segment", "even segment", "tied returns",
        "reject:empty id", "reject:non-positive close", "reject:non-positive adjfactor",
        "reject:non-positive retfactor", "reject:adjusted price out of range",
        "reject:could not convert string to float",
        "reject:float() argument must be a string or a real number, not 'NoneType'",
        "reject:day is out of range for month", "reject:Invalid isoformat string",
    ):
        assert seen[tag], tag


def test_daily_matches_reference():
    seen = run_differential("daily", 30)
    for tag in ("kept", "drop:gap", "drop:short", "odd segment", "even segment"):
        assert seen[tag], tag


@given(
    st.lists(
        st.sampled_from([-1.5, -0.25, 0.0, 0.125, 0.125, 3.0])
        | st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
        min_size=2,
        max_size=40,
    )
)
def test_binarise_median_matches_numpy_median(values):
    # The sort-based median of one run equals np.median, ties and odd and
    # even lengths included; equal non-zero floats have equal bits.  Only
    # the sign of a zero median can differ, which log returns never hit
    # (np.log gives +0.0, never -0.0).
    arr = np.asarray(values)
    _, (got_median,) = pipeline._binarise_runs(arr, np.array([0]), np.array([arr.size]))
    median = float(np.median(arr))
    assert got_median == median
    code = np.zeros(arr.size, dtype=np.int64)
    days = np.full(arr.size, "2001-01-31", dtype="M8[D]")
    stream = build_stream(Returns(["X"], code, days, arr), "firm_separated")
    assert stream.sequences[0].bits.tolist() == [int(v > median) for v in values]


# Heavy ties, both zeros and both infinities: the cases where a sort by
# (run, value) must keep ties in index order to pick the same median bits.
TIE_VALUES = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.5, -1.5, 2.0, float("inf"), -float("inf")])


@st.composite
def runs_of_values(draw):
    sizes = draw(st.lists(st.integers(1, 3) | st.integers(4, 12), min_size=1, max_size=30))
    values = draw(st.lists(TIE_VALUES | st.floats(allow_nan=False), min_size=sum(sizes), max_size=sum(sizes)))
    return np.array(values, dtype=np.float64), np.array(sizes)


@settings(max_examples=300)
@given(runs_of_values())
@example((np.array([-0.0, 0.0, -0.0]), np.array([3])))
@example((np.array([0.0, -0.0, 0.0, -0.0, 7.0]), np.array([1, 4])))
@example((np.array([-np.inf, np.inf, 1.0]), np.array([2, 1])))
def test_binarise_runs_matches_lexsort_form(case):
    values, sizes = case
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    run = np.repeat(np.arange(sizes.size), sizes)
    assert np.array_equal(pipeline._run_order(values, starts, sizes), np.lexsort((values, run)))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and 2 * max in midpoints
        bits, median = pipeline._binarise_runs(values, starts, sizes)
        want_bits, want_median, want_degenerate = ref.binarise_runs_lexsort(values, starts, sizes)
    assert bits.dtype == want_bits.dtype and np.array_equal(bits, want_bits)
    assert median.view(np.int64).tolist() == np.array(want_median).view(np.int64).tolist()
    assert [not chunk.any() for chunk in np.split(bits, starts[1:])] == want_degenerate


@st.composite
def panels_with_duplicates(draw):
    """Up to four instruments over 15 months, rows shuffled; some spans complete, some with repeats."""
    rows = []
    for code in range(draw(st.integers(1, 4))):
        first = draw(st.integers(0, 3))
        months = list(range(first, draw(st.integers(first + 1, 15))))
        months += draw(st.lists(st.sampled_from(months), max_size=2))  # repeated periods
        rows += [(code, m) for m in months]
    rows = draw(st.permutations(rows))
    instrument, date = (np.array(col, dtype=np.int64) for col in zip(*rows))
    dates = np.array([dt.date(2001 + m // 12, m % 12 + 1, 28) for m in range(15)], dtype="M8[D]")
    close, ones = np.arange(len(rows), dtype=np.float64), np.ones(len(rows))  # close tags each row
    return pipeline.Panel(["A", "B", "C", "D"], instrument, dates[date], close, ones, ones)


@settings(max_examples=200)
@given(panels_with_duplicates())
def test_clean_panel_orders_rows_as_lexsort(panel):
    # Kept rows come out in np.lexsort((date, instrument)) order (each
    # row's close is its input position), and the instruments with a
    # repeated (instrument, date) pair are the ones dropped as duplicates.
    kept, dropped = clean_panel(panel)
    order = np.lexsort((panel.date, panel.instrument))
    keep = np.isin(np.array(panel.ids)[panel.instrument[order]], kept.ids)
    assert kept.close.tolist() == panel.close[order][keep].tolist()
    pairs = Counter(zip(panel.instrument.tolist(), panel.date.tolist()))
    repeated = {panel.ids[i] for (i, _), n in pairs.items() if n > 1}
    assert {d["id"] for d in dropped if d["reason"] == "duplicate"} == repeated


# Unquoted CSVs reach the numpy pass of parse_prices.  Each pool mixes
# fields that pass can prove with fields it must leave to the row rules.
BULK_IDS = (
    "A", "F0001", "ab", "1", "z" * 32, "F00010", "AB", "z" * 31,
    "y" * 33, "a\tb", "x\x00", "\u00e9", " A", "A ", "A B", "", "\x7f", "F000 1", "z" * 31 + " ",
)
BULK_DATES = (
    "2001-01-31", "2001-12-31", "2004-02-29", "2001-1-31", "20010131", "2001-02-30",
    "0000-01-01", "2001-13-01", " 2001-01-31", "2001/01/31", "",
    "2001-0a-31", "200:-01-31", "2001-01-3/", "2O01-01-31",  # one non-digit: ':' and '/' flank the digits
)
BULK_PRICES = (
    "5.", ".5", "007.5", "1e5", "+1", "1_0", " 1.5", "Infinity", "0", "0.000", "nan", "",
    ".", "1.2.3", "-1", "12.5", "1.02", "9007199254740992", "9007199254740993",
    "90071992547409.93", "0.9007199254740993", "123456789012345678", "1234567890123456789",
)


def digit_strings(min_digits=1, max_digits=20):
    """Digit strings, some with a '.' somewhere, mantissas near 2**53 included."""
    digits = st.text("0123456789", min_size=min_digits, max_size=max_digits) | st.integers(
        2**53 - 50, 2**53 + 50
    ).map(str) | st.integers(10**15, 10**19 - 1).map(str)

    def place_dot(text, at):
        return text if at is None else text[: at % (len(text) + 1)] + "." + text[at % (len(text) + 1) :]

    return st.builds(place_dot, digits, st.none() | st.integers(0, 20))


@st.composite
def unquoted_csv(draw):
    """A price CSV without quotes, in mixed line endings, and the block size to read it in."""
    names = list(REQUIRED)
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), "volume")
    draw(st.randoms(use_true_random=False)).shuffle(names)
    price = st.sampled_from(BULK_PRICES) | digit_strings()
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "space", "short", "long"]))
        values = {
            "id": draw(st.sampled_from(BULK_IDS[:5]) | st.sampled_from(BULK_IDS)),
            "date": draw(st.sampled_from(BULK_DATES[:3]) | st.sampled_from(BULK_DATES)),
            "close": draw(price),
            "adjfactor": draw(st.sampled_from(["1", "2", "0.5"]) | price),
            "retfactor": draw(st.sampled_from(["1", "1.02"]) | price),
            "volume": draw(st.sampled_from(["7", "", "\u00e9", "a\tb"])),
        }
        fields = [values[name] for name in names]
        if kind == "short":
            fields = fields[: draw(st.integers(1, len(fields) - 1))]
        elif kind == "long":
            fields.append("9")
        lines.append({"blank": "", "space": " "}.get(kind, ",".join(fields)))
    if draw(st.integers(0, 9)) == 0:  # a quoted field over two lines: csv.reader from there on
        at = draw(st.integers(1, len(lines)))
        lines[at:at] = ['A,2001-01-31,"1', '0",1,1' + ",7" * (len(names) - 5)]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    block = draw(st.integers(1, 64) | st.just(1 << 20))
    return "".join(line + end for line, end in zip(lines, ends)), block


def sorted_rows(panel):
    """The panel's rows as a sorted list of (id, date, close, adjfactor, retfactor), prices in hex."""
    return sorted(
        zip(
            [panel.ids[k] for k in panel.instrument.tolist()],
            panel.date.tolist(),
            map(float.hex, panel.close.tolist()),
            map(float.hex, panel.adjfactor.tolist()),
            map(float.hex, panel.retfactor.tolist()),
        )
    )


def panel_view(result):
    panel = result.records
    columns = [panel.instrument, panel.date, panel.close, panel.adjfactor, panel.retfactor]
    return panel.ids, [c.dtype.str for c in columns], sorted_rows(panel), result.rejects


def check_numpy_pass(text, block):
    """Assert the block-wise parse agrees with the row rules and the reference; return tags."""
    accepted_by_rules = []

    def counted(*args):
        values = row_values(*args)
        accepted_by_rules.append(values is not None)
        return values

    row_values = pipeline._row_values
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_BLOCK_CHARS", block)
        patch.setattr(pipeline, "_row_values", counted)
        got = parse_prices(io.StringIO(text, newline=""))
        bulk = len(got.records) - sum(accepted_by_rules)
        by_rows = parse_prices(list(io.StringIO(text, newline="")))  # csv.reader and row rules only
    # Rows come block by block, so they are compared as multisets, bit
    # for bit; rejects keep their line numbers and input order.
    assert panel_view(got) == panel_view(by_rows)

    expected = ref.parse_prices(io.StringIO(text, newline=""))
    assert got.rejects == expected.rejects
    assert sorted_rows(got.records) == sorted(
        (r.instrument_id, r.date, r.close_unadjusted.hex(), r.adj_factor.hex(), r.ret_factor.hex())
        for r in expected.records
    )
    tags = {f"reject:{r.reason.split(':')[0]}" for r in got.rejects}
    tags |= {"numpy pass"} if bulk else set()
    tags |= {"row rules"} if bulk < len(got.records) else set()
    tags |= {"several blocks"} if block < len(text) // 2 else set()
    tags |= {"quoted"} if '"' in text else set()
    tags |= {name for name, end in (("crlf", "\r\n"), ("cr", "\r")) if end in text}
    return tags


# At 8 characters a block each line is a block of its own, so the numpy
# pass codes the second id blocks after the one it differs from only in a
# 32nd byte; in either order.
PREFIX_CASES = [
    ("\n".join([",".join(REQUIRED), f"{a},2001-01-31,1,1,1", f"{b},2001-01-31,2,1,1"]) + "\n", 8)
    for a, b in (("z" * 32, "z" * 31), ("z" * 31, "z" * 32))
]
# Ids whose one space is in a late column or is the 32nd byte: the row
# rules keep the first id as it is and strip the second.
SPACE_CASE = ("\n".join([",".join(REQUIRED), "F000 1,2001-01-31,1,1,1", "z" * 31 + " ,2001-01-31,2,1,1"]) + "\n", 64)


def test_numpy_pass_matches_row_rules_and_reference():
    seen = Counter()

    @settings(max_examples=200)
    @given(unquoted_csv())
    @example(PREFIX_CASES[0])
    @example(PREFIX_CASES[1])
    @example(SPACE_CASE)
    def check(case):
        seen.update(check_numpy_pass(*case))

    check()
    for tag in (
        "numpy pass", "row rules", "several blocks", "quoted", "crlf", "cr",
        "reject:empty id", "reject:non-positive close", "reject:non-positive adjfactor",
        "reject:non-positive retfactor", "reject:could not convert string to float",
        "reject:float() argument must be a string or a real number, not 'NoneType'",
        "reject:day is out of range for month", "reject:Invalid isoformat string",
        "reject:year 0 is out of range", "reject:month must be in 1..12",
    ):
        assert seen[tag], tag


@settings(max_examples=500)
@given(
    st.lists(
        digit_strings(0, 21) | st.sampled_from(BULK_PRICES + ("0" * 18 + "7",)), min_size=1, max_size=30
    )
)
def test_decimal_kernel_matches_float(texts):
    raw = ",".join(texts).encode("utf-8")
    bounds = np.cumsum([0] + [len(t.encode("utf-8")) + 1 for t in texts])
    values, ok = pipeline._decimals(np.frombuffer(raw, dtype=np.uint8), bounds[:-1], bounds[1:] - 1)
    for text, value, proven in zip(texts, values.tolist(), ok.tolist()):
        digits = text.replace(".", "", 1)
        plain = len(text) <= 19 and len(digits) > 0 and set(digits) <= set("0123456789")
        assert proven == (plain and int(digits) <= 2**53), text
        if proven:
            assert value.hex() == float(text).hex(), text


# dddd-dd-dd texts: year 0000-9999, month and day 00-99, weighted towards
# real months and the days around a month's end.  Some have one printable
# non-digit at a digit place, most often ':' or '/', the bytes just past
# either end of the digits.
DIGIT_DATES = st.builds(
    "{:04d}-{:02d}-{:02d}".format,
    st.integers(0, 9999),
    st.integers(1, 12) | st.integers(0, 99),
    st.integers(27, 32) | st.integers(0, 99),
)
ISO_TEXTS = DIGIT_DATES | st.builds(
    lambda text, at, char: text[:at] + char + text[at + 1 :],
    DIGIT_DATES,
    st.sampled_from((0, 1, 2, 3, 5, 6, 8, 9)),
    st.sampled_from(":/") | st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters="0123456789"),
)


@settings(max_examples=500)
@given(st.lists(ISO_TEXTS, min_size=1, max_size=30))
@example(["1900-02-29"])
@example(["2000-02-29"])
@example(["2004-02-29"])
@example(["0000-01-01"])
@example(["9999-12-31"])
@example(["2001-04-31"])
@example(["2001-13-01"])
@example(["2001-0a-31", "200:-01-31", "2001-01-3/", "2O01-01-31"])
def test_iso_dates_match_fromisoformat(texts):
    raw = ",".join(texts).encode("ascii")
    bounds = np.arange(len(texts) + 1) * 11
    days, ok = pipeline._iso_dates(np.frombuffer(raw, dtype=np.uint8), bounds[:-1], bounds[1:] - 1)
    assert days.dtype == np.dtype("M8[D]")
    for text, day, proven in zip(texts, days.tolist(), ok.tolist()):
        try:
            want = dt.date.fromisoformat(text)
        except ValueError:
            want = None
        assert proven == (want is not None), text
        if proven:
            assert day == want, text


@given(st.lists(st.dates(), min_size=1, max_size=30))
@example([dt.date(1, 1, 1), dt.date(1969, 12, 31), dt.date(1970, 1, 1), dt.date(9999, 12, 31)])
def test_month_and_year_casts_match_the_calendar(dates):
    # clean_panel's monthly periods and build_stream's years, pre-1970 days included.
    days = np.array(dates, dtype="M8[D]")
    assert (days.astype("M8[M]").view(np.int64) + 1970 * 12).tolist() == [d.year * 12 + d.month - 1 for d in dates]
    assert (days.astype("M8[Y]").view(np.int64) + 1970).tolist() == [d.year for d in dates]
