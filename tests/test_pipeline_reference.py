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
import json
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pipeline as ref
from marketrng.pipeline import (
    binarise_median,
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
            text = day.isoformat() if rng.random() < 0.8 else day.strftime("%Y%m%d")
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
            [kept.dates[k] for k in kept.date.tolist()],
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
        returns.append((name, tuple(series.dates[d] for d in series.date[mine].tolist()),
                        series.values[mine].tobytes()))
    return parsed.rejects, dropped, rows, returns, series


def stream_view(stream):
    return (
        [(s.source_id, s.bits.tolist(), s.segment_bounds) for s in stream.sequences],
        json.dumps(stream.provenance),  # float reprs: equal strings, equal bits
        stream.audit,
    )


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
        segments = [m["n_bits"] for p in stream.provenance for m in p["segments"]]
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
    result = binarise_median(values)
    median = float(np.median(np.asarray(values)))
    assert result.median == median
    assert result.bits.tolist() == [int(v > median) for v in values]
