"""Price ingestion, cleaning, return computation, and stream assembly.

The input is a long-format CSV of per-instrument price observations
(columns ``id,date,close,adjfactor,retfactor``), read into one columnar
``Panel``.  Instruments with holes in their observation history, or with
too short a history, are dropped with an audit trail.  Surviving price
paths are adjusted, turned into log returns, binarised against a median,
and arranged into the two experiment streams: one binary sequence per
instrument, or one per calendar year with instruments concatenated
firm-major.  Every stage after the CSV row loop works on whole columns.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from typing import IO, Iterable, NamedTuple

import numpy as np

from marketrng.serial import BinarySequence

MIN_OBS = {"monthly": 12, "daily": 252}
REQUIRED_COLUMNS = ("id", "date", "close", "adjfactor", "retfactor")
_INF = float("inf")


class FormatError(ValueError):
    """Raised when an input file violates the expected schema."""


def _sorted_codes(codes: np.ndarray, values: list) -> tuple[np.ndarray, list]:
    """Re-code ``codes`` (indices into ``values``) against the sorted used values."""
    used = np.bincount(codes, minlength=len(values)) > 0
    table = sorted({values[k] for k in np.flatnonzero(used).tolist()})
    rank = {v: k for k, v in enumerate(table)}
    remap = np.array([rank.get(v, -1) for v in values], dtype=np.intp)
    return remap[codes], table


@dataclass(frozen=True)
class Panel:
    """Price observations as columns, one entry per row.

    ``instrument`` and ``date`` index the sorted ``ids`` and ``dates``
    tables, which hold only values some row uses, so code order is id
    order and date order.  ``line`` is each row's source line number.
    """

    ids: list[str]
    dates: list[dt.date]
    instrument: np.ndarray
    date: np.ndarray
    close: np.ndarray
    adjfactor: np.ndarray
    retfactor: np.ndarray
    line: np.ndarray

    def __len__(self) -> int:
        return int(self.instrument.size)

    def adjusted_prices(self) -> np.ndarray:
        """Split/dividend-adjusted close: close * adjfactor / retfactor."""
        return self.close * self.adjfactor / self.retfactor

    def take(self, rows: np.ndarray) -> Panel:
        """The given rows, in that order, with the tables cut to what they use."""
        instrument, ids = _sorted_codes(self.instrument[rows], self.ids)
        date, dates = _sorted_codes(self.date[rows], self.dates)
        prices = (self.close[rows], self.adjfactor[rows], self.retfactor[rows])
        return Panel(ids, dates, instrument, date, *prices, self.line[rows])


@dataclass(frozen=True)
class Returns:
    """Log returns of a cleaned panel, coded as in ``Panel`` and dated by the later price."""

    ids: list[str]
    dates: list[dt.date]
    instrument: np.ndarray
    date: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ExperimentStream:
    """Binary sequences for one experiment plus per-sequence provenance."""

    kind: str
    sequences: list[BinarySequence]
    provenance: list[dict]
    audit: list[dict] = field(default_factory=list)


class RowReject(NamedTuple):
    line: int
    reason: str


class ParseResult(NamedTuple):
    records: Panel  # the accepted rows, in input order
    rejects: list[RowReject]


class BinariseResult(NamedTuple):
    bits: np.ndarray
    median: float
    degenerate: bool


def parse_prices(stream: IO[str] | Iterable[str]) -> ParseResult:
    """Parse a price CSV, collecting unparsable rows instead of dropping them.

    The header must contain ``id,date,close,adjfactor,retfactor`` in any
    case and order (extra columns are ignored; of repeated names the last
    column wins); dates are ISO ``YYYY-MM-DD``.  Blank lines are skipped
    and short rows read as missing fields.  A row is rejected unless its
    id is non-empty, its date parses, and close, adjfactor, retfactor and
    the adjusted price are finite and positive.  Each reject carries the
    1-based physical line number of the offending row.
    """
    from array import array  # here, so commands that read no CSV never load it

    reader = csv.reader(stream)
    fieldnames = next(reader, None)
    if fieldnames is None:
        raise FormatError("empty input: no header row")
    column = {name.strip().lower(): j for j, name in enumerate(fieldnames) if name}
    missing = [col for col in REQUIRED_COLUMNS if col not in column]
    if missing:
        raise FormatError(f"missing required column(s): {', '.join(missing)}")
    i_id, i_date, i_close, i_adj, i_ret = (column[col] for col in REQUIRED_COLUMNS)
    width = max(column[col] for col in REQUIRED_COLUMNS) + 1

    id_codes: dict[str, int] = {}
    date_codes: dict[str | None, int] = {}  # date text -> index into parsed_dates
    parsed_dates: list[dt.date] = []
    instrument, date, line, prices = array("q"), array("q"), array("q"), array("d")
    rejects: list[RowReject] = []
    for row in reader:
        if not row:  # blank line
            continue
        if len(row) < width:  # missing fields read as None, as csv.DictReader pads them
            row += [None] * (width - len(row))
        try:
            name = (row[i_id] or "").strip()
            if not name:
                raise ValueError("empty id")
            text = row[i_date]
            day = date_codes.get(text)
            if day is None:
                parsed_dates.append(dt.date.fromisoformat((text or "").strip()))
                day = date_codes[text] = len(parsed_dates) - 1
            c, a, r = float(row[i_close]), float(row[i_adj]), float(row[i_ret])
            if not 0.0 < c < _INF:
                raise ValueError("non-positive close")
            if not 0.0 < a < _INF:
                raise ValueError("non-positive adjfactor")
            if not 0.0 < r < _INF:
                raise ValueError("non-positive retfactor")
            if not 0.0 < c * a / r < _INF:
                raise ValueError("adjusted price out of range")
        except (TypeError, ValueError) as exc:
            rejects.append(RowReject(line=reader.line_num, reason=str(exc)))
            continue
        instrument.append(id_codes.setdefault(name, len(id_codes)))
        date.append(day)
        line.append(reader.line_num)
        prices.extend((c, a, r))

    codes, ids = _sorted_codes(np.frombuffer(instrument, dtype=np.int64), list(id_codes))
    days, dates = _sorted_codes(np.frombuffer(date, dtype=np.int64), parsed_dates)
    close, adj, ret = np.frombuffer(prices, dtype=np.float64).reshape(-1, 3).T.copy()
    panel = Panel(ids, dates, codes, days, close, adj, ret, np.frombuffer(line, dtype=np.int64))
    return ParseResult(records=panel, rejects=rejects)


def _runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of consecutive rows equal in every key."""
    change = np.zeros(max(keys[0].size - 1, 0), dtype=bool)
    for key in keys:
        change |= key[1:] != key[:-1]
    starts = np.flatnonzero(np.r_[keys[0].size > 0, change])
    return starts, np.diff(np.r_[starts, keys[0].size])


def clean_panel(
    panel: Panel, frequency: str = "monthly", gap_scope: str = "life"
) -> tuple[Panel, list[dict]]:
    """Drop instruments with gapped or too-short histories.

    An instrument is dropped when two of its records fall in one period
    (reason ``duplicate``), when any period between its first and last
    observation lacks a record (reason ``gap``), or when it has fewer
    than a year's worth of observations (reason ``short``; 12 monthly or
    252 daily), checked in that order.  With ``gap_scope="dataset"`` the
    gap test spans the full panel window instead of each instrument's
    own life.  Daily periods are ranks in the union of dates present.
    Returns the kept rows sorted by instrument id, then date, and the
    audit list in id order; never raises on data content.
    """
    if frequency not in MIN_OBS:
        raise ValueError(f"frequency must be one of {sorted(MIN_OBS)}, got {frequency!r}")
    if gap_scope not in ("life", "dataset"):
        raise ValueError(f"gap_scope must be 'life' or 'dataset', got {gap_scope!r}")

    order = np.lexsort((panel.date, panel.instrument))
    instrument, period = panel.instrument[order], panel.date[order]  # daily: trading-day index
    if frequency == "monthly":
        period = np.array([d.year * 12 + d.month - 1 for d in panel.dates], dtype=np.int64)[period]
    starts, sizes = _runs(instrument)
    if not starts.size:
        return panel.take(order), []

    lo, hi = period[starts], period[starts + sizes - 1]
    first, last = (lo, hi) if gap_scope == "life" else (period.min(), period.max())
    repeat = np.r_[False, (np.diff(period) == 0) & (instrument[1:] == instrument[:-1])]
    duplicate = np.logical_or.reduceat(repeat, starts)
    gap = (hi - lo + 1 != sizes) | (lo != first) | (hi != last)
    short = sizes < MIN_OBS[frequency]
    drop = duplicate | gap | short

    dropped: list[dict] = []
    for g in np.flatnonzero(drop).tolist():
        if duplicate[g]:
            reason, detail = "duplicate", "multiple records in one period"
        elif gap[g]:
            span = (lo[g], hi[g]) if gap_scope == "life" else (first, last)
            own = period[starts[g] : starts[g] + sizes[g]] - span[0]  # distinct, ascending
            hole = np.flatnonzero(own != np.arange(own.size))
            missing = span[0] + (hole[0] if hole.size else own.size)
            reason, detail = "gap", f"missing period index {missing} in span {span[0]}..{span[1]}"
        else:
            reason, detail = "short", f"{sizes[g]} observations, need {MIN_OBS[frequency]}"
        dropped.append({"id": panel.ids[instrument[starts[g]]], "reason": reason, "detail": detail})
    return panel.take(order[np.repeat(~drop, sizes)]), dropped


def compute_return_series(panel: Panel) -> Returns:
    """Adjusted log returns of every instrument of a cleaned panel.

    The panel must be sorted by instrument, with strictly increasing
    dates and at least two rows per instrument, as ``clean_panel``
    leaves it.  Each instrument's first row yields no return.
    """
    instrument, date = panel.instrument, panel.date
    same = instrument[1:] == instrument[:-1]
    if np.any(instrument[1:] < instrument[:-1]) or np.any(date[1:][same] <= date[:-1][same]):
        raise ValueError("rows must be sorted by instrument with strictly increasing dates")
    if np.any(_runs(instrument)[1] < 2):
        raise ValueError("need at least two prices per instrument")
    prices = panel.adjusted_prices()
    if not np.all((prices > 0.0) & (prices < _INF)):
        raise ValueError("prices must be positive and finite")
    values = np.log(prices[1:][same] / prices[:-1][same])
    return Returns(panel.ids, panel.dates, instrument[1:][same], date[1:][same], values)


def _binarise_runs(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
    """Bits, medians and degenerate flags of every run of ``values``.

    Medians are read by position from one sort by (run, value): the middle
    element of an odd run, the midpoint of the central pair of an even one.
    """
    run = np.repeat(np.arange(starts.size), sizes)
    ranked = values[np.lexsort((values, run))]
    median = ranked[starts + (sizes - 1) // 2]
    even = sizes % 2 == 0
    median[even] = (median[even] + ranked[(starts + sizes // 2)[even]]) / 2
    bits = (values > median[run]).astype(np.uint8)
    ones = np.add.reduceat(bits, starts, dtype=np.int64) if starts.size else starts
    return bits, median.tolist(), (ones == 0).tolist()


def binarise_median(returns) -> BinariseResult:
    """1 where a return strictly exceeds the array median, else 0.

    Even-length medians are the midpoint of the central pair, so inputs
    with distinct values come out balanced up to an offset of one.  Ties
    at the median map to 0; an all-zero outcome (constant or tie-heavy
    input) raises the ``degenerate`` flag.
    """
    arr = np.asarray(returns, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two returns to binarise")
    bits, median, degenerate = _binarise_runs(arr, np.array([0]), np.array([arr.size]))
    return BinariseResult(bits=bits, median=median[0], degenerate=degenerate[0])


def build_stream(returns: Returns, kind: str) -> ExperimentStream:
    """Arrange binarised returns into firm- or year-separated sequences.

    Firm-separated: one sequence per instrument, binarised against its
    full-history median.  Year-separated: each instrument-year segment is
    binarised against that segment's own median; segments are then
    concatenated in ascending instrument order into one sequence per
    year, with joins recorded in ``segment_bounds``.  Segments with fewer
    than two returns cannot be binarised and are skipped with an audit
    entry; a year left with no qualifying segment yields no sequence and
    an ``empty_year`` audit entry, after the segment entries.
    """
    if kind not in ("firm_separated", "year_separated"):
        raise ValueError(f"unknown stream kind {kind!r}")
    years = np.array([d.year for d in returns.dates], dtype=np.int64)[returns.date]
    firm = kind == "firm_separated"
    starts, sizes = _runs(returns.instrument) if firm else _runs(returns.instrument, years)
    if firm and np.any(sizes < 2):
        raise ValueError("need at least two returns to binarise")
    bits, median, degenerate = _binarise_runs(returns.values, starts, sizes)
    names = [returns.ids[k] for k in returns.instrument[starts].tolist()]
    lengths = sizes.tolist()
    meta = [
        {"source_id": name, "n_bits": n, "median": m, "degenerate": d}
        for name, n, m, d in zip(names, lengths, median, degenerate)
    ]

    if firm:
        iso = [d.isoformat() for d in returns.dates]
        ends = zip(returns.date[starts].tolist(), returns.date[starts + sizes - 1].tolist())
        sequences, provenance = [], []
        for a, (first, last), m in zip(starts.tolist(), ends, meta):
            sequences.append(BinarySequence(bits[a : a + m["n_bits"]], m["source_id"]))
            dates = {"first_date": iso[first], "last_date": iso[last]}
            provenance.append({"source_id": m["source_id"], **dates, **m})
        return ExperimentStream(kind=kind, sequences=sequences, provenance=provenance)

    segment_year = years[starts]
    audit = [
        {"id": names[k], "reason": "short_segment", "detail": f"{n} return(s) in {segment_year[k]}"}
        for k, n in enumerate(lengths)
        if n < 2
    ]
    empty = np.setdiff1d(segment_year, segment_year[sizes >= 2]).tolist()
    audit += [{"id": str(y), "reason": "empty_year", "detail": "no qualifying segment"} for y in empty]
    # Usable segments and their bits in year-major order; the stable sorts
    # keep instruments ascending within a year and dates within a segment.
    usable = np.flatnonzero(sizes >= 2)
    usable = usable[np.argsort(segment_year[usable], kind="stable")]
    rows = np.flatnonzero(np.repeat(sizes >= 2, sizes))
    year_bits = bits[rows[np.argsort(years[rows], kind="stable")]]
    sequences, provenance, offset = [], [], 0
    for a, n in zip(*(x.tolist() for x in _runs(segment_year[usable]))):
        members = usable[a : a + n].tolist()
        year, widths = int(segment_year[members[0]]), [lengths[k] for k in members]
        total = sum(widths)
        bounds = tuple(np.cumsum(widths)[:-1].tolist())
        sequences.append(BinarySequence(year_bits[offset : offset + total], str(year), bounds))
        segments = [meta[k] for k in members]
        provenance.append({"source_id": str(year), "year": year, "n_bits": total, "segments": segments})
        offset += total
    return ExperimentStream(kind=kind, sequences=sequences, provenance=provenance, audit=audit)


class ColumnSums(NamedTuple):
    values: np.ndarray
    rows_included: int
    rows_excluded: int


def monthly_column_sums(year_seq: BinarySequence, months_per_row: int) -> ColumnSums:
    """Per-month one-counts of a year sequence, one row per full segment.

    Segments whose length differs from ``months_per_row`` (instruments
    entering or leaving mid-year) are excluded from the reshape and
    reported in ``rows_excluded``.
    """
    if months_per_row < 1:
        raise ValueError("months_per_row must be positive")
    sizes = year_seq.segment_lengths()
    full = sizes == months_per_row
    rows = int(full.sum())
    if not rows:
        raise ValueError("no segment of the requested length")
    bits = year_seq.bits[np.repeat(full, sizes)].reshape(rows, months_per_row)
    sums = bits.sum(axis=0, dtype=np.int64)
    return ColumnSums(values=sums, rows_included=rows, rows_excluded=sizes.size - rows)
