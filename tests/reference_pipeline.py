"""Scalar reference for the price pipeline: one object per row.

A copy of the per-row ``parse_prices`` / ``clean_panel`` /
``compute_return_series`` / ``build_stream`` path that the columnar
``marketrng.pipeline`` replaced: ``csv.DictReader`` rows become
``PriceRecord`` objects, instruments are grouped in a dict, returns are
computed one instrument at a time and every median is one ``np.median``
call.  The differential tests require the columnar pipeline to agree
with it exactly.  Rules added since the copy was taken: the reject of
rows whose adjusted price is not finite and positive; the date shape,
exactly ten ASCII characters dddd-dd-dd (``date.fromisoformat`` takes
more from Python 3.11 on); and one reason for a missing price field on
every Python (3.10 words the ``float(None)`` message differently).

The end of the file keeps two later forms the columnar path replaced:
the run medians read from one ``np.lexsort``, and the per-row f-string
writer of ``cleaned.csv``.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, NamedTuple

import numpy as np

from marketrng.pipeline import ExperimentStream, FormatError
from marketrng.serial import BinarySequence

MIN_OBS = {"monthly": 12, "daily": 252}
REQUIRED_COLUMNS = ("id", "date", "close", "adjfactor", "retfactor")


@dataclass(frozen=True)
class PriceRecord:
    """One instrument-date observation with vendor adjustment factors."""

    instrument_id: str
    date: dt.date
    close_unadjusted: float
    adj_factor: float
    ret_factor: float


@dataclass(frozen=True)
class ReturnSeries:
    """Ordered log returns of one instrument (dates mark the later period)."""

    instrument_id: str
    frequency: str
    dates: tuple[dt.date, ...]
    returns: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.returns, dtype=float)
        if arr.ndim != 1:
            raise ValueError("returns must be one-dimensional")
        if len(self.dates) != arr.size:
            raise ValueError("dates and returns must have equal length")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "returns", arr)
        object.__setattr__(self, "dates", tuple(self.dates))


class RowReject(NamedTuple):
    line: int
    reason: str


class ParseResult(NamedTuple):
    records: list[PriceRecord]
    rejects: list[RowReject]


class BinariseResult(NamedTuple):
    bits: np.ndarray
    median: float
    degenerate: bool


def parse_prices(stream: IO[str] | Iterable[str]) -> ParseResult:
    """Parse a price CSV, collecting unparsable rows instead of dropping them.

    The header must contain ``id,date,close,adjfactor,retfactor`` (extra
    columns are ignored); dates are ISO ``YYYY-MM-DD``.  Each reject
    carries the 1-based physical line number of the offending row.
    """
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise FormatError("empty input: no header row")
    header = {name.strip().lower(): name for name in reader.fieldnames if name}
    missing = [col for col in REQUIRED_COLUMNS if col not in header]
    if missing:
        raise FormatError(f"missing required column(s): {', '.join(missing)}")

    records: list[PriceRecord] = []
    rejects: list[RowReject] = []
    for row in reader:
        line = reader.line_num
        try:
            instrument = (row[header["id"]] or "").strip()
            if not instrument:
                raise ValueError("empty id")
            text = (row[header["date"]] or "").strip()
            digits = text[:4] + text[5:7] + text[8:]
            if not (len(text) == 10 and text[4] + text[7] == "--" and digits.isascii() and digits.isdigit()):
                raise ValueError(f"Invalid isoformat string: {text!r}")
            date = dt.date.fromisoformat(text)
            fields = [row[header[name]] for name in ("close", "adjfactor", "retfactor")]
            for field in fields:  # in order, so the first bad field names the reason
                if field is None:
                    raise TypeError("float() argument must be a string or a real number, not 'NoneType'")
                float(field)
            close, adj, ret = map(float, fields)
            for name, value in (("close", close), ("adjfactor", adj), ("retfactor", ret)):
                if not math.isfinite(value) or value <= 0.0:
                    raise ValueError(f"non-positive {name}")
            price = close * adj / ret
            if not math.isfinite(price) or price <= 0.0:
                raise ValueError("adjusted price out of range")
        except (TypeError, ValueError) as exc:
            rejects.append(RowReject(line=line, reason=str(exc)))
            continue
        records.append(
            PriceRecord(
                instrument_id=instrument,
                date=date,
                close_unadjusted=close,
                adj_factor=adj,
                ret_factor=ret,
            )
        )
    return ParseResult(records=records, rejects=rejects)


def _period_index(date: dt.date, frequency: str, calendar: Mapping[dt.date, int] | None) -> int:
    if frequency == "monthly":
        return date.year * 12 + (date.month - 1)
    assert calendar is not None
    return calendar[date]


def clean_panel(
    records: Iterable[PriceRecord],
    frequency: str = "monthly",
    gap_scope: str = "life",
) -> tuple[dict[str, list[PriceRecord]], list[dict]]:
    """Drop instruments with gapped or too-short histories.

    An instrument is dropped when any period between its first and last
    observation lacks a record (reason ``gap``), or when it has fewer
    than a year's worth of observations (reason ``short``; 12 monthly or
    252 daily).  With ``gap_scope="dataset"`` the gap test spans the full
    panel window instead of each instrument's own life.  Daily periods
    follow the trading calendar inferred from the union of dates present
    in the input.  Returns the kept panel (sorted by instrument id) and
    the audit list; never raises on data content.
    """
    if frequency not in MIN_OBS:
        raise ValueError(f"frequency must be one of {sorted(MIN_OBS)}, got {frequency!r}")
    if gap_scope not in ("life", "dataset"):
        raise ValueError(f"gap_scope must be 'life' or 'dataset', got {gap_scope!r}")

    by_id: dict[str, list[PriceRecord]] = defaultdict(list)
    for rec in records:
        by_id[rec.instrument_id].append(rec)

    calendar: dict[dt.date, int] | None = None
    if frequency == "daily":
        all_dates = sorted({rec.date for recs in by_id.values() for rec in recs})
        calendar = {d: i for i, d in enumerate(all_dates)}

    global_span: tuple[int, int] | None = None
    if gap_scope == "dataset" and by_id:
        periods = [
            _period_index(rec.date, frequency, calendar)
            for recs in by_id.values()
            for rec in recs
        ]
        global_span = (min(periods), max(periods))

    kept: dict[str, list[PriceRecord]] = {}
    dropped: list[dict] = []
    for instrument in sorted(by_id):
        recs = sorted(by_id[instrument], key=lambda r: r.date)
        periods = [_period_index(r.date, frequency, calendar) for r in recs]
        if len(set(periods)) != len(periods):
            dropped.append(
                {"id": instrument, "reason": "duplicate", "detail": "multiple records in one period"}
            )
            continue
        first, last = periods[0], periods[-1]
        if global_span is not None:
            first, last = global_span
        expected = last - first + 1
        if len(periods) != expected or periods[0] != first or periods[-1] != last:
            have = set(periods)
            missing = next(p for p in range(first, last + 1) if p not in have)
            dropped.append(
                {
                    "id": instrument,
                    "reason": "gap",
                    "detail": f"missing period index {missing} in span {first}..{last}",
                }
            )
            continue
        if len(recs) < MIN_OBS[frequency]:
            dropped.append(
                {
                    "id": instrument,
                    "reason": "short",
                    "detail": f"{len(recs)} observations, need {MIN_OBS[frequency]}",
                }
            )
            continue
        kept[instrument] = recs
    return kept, dropped


def adjust_price(rec: PriceRecord) -> float:
    """Split/dividend-adjusted close: unadjusted * adj_factor / ret_factor."""
    if rec.close_unadjusted <= 0 or rec.adj_factor <= 0 or rec.ret_factor <= 0:
        raise ValueError("price and adjustment factors must be positive")
    return rec.close_unadjusted * rec.adj_factor / rec.ret_factor


def log_returns(prices) -> np.ndarray:
    """Natural log of consecutive price ratios; output is one shorter."""
    arr = np.asarray(prices, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two prices")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("prices must be positive and finite")
    return np.log(arr[1:] / arr[:-1])


def compute_return_series(
    records: list[PriceRecord], frequency: str = "monthly"
) -> ReturnSeries:
    """Adjusted log-return series of one cleaned instrument history."""
    recs = sorted(records, key=lambda r: r.date)
    prices = [adjust_price(r) for r in recs]
    returns = log_returns(prices)
    return ReturnSeries(
        instrument_id=recs[0].instrument_id,
        frequency=frequency,
        dates=tuple(r.date for r in recs[1:]),
        returns=returns,
    )


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
    med = float(np.median(arr))
    bits = (arr > med).astype(np.uint8)
    return BinariseResult(bits=bits, median=med, degenerate=not bool(bits.any()))


def build_stream(
    series_by_id: Mapping[str, ReturnSeries], kind: str
) -> ExperimentStream:
    """Arrange binarised returns into firm- or year-separated sequences.

    Firm-separated: one sequence per instrument, binarised against its
    full-history median.  Year-separated: each instrument-year segment is
    binarised against that segment's own median; segments are then
    concatenated in ascending instrument order into one sequence per
    year, with joins recorded in ``segment_bounds``.  Segments with fewer
    than two returns cannot be binarised and are skipped with an audit
    entry, as are years left with no qualifying segment.
    """
    if kind not in ("firm_separated", "year_separated"):
        raise ValueError(f"unknown stream kind {kind!r}")
    audit: list[dict] = []

    if kind == "firm_separated":
        sequences = [
            BinarySequence(bits=binarise_median(series_by_id[name].returns).bits, source_id=name)
            for name in sorted(series_by_id)
        ]
        return ExperimentStream(kind=kind, sequences=sequences, audit=audit)

    per_year: dict[int, list[np.ndarray]] = defaultdict(list)
    for instrument in sorted(series_by_id):
        series = series_by_id[instrument]
        years = np.array([d.year for d in series.dates])
        for year in sorted(set(years.tolist())):
            segment = series.returns[years == year]
            entries = per_year[year]  # a year with only short segments stays, empty
            if segment.size < 2:
                audit.append(
                    {
                        "id": instrument,
                        "reason": "short_segment",
                        "detail": f"{segment.size} return(s) in {year}",
                    }
                )
                continue
            entries.append(binarise_median(segment).bits)

    sequences = []
    for year in sorted(per_year):
        entries = per_year[year]
        if not entries:
            audit.append({"id": str(year), "reason": "empty_year", "detail": "no qualifying segment"})
            continue
        bits = np.concatenate(entries)
        bounds = np.cumsum([b.size for b in entries])[:-1]
        sequences.append(
            BinarySequence(
                bits=bits,
                source_id=str(year),
                segment_bounds=tuple(int(b) for b in bounds),
            )
        )
    return ExperimentStream(kind=kind, sequences=sequences, audit=audit)


def binarise_runs_lexsort(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
    """Bits, medians and degenerate flags of every run, from one sort by (run, value)."""
    run = np.repeat(np.arange(starts.size), sizes)
    ranked = values[np.lexsort((values, run))]
    median = ranked[starts + (sizes - 1) // 2]
    even = sizes % 2 == 0
    median[even] = (median[even] + ranked[(starts + sizes // 2)[even]]) / 2
    bits = (values > median[run]).astype(np.uint8)
    ones = np.add.reduceat(bits, starts, dtype=np.int64) if starts.size else starts
    return bits, median.tolist(), (ones == 0).tolist()


def write_cleaned(path, panel, rows_per_write: int = 1 << 16) -> None:
    """``cleaned.csv`` as ``ingest`` wrote it, one f-string per row and ids unquoted."""
    ids = panel.ids
    columns = (panel.instrument, panel.date, panel.close, panel.adjfactor, panel.retfactor)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,date,close,adjfactor,retfactor\n")
        for lo in range(0, len(panel), rows_per_write):
            block = zip(*(col[lo : lo + rows_per_write].tolist() for col in columns))
            lines = (f"{ids[i]},{d.isoformat()},{c!r},{a!r},{r!r}\n" for i, d, c, a, r in block)
            handle.write("".join(lines))
