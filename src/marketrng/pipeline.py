"""Price ingestion, cleaning, return computation, and stream assembly.

The input is a long-format CSV of per-instrument price observations
(columns ``id,date,close,adjfactor,retfactor``), read into one columnar
``Panel``.  Instruments with holes in their observation history, or with
too short a history, are dropped with an audit trail.  Surviving price
paths are adjusted, turned into log returns, binarised against a median,
and arranged into the two experiment streams: one binary sequence per
instrument, or one per calendar year with instruments concatenated
firm-major.  The CSV is parsed in blocks by numpy passes over its bytes,
with per-row rules only for the lines those passes cannot prove; every
later stage works on whole columns, a date being one ``datetime64[D]``
day.  ``write_cleaned`` and ``write_audit`` write the ``cleaned.csv``
and ``audit.csv`` of ``ingest``.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import re
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from marketrng.serial import STREAM_KINDS, BinarySequence, ExperimentStream

MIN_OBS = {"monthly": 12, "daily": 252}
GAP_SCOPES = ("life", "dataset")
REQUIRED_COLUMNS = ("id", "date", "close", "adjfactor", "retfactor")
_INF = float("inf")
# Text per numpy pass.  At 1 << 20 the ingest and year-respect commands
# peaked 6-8 MB higher, because freed pass buffers stay in the heap.
_BLOCK_CHARS = 1 << 18
_ROWS_PER_WRITE = 1 << 16
_POW10 = np.array([float(10**k) for k in range(19)])  # 10**k as an exact double
_POW10_INT = 10 ** np.arange(16, dtype=np.int64)  # and as an integer, to 10**15
_PAD = 255  # fills each text field to its column's width; no UTF-8 text holds this byte


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

    ``instrument`` indexes the sorted ``ids`` table, which holds only ids
    some row uses, so code order is id order.  ``date`` is each row's day
    as ``datetime64[D]``; ``date.tolist()`` gives them as ``dt.date``.
    """

    ids: list[str]
    instrument: np.ndarray
    date: np.ndarray
    close: np.ndarray
    adjfactor: np.ndarray
    retfactor: np.ndarray

    def __len__(self) -> int:
        return int(self.instrument.size)

    def adjusted_prices(self) -> np.ndarray:
        """Split/dividend-adjusted close: close * adjfactor / retfactor."""
        return self.close * self.adjfactor / self.retfactor

    def take(self, rows: np.ndarray) -> Panel:
        """The given rows, in that order, with the id table cut to the ids they use."""
        instrument, ids = _sorted_codes(self.instrument[rows], self.ids)
        prices = (self.close[rows], self.adjfactor[rows], self.retfactor[rows])
        return Panel(ids, instrument, self.date[rows], *prices)


@dataclass(frozen=True)
class Returns:
    """Log returns of a cleaned panel, coded as in ``Panel`` and dated by the later price."""

    ids: list[str]
    instrument: np.ndarray
    date: np.ndarray
    values: np.ndarray


class RowReject(NamedTuple):
    line: int
    reason: str


class ParseResult(NamedTuple):
    records: Panel  # the accepted rows, block by block (see parse_prices)
    rejects: list[RowReject]


def _row_values(row: list[str], index: tuple[int, ...], width: int, dates: dict):
    """The id, date and prices of one CSV row, or None for a blank row.

    These are the row rules, the only code that rejects a row and names
    why; the numpy pass of ``_PanelBuilder.read_block`` accepts only
    lines they are sure to accept with the same values.  Short rows read
    as missing fields.  Raises ValueError or TypeError, whose message is
    the reject reason, unless the id is non-empty after stripping, the
    date is ASCII dddd-dd-dd (on every Python) and a real day, and
    close, adjfactor, retfactor and the adjusted price are finite and
    positive.  ``dates`` caches parsed date texts.
    """
    if not row:
        return None
    if len(row) < width:  # missing fields read as None, as csv.DictReader pads them
        row = row + [None] * (width - len(row))
    i_id, i_date, i_close, i_adj, i_ret = index
    name = (row[i_id] or "").strip()
    if not name:
        raise ValueError("empty id")
    text = row[i_date]
    day = dates.get(text)
    if day is None:
        iso = (text or "").strip()
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", iso):  # 3.11's fromisoformat takes more
            raise ValueError(f"Invalid isoformat string: {iso!r}")
        day = dates[text] = dt.date.fromisoformat(iso)
    try:
        c, a, r = float(row[i_close]), float(row[i_adj]), float(row[i_ret])
    except TypeError:  # a missing field; 3.10 words float(None)'s message differently
        raise TypeError("float() argument must be a string or a real number, not 'NoneType'") from None
    if not 0.0 < c < _INF:
        raise ValueError("non-positive close")
    if not 0.0 < a < _INF:
        raise ValueError("non-positive adjfactor")
    if not 0.0 < r < _INF:
        raise ValueError("non-positive retfactor")
    if not 0.0 < c * a / r < _INF:
        raise ValueError("adjusted price out of range")
    return name, day, c, a, r


def _blocks(stream: IO[str]) -> Iterator[str]:
    """The text of ``stream`` in pieces of about ``_BLOCK_CHARS``, each ending at a line end or EOF."""
    while block := stream.read(_BLOCK_CHARS):
        yield block + stream.readline()  # also completes a \r\n split by the read


def _decimals(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the plain decimal fields, and which fields those are.

    A plain decimal has at most 19 characters, all digits but at most
    one '.', so it is an integer mantissa M over 10**k with k <= 18.
    While M <= 2**53 both are exact doubles, and one division gives the
    correctly rounded value that ``float`` returns (Clinger 1990).  M is
    built with Horner's rule, one character column of all fields at a time.
    """
    size = hi - lo
    mantissa, step = (np.zeros(size.size, dtype=np.uint64) for _ in range(2))  # 19 digits fit; int64 could wrap
    n_digit, n_dot, before_dot = (np.zeros(size.size, dtype=np.int64) for _ in range(3))
    for j in range(int(np.clip(size.max(initial=0), 0, 19))):
        inside = size > j
        char = buf.take(lo + j, mode="clip")
        value = char - np.uint8(48)  # wraps below '0'
        digit = inside & (value < 10)
        dot = inside & (char == 46)
        np.add(np.multiply(mantissa, 10, out=step), value, out=step)  # in place: no temporaries per column
        np.copyto(mantissa, step, where=digit)
        n_digit += digit
        n_dot += dot
        np.copyto(before_dot, n_digit, where=dot)
    ok = (n_digit >= 1) & (n_dot <= 1) & (n_digit + n_dot == size)
    ok &= mantissa <= 2**53
    scale = np.where(ok & (n_dot > 0), n_digit - before_dot, 0)
    return mantissa.astype(np.float64) / _POW10[scale], ok


def _iso_dates(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Days (``datetime64[D]``) of the fields of the form dddd-dd-dd, and which fields are real days.

    A day past its month's end rolls into a later month and fails the last test; year 0 fails the first.
    """
    digits = [buf.take(lo + j, mode="clip") - np.int64(48) for j in (0, 1, 2, 3, 5, 6, 8, 9)]
    ok = (hi - lo == 10) & (buf.take(lo + 4, mode="clip") == 45) & (buf.take(lo + 7, mode="clip") == 45)
    ok &= np.all([(0 <= x) & (x <= 9) for x in digits], axis=0)
    y = ((digits[0] * 10 + digits[1]) * 10 + digits[2]) * 10 + digits[3]
    m, d = digits[4] * 10 + digits[5], digits[6] * 10 + digits[7]
    month = ((y - 1970) * 12 + m - 1).astype("M8[M]")
    day = month.astype("M8[D]") + (d - 1)
    ok &= (y >= 1) & (m >= 1) & (m <= 12) & (d >= 1) & (day.astype("M8[M]") == month)
    return day, ok


def _padded(texts: list[bytes]) -> np.ndarray:
    """Byte strings as the rows of a uint8 matrix, each filled to the longest with ``_PAD``."""
    size = np.array([len(text) for text in texts], dtype=np.int64)
    out = np.full((size.size, size.max(initial=0)), _PAD, dtype=np.uint8)
    out[np.arange(out.shape[1]) < size[:, None]] = np.frombuffer(b"".join(texts), dtype=np.uint8)
    return out


@functools.cache
def _digits4() -> np.ndarray:
    """ASCII digits of 0..9999, four to a row; built on first use, so other commands never pay for it."""
    return np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).reshape(10_000, 4)


def _digits(x: np.ndarray, width: int) -> np.ndarray:
    """The last ``width`` zero-padded decimal digits of each ``x`` < 10**16, as ASCII rows."""
    groups = -(-width // 4)
    digits = np.take(_digits4(), x[:, None] // _POW10_INT[4 * np.arange(groups - 1, -1, -1)] % 10_000, axis=0)
    return digits.reshape(x.size, 4 * groups)[:, 4 * groups - width :]


def _float_texts(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float as ASCII, one ``_PAD``-filled row of a uint8 matrix per value.

    A value v in [1e-4, 1e15) is written from the least k <= 15 for which
    M = rint(v * 10**k) is below 10**15 and M / 10**k == v: M's integer
    digits, a '.', and its k fraction digits, or one '0' when k = 0.  This
    is exact.  M and 10**k are exact doubles, so the division rounds the
    decimal M * 10**-k correctly, and the test proves that v is that
    decimal's double.  A decimal with at most 15 significant digits
    round-trips through a double (two such decimals never share one), so
    the shortest round-trip text that ``repr`` writes (Steele & White
    1990) is that decimal with its trailing zeros cut, which the least k
    cuts, in positional form for 1e-4 <= v < 1e16.  Every other value
    (NaN, infinities, zeros, negatives, exponent forms, 16-17 digits)
    goes to ``repr``.  Each run of bit-identical neighbours is formatted once.
    """
    starts, sizes = _runs(values.view(np.int64))  # unlike ==, the bits keep -0.0 and NaNs apart
    v = values[starts]
    scale = np.full(v.size, -1)
    todo = np.flatnonzero((v >= 1e-4) & (v < 1e15))
    left = v[todo]
    for k in range(16):
        m = np.rint(left * _POW10[k])
        hit = (m < 1e15) & (m / _POW10[k] == left)
        scale[todo[hit]] = k
        todo, left = todo[~hit], left[~hit]
    fast = np.flatnonzero(scale >= 0)
    k = scale[fast]
    whole, part = np.divmod(np.rint(v[fast] * _POW10[k]).astype(np.int64), _POW10_INT[k])
    # Integer digits right-aligned and fraction digits left-aligned, each
    # only as wide as these values need; a value's leading zeros and the
    # places past its last fraction digit are filled.
    n_int = max(np.searchsorted(_POW10_INT, whole.max(initial=0), side="right"), 1)
    n_frac = max(k.max(initial=0), 1)
    leading = whole[:, None] < np.r_[_POW10_INT[n_int - 1 : 0 : -1], 0]
    past = np.arange(n_frac) >= np.maximum(k, 1)[:, None]
    integer = np.where(leading, _PAD, _digits(whole, n_int))
    fraction = np.where(past, _PAD, _digits(part * _POW10_INT[n_frac - k], n_frac))
    text = np.concatenate([integer, np.full((k.size, 1), ord("."), dtype=np.uint8), fraction], axis=1)

    slow = np.flatnonzero(scale < 0)
    slow_text = _padded([repr(x).encode() for x in v[slow].tolist()])
    out = np.full((v.size, max(text.shape[1], slow_text.shape[1])), _PAD, dtype=np.uint8)
    out[fast, : text.shape[1]] = text
    out[slow, : slow_text.shape[1]] = slow_text
    return np.repeat(out, sizes, axis=0)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted as ``csv.QUOTE_MINIMAL`` quotes it."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def write_cleaned(path: Path, panel: Panel) -> None:
    """Write a panel as ``id,date,close,adjfactor,retfactor`` lines, one per row.

    Each block of rows is laid out as one uint8 matrix of ``_PAD``-filled
    fields and separators, and written as its bytes other than ``_PAD``.
    """
    ids = _padded([_csv_field(name).encode("utf-8") for name in panel.ids])
    with open(path, "wb") as handle:
        handle.write(b"id,date,close,adjfactor,retfactor\n")
        # Formatted in blocks, so the panel is never held whole as text.
        for lo in range(0, len(panel), _ROWS_PER_WRITE):
            rows = slice(lo, lo + _ROWS_PER_WRITE)
            instrument = panel.instrument[rows]
            days, day = np.unique(panel.date[rows].view(np.int64), return_inverse=True)  # int64 sorts faster
            iso = _padded([d.isoformat().encode() for d in days.view("M8[D]").tolist()])  # once per distinct day
            comma = np.full((instrument.size, 1), ord(","), dtype=np.uint8)
            fields = [np.take(ids, instrument, axis=0), comma, np.take(iso, day, axis=0)]
            for col in (panel.close, panel.adjfactor, panel.retfactor):
                fields += [comma, _float_texts(col[rows])]
            line = np.concatenate([*fields, np.full_like(comma, ord("\n"))], axis=1)
            handle.write(line[line != _PAD].tobytes())


def write_audit(path: Path, rows, rejects=()) -> None:
    """Write ``id,reason,detail`` lines: one ``line:<n>,reject,<reason>`` per RowReject, then ``rows``."""
    lines = ["id,reason,detail"]
    rejected = ({"id": f"line:{rej.line}", "reason": "reject", "detail": rej.reason} for rej in rejects)
    for row in (*rejected, *rows):
        detail = str(row.get("detail", "")).replace(",", ";")
        lines.append(f"{_csv_field(row['id'])},{row['reason']},{detail}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class _PanelBuilder:
    """Accepted rows and rejects of one price CSV; rejects in input order."""

    def __init__(self, header: list[str] | None):
        if header is None:
            raise FormatError("empty input: no header row")
        column = {name.strip().lower(): j for j, name in enumerate(header) if name}
        missing = [col for col in REQUIRED_COLUMNS if col not in column]
        if missing:
            raise FormatError(f"missing required column(s): {', '.join(missing)}")
        self.index = tuple(column[col] for col in REQUIRED_COLUMNS)
        self.width = max(self.index) + 1
        self.n_fields = len(header)
        self.ids: dict[str, int] = {}  # id -> code, in order of first use, for the row rules and numpy pass
        self.texts: dict[str | None, dt.date] = {}  # the row rules' date cache
        self.columns = tuple(array(code) for code in "qqddd")  # id code, day since 1970, prices
        self.rejects: list[RowReject] = []

    def _rows(self, numbered_rows) -> None:
        """Apply the row rules to (line number, row) pairs, appending accepted rows to the columns."""
        instrument, date, close, adjfactor, retfactor = self.columns
        for number, row in numbered_rows:
            try:
                values = _row_values(row, self.index, self.width, self.texts)
            except (TypeError, ValueError) as exc:
                self.rejects.append(RowReject(line=number, reason=str(exc)))
                continue
            if values is None:  # blank line
                continue
            name, day, c, a, r = values
            instrument.append(self.ids.setdefault(name, len(self.ids)))
            date.append((day - dt.date(1970, 1, 1)).days)
            close.append(c)
            adjfactor.append(a)
            retfactor.append(r)

    def read_block(self, text: str, offset: int) -> int:
        """Parse a block without quotes whose first line is line ``offset + 1``; return its line count.

        CR LF and then a lone CR become LF first, so each line ends at one
        LF, as ``csv.reader`` counts lines of a file opened with
        newline="".  A line is accepted here only when the row rules are
        sure to accept it with the same values: exactly one field per
        header column, only printable ASCII, a 1-32 byte id without spaces,
        a dddd-dd-dd date that exists, plain decimal prices (``_decimals``)
        and in-range values; each distinct id among the run heads is
        coded once, through ``ids``.  Every other line goes through the row
        rules, and its row, if accepted, follows the rows accepted here.
        """
        raw = text.replace("\r\n", "\n").replace("\r", "\n").encode("utf-8", "surrogatepass")
        buf = np.frombuffer(raw, dtype=np.uint8)
        odd = np.flatnonzero(buf - np.uint8(0x20) > 0x7E - 0x20)  # not printable ASCII
        newline = buf[odd] == 10
        starts, stops = np.r_[0, odd[newline] + 1], np.r_[odd[newline], buf.size]
        if starts[-1] == buf.size:  # the block ends with a line end, not a last unended line
            starts, stops = starts[:-1], stops[:-1]
        odd = odd[~newline]
        commas = np.r_[np.flatnonzero(buf == 44), buf.size + 1]
        first = np.searchsorted(commas, starts)
        last = first + self.n_fields - 1  # the first comma past a fitting line's last field
        fit = (commas.take(last - 1, mode="clip") < stops) & (commas.take(last, mode="clip") > stops)
        fit &= np.searchsorted(odd, starts) == np.searchsorted(odd, stops)
        fit &= stops - starts <= csv.field_size_limit()  # csv.reader raises past it
        rows = np.flatnonzero(fit)

        def field(j: int) -> tuple[np.ndarray, np.ndarray]:
            lo = starts[rows] if j == 0 else commas[first[rows] + j - 1] + 1
            hi = stops[rows] if j == self.n_fields - 1 else commas[first[rows] + j]
            return lo, hi

        i_id, i_date, *i_prices = self.index
        (c, ok_c), (a, ok_a), (r, ok_r) = (_decimals(buf, *field(j)) for j in i_prices)
        day, ok = _iso_dates(buf, *field(i_date))
        ok &= ok_c & (0.0 < c) & (c < _INF) & ok_a & (0.0 < a) & (a < _INF)
        ok &= ok_r & (0.0 < r) & (r < _INF)
        with np.errstate(divide="ignore", invalid="ignore"):
            adjusted = c * a / r
        ok &= (0.0 < adjusted) & (adjusted < _INF)
        id_lo, id_hi = field(i_id)
        size = id_hi - id_lo
        names = np.zeros((size.size, np.clip(size.max(initial=1), 1, 32)), dtype=np.uint8)
        for j in range(names.shape[1]):
            names[:, j] = np.where(size > j, buf.take(id_lo + j, mode="clip"), np.uint8(0))
        ok &= (size >= 1) & (size <= 32) & ~np.any(names == 32, axis=1)

        names = np.ascontiguousarray(names[ok]).view(f"S{names.shape[1]}")[:, 0]
        heads, lengths = _runs(names)  # panels list a firm's rows together
        table, at = np.unique(names[heads], return_inverse=True)
        codes = [self.ids.setdefault(name.decode("ascii"), len(self.ids)) for name in table.tolist()]
        instrument = np.repeat(np.array(codes, dtype=np.int64)[at], lengths)
        for column, values in zip(self.columns, (instrument, day[ok].view(np.int64), c[ok], a[ok], r[ok])):
            column.frombytes(memoryview(values).cast("B"))  # the block's bytes, not a copy of them

        rest = np.ones(starts.size, dtype=bool)
        rest[rows[ok]] = False
        rest = np.flatnonzero(rest)
        spans = zip(starts[rest].tolist(), stops[rest].tolist())
        texts = [raw[s:e].decode("utf-8", "surrogatepass") for s, e in spans]
        self._rows(zip((offset + 1 + rest).tolist(), csv.reader(texts)))
        return int(starts.size)

    def result(self) -> ParseResult:
        instrument, date = (np.frombuffer(col, dtype=np.int64) for col in self.columns[:2])
        prices = (np.frombuffer(col, dtype=np.float64) for col in self.columns[2:])
        codes, ids = _sorted_codes(instrument, list(self.ids))
        return ParseResult(Panel(ids, codes, date.view("M8[D]"), *prices), self.rejects)


def parse_prices(stream: IO[str] | Iterable[str]) -> ParseResult:
    """Parse a price CSV, collecting unparsable rows instead of dropping them.

    The header must contain ``id,date,close,adjfactor,retfactor`` in any
    case and order (extra columns are ignored; of repeated names the last
    column wins); dates are ISO ``YYYY-MM-DD``.  Blank lines are skipped
    and short rows read as missing fields.  A row is rejected unless its
    id is non-empty, its date is such a day, and close, adjfactor,
    retfactor and the adjusted price are finite and positive.  Each
    reject carries the 1-based physical line number of the offending row.

    A file-like ``stream`` is read in blocks of about ``_BLOCK_CHARS``,
    split into lines at CR LF, CR and LF as from a file opened with
    ``newline=""``, and each block is parsed by one numpy pass over its
    bytes (``_PanelBuilder.read_block``).  The lines that pass cannot
    prove, such as blank, short or long lines, signed, exponent or
    non-finite prices, padded or non-ASCII fields and rejects, go through
    the row rules (``_row_values``) one at a time.  From the first block
    holding a ``"`` on, a quoted field may span lines, so the rest of the
    stream goes to ``csv.reader``, as an iterable of lines always does.
    Records come block by block, each block's numpy-pass rows before its
    row-rule rows, so only ``clean_panel``'s sort fixes their order.
    """
    builder, offset = None, 0
    if hasattr(stream, "read"):
        blocks = _blocks(stream)
        block = next(blocks, "")
        if block and '"' not in block:
            head = io.StringIO(block, newline="").readline()
            builder = _PanelBuilder(next(csv.reader([head])))
            block, offset = block[len(head) :], 1
            while '"' not in block:
                offset += builder.read_block(block, offset)
                block = next(blocks, None)
                if block is None:
                    return builder.result()
        stream = (line for text in chain([block], blocks) for line in io.StringIO(text, newline=""))
    reader = csv.reader(stream)
    if builder is None:
        builder = _PanelBuilder(next(reader, None))
    builder._rows((offset + reader.line_num, row) for row in reader)
    return builder.result()


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
    if gap_scope not in GAP_SCOPES:
        raise ValueError(f"gap_scope must be {' or '.join(map(repr, GAP_SCOPES))}, got {gap_scope!r}")

    day = panel.date.view(np.int64)  # days since 1970; numpy sorts int64 far faster than datetime64
    offset = day - day.min(initial=0)
    order = np.argsort(panel.instrument * (offset.max(initial=0) + 1) + offset, kind="stable")
    instrument, day = panel.instrument[order], day[order]
    if frequency == "monthly":
        period = day.view("M8[D]").astype("M8[M]").view(np.int64) + 1970 * 12  # year * 12 + month - 1
    else:
        period = np.unique(day, return_inverse=True)[1]  # trading-day index
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
    with np.errstate(over="ignore", divide="ignore"):
        values = np.log(prices[1:][same] / prices[:-1][same])
    off = np.abs(values) > 708.0  # the ratio overflowed, or is subnormal or 0 and lost bits
    at = np.flatnonzero(same)[off]
    values[off] = np.log(prices[at + 1]) - np.log(prices[at])
    return Returns(panel.ids, instrument[1:][same], date[1:][same], values)


def _run_order(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((values, run))`` gives, for values without NaN.

    Two one-key sorts: dense value ranks, in which equal values such as
    0.0 and -0.0 share one, then a stable sort of ``run * n + rank``.
    """
    order = np.argsort(values)
    ranked = values[order]
    new = np.r_[False, ranked[1:] != ranked[:-1]]
    del ranked  # each temporary goes once used, so the sorts add little to peak memory
    key = np.empty(values.size, dtype=np.int64)
    key[order] = np.cumsum(new)
    del order, new
    key += np.repeat(np.arange(starts.size) * values.size, sizes)
    return np.argsort(key, kind="stable")


def _binarise_runs(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
    """Bits and medians of every run of ``values``.

    Medians are read by position from one sort by (run, value): the middle
    element of an odd run, the midpoint of the central pair of an even one.
    """
    ranked = values[_run_order(values, starts, sizes)]
    median = ranked[starts + (sizes - 1) // 2]
    even = sizes % 2 == 0
    median[even] = (median[even] + ranked[(starts + sizes // 2)[even]]) / 2
    return (values > np.repeat(median, sizes)).astype(np.uint8), median


def build_stream(returns: Returns, kind: str) -> ExperimentStream:
    """Arrange binarised returns into firm- or year-separated sequences.

    Firm-separated: one sequence per instrument, named by its id and
    binarised against its full-history median.  Year-separated: each
    instrument-year segment is binarised against that segment's own
    median; segments are then concatenated in ascending instrument order
    into one sequence per year, named by the year, with joins recorded in
    ``segment_bounds``.  Segments with fewer than two returns cannot be
    binarised and are skipped with an audit entry; a year left with no
    qualifying segment yields no sequence and an ``empty_year`` audit
    entry, after the segment entries.  The medians are not kept.
    """
    if kind not in STREAM_KINDS.values():
        raise ValueError(f"unknown stream kind {kind!r}")
    firm = kind == STREAM_KINDS["firm"]
    years = None if firm else returns.date.astype("M8[Y]").view(np.int64) + 1970  # the firm stream reads none
    starts, sizes = _runs(returns.instrument) if firm else _runs(returns.instrument, years)
    if firm and np.any(sizes < 2):
        raise ValueError("need at least two returns to binarise")
    bits, _ = _binarise_runs(returns.values, starts, sizes)
    if firm:
        names = [returns.ids[k] for k in returns.instrument[starts].tolist()]
        spans = zip(starts.tolist(), (starts + sizes).tolist(), names)
        return ExperimentStream(kind, [BinarySequence(bits[a:b], name) for a, b, name in spans])

    segment_year = years[starts]
    short = (x[sizes < 2].tolist() for x in (returns.instrument[starts], sizes, segment_year))
    audit = [
        {"id": returns.ids[i], "reason": "short_segment", "detail": f"{n} return(s) in {y}"}
        for i, n, y in zip(*short)
    ]
    empty = np.setdiff1d(segment_year, segment_year[sizes >= 2]).tolist()
    audit += [{"id": str(y), "reason": "empty_year", "detail": "no qualifying segment"} for y in empty]
    # Rows of usable segments in year-major order; the stable sort keeps
    # instruments ascending within a year and dates within a segment.
    rows = np.flatnonzero(np.repeat(sizes >= 2, sizes))
    rows = rows[np.argsort(years[rows], kind="stable")]
    year_of, firm_of = years[rows], returns.instrument[rows]
    sequences = []
    for a, n in zip(*(x.tolist() for x in _runs(year_of))):
        joins = _runs(firm_of[a : a + n])[0][1:].tolist()
        sequences.append(BinarySequence(bits[rows[a : a + n]], str(year_of[a]), joins))
    return ExperimentStream(kind, sequences, audit)


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
        raise ValueError(f"no segment of {months_per_row} returns")
    bits = year_seq.bits[np.repeat(full, sizes)].reshape(rows, months_per_row)
    sums = bits.sum(axis=0, dtype=np.int64)
    return ColumnSums(values=sums, rows_included=rows, rows_excluded=sizes.size - rows)
