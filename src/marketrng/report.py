"""Aggregation of per-sequence psi2 rows into reports, tables, and figures.

A stream's (sequences, max_nu) psi2 matrix becomes summary statistics,
a combined chi-square per window size (degrees of freedom scale with the
number of sequences), the share of individually significant sequences,
and a trimming ladder that re-tests the combined statistic after
removing the largest contributors.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from marketrng.chi2 import ChiSquareAssessment, assess, chi2_critical
from marketrng.serial import STREAM_KINDS, second_differences

DEFAULT_TRIM_FRACTIONS = (0.01, 0.02, 0.03, 0.04, 0.05)
TRIM_MODES = ("per_nu", "joint")
TABLE_FORMATS = ("csv", "markdown")
_VALUES_PER_WRITE = 1 << 16  # matrix entries formatted per recurrence write
_KDE_POINTS, _KDE_SPAN = 512, 4.0  # every KDE grid: 512 points over mean +- 4 sd


def _is_real(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, (int, float)) and not isinstance(value, bool)

@dataclass(frozen=True)
class TrimStep:
    fraction: float
    dropped: int
    statistic: float
    dof: int
    p_value: float
    critical_value: float
    significant: bool


@dataclass
class StreamReport:
    """Aggregated statistics of one firm- or year-separated experiment."""

    kind: str
    alpha: float
    sequence_ids: list[str]
    nus: list[int]
    d2_nus: list[int]
    psi_summary: dict[int, dict[str, float]]
    d2_summary: dict[int, dict[str, float]]
    per_sequence_d2: np.ndarray
    combined: dict[int, ChiSquareAssessment]
    significant_fraction: dict[int, float]
    trim_fractions: tuple[float, ...]
    trim_mode: str
    trim_ladder: dict[int, list[TrimStep]]
    extras: dict = field(default_factory=dict)

    @property
    def n_sequences(self) -> int:
        return len(self.sequence_ids)

    def to_dict(self) -> dict:
        # The nu keys stay ints.  json.dumps(sort_keys=True) writes them as
        # strings, in the order str keys would sort, only while every nu is
        # one digit; psi_profile caps nu at MAX_WINDOW = 8.
        # asdict would copy the ids one at a time; a str needs no copy.
        data = asdict(replace(self, sequence_ids=[], per_sequence_d2=None))
        data["sequence_ids"] = list(self.sequence_ids)
        data["n_sequences"] = self.n_sequences
        data["per_sequence_d2"] = self.per_sequence_d2.tolist()
        return data


def _contributor_order(values: np.ndarray, id_arr: np.ndarray) -> np.ndarray:
    """Indices of ``values`` from largest to smallest, ties by ascending id."""
    return np.lexsort((id_arr, -values))  # lexsort: primary key last


def _summary(matrix: np.ndarray, labels: list[int]) -> dict[int, dict[str, float]]:
    return {
        nu: {
            "mean": float(matrix[:, j].mean()),
            "sd": float(matrix[:, j].std(ddof=0)),
            "max": float(matrix[:, j].max()),
        }
        for j, nu in enumerate(labels)
    }


def summarize_stream(
    psi: np.ndarray | Sequence[Sequence[float]],
    alpha: float = 0.05,
    trim_fractions: Sequence[float] = DEFAULT_TRIM_FRACTIONS,
    sequence_ids: Sequence[str] | None = None,
    kind: str = STREAM_KINDS["firm"],
    trim_mode: str = "per_nu",
) -> StreamReport:
    """Summaries, combined chi-square, significance shares, and trim ladder.

    ``psi`` holds one row of psi2(1..max_nu) per sequence, as an (n,
    max_nu) array or a list of ``psi_profile`` rows.  The combined
    statistic for window size nu sums the second differences over all
    sequences and is assessed at |A| * 2**(nu-2) degrees of freedom.
    Each trim fraction p drops the floor(p * |A|) largest contributors,
    ties broken by ascending sequence id, and re-assesses the rest at
    (|A| - dropped) * 2**(nu-2) degrees of freedom.
    ``trim_mode="per_nu"`` ranks contributors independently per window
    size; ``"joint"`` drops the same sequences everywhere, ranked by their
    total contribution across window sizes.
    """
    psi_matrix = np.asarray(psi, dtype=float)  # a ragged list raises ValueError here
    if psi_matrix.ndim != 2 or psi_matrix.size == 0:
        raise ValueError(f"psi must be a non-empty 2-D matrix, got shape {psi_matrix.shape}")
    n, max_nu = psi_matrix.shape
    if max_nu < 3:
        raise ValueError("psi rows must reach at least nu = 3")
    ids = [str(i) for i in (range(n) if sequence_ids is None else sequence_ids)]
    psi_summary = _summary(psi_matrix, list(range(1, max_nu + 1)))
    return _d2_report(
        second_differences(psi_matrix), psi_summary, alpha, trim_fractions, ids, kind, trim_mode
    )


def _d2_report(
    d2_matrix: np.ndarray,
    psi_summary: dict[int, dict[str, float]],
    alpha: float,
    trim_fractions: Sequence[float],
    ids: list[str],
    kind: str,
    trim_mode: str,
) -> StreamReport:
    """Every field of a report that follows from its (n, max_nu - 2) d2 matrix.

    ``summarize_stream`` builds its reports here, and ``read_report_json``
    rebuilds a stored report here to check it.
    """
    if trim_mode not in TRIM_MODES:
        raise ValueError(f"unknown trim_mode {trim_mode!r}")
    for p in trim_fractions:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"trim fraction must lie in [0, 1), got {p}")
    n, max_nu = d2_matrix.shape[0], d2_matrix.shape[1] + 2
    if len(ids) != n:
        raise ValueError("sequence_ids must match the psi rows in length")
    d2_nus = list(range(3, max_nu + 1))

    combined: dict[int, ChiSquareAssessment] = {}
    significant_fraction: dict[int, float] = {}
    ladder: dict[int, list[TrimStep]] = {}

    id_arr = np.array(ids)
    joint = trim_mode == "joint"
    joint_order = _contributor_order(d2_matrix.sum(axis=1), id_arr) if joint else None

    for j, nu in enumerate(d2_nus):
        xi = 2 ** (nu - 2)
        column = d2_matrix[:, j]
        combined[nu] = assess(float(column.sum()), n * xi, alpha)
        crit = chi2_critical(alpha, xi)
        significant_fraction[nu] = float((column > crit).mean())
        # One order serves every trim fraction: the kept sequences are its
        # tail, summed in that order (per_nu) or in index order (joint).
        order = joint_order if joint else _contributor_order(column, id_arr)
        steps = []
        for p in trim_fractions:
            k = int(np.floor(p * n))
            kept = np.sort(order[k:]) if joint else order[k:]
            stat = float(column[kept].sum())
            dof = (n - k) * xi
            result = assess(stat, dof, alpha)
            steps.append(
                TrimStep(
                    fraction=float(p),
                    dropped=k,
                    statistic=stat,
                    dof=dof,
                    p_value=result.p_value,
                    critical_value=result.critical_value,
                    significant=result.significant,
                )
            )
        ladder[nu] = steps

    return StreamReport(
        kind=kind,
        alpha=float(alpha),
        sequence_ids=ids,
        nus=list(range(1, max_nu + 1)),
        d2_nus=d2_nus,
        psi_summary=psi_summary,
        d2_summary=_summary(d2_matrix, d2_nus),
        per_sequence_d2=d2_matrix,
        combined=combined,
        significant_fraction=significant_fraction,
        trim_fractions=tuple(float(p) for p in trim_fractions),
        trim_mode=trim_mode,
        trim_ladder=ladder,
    )


def recurrence_matrix(series) -> np.ndarray:
    """Distance matrix values[n, m] = |v_n - v_m| of a scalar trajectory."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a one-dimensional series of length >= 2")
    return np.abs(arr[:, None] - arr[None, :])


def _centred(samples, length: float | None) -> tuple[np.ndarray, float]:
    """Samples divided by ``length`` (when given) and centred, with their sd."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two samples")
    if length:
        x = x / float(length)
    x = x - x.mean()
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise ValueError("samples have zero spread")
    return x, sd


def kde_curve(samples, grid, length: float | None = None) -> np.ndarray:
    """Gaussian kernel density with Silverman bandwidth on a fixed grid.

    Samples are centred on their mean and, when ``length`` is given,
    divided by it first (so that sums from arrays of different sizes stay
    comparable on one axis).  Bandwidth is
    0.9 * min(sd, IQR / 1.34) * n**(-1/5), falling back to the standard
    deviation when the interquartile range collapses to zero.
    """
    x, sd = _centred(samples, length)
    grid = np.asarray(grid, dtype=float)
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr_scale = (q75 - q25) / 1.34
    width = min(sd, iqr_scale) if iqr_scale > 0.0 else sd
    h = 0.9 * width * x.size ** (-0.2)
    z = (grid[:, None] - x[None, :]) / h
    return np.exp(-0.5 * z**2).mean(axis=1) / (h * np.sqrt(2.0 * np.pi))


def default_kde_grid(samples, length: float | None = None) -> np.ndarray:
    """Evenly spaced grid of _KDE_POINTS over mean +- _KDE_SPAN * sd in transformed units."""
    _, sd = _centred(samples, length)
    return np.linspace(-_KDE_SPAN * sd, _KDE_SPAN * sd, _KDE_POINTS)


def _cell(nu: int, value: float, fmt: str, retained: bool) -> str:
    # Window size 1 values are near machine zero for balanced inputs and
    # only readable in scientific notation; everything else gets 2 dp.
    text = f"{value:.2e}" if nu == 1 else f"{value:.2f}"
    # '*' plays the role of the bold convention: it marks results that do
    # NOT discard the null hypothesis of uniform randomness.
    return text + "*" if retained and fmt == "csv" else text


def emit_tables(report: StreamReport, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Write the summary, second-difference, and trim-ladder tables.

    Each table has one label column plus one column per window size.  In
    CSV, a ``*`` appended to a value marks a result that fails
    significance at the report's alpha (the null of uniform randomness is
    retained): the combined statistics, the per-year second differences
    of a year-separated report, and the trim-ladder statistics.  The psi
    summary is never marked, and Markdown tables show the values unmarked.
    """
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown table format {fmt!r}")
    out = Path(out_dir) / "tables"
    out.mkdir(parents=True, exist_ok=True)
    ext = "csv" if fmt == "csv" else "md"
    nus, d2_nus = report.nus, report.d2_nus

    def row(label: str, values, retained=None, labels=d2_nus) -> tuple[str, list[str]]:
        if retained is None:
            retained = [False] * len(labels)
        return (label, [_cell(nu, v, fmt, r) for nu, v, r in zip(labels, values, retained)])

    stats = ("mean", "sd", "max")
    psi_rows = [row(key, [report.psi_summary[nu][key] for nu in nus], labels=nus) for key in stats]
    d2_rows = [row(key, [report.d2_summary[nu][key] for nu in d2_nus]) for key in stats]
    combined = [report.combined[nu] for nu in d2_nus]
    d2_rows.append(
        row("combined_chi2", [a.statistic for a in combined], [not a.significant for a in combined])
    )
    d2_rows.append(("combined_dof", [str(a.dof) for a in combined]))
    d2_rows.append(row("significant_fraction", [report.significant_fraction[nu] for nu in d2_nus]))
    if report.kind == STREAM_KINDS["year"]:
        crit = [chi2_critical(report.alpha, 2 ** (nu - 2)) for nu in d2_nus]
        for seq_id, values in zip(report.sequence_ids, report.per_sequence_d2):
            d2_rows.append(row(seq_id, values, [v <= c for v, c in zip(values, crit)]))

    ladder_rows = []
    for i, p in enumerate(report.trim_fractions):
        steps = [report.trim_ladder[nu][i] for nu in d2_nus]
        ladder_rows.append(
            row(
                f"trim_{p:.2f}_drop_{steps[-1].dropped}",
                [step.statistic for step in steps],
                [not step.significant for step in steps],
            )
        )

    return [
        _write_table(out / f"psi_summary.{ext}", fmt, "statistic", nus, psi_rows),
        _write_table(out / f"d2_summary.{ext}", fmt, "statistic", d2_nus, d2_rows),
        _write_table(out / f"trim_ladder.{ext}", fmt, "trim", d2_nus, ladder_rows),
    ]


def _write_table(
    path: Path, fmt: str, corner: str, nus: list[int], rows: list[tuple[str, list[str]]]
) -> Path:
    lines = [[corner] + [f"nu_{nu}" for nu in nus]] + [[label] + cells for label, cells in rows]
    if fmt == "csv":
        text = [",".join(line) for line in lines]
    else:
        text = ["| " + " | ".join(line) + " |" for line in lines]
        text.insert(1, "|" + "|".join(["---"] * (len(nus) + 1)) + "|")
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    return path


# The line start of an item nested 2, 3 or 4 deep, as json.dumps(indent=2) writes it.
_ITEM2, _ITEM3, _ITEM4 = ("\n" + "  " * depth for depth in (2, 3, 4))
_ROWS_PER_WRITE = 512  # per_sequence_d2 rows encoded per write


def _d2_pieces(rows: list[list[float]]):
    """The items of per_sequence_d2 as ``json.dumps(indent=2)`` nests them in a report, a block of rows at a time.

    The C encoder serves only ``indent=None``, so the newline and indent of
    an entry ride in its separator, and row joins are then rewritten; no
    float's text holds a bracket.
    """
    entry, join = "," + _ITEM4, _ITEM3 + "]," + _ITEM3 + "[" + _ITEM4
    yield _ITEM3 + "[" + _ITEM4
    for lo in range(0, len(rows), _ROWS_PER_WRITE):
        block = json.dumps(rows[lo : lo + _ROWS_PER_WRITE], separators=(entry, ": "))[2:-2]
        yield (join if lo else "") + block.replace("]" + entry + "[", join)
    yield _ITEM3 + "]" + _ITEM2


def write_report_json(report: StreamReport, path: str | Path, config: dict | None = None) -> Path:
    """Serialize the full report (plus the run configuration) to JSON.

    The bytes are those of ``json.dump(payload, sort_keys=True, indent=2)``
    and a newline.  The payload is dumped with per_sequence_d2 and
    sequence_ids empty, and each list's items go between the brackets of
    the last line that opens it: an encoded string holds no raw newline,
    and "report" sorts after "config".  A report with no sequences, which
    ``summarize_stream`` never builds, raises ValueError.
    """
    if not report.sequence_ids or not report.per_sequence_d2.size:
        raise ValueError("a report with no sequences cannot be written")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = asdict(replace(report, sequence_ids=[], per_sequence_d2=[]))
    data["n_sequences"] = report.n_sequences
    payload = {"report": data}
    if config is not None:
        payload["config"] = config
    text = json.dumps(payload, sort_keys=True, indent=2)
    head, d2_open, middle = text.rpartition(_ITEM2 + '"per_sequence_d2": [')
    middle, ids_open, tail = middle.rpartition(_ITEM2 + '"sequence_ids": [')
    with open(path, "w", encoding="utf-8") as handle:  # piece by piece: the text is never held whole
        handle.writelines((head, d2_open))
        handle.writelines(_d2_pieces(report.per_sequence_d2.tolist()))  # its rows are freed before the ids are encoded
        ids = json.dumps(report.sequence_ids, separators=("," + _ITEM3, ": "))[1:-1]
        handle.writelines((middle, ids_open, _ITEM3, ids, _ITEM2, tail, "\n"))
    return path


def read_report_json(path: str | Path) -> tuple[StreamReport, dict | None]:
    """The report and run configuration of a ``report.json``.

    Only the inputs are checked one by one: ``per_sequence_d2`` must be a
    non-empty list of equal-length rows of finite floats whose sums stay
    finite, the kind known, alpha a number in (0, 1), the trim fractions
    numbers (a JSON boolean is not a number), the sequence ids strings,
    and ``psi_summary`` must map each nu = 1..max_nu to finite floats
    under ``mean``, ``sd`` and ``max``.  Every other field is rebuilt from
    these as ``summarize_stream`` builds it, and a ValueError is raised
    unless the rebuilt report serializes to the stored one, types included.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except RecursionError as exc:  # nesting too deep for the decoder
        raise ValueError(f"report is not valid JSON: {exc}") from exc
    stored = payload["report"]
    rows, ids, psi = stored["per_sequence_d2"], stored["sequence_ids"], stored["psi_summary"]
    alpha, trims = stored["alpha"], stored["trim_fractions"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("per_sequence_d2 is not a list of rows")
    if not all(isinstance(v, float) for row in rows for v in row):  # as written: 1.0, not 1
        raise ValueError("a value of per_sequence_d2 is not a float")
    d2_matrix = np.array(rows, dtype=float)  # a ragged list raises ValueError here
    if d2_matrix.ndim != 2 or d2_matrix.size == 0:
        raise ValueError("per_sequence_d2 is not a non-empty matrix")
    if not math.isfinite(float(abs(d2_matrix).max()) * d2_matrix.size):  # bounds every sum the rebuild takes
        raise ValueError("per_sequence_d2 holds a NaN, an infinity or a value too large to sum")
    if stored["kind"] not in STREAM_KINDS.values():
        raise ValueError(f"unknown report kind {stored['kind']!r}")
    if not _is_real(alpha) or not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not isinstance(trims, list) or not all(map(_is_real, trims)):
        raise ValueError("trim_fractions is not a list of numbers")
    if not isinstance(ids, list) or not all(isinstance(name, str) for name in ids):
        raise ValueError("sequence_ids is not a list of strings")
    nu_keys = [str(nu) for nu in range(1, d2_matrix.shape[1] + 3)]
    if not isinstance(psi, dict) or sorted(psi) != sorted(nu_keys):
        raise ValueError(f"psi_summary is not keyed by nu = 1..{nu_keys[-1]}")
    if not all(isinstance(row, dict) and sorted(row) == ["max", "mean", "sd"] for row in psi.values()):
        raise ValueError("a psi_summary row is not a mean, sd and max")
    if not all(isinstance(v, float) and math.isfinite(v) for row in psi.values() for v in row.values()):
        raise ValueError("a psi_summary value is not a finite float")
    psi_summary = {int(nu): row for nu, row in psi.items()}
    report = _d2_report(d2_matrix, psi_summary, alpha, trims, ids, stored["kind"], stored["trim_mode"])
    report.extras = stored["extras"]
    if json.dumps(report.to_dict(), sort_keys=True) != json.dumps(stored, sort_keys=True):
        raise ValueError("a field of the report differs from its value rebuilt from per_sequence_d2")
    return report, payload.get("config")


def write_recurrence(matrix, base_path: str | Path) -> list[Path]:
    """Dump a square recurrence matrix as CSV and as an 8-bit binary graymap.

    The two files are ``base_path`` with ``.csv`` and ``.pgm`` appended,
    so a dot in the base name is kept.  Both are written a block of rows
    at a time, so the matrix is never held whole as Python floats.
    """
    values = np.asarray(matrix, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("recurrence matrix must be square")
    n, peak = values.shape[0], float(values.max())  # max raises on an empty matrix, before any write
    rows = max(1, _VALUES_PER_WRITE // n)
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    paths = [base.with_name(base.name + ".csv"), base.with_name(base.name + ".pgm")]
    row_format = ",".join(["%.6g"] * n) + "\n"
    with paths[0].open("w", encoding="utf-8") as csv_file, paths[1].open("wb") as pgm_file:
        pgm_file.write(f"P5\n{n} {n}\n255\n".encode("ascii"))
        for lo in range(0, n, rows):
            block = values[lo : lo + rows]
            csv_file.write("".join(row_format % tuple(row) for row in block.tolist()))
            scaled = np.zeros(block.shape, np.uint8) if peak == 0.0 else np.round(block * (255.0 / peak))
            pgm_file.write(scaled.astype(np.uint8).tobytes())
    return paths


def write_kde(grid, density, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = zip(np.asarray(grid).tolist(), np.asarray(density).tolist())
    lines = ["x,density", *map("%.8g,%.8g".__mod__, rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
