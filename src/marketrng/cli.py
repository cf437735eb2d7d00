"""Batch command line: ingest, test, simulate, rng-selftest, report.

Every command is deterministic given the input bytes, the configuration,
and the master seed; no wall clock or OS entropy enters the outputs.
Exit codes: 0 success, 1 usage or configuration problem, 2 data format
problem, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import re
import sys
from pathlib import Path

import numpy as np

from marketrng.config import STREAM_KINDS, ConfigError, RunConfig
from marketrng.pipeline import (
    MIN_OBS,
    FormatError,
    build_stream,
    compute_return_series,
    clean_panel,
    monthly_column_sums,
    parse_prices,
)
from marketrng.report import (
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
from marketrng.rng import rng_selftest, shape_synthetic
from marketrng.serial import ExperimentStream, psi_profile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3
_ROWS_PER_WRITE = 1 << 16
_NAME_BYTES = 255 - len(".csv")  # the usual file-name limit, less the suffix


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _comma_list(convert):
    def parse(text: str) -> tuple:
        return tuple(convert(item) for item in text.split(","))

    parse.__name__ = convert.__name__ + " list"  # argparse names the type in its error
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="marketrng", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--input", dest="input_path", help="input price CSV")
        p.add_argument("--frequency", choices=("monthly", "daily"))
        p.add_argument(
            "--stream",
            dest="stream_kinds",
            type=_comma_list(str.strip),
            help="comma-separated subset of firm,year",
        )
        p.add_argument("--max-nu", dest="max_nu", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument(
            "--trim",
            dest="trim_fractions",
            type=_comma_list(float),
            help="comma-separated trim fractions",
        )
        p.add_argument("--boundary-mode", dest="boundary_mode", choices=("ignore", "respect"))
        p.add_argument("--seed", dest="master_seed", type=int)
        p.add_argument("--jobs", type=int, help="accepted and ignored: runs are single-process")
        p.add_argument("--out", dest="output_dir")

    for name in ("ingest", "test", "simulate"):
        add_common(sub.add_parser(name))
    sub.add_parser("rng-selftest")
    report = sub.add_parser("report")
    report.add_argument("--report", dest="report_path", required=True)
    report.add_argument("--format", dest="table_format", choices=("csv", "markdown"), default="csv")
    report.add_argument("--out", dest="output_dir")
    return parser


def _config_from_args(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    # A flag overrides the RunConfig field its dest names; --jobs names none.
    fields = RunConfig.__dataclass_fields__
    return config.with_overrides(**{k: v for k, v in vars(args).items() if k in fields})


def _check_out(out: str) -> None:
    """Refuse ``--out`` before any work when the deepest part of it that exists is not a directory."""
    part = next(p for p in (Path(out), *Path(out).parents) if p.exists())
    if not part.is_dir():
        raise ConfigError(f"--out {out}: {part} is not a directory")


def _clean_input(config: RunConfig):
    """The cleaned panel, its dropped instruments and its row rejects, after one summary line."""
    if not config.input_path:
        raise ConfigError("an input CSV is required (--input or config input_path)")
    try:
        with open(config.input_path, "r", encoding="utf-8-sig", newline="") as handle:
            parsed = parse_prices(handle)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read input: {exc}") from exc
    kept, dropped = clean_panel(parsed.records, config.frequency, config.gap_scope)
    print(f"kept {len(kept.ids)} instrument(s), dropped {len(dropped)}, rejected {len(parsed.rejects)} row(s)")
    if not kept.ids:
        print("no instruments survived cleaning", file=sys.stderr)
    return kept, dropped, parsed.rejects


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted as ``csv.QUOTE_MINIMAL`` quotes it."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _write_audit(path: Path, rows) -> None:
    lines = ["id,reason,detail"]
    for row in rows:
        detail = str(row.get("detail", "")).replace(",", ";")
        lines.append(f"{_csv_field(row['id'])},{row['reason']},{detail}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_POW10 = 10.0 ** np.arange(16)  # 10**k as an exact double and as an integer
_POW10_INT = 10 ** np.arange(16, dtype=np.int64)
_PAD = 255  # fills each text field to its column's width; no UTF-8 text holds this byte


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
    bits = values.view(np.int64)  # unlike ==, keeps -0.0 and NaNs apart
    head = np.r_[values.size > 0, bits[1:] != bits[:-1]]
    v = values[head]
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
    return np.take(out, np.cumsum(head) - 1, axis=0)


def _write_cleaned(path: Path, panel) -> None:
    """Write a panel as ``id,date,close,adjfactor,retfactor`` lines, one per row.

    Each block of rows is laid out as one uint8 matrix of ``_PAD``-filled
    fields and separators, and written as its bytes other than ``_PAD``.
    """
    ids = _padded([_csv_field(name).encode("utf-8") for name in panel.ids])
    iso = _padded([d.isoformat().encode() for d in panel.dates])
    with open(path, "wb") as handle:
        handle.write(b"id,date,close,adjfactor,retfactor\n")
        # Formatted in blocks, so the panel is never held whole as text.
        for lo in range(0, len(panel), _ROWS_PER_WRITE):
            rows = slice(lo, lo + _ROWS_PER_WRITE)
            instrument = panel.instrument[rows]
            comma = np.full((instrument.size, 1), ord(","), dtype=np.uint8)
            fields = [np.take(ids, instrument, axis=0), comma, np.take(iso, panel.date[rows], axis=0)]
            for col in (panel.close, panel.adjfactor, panel.retfactor):
                fields += [comma, _float_texts(col[rows])]
            line = np.concatenate([*fields, np.full_like(comma, ord("\n"))], axis=1)
            handle.write(line[line != _PAD].tobytes())


def cmd_ingest(config: RunConfig) -> int:
    kept, dropped, rejects = _clean_input(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_cleaned(out / "cleaned.csv", kept)

    audit_rows = [
        {"id": f"line:{rej.line}", "reason": "reject", "detail": rej.reason}
        for rej in rejects
    ] + dropped
    _write_audit(out / "audit.csv", audit_rows)
    return EXIT_OK if kept.ids else EXIT_DATA


def _write_stream(stream: ExperimentStream, config: RunConfig, out_dir: Path, echo: dict) -> bool:
    """Profile, summarise and write one stream; False, after a stderr line, if no sequence fits."""
    # psi_profile needs a window of every size up to max_nu; in respect
    # mode windows stay inside segments, so the longest segment must fit.
    respect = config.boundary_mode == "respect"
    fits = [(s.segment_lengths().max() if respect else len(s)) >= config.max_nu for s in stream.sequences]
    usable = [s for s, ok in zip(stream.sequences, fits) if ok]
    skipped = [s.source_id for s, ok in zip(stream.sequences, fits) if not ok]
    if not usable:
        print(f"{stream.kind}: no sequence is long enough to profile", file=sys.stderr)
        return False
    report = summarize_stream(
        np.vstack([psi_profile(s, max_nu=config.max_nu, respect_boundaries=respect) for s in usable]),
        alpha=config.alpha,
        trim_fractions=config.trim_fractions,
        sequence_ids=[s.source_id for s in usable],
        kind=stream.kind,
        trim_mode=config.trim_mode,
    )
    report.extras["skipped_sequences"] = skipped
    report.extras["audit"] = stream.audit
    write_report_json(report, out_dir / "report.json", config=echo)
    emit_tables(report, out_dir, fmt="csv")
    return True


def cmd_test(config: RunConfig) -> int:
    kept, dropped, _ = _clean_input(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_audit(out / "audit.csv", dropped)  # first, so a run that exits 2 still has it
    if not kept.ids:
        return EXIT_DATA
    returns = compute_return_series(kept)
    status = EXIT_OK
    for short in config.stream_kinds:  # every stream runs, whatever an earlier one found
        stream = build_stream(returns, STREAM_KINDS[short])
        stream_dir = out / stream.kind
        if not _write_stream(stream, config, stream_dir, config.echo_dict()):
            status = EXIT_DATA
            continue
        _emit_figures(stream, returns, kept, config, stream_dir)
        print(f"{stream.kind}: {len(stream.sequences)} sequence(s) -> {stream_dir}")
    return status


def _file_stem(prefix: str, name: str) -> str:
    """``prefix + name`` as one file name's stem, distinct for every ``name``.

    Each UTF-8 byte of a character outside ``[A-Za-z0-9_-]`` is written
    ``%XX``, so plain names stay as they are; a stem past ``_NAME_BYTES``
    is cut and ends in ``~``, which the escaping never writes, and the
    sha256 of the name.
    """
    stem = prefix + re.sub(r"[^A-Za-z0-9_-]", lambda m: "%" + m[0].encode().hex("%").upper(), name)
    if len(stem) > _NAME_BYTES:
        import hashlib  # here, as only such long names need it

        stem = f"{stem[: _NAME_BYTES - 65]}~{hashlib.sha256(name.encode()).hexdigest()}"
    return stem


def _emit_figures(stream, returns, kept, config: RunConfig, out_dir: Path) -> None:
    """Write the stream's figures; each one skipped gets a stderr line with its reason."""
    figures = out_dir / "figures"
    if stream.kind == "firm_separated":
        code = {name: k for k, name in enumerate(returns.ids)}
        for instrument in list(config.recurrence_ids) or returns.ids[:2]:
            if instrument not in code:
                print(f"no recurrence figure for {instrument!r}: not in the firm stream", file=sys.stderr)
                continue
            if config.recurrence_source == "prices":
                values = kept.adjusted_prices()[kept.instrument == code[instrument]]
            else:
                values = returns.values[returns.instrument == code[instrument]]
            write_recurrence(recurrence_matrix(values), figures / _file_stem("recurrence_", instrument))
    else:
        months = MIN_OBS[config.frequency]
        for seq in stream.sequences:
            try:
                sums = monthly_column_sums(seq, months)
            except ValueError:
                print(f"no kde figure for year {seq.source_id}: no segment of {months} returns", file=sys.stderr)
                continue
            total_bits = sums.rows_included * months
            try:
                grid = default_kde_grid(sums.values, length=total_bits)
                density = kde_curve(sums.values, grid, length=total_bits)
            except ValueError as exc:
                print(f"no kde figure for year {seq.source_id}: {exc}", file=sys.stderr)
                continue
            write_kde(grid, density, figures / f"kde_{seq.source_id}.csv")


def cmd_simulate(config: RunConfig) -> int:
    spec, resolved = config.synthetic_spec()
    generator = resolved["generator"]
    stream = shape_synthetic(
        spec, generator=generator, master_seed=config.master_seed, burn_in=resolved["burn_in"]
    )
    out = Path(config.output_dir) / stream.kind
    if not _write_stream(stream, config, out, {**config.echo_dict(), "synthetic_resolved": resolved}):
        return EXIT_DATA
    print(f"simulated {spec.count} sequence(s) with {generator} -> {out}")
    return EXIT_OK


def cmd_rng_selftest() -> int:
    try:
        result = rng_selftest()
    except FileNotFoundError as exc:
        print(f"reference vector fixture missing: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(result.message)
    if not result.ok:
        print(f"first mismatching output index: {result.first_mismatch}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_report(args) -> int:
    if args.output_dir:
        _check_out(args.output_dir)
    try:
        report, _config = read_report_json(args.report_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"cannot read report: {type(exc).__name__}: {exc}") from exc
    out_dir = Path(args.output_dir) if args.output_dir else Path(args.report_path).parent
    paths = emit_tables(report, out_dir, fmt=args.table_format)
    for path in paths:
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "rng-selftest":
            return cmd_rng_selftest()
        if args.command == "report":
            return cmd_report(args)
        config = _config_from_args(args)
        _check_out(config.output_dir)
        return {"ingest": cmd_ingest, "test": cmd_test, "simulate": cmd_simulate}[args.command](config)
    except (ConfigError, FileExistsError, NotADirectoryError, IsADirectoryError, PermissionError) as exc:
        # The OS errors: an output path is taken by a file or a directory, or may not be written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # invariant violations and unexpected states
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
