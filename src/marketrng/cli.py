"""Batch command line: ingest, test, simulate, rng-selftest, report.

This module only dispatches: each command takes just the flags it reads,
and the other modules do the work and write every file.
Every command is deterministic given the input bytes, the configuration,
and the master seed; no wall clock or OS entropy enters the outputs.
Exit codes: 0 success, 1 usage or configuration problem, 2 data format
problem, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

# No command calls BLAS, so OpenBLAS's idle worker threads only burn CPU; set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from marketrng.config import CHOICES, ConfigError, RunConfig
from marketrng.pipeline import (
    MIN_OBS,
    FormatError,
    build_stream,
    compute_return_series,
    clean_panel,
    monthly_column_sums,
    parse_prices,
    write_audit,
    write_cleaned,
)
from marketrng.report import (
    TABLE_FORMATS,
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
from marketrng.serial import STREAM_KINDS, ExperimentStream, has_every_window, psi_profile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3
_NAME_BYTES = 255 - len(".csv")  # the usual file-name limit, less the suffix


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _comma_list(convert):
    def parse(text: str) -> tuple:
        return tuple(convert(item) for item in text.split(","))

    parse.__name__ = convert.__name__ + " list"  # argparse names the type in its error
    return parse


_FLAGS = {  # every flag of every command, with its argparse keywords
    "--config": dict(help="JSON config file; flags override its values"),
    "--input": dict(dest="input_path", help="input price CSV"),
    "--frequency": dict(choices=CHOICES["frequency"]),
    "--stream": dict(
        dest="stream_kinds", type=_comma_list(str.strip), help=f"comma-separated subset of {','.join(STREAM_KINDS)}"
    ),
    "--max-nu": dict(dest="max_nu", type=int),
    "--alpha": dict(type=float),
    "--trim": dict(dest="trim_fractions", type=_comma_list(float), help="comma-separated trim fractions"),
    "--boundary-mode": dict(dest="boundary_mode", choices=CHOICES["boundary_mode"]),
    "--seed": dict(dest="master_seed", type=int),
    "--jobs": dict(type=int, help="accepted and ignored: runs are single-process"),
    "--out": dict(dest="output_dir"),
    "--report": dict(dest="report_path", required=True),
    "--format": dict(dest="table_format", choices=TABLE_FORMATS, default="csv"),
}
_COMMAND_FLAGS = {  # the flags each command reads, and no others
    "ingest": "--config --input --frequency --jobs --out".split(),
    "test": "--config --input --frequency --stream --max-nu --alpha --trim --boundary-mode --jobs --out".split(),
    "simulate": "--config --max-nu --alpha --trim --boundary-mode --seed --jobs --out".split(),
    "rng-selftest": [],
    "report": "--report --format --out".split(),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="marketrng", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        command = sub.add_parser(name)
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
    return parser


def _config_from_args(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    # A flag that is set overrides the RunConfig field its dest names; --jobs names none.
    fields = RunConfig.__dataclass_fields__
    return replace(config, **{k: v for k, v in vars(args).items() if k in fields and v is not None})


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


def cmd_ingest(config: RunConfig) -> int:
    kept, dropped, rejects = _clean_input(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_cleaned(out / "cleaned.csv", kept)
    write_audit(out / "audit.csv", dropped, rejects)
    return EXIT_OK if kept.ids else EXIT_DATA


def _write_stream(stream: ExperimentStream, config: RunConfig, out_dir: Path, echo: dict) -> int:
    """Profile, summarise and write one stream; the count of sequences profiled, 0 after a stderr line if none fits."""
    respect = config.boundary_mode == "respect"
    fits = [has_every_window(s, config.max_nu, respect) for s in stream.sequences]
    usable = [s for s, ok in zip(stream.sequences, fits) if ok]
    skipped = [s.source_id for s, ok in zip(stream.sequences, fits) if not ok]
    if not usable:
        print(f"{stream.kind}: no sequence is long enough to profile", file=sys.stderr)
        return 0
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
    return len(usable)


def cmd_test(config: RunConfig) -> int:
    kept, dropped, _ = _clean_input(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_audit(out / "audit.csv", dropped)  # first, so a run that exits 2 still has it
    if not kept.ids:
        return EXIT_DATA
    returns = compute_return_series(kept)
    status = EXIT_OK
    for short in config.stream_kinds:  # every stream runs, whatever an earlier one found
        stream = build_stream(returns, STREAM_KINDS[short])
        stream_dir = out / stream.kind
        profiled = _write_stream(stream, config, stream_dir, config.echo_dict())
        if not profiled:
            status = EXIT_DATA
            continue
        _emit_figures(stream, returns, kept, config, stream_dir)
        skipped = len(stream.sequences) - profiled
        print(f"{stream.kind}: {profiled} sequence(s) profiled, {skipped} skipped -> {stream_dir}")
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
    if stream.kind == STREAM_KINDS["firm"]:
        prices = config.recurrence_source == "prices"  # kept and returns share the id table
        values, rows = (kept.adjusted_prices(), kept.instrument) if prices else (returns.values, returns.instrument)
        for instrument in list(config.recurrence_ids) or returns.ids[:2]:
            if instrument not in returns.ids:
                print(f"no recurrence figure for {instrument!r}: not in the firm stream", file=sys.stderr)
                continue
            matrix = recurrence_matrix(values[rows == returns.ids.index(instrument)])
            write_recurrence(matrix, figures / _file_stem("recurrence_", instrument))
    else:
        months = MIN_OBS[config.frequency]
        for seq in stream.sequences:
            try:
                sums = monthly_column_sums(seq, months)
                total_bits = sums.rows_included * months
                grid = default_kde_grid(sums.values, length=total_bits)
                density = kde_curve(sums.values, grid, length=total_bits)
            except ValueError as exc:
                print(f"no kde figure for year {seq.source_id}: {exc}", file=sys.stderr)
                continue
            write_kde(grid, density, figures / f"kde_{seq.source_id}.csv")


def cmd_simulate(config: RunConfig) -> int:
    spec, resolved = config.synthetic_spec()
    stream = shape_synthetic(spec, resolved["generator"], config.master_seed, resolved["burn_in"])
    out = Path(config.output_dir) / stream.kind
    # SyntheticSpec lengths are >= MAX_WINDOW >= max_nu, with no joins, so every sequence is profiled.
    _write_stream(stream, config, out, {**config.echo_dict(), "synthetic_resolved": resolved})
    print(f"simulated {spec.count} sequence(s) with {resolved['generator']} -> {out}")
    return EXIT_OK


def cmd_rng_selftest() -> int:
    try:
        mismatch = rng_selftest()
    except FileNotFoundError as exc:
        print(f"reference vector fixture missing: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if mismatch:
        print(mismatch, file=sys.stderr)
        return EXIT_INTERNAL
    print("all reference vectors match")
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
