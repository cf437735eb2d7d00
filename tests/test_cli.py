"""End-to-end command line behaviour, exit codes, and determinism."""

import csv
import dataclasses
import datetime as dt
import importlib.util
import io
import json
import string
import tempfile
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketrng import cli, pipeline
from marketrng.cli import main
from marketrng.config import ConfigError, RunConfig
from marketrng.pipeline import parse_prices
from marketrng.report import read_report_json, write_report_json
from marketrng.serial import BinarySequence, psi_profile

HEADER = "id,date,close,adjfactor,retfactor"
# JSON that Python's decoder refuses other than by JSONDecodeError.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
HUGE_INT_JSON = '{"master_seed": ' + "9" * 5000 + "}"
CONFIG_KEYS = st.sampled_from([*RunConfig.__dataclass_fields__, "jobs", "bogus"])  # every field, "jobs", one unknown
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda values: st.lists(values, max_size=3) | st.dictionaries(st.text(), values, max_size=3),
    max_leaves=8,
)
REPORT_KEYS = {
    "kind", "alpha", "n_sequences", "sequence_ids", "nus", "d2_nus", "psi_summary", "d2_summary",
    "per_sequence_d2", "combined", "significant_fraction", "trim_fractions", "trim_mode",
    "trim_ladder", "extras",
}


def month_end(year, month):
    if month == 12:
        return dt.date(year, 12, 31)
    return dt.date(year, month + 1, 1) - dt.timedelta(days=1)


def firm_rows(name, closes, start_year=2001, start_month=1, skip_months=()):
    rows = []
    year, month = start_year, start_month
    for close in closes:
        date = month_end(year, month)
        if (year, month) not in skip_months:
            rows.append(f"{name},{date.isoformat()},{close:.6f},1.0,1.0")
        month += 1
        if month > 12:
            month, year = 1, year + 1
    return rows


def random_walk_closes(n, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    return (100.0 * np.exp(np.cumsum(rng.standard_normal(n) * scale))).tolist()


def write_panel(path, firms):
    """firms: list of (name, closes, extra kwargs for firm_rows)."""
    rows = [HEADER]
    for name, closes, kwargs in firms:
        rows.extend(firm_rows(name, closes, **kwargs))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def small_panel(tmp_path):
    firms = [
        (f"F{i:02d}", random_walk_closes(37, seed=100 + i), {}) for i in range(6)
    ]
    return write_panel(tmp_path / "panel.csv", firms)


class TestIngest:
    def test_gapped_firm_dropped(self, tmp_path, capsys):
        panel = write_panel(
            tmp_path / "p.csv",
            [
                ("AAA", random_walk_closes(24, 1), {}),
                ("BBB", random_walk_closes(24, 2), {"skip_months": ((2001, 7),)}),
                ("CCC", random_walk_closes(24, 3), {}),
            ],
        )
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(panel), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "kept 2" in captured and "dropped 1" in captured
        audit = (out / "audit.csv").read_text().splitlines()
        assert audit[0] == "id,reason,detail"
        assert any(line.startswith("BBB,gap") for line in audit)

    def test_rerun_on_own_output_is_idempotent(self, tmp_path):
        # The last three ids need CSV quoting: a comma, a quote, a newline.
        panel = write_panel(
            tmp_path / "p.csv",
            [
                ("AAA", random_walk_closes(24, 1), {}),
                ("BBB", random_walk_closes(24, 2), {"skip_months": ((2001, 7),)}),
                ('"A,B"', random_walk_closes(13, 3), {}),
                ('"""Q"', random_walk_closes(13, 4), {}),
                ('"x\ny"', random_walk_closes(13, 5), {}),
            ],
        )
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["ingest", "--input", str(panel), "--out", str(first)]) == 0
        assert main(["ingest", "--input", str(first / "cleaned.csv"), "--out", str(second)]) == 0
        audit = (second / "audit.csv").read_text().splitlines()
        assert audit == ["id,reason,detail"]
        assert (first / "cleaned.csv").read_bytes() == (second / "cleaned.csv").read_bytes()
        with open(first / "cleaned.csv", newline="", encoding="utf-8") as handle:
            ids = {row[0] for row in list(csv.reader(handle))[1:]}
        assert ids == {"AAA", "A,B", '"Q', "x\ny"}

    def test_ids_that_need_quoting_survive_ingest_and_test(self, tmp_path):
        # Written raw, "A,B" would split into an id "A" and a date "B", and
        # re-ingesting would reject all 13 of its rows.
        names = ["A,B", '"Q', "x\ny", "plain"]
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(HEADER.split(","))
        for k, name in enumerate(names):
            for row in firm_rows("?", random_walk_closes(13, k)):
                writer.writerow([name, *row.split(",")[1:]])
        for row in firm_rows("?", random_walk_closes(13, 9), skip_months=((2001, 5),)):
            writer.writerow(['gap,"id"', *row.split(",")[1:]])
        panel = tmp_path / "p.csv"
        panel.write_text(text.getvalue(), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(panel), "--out", str(out)]) == 0
        with open(out / "audit.csv", newline="", encoding="utf-8") as handle:
            audit = list(csv.reader(handle))
        assert audit[1:] == [['gap,"id"', "gap", "missing period index 24016 in span 24012..24024"]]
        assert main(["ingest", "--input", str(out / "cleaned.csv"), "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "audit.csv").read_text() == "id,reason,detail\n"
        test_out = tmp_path / "test"
        argv = ["test", "--input", str(out / "cleaned.csv"), "--stream", "firm", "--max-nu", "3"]
        assert main([*argv, "--trim", "0", "--out", str(test_out)]) == 0
        report, _ = read_report_json(test_out / "firm_separated" / "report.json")
        assert sorted(report.sequence_ids) == sorted(names)

    def test_drop_shares_match_engineered_proportions(self, tmp_path, capsys):
        # 1000 firms: 85 with a one-month hole (8.5%) and 59 with only
        # eleven months (5.9%), mirroring the documented cleaning shares
        # of roughly 8.50% gap drops and 5.86% short drops.
        firms = []
        for i in range(1000):
            name = f"F{i:04d}"
            if i < 85:
                firms.append((name, random_walk_closes(24, i), {"skip_months": ((2001, 5),)}))
            elif i < 144:
                firms.append((name, random_walk_closes(11, i), {}))
            else:
                firms.append((name, random_walk_closes(24, i), {}))
        panel = write_panel(tmp_path / "big.csv", firms)
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(panel), "--out", str(out)]) == 0
        audit = (out / "audit.csv").read_text().splitlines()[1:]
        gap_share = sum(1 for line in audit if ",gap," in line) / 1000.0
        short_share = sum(1 for line in audit if ",short," in line) / 1000.0
        assert gap_share == pytest.approx(0.085, abs=0.005)
        assert short_share == pytest.approx(0.0586, abs=0.005)
        assert "kept 856" in capsys.readouterr().out

    def test_out_of_range_adjusted_price_is_rejected(self, tmp_path):
        # Each field is finite and positive, but close * adjfactor /
        # retfactor overflows (AAA) or underflows to 0 (BBB).  Both rows
        # follow a complete first year, so each firm stays kept.
        rows = [HEADER]
        rows += firm_rows("AAA", random_walk_closes(12, 1)) + ["AAA,2002-01-31,1e300,1e10,1"]
        rows += firm_rows("BBB", random_walk_closes(12, 2)) + ["BBB,2002-01-31,1e-300,1e-100,1e10"]
        panel = tmp_path / "p.csv"
        panel.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(panel), "--out", str(out)]) == 0
        cleaned = out / "cleaned.csv"
        assert main(["test", "--input", str(cleaned), "--out", str(tmp_path / "t")]) == 0
        assert main(["test", "--input", str(panel), "--out", str(tmp_path / "raw")]) == 0
        assert (out / "audit.csv").read_text().splitlines() == [
            "id,reason,detail",
            "line:14,reject,adjusted price out of range",
            "line:27,reject,adjusted price out of range",
        ]

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["numpy-pass", "csv-reader"])
    def test_byte_order_mark_gives_the_same_cleaned_csv(self, tmp_path, end, quoted):
        rows = [HEADER, *firm_rows("AAA", random_walk_closes(24, 1)), *firm_rows("BBB", random_walk_closes(9, 2))]
        if quoted:  # a quote anywhere sends the rest of the file to csv.reader
            rows[1] = '"AAA"' + rows[1][len("AAA") :]
        (tmp_path / "plain.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + (end.join(rows) + end).encode("utf-8"))
        for name in ("plain", "bom"):
            assert main(["ingest", "--input", str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name)]) == 0
        for name in ("cleaned.csv", "audit.csv"):
            assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    @pytest.mark.parametrize("block", [pipeline._BLOCK_CHARS, 1 << 12], ids=["two-blocks", "many-blocks"])
    def test_ids_sharing_prefixes_ingest_the_same_firm_major_and_date_major(self, tmp_path, monkeypatch, block):
        # Ids share prefixes and case, and are 31 to 33 bytes long (a
        # 33-byte id goes to the row rules).  Firm-major, the 32-byte id is
        # met blocks before the 31-byte one it prefixes; date-major, each
        # block holds most ids.  F00 is short and the 33-byte id has a gap.
        monkeypatch.setattr(pipeline, "_BLOCK_CHARS", block)
        ids = ["z" * 32, *(f"F{k:04d}" for k in range(60)), "ab", "y" * 33, "AB", "F00010", "z" * 31, "F00"]
        rows = [
            f"{f},{2001 + m // 12}-{m % 12 + 1:02d}-28,{100 + 10 * np.sin(k * m + 1):.4f},1.0,1.0"
            for k, f in enumerate(ids)
            for m in range(6 if f == "F00" else 120)
            if not (f == "y" * 33 and m == 4)
        ]
        date_major = sorted(rows, key=lambda r: r.split(",")[1::-1])
        for name, body in (("firm-major", rows), ("date-major", date_major)):
            (tmp_path / f"{name}.csv").write_text("\n".join([HEADER, *body]) + "\n", encoding="utf-8")
            assert main(["ingest", "--input", str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name)]) == 0
        for name in ("cleaned.csv", "audit.csv"):
            assert (tmp_path / "firm-major" / name).read_bytes() == (tmp_path / "date-major" / name).read_bytes()
        with open(tmp_path / "firm-major" / "cleaned.csv", newline="", encoding="utf-8") as handle:
            kept = Counter(row[0] for row in list(csv.reader(handle))[1:])
        assert kept == {f: 120 for f in ids if f not in ("y" * 33, "F00")}
        audit = (tmp_path / "firm-major" / "audit.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in audit] == [["F00", "short"], ["y" * 33, "gap"]]

    def test_bad_header_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        assert main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_empty_result_is_data_error(self, tmp_path):
        panel = write_panel(tmp_path / "p.csv", [("AAA", random_walk_closes(5, 1), {})])
        assert main(["ingest", "--input", str(panel), "--out", str(tmp_path / "o")]) == 2

    def test_cleaned_csv_of_four_decimal_prices_takes_the_numpy_pass(self, tmp_path, monkeypatch):
        # Prices written as perfbench/inputs.py writes them ({:.4f}, {:g}).
        # If cleaned.csv ever wrote them in a form the numpy pass cannot
        # prove, test would read the whole file through the row rules.
        rng = np.random.default_rng(7)
        rows = [HEADER]
        for firm in range(30):
            n = 30
            close = np.exp(np.log(rng.uniform(5.0, 80.0)) + np.cumsum(rng.normal(0.004, 0.08, n)))
            adj = np.cumprod(np.where(rng.random(n) < 0.05, 2.0, 1.0))
            ret = np.where(rng.random(n) < 0.1, 1.02, 1.0)
            for k, c, a, r in zip(range(n), close.tolist(), adj.tolist(), ret.tolist()):
                rows.append(f"F{firm:04d},{month_end(2001 + k // 12, k % 12 + 1)},{c:.4f},{a:g},{r:g}")
        panel = tmp_path / "p.csv"
        panel.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["ingest", "--input", str(panel), "--out", str(tmp_path / "o")]) == 0

        calls = []
        row_values = pipeline._row_values
        monkeypatch.setattr(pipeline, "_row_values", lambda *args: calls.append(args) or row_values(*args))
        with open(tmp_path / "o" / "cleaned.csv", encoding="utf-8-sig", newline="") as handle:
            parsed = parse_prices(handle)
        assert len(parsed.records) == 30 * 30 and parsed.rejects == []
        assert calls == []


def output_tree(out):
    """Every file under ``out`` by relative path, with its bytes."""
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def row_rule_form(line, k):
    """Line ``k`` of a panel with every fifth line in a form only the row rules accept, same values."""
    if k % 5:
        return line
    name, date, close, adjfactor, retfactor = line.split(",")
    variant = k // 5 % 3
    if variant == 0:
        name = f" {name} "  # padded id
    elif variant == 1:
        close = format(Decimal(close), "e")  # 109.0930 -> 1.090930e+2
    else:
        adjfactor = "+" + adjfactor
    return ",".join([name, date, close, adjfactor, retfactor])


@pytest.mark.parametrize("block_chars", [None, 256], ids=["one-block", "many-blocks"])
def test_outputs_do_not_depend_on_parse_order(tmp_path, monkeypatch, block_chars):
    # The numpy pass keeps a block's provable lines and the row rules take
    # the rest after them, so for the second file the parsed rows leave
    # file order; cleaned.csv, audit.csv and every test output must not show it.
    lines = firm_rows("AAA", random_walk_closes(24, 1)) + firm_rows("BBB", random_walk_closes(24, 2))
    assert all(line.split(",")[3] == "1.0" for line in lines)
    forms = {"plain": lines, "rules": [row_rule_form(line, k) for k, line in enumerate(lines)]}
    assert sum(a != b for a, b in zip(*forms.values())) == 10
    if block_chars is not None:
        monkeypatch.setattr(pipeline, "_BLOCK_CHARS", block_chars)
    trees = {}
    for name, rows in forms.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "panel.csv").write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path / name)  # report.json echoes the input path as given
        assert main(["ingest", "--input", "panel.csv", "--out", "ingest"]) == 0
        assert main(["test", "--input", "panel.csv", "--out", "test"]) == 0
        trees[name] = output_tree(Path("ingest")), output_tree(Path("test"))
    assert set(trees["plain"][0]) == {"cleaned.csv", "audit.csv"}
    assert len(trees["plain"][1]) > 10
    assert trees["rules"] == trees["plain"]


@pytest.mark.parametrize("command", ["ingest", "test"])
def test_header_only_input_is_data_error(tmp_path, capsys, command):
    panel = tmp_path / "p.csv"
    panel.write_text(HEADER + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--input", str(panel), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "kept 0 instrument(s), dropped 0, rejected 0 row(s)\n"
    assert captured.err == "no instruments survived cleaning\n"
    written = {"cleaned.csv": HEADER + "\n", "audit.csv": "id,reason,detail\n"}
    if command == "test":  # test writes no cleaned.csv
        del written["cleaned.csv"]
    assert {path.name: path.read_text(encoding="utf-8") for path in out.iterdir()} == written


class TestTestCommand:
    def test_outputs_and_determinism(self, small_panel, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["test", "--input", str(small_panel), "--jobs", "1"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for kind in ("firm_separated", "year_separated"):
            report_a = out_a / kind / "report.json"
            assert report_a.exists()
            assert (out_a / kind / "tables" / "psi_summary.csv").exists()
            assert (out_a / kind / "tables" / "d2_summary.csv").exists()
            assert (out_a / kind / "tables" / "trim_ladder.csv").exists()
            assert report_a.read_bytes() == (out_b / kind / "report.json").read_bytes()
        assert list((out_a / "firm_separated" / "figures").glob("recurrence_*.csv"))
        assert list((out_a / "firm_separated" / "figures").glob("recurrence_*.pgm"))
        assert list((out_a / "year_separated" / "figures").glob("kde_*.csv"))

    def test_jobs_flag_and_config_key_are_ignored(self, small_panel, tmp_path):
        # Runs are single-process; every command keeps --jobs and a "jobs"
        # config key for old scripts and config files, and neither changes a
        # byte.  Config keys stay shared by all commands: simulate runs with
        # a file holding the panel keys that only ingest and test read.
        def config(name, settings):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(settings), encoding="utf-8")
            return ["--config", str(path)]

        shared = {"input_path": str(small_panel), "frequency": "monthly", "stream_kinds": ["firm"]}
        assert main(["simulate", *config("shared", shared), "--max-nu", "3", "--out", str(tmp_path / "shared")]) == 0
        assert (tmp_path / "shared" / "firm_separated" / "report.json").is_file()
        commands = {
            "ingest": ["ingest", "--input", str(small_panel)],
            "test": ["test", "--input", str(small_panel), "--stream", "firm"],
            "simulate": ["simulate", "--max-nu", "3"],
        }
        variants = {
            "plain": [],
            "jobs-2": ["--jobs", "2"],
            "jobs-0": ["--jobs", "0"],
            "config": config("jobs", {"jobs": 2}),
        }
        for command, args in commands.items():
            trees = []
            for name, extra in variants.items():
                out = tmp_path / command / name
                assert main(args + extra + ["--out", str(out)]) == 0, (command, name)
                trees.append(output_tree(out))
            assert trees[0] and trees == [trees[0]] * len(variants), command

    def test_price_ratio_past_the_double_range_writes_finite_figures(self, tmp_path):
        # HUGE's adjusted price steps between 1e-200 and 1e200, so each price
        # ratio overflows or underflows; its returns must still be finite.
        firms = [(f"F{i:02d}", random_walk_closes(37, seed=300 + i), {}) for i in range(5)]
        panel = write_panel(tmp_path / "p.csv", firms)
        rows = [f"HUGE,{month_end(2001 + m // 12, m % 12 + 1)},{'1e200' if m % 2 else '1e-200'},1,1" for m in range(37)]
        with panel.open("a", encoding="utf-8") as handle:
            handle.write("\n".join(rows) + "\n")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"recurrence_ids": ["HUGE"]}), encoding="utf-8")
        out = tmp_path / "out"
        args = ["test", "--input", str(panel), "--stream", "firm", "--config", str(config_path)]
        assert main(args + ["--out", str(out)]) == 0
        report, _ = read_report_json(out / "firm_separated" / "report.json")
        assert "HUGE" in report.sequence_ids
        cells = np.loadtxt(out / "firm_separated" / "figures" / "recurrence_HUGE.csv", delimiter=",")
        assert cells.shape == (36, 36) and np.all(np.isfinite(cells))
        # Returns alternate between +2 log(1e200) and -2 log(1e200).
        assert cells[0, 1] == pytest.approx(4 * np.log(1e200), rel=1e-5)
        assert np.all(cells[0, ::2] == 0.0)

    def test_planted_periodic_firm_dominates(self, tmp_path):
        # One firm whose price strictly alternates produces a perfectly
        # periodic bit sequence; it must own every per-window maximum
        # second difference and therefore be the top trim contributor.
        firms = [(f"F{i:02d}", random_walk_closes(49, seed=200 + i), {}) for i in range(9)]
        periodic = (100.0 * np.where(np.arange(49) % 2 == 0, 1.0, 1.1)).tolist()
        firms.append(("PLANT", periodic, {}))
        panel = write_panel(tmp_path / "p.csv", firms)
        out = tmp_path / "out"
        assert main(["test", "--input", str(panel), "--stream", "firm", "--out", str(out)]) == 0
        report, _ = read_report_json(out / "firm_separated" / "report.json")
        plant_index = report.sequence_ids.index("PLANT")
        for j in range(report.per_sequence_d2.shape[1]):
            assert int(np.argmax(report.per_sequence_d2[:, j])) == plant_index
        # the plant also owns the psi-square maximum at every window size
        bits = BinarySequence(bits=np.tile(np.array([0, 1], np.uint8), 24), source_id="p")
        plant_profile = psi_profile(bits, max_nu=8)
        for nu in report.nus:
            assert report.psi_summary[nu]["max"] == pytest.approx(plant_profile[nu - 1])

    def test_year_stream_monobit_is_zero_for_even_segments(self, tmp_path):
        # Histories starting in December give every later calendar year
        # exactly twelve returns per firm; even per-segment balance makes
        # the year-level monobit statistic exactly zero.
        firms = [
            (f"F{i:02d}", random_walk_closes(38, seed=300 + i), {"start_year": 2000, "start_month": 12})
            for i in range(6)
        ]
        panel = write_panel(tmp_path / "p.csv", firms)
        out = tmp_path / "out"
        assert main(["test", "--input", str(panel), "--stream", "year", "--out", str(out)]) == 0
        report, _ = read_report_json(out / "year_separated" / "report.json")
        assert report.kind == "year_separated"
        assert report.psi_summary[1]["max"] == 0.0

    def test_year_respect_skips_year_of_short_segments(self, tmp_path, capsys):
        # A panel ending in March leaves every firm segment of the final
        # year shorter than max_nu; in respect mode that year holds no
        # window of size 8 and is skipped instead of aborting the run.
        firms = [(f"F{i:02d}", random_walk_closes(27, seed=400 + i), {}) for i in range(6)]
        panel = write_panel(tmp_path / "p.csv", firms)
        out = tmp_path / "out"
        args = ["test", "--input", str(panel), "--stream", "year", "--boundary-mode", "respect"]
        assert main(args + ["--out", str(out)]) == 0
        report = json.loads((out / "year_separated" / "report.json").read_text())["report"]
        assert report["sequence_ids"] == ["2001", "2002"]
        assert report["extras"]["skipped_sequences"] == ["2003"]
        summary = f"year_separated: 2 sequence(s) profiled, 1 skipped -> {out / 'year_separated'}"
        assert capsys.readouterr().out.splitlines()[-1] == summary

    def test_missing_input_is_usage_error(self):
        assert main(["test"]) == 1

    def test_rejected_rows_are_counted_as_ingest_counts_them(self, tmp_path, capsys):
        # Line 3 has an empty date: ingest audits it, and test reports it on the
        # same summary line, while test's audit.csv lists dropped instruments only.
        rows = [HEADER, *firm_rows("AAA", random_walk_closes(24, 1)), *firm_rows("BBB", random_walk_closes(5, 2))]
        rows.insert(2, "AAA,,100.0,1.0,1.0")
        panel = tmp_path / "p.csv"
        panel.write_text("\n".join(rows) + "\n", encoding="utf-8")
        summary = "kept 1 instrument(s), dropped 1, rejected 1 row(s)"
        assert main(["ingest", "--input", str(panel), "--out", str(tmp_path / "i")]) == 0
        assert capsys.readouterr().out.splitlines() == [summary]
        assert main(["test", "--input", str(panel), "--stream", "firm", "--out", str(tmp_path / "t")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == summary
        assert (tmp_path / "i" / "audit.csv").read_text().splitlines()[1].startswith("line:3,reject,")
        assert (tmp_path / "t" / "audit.csv").read_text().splitlines() == [
            "id,reason,detail", *(tmp_path / "i" / "audit.csv").read_text().splitlines()[2:]
        ]

    def test_audit_is_written_when_every_instrument_is_dropped(self, tmp_path, capsys):
        panel = write_panel(
            tmp_path / "p.csv",
            [("SHORT", random_walk_closes(6, 1), {}), ("GAP", random_walk_closes(30, 2), {"skip_months": {(2001, 5)}})],
        )
        assert main(["test", "--input", str(panel), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().out == "kept 0 instrument(s), dropped 2, rejected 0 row(s)\n"
        assert (tmp_path / "o" / "audit.csv").read_text().splitlines() == [
            "id,reason,detail",
            "GAP,gap,missing period index 24016 in span 24012..24041",
            "SHORT,short,6 observations; need 12",
        ]

    @pytest.mark.parametrize("streams", ["firm,year", "year,firm"])
    def test_audit_is_written_when_a_later_stream_stops_the_run(self, tmp_path, capsys, streams):
        # July-June histories give each calendar year at most six returns per
        # firm, so in respect mode the year stream has nothing to profile;
        # the firm stream is still written, in either order.
        firms = [(f"F{i:02d}", random_walk_closes(12, 400 + i), {"start_month": 7}) for i in range(4)]
        panel = write_panel(tmp_path / "p.csv", [*firms, ("DDD", random_walk_closes(6, 499), {"start_month": 7})])
        out = tmp_path / "o"
        args = ["test", "--input", str(panel), "--stream", streams, "--boundary-mode", "respect", "--out", str(out)]
        assert main(args) == 2
        assert "year_separated: no sequence is long enough to profile" in capsys.readouterr().err
        assert (out / "firm_separated" / "report.json").exists()
        assert (out / "firm_separated" / "figures" / "recurrence_F00.csv").exists()
        assert (out / "audit.csv").read_text() == "id,reason,detail\nDDD,short,6 observations; need 12\n"

    def test_recurrence_of_prices_holds_adjusted_price_distances(self, tmp_path):
        # adjfactor and retfactor differ from 1, so the figure must use
        # close * adjfactor / retfactor, not the close or the returns.
        closes = random_walk_closes(24, 7)
        rows = [HEADER] + [
            row.replace(",1.0,1.0", f",{1.5 + m / 10},{0.5 + m / 100}")
            for m, row in enumerate(firm_rows("AAA", closes) + firm_rows("BBB", closes))
        ]
        panel = tmp_path / "p.csv"
        panel.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = tmp_path / "config.json"
        ids = ["BBB", "AAA"]  # both firms, the second in the table first
        config.write_text(json.dumps({"recurrence_source": "prices", "recurrence_ids": ids}), encoding="utf-8")
        out = tmp_path / "out"
        args = ["test", "--input", str(panel), "--stream", "firm", "--config", str(config), "--out", str(out)]
        assert main(args) == 0
        for name, lines in zip(ids, (rows[25:49], rows[1:25])):
            fields = [row.split(",") for row in lines]
            assert {firm for firm, *_ in fields} == {name}
            prices = [float(c) * float(a) / float(r) for _, _, c, a, r in fields]
            want = ["%.6g" % abs(p - q) for p in prices for q in prices]
            got = (out / "firm_separated" / "figures" / f"recurrence_{name}.csv").read_text().splitlines()
            assert [cell for line in got for cell in line.split(",")] == want
            assert len(got) == 24

    @staticmethod
    def _figures(tmp_path, firms):
        """Run ``test --stream firm`` on (id, months) firms; return the figure files by name.

        Every file the run writes, other than its report, tables and audit,
        must lie directly in the firm stream's figures directory.
        """
        rows = [(name, random_walk_closes(n, k), {}) for k, (name, n) in enumerate(firms)]
        panel = write_panel(tmp_path / "p.csv", rows)
        out = tmp_path / "out"
        assert main(["test", "--input", str(panel), "--stream", "firm", "--out", str(out)]) == 0
        written = [f for f in tmp_path.rglob("*") if f.is_file() and f != panel]
        rest = [f for f in written if "tables" not in f.parts and f.name not in ("report.json", "audit.csv")]
        assert {f.parent for f in rest} == {out / "firm_separated" / "figures"}
        return {f.name: f for f in rest}

    def test_figure_of_a_path_like_id_stays_under_figures(self, tmp_path):
        # Used raw, the id named figures/recurrence_../../../../../esc: esc.csv beside --out.
        figures = self._figures(tmp_path, [("../../../../../esc", 24), ("AAA", 24)])
        stem = "recurrence_" + "%2E%2E%2F" * 5 + "esc"
        assert sorted(figures) == [f"{stem}.csv", f"{stem}.pgm", "recurrence_AAA.csv", "recurrence_AAA.pgm"]

    def test_ids_differing_after_a_dot_get_their_own_figures(self, tmp_path):
        # Path.with_suffix once cut both ids to recurrence_BRK, so B overwrote A.
        figures = self._figures(tmp_path, [("BRK.A", 24), ("BRK.B", 30)])
        assert sorted(figures) == [f"recurrence_BRK%2E{c}.{ext}" for c in "AB" for ext in ("csv", "pgm")]
        assert len(figures["recurrence_BRK%2EA.csv"].read_text().splitlines()) == 23  # one row per return
        assert len(figures["recurrence_BRK%2EB.csv"].read_text().splitlines()) == 29

    def test_figures_of_ids_too_long_for_a_file_name(self, tmp_path):
        # A 300-character id once ended the run with exit 3: "File name too long".
        ids = ["L" * 299 + "1", "L" * 299 + "2"]
        figures = self._figures(tmp_path, [(name, 24) for name in ids])
        assert len(figures) == 4 and all(len(name.encode()) <= 255 for name in figures)
        assert len({name[:-4] for name in figures}) == 2  # one stem per id

    def test_unknown_recurrence_id_is_reported(self, small_panel, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"recurrence_ids": ["F01", "NOPE\n"]}), encoding="utf-8")
        out = tmp_path / "out"
        args = ["test", "--input", str(small_panel), "--stream", "firm", "--config", str(config)]
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == "no recurrence figure for 'NOPE\\n': not in the firm stream\n"
        figures = sorted(f.name for f in (out / "firm_separated" / "figures").iterdir())
        assert figures == ["recurrence_F01.csv", "recurrence_F01.pgm"]

    def test_year_without_a_full_segment_is_reported(self, small_panel, tmp_path, capsys):
        # 37 month-end prices from January 2001: 11 returns a firm in 2001,
        # 12 in 2002 and 2003, and one in 2004, which makes no sequence.
        out = tmp_path / "out"
        assert main(["test", "--input", str(small_panel), "--stream", "year", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "no kde figure for year 2001: no segment of 12 returns\n"
        figures = sorted(f.name for f in (out / "year_separated" / "figures").iterdir())
        assert figures == ["kde_2002.csv", "kde_2003.csv"]

    def test_kde_error_is_reported(self, tmp_path, capsys):
        # B's prices are the reciprocals of A's, so B's bits are A's flipped
        # and every month's column sum is 1: the samples have no spread.
        closes = random_walk_closes(25, seed=500)
        start = {"start_year": 2000, "start_month": 12}
        panel = write_panel(tmp_path / "p.csv", [("A", closes, start), ("B", [1e4 / x for x in closes], start)])
        out = tmp_path / "out"
        assert main(["test", "--input", str(panel), "--stream", "year", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "".join(
            f"no kde figure for year {year}: samples have zero spread\n" for year in (2001, 2002)
        )
        assert not (out / "year_separated" / "figures").exists()

    @settings(max_examples=300)
    @given(st.text(), st.text())
    @example("L" * 300, "L" * 299 + "M")
    @example("\u00e9" * 90, "\u00e9" * 89 + "e")
    def test_file_stems_are_distinct_plain_names(self, a, b):
        plain = set(string.ascii_letters + string.digits + "_-")
        stem = cli._file_stem("recurrence_", a)
        assert len(stem.encode()) <= 255 - len(".csv") and not set(stem) - plain - set("%~")
        assert (stem == cli._file_stem("recurrence_", b)) == (a == b)
        if len("recurrence_" + a) <= 251 and not set(a) - plain:
            assert stem == "recurrence_" + a  # plain ids keep their plain names


class TestSimulateCommand:
    def test_null_means_and_determinism(self, tmp_path):
        config = {
            "synthetic": {"kind": "firm_like", "count": 800, "length": 300, "generator": "pcg64"},
            "master_seed": 0,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--config", str(config_path), "--jobs", "1"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        report_path = out_a / "firm_separated" / "report.json"
        assert report_path.read_bytes() == (out_b / "firm_separated" / "report.json").read_bytes()
        report, echo = read_report_json(report_path)
        assert echo["master_seed"] == 0
        # burn_in is absent from the config: its default is echoed.
        assert echo["synthetic_resolved"] == {
            "kind": "firm_like", "generator": "pcg64", "count": 800, "burn_in": 100, "master_seed": 0,
        }
        for nu in (5, 6, 7, 8):
            xi = 2 ** (nu - 2)
            assert abs(report.d2_summary[nu]["mean"] / xi - 1.0) < 0.05

    def test_logistic_exceeds_pcg_at_window_eight(self, tmp_path):
        # Frozen comparative run (see the rng test module for context).
        reports = {}
        for generator in ("pcg64", "logistic"):
            config = {
                "synthetic": {
                    "kind": "firm_like",
                    "count": 150,
                    "length": 600,
                    "generator": generator,
                },
                "master_seed": 4,
            }
            config_path = tmp_path / f"{generator}.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            out = tmp_path / generator
            assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
            reports[generator], _ = read_report_json(out / "firm_separated" / "report.json")
        assert (
            reports["logistic"].combined[8].statistic
            > reports["pcg64"].combined[8].statistic
        )

    def test_negative_second_difference_is_not_significant(self, tmp_path):
        # Seed 1's one 12-bit sequence has a negative second difference;
        # it is reported signed, with p = 1, instead of aborting the run.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"synthetic": {"count": 1, "length": 12}}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--seed", "1", "--out", str(out)]) == 0
        report, _ = read_report_json(out / "firm_separated" / "report.json")
        negative = [a for a in report.combined.values() if a.statistic < 0.0]
        assert negative
        assert all(a.p_value == 1.0 and not a.significant for a in negative)

    def test_bad_synthetic_spec_is_usage_error(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"synthetic": {"count": 0, "length": 20}}))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1

    def test_empirical_lengths_file(self, tmp_path):
        lengths = [24, 36, 48, 60]
        lengths_path = tmp_path / "lengths.txt"
        lengths_path.write_text("\n".join(str(n) for n in lengths), encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "synthetic": {
                        "kind": "year_like",
                        "count": 4,
                        "lengths_file": str(lengths_path),
                    },
                    "master_seed": 11,
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        report, _ = read_report_json(out / "year_separated" / "report.json")
        assert report.kind == "year_separated"
        assert report.n_sequences == 4

    @pytest.mark.parametrize("max_nu, mode", [(8, "ignore"), (5, "respect")])
    def test_one_profile_call_per_sequence(self, tmp_path, monkeypatch, max_nu, mode):
        # The benchmark's tracer wraps marketrng.cli.psi_profile and counts
        # one call per sequence from (seq, max_nu=..., respect_boundaries=...);
        # a batched kernel must change the tracer first.
        import marketrng.cli

        calls = []
        real = marketrng.cli.psi_profile

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(marketrng.cli, "psi_profile", counting)
        config_path = tmp_path / "config.json"
        spec = {"kind": "firm_like", "count": 7, "length": 40, "generator": "pcg64"}
        config_path.write_text(json.dumps({"synthetic": spec, "master_seed": 2}), encoding="utf-8")
        args = ["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]
        assert main(args + ["--max-nu", str(max_nu), "--boundary-mode", mode]) == 0
        assert [len(a) for a, _ in calls] == [1] * 7
        assert [a[0].source_id for a, _ in calls] == [f"sim{j:05d}" for j in range(7)]
        assert all(isinstance(a[0], BinarySequence) and len(a[0]) == 40 for a, _ in calls)
        assert all(k == {"max_nu": max_nu, "respect_boundaries": mode == "respect"} for _, k in calls)

    @pytest.mark.parametrize("mode, months", [("ignore", 37), ("respect", 37), ("respect", 39)])
    def test_one_profile_call_per_sequence_under_test(self, tmp_path, monkeypatch, mode, months):
        # The same tracer contract on both panel streams: firm ids, then years.
        # 37 months is small_panel; at 39, year 2004 holds 3-return segments,
        # too short for max_nu 8 in respect mode, so it is skipped uncalled.
        import marketrng.cli

        calls = []
        real = marketrng.cli.psi_profile

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(marketrng.cli, "psi_profile", counting)
        panel = write_panel(
            tmp_path / "panel.csv", [(f"F{i:02d}", random_walk_closes(months, seed=100 + i), {}) for i in range(6)]
        )
        out = tmp_path / "out"
        args = ["test", "--input", str(panel), "--stream", "firm,year", "--boundary-mode", mode]
        assert main(args + ["--out", str(out)]) == 0
        assert [len(a) for a, _ in calls] == [1] * 9
        assert [a[0].source_id for a, _ in calls] == [f"F{i:02d}" for i in range(6)] + ["2001", "2002", "2003"]
        assert all(isinstance(a[0], BinarySequence) for a, _ in calls)
        assert all(k == {"max_nu": 8, "respect_boundaries": mode == "respect"} for _, k in calls)
        year_report = json.loads((out / "year_separated" / "report.json").read_text(encoding="utf-8"))["report"]
        assert year_report["extras"]["skipped_sequences"] == (["2004"] if months == 39 else [])

    def test_lengths_file_spaces_blank_lines_and_line_ends(self, tmp_path):
        config_path = tmp_path / "config.json"
        reports = []
        for name, text in [("plain", "24\n36\n"), ("spaced", " 24\t\r\n\r\n  \n36 \r")]:
            lengths_path = tmp_path / f"{name}.txt"
            lengths_path.write_bytes(text.encode())
            spec = {"kind": "year_like", "count": 2, "lengths_file": str(lengths_path)}
            config_path.write_text(json.dumps({"synthetic": spec}), encoding="utf-8")
            assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / name)]) == 0
            reports.append(json.loads((tmp_path / name / "year_separated" / "report.json").read_bytes())["report"])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("marked", ["config", "lengths-file"])
    def test_byte_order_mark_in_config_or_lengths_file(self, tmp_path, marked):
        lengths_path = tmp_path / "lengths.txt"
        lengths_path.write_text("24\n36\n48\n", encoding="utf-8")
        config_path = tmp_path / "config.json"
        spec = {"kind": "year_like", "count": 3, "lengths_file": str(lengths_path)}
        config_path.write_text(json.dumps({"synthetic": spec, "master_seed": 4}), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "plain")]) == 0
        path = {"config": config_path, "lengths-file": lengths_path}[marked]
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "bom")]) == 0
        report = Path("year_separated", "report.json")
        assert (tmp_path / "bom" / report).read_bytes() == (tmp_path / "plain" / report).read_bytes()

    def test_lengths_file_count_mismatch_is_usage_error(self, tmp_path):
        lengths_path = tmp_path / "lengths.txt"
        lengths_path.write_text("24\n36\n", encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {"synthetic": {"kind": "year_like", "count": 3, "lengths_file": str(lengths_path)}}
            ),
            encoding="utf-8",
        )
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "synthetic, lengths_text, message",
        [
            ({"count": 2, "length": 7}, None, "lengths must be >= 8"),
            ({"count": 2, "length": 20, "burn_in": -1}, None, "burn_in"),
            ({"count": 2, "length": 20, "burn_in": -1, "generator": "logistic"}, None, "burn_in"),
            ({"count": 2, "length": 20, "burn_in": "x"}, None, "burn_in"),
            ({"count": 2, "length": 20, "burn_in": 2.5}, None, "burn_in"),
            ({"count": 2, "lengths_file": "missing.txt"}, None, "cannot read lengths file"),
            ({"count": 2, "lengths_file": "lengths.txt"}, "24\nabc\n", "non-integer entry"),
            ({"count": 2, "lengths_file": "lengths.txt"}, "24\n5\n", "lengths must be >= 8"),
            ({"count": 2, "lengths_file": "lengths.txt"}, "24 36\n", "line 1 holds a non-integer entry"),
            ({"count": 2, "lengths_file": "lengths.txt"}, "24\n2_4\n", "line 2 holds a non-integer entry"),
            ({"count": 2, "lengths_file": "lengths.txt"}, "24\n\u0663\u0666\n", "line 2 holds a non-integer entry"),
            ({"count": 2, "length": 227, "lengths_file": "lengths.txt"}, "24\n36\n", "not both"),
            ({"count": True, "length": 20}, None, "count must be a positive integer"),
            ({"count": 2, "length": True}, None, "length must be a positive integer"),
            ({"count": 2, "length": 20.0}, None, "length must be a positive integer"),
            ({"count": 2, "lengths_file": 5}, None, "lengths_file must be a path string"),
            ([1], None, "synthetic must be a JSON object"),
            ({"count": 3, "length": 30, "genrator": "logistic"}, None, "unknown synthetic key(s): genrator"),
        ],
        ids=[
            "length-7",
            "burn-in-negative",
            "burn-in-negative-logistic",
            "burn-in-string",
            "burn-in-float",
            "lengths-file-missing",
            "lengths-file-non-integer",
            "lengths-file-short-entry",
            "lengths-file-two-on-a-line",
            "lengths-file-underscore",
            "lengths-file-non-ascii-digits",
            "length-and-lengths-file",
            "count-bool",
            "length-bool",
            "length-float",
            "lengths-file-number",
            "synthetic-list",
            "misspelled-key",
        ],
    )
    def test_bad_simulate_config_is_usage_error(
        self, tmp_path, capsys, synthetic, lengths_text, message
    ):
        if isinstance(synthetic, dict) and isinstance(synthetic.get("lengths_file"), str):
            if lengths_text is not None:
                (tmp_path / synthetic["lengths_file"]).write_text(lengths_text, encoding="utf-8")
            synthetic = {**synthetic, "lengths_file": str(tmp_path / synthetic["lengths_file"])}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"synthetic": synthetic}), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


def test_every_traced_name_is_called(small_panel, tmp_path, monkeypatch):
    # perfbench/tracing.py times the names in its PATCHES; one imported but
    # never called would move its layer's time into the CLI's own remainder.
    # small_panel holds the full years 2002 and 2003, so a KDE is written.
    tracing_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing_path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    calls = Counter()

    def counted(fn, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for module, attr, _ in tracing.PATCHES:
        monkeypatch.setattr(module, attr, counted(getattr(module, attr), f"{module.__name__}.{attr}"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"synthetic": {"count": 20, "length": 64}}), encoding="utf-8")
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "s")]) == 0
    assert main(["test", "--input", str(small_panel), "--out", str(tmp_path / "t")]) == 0
    assert list((tmp_path / "t" / "year_separated" / "figures").glob("kde_*.csv"))
    uncalled = [f"{m.__name__}.{a}" for m, a, _ in tracing.PATCHES if not calls[f"{m.__name__}.{a}"]]
    assert not uncalled


class TestSelftestCommand:
    def test_intact_build_passes(self, capsys):
        assert main(["rng-selftest"]) == 0
        assert "match" in capsys.readouterr().out

    def test_missing_fixture_is_internal_error(self, monkeypatch, capsys):
        import marketrng.cli as cli_module

        def boom():
            raise FileNotFoundError("pcg64_vectors.json")

        monkeypatch.setattr(cli_module, "rng_selftest", boom)
        assert main(["rng-selftest"]) == 3
        assert "missing" in capsys.readouterr().err

    def test_mismatch_reports_index(self, monkeypatch, capsys):
        import marketrng.cli as cli_module

        monkeypatch.setattr(cli_module, "rng_selftest", lambda: "seed=1 stream=0 output 7: bad")
        assert main(["rng-selftest"]) == 3
        captured = capsys.readouterr()
        assert "output 7" in captured.err and captured.out == ""


class TestReportCommand:
    # Only the year stream's d2 table has per-sequence rows, each cell marked on its own.
    @pytest.mark.parametrize("stream", ["firm", "year"])
    def test_reemits_identical_tables(self, small_panel, tmp_path, stream):
        out = tmp_path / "out"
        assert main(["test", "--input", str(small_panel), "--stream", stream, "--out", str(out)]) == 0
        produced = out / f"{stream}_separated"
        re_out = tmp_path / "re"
        assert main(
            ["report", "--report", str(produced / "report.json"), "--out", str(re_out)]
        ) == 0
        for name in ("psi_summary.csv", "d2_summary.csv", "trim_ladder.csv"):
            assert (re_out / "tables" / name).read_bytes() == (
                produced / "tables" / name
            ).read_bytes()

    def test_markdown_format(self, small_panel, tmp_path):
        out = tmp_path / "out"
        assert main(["test", "--input", str(small_panel), "--stream", "firm", "--out", str(out)]) == 0
        re_out = tmp_path / "md"
        assert main(
            [
                "report",
                "--report",
                str(out / "firm_separated" / "report.json"),
                "--out",
                str(re_out),
                "--format",
                "markdown",
            ]
        ) == 0
        assert (re_out / "tables" / "psi_summary.md").exists()

    @pytest.mark.parametrize("table_format", ["csv", "markdown"])
    def test_byte_order_mark_gives_the_same_tables(self, small_panel, tmp_path, table_format):
        out = tmp_path / "out"
        assert main(["test", "--input", str(small_panel), "--stream", "year", "--out", str(out)]) == 0
        plain = out / "year_separated" / "report.json"
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path, name in ((plain, "plain"), (marked, "bom")):
            args = ["report", "--report", str(path), "--format", table_format, "--out", str(tmp_path / name)]
            assert main(args) == 0
        tables = sorted(f.name for f in (tmp_path / "plain" / "tables").iterdir())
        assert len(tables) == 3
        for name in tables:
            marked_table, plain_table = (tmp_path / run / "tables" / name for run in ("bom", "plain"))
            assert marked_table.read_bytes() == plain_table.read_bytes()

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_report_json_reads_back_to_the_same_bytes(self, small_panel, tmp_path, command):
        out = tmp_path / "out"
        if command == "test":
            args = ["test", "--input", str(small_panel), "--stream", "firm,year",
                    "--boundary-mode", "respect"]
        else:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"synthetic": {"count": 40, "length": 60}}))
            args = ["simulate", "--config", str(config_path)]
        assert main(args + ["--out", str(out)]) == 0
        paths = sorted(out.glob("*/report.json"))
        assert len(paths) == (2 if command == "test" else 1)
        for path in paths:
            assert set(json.loads(path.read_text())["report"]) == REPORT_KEYS
            report, config = read_report_json(path)
            again = write_report_json(report, tmp_path / "again.json", config=config)
            assert again.read_bytes() == path.read_bytes()


class TestExitCodes:
    def test_unknown_command_is_usage(self):
        assert main(["frobnicate"]) == 1

    def test_unexpected_error_is_internal(self, small_panel, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_stream", boom)
        out = tmp_path / "out"
        assert main(["test", "--input", str(small_panel), "--out", str(out)]) == 3
        assert capsys.readouterr().err.endswith("internal error: boom\n")
        assert (out / "audit.csv").exists()  # written before any stream runs

    def test_invalid_alpha_is_usage(self, small_panel, tmp_path):
        assert (
            main(
                [
                    "test",
                    "--input",
                    str(small_panel),
                    "--alpha",
                    "2.0",
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
            == 1
        )

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("ingest", "--stream", "year"),
            ("ingest", "--max-nu", "5"),
            ("ingest", "--alpha", "0.5"),
            ("ingest", "--trim", "0.3"),
            ("ingest", "--boundary-mode", "respect"),
            ("ingest", "--seed", "9"),
            ("test", "--seed", "123"),
            ("simulate", "--input", "panel.csv"),
            ("simulate", "--frequency", "daily"),
            ("simulate", "--stream", "year"),
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, small_panel, tmp_path, capsys, command, flag, value):
        # A command accepts only the flags it reads; one it would ignore
        # stops the run before anything is read or written.
        out = tmp_path / "o"
        argv = [command, flag, value, "--out", str(out)]
        if command != "simulate":
            argv += ["--input", str(small_panel)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e-17", "1e-300"])
    def test_tiny_alpha_runs(self, tmp_path, alpha):
        # 1 - alpha rounds to 1.0 here, which once reached log(0) and exit 3.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"synthetic": {"count": 20, "length": 227}}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--alpha", alpha, "--out", str(out)]) == 0
        report, _ = read_report_json(out / "firm_separated" / "report.json")
        assert report.alpha == float(alpha)
        assert not any(a.significant for a in report.combined.values())

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"max_nu": "8"}, "max_nu must be an integer"),
            ({"max_nu": 7.5}, "max_nu must be an integer"),
            ({"alpha": "0.05"}, "alpha must be a number"),
            ({"trim_fractions": 0.05}, "trim fractions must be a list"),
            ({"trim_fractions": ["0.05"]}, "trim fractions must be a list"),
            ({"master_seed": 1.5}, "master_seed must be an integer"),
            ({"stream_kinds": 5}, "stream kinds"),
            ({"stream_kinds": [["firm"]]}, "stream kinds"),
            ({"recurrence_ids": 5}, "recurrence_ids must be a list"),
            ({"output_dir": 5}, "output_dir must be"),
        ],
        ids=[
            "max-nu-string",
            "max-nu-float",
            "alpha-string",
            "trim-number",
            "trim-string-entry",
            "seed-float",
            "streams-number",
            "streams-nested-list",
            "recurrence-ids-number",
            "output-dir-number",
        ],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, setting, message):
        config = {"synthetic": {"count": 3, "length": 20}, "output_dir": str(tmp_path / "o")}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**config, **setting}), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_a_config_is_checked_when_built(self):
        # Building one, directly or by dataclasses.replace, runs the same check as from_file.
        with pytest.raises(ConfigError, match=r"max_nu must be an integer in \[3, 8\]"):
            RunConfig(max_nu=9)
        with pytest.raises(ConfigError, match=r"alpha must be a number in \(0, 1\)"):
            dataclasses.replace(RunConfig(), alpha=1.5)

    @pytest.mark.parametrize(
        "flags, setting, name",
        [
            (["--stream", "firm,firm"], {}, "stream_kinds"),
            (["--stream", "year, firm,year"], {}, "stream_kinds"),
            (["--trim", "0.1,0.1"], {}, "trim_fractions"),
            (["--trim", "0,0.02,0.0"], {}, "trim_fractions"),
            ([], {"stream_kinds": ["firm", "firm"]}, "stream_kinds"),
            ([], {"trim_fractions": [0.01, 0.02, 0.01]}, "trim_fractions"),
            ([], {"recurrence_ids": ["F01", "F02", "F01"]}, "recurrence_ids"),
        ],
        ids=["stream-flag", "stream-flag-spaced", "trim-flag", "trim-flag-zero", "stream-kinds",
             "trim-fractions", "recurrence-ids"],
    )
    def test_repeated_list_entry_is_usage_error(self, small_panel, tmp_path, capsys, flags, setting, name):
        # Once, "firm,firm" profiled the firm stream twice, the second run
        # overwriting the first's files, and "0.1,0.1" made two equal ladder steps.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(setting), encoding="utf-8")
        args = ["test", "--input", str(small_panel), "--config", str(config_path), *flags]
        assert main(args + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {name} lists ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--trim", "abc"),
            ("--trim", "0.1,"),
            ("--trim", ""),
            ("--stream", ""),
            ("--stream", "firm,"),
        ],
    )
    def test_malformed_list_flag_is_usage_error(self, small_panel, tmp_path, capsys, flag, value):
        args = ["test", "--input", str(small_panel), flag, value, "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "content",
        [None, "directory", "not json", "[]", '{"report": {}}', "combined-key-removed", DEEP_JSON],
        ids=["missing", "directory", "not-json", "list", "empty-report", "combined-key-removed", "deep-nesting"],
    )
    def test_unreadable_report_is_data_error(self, tmp_path, capsys, content):
        path = tmp_path / "report.json"
        if content == "directory":
            path.mkdir()
        elif content == "combined-key-removed":
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"synthetic": {"count": 3, "length": 20}}))
            assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "s")]) == 0
            payload = json.loads((tmp_path / "s" / "firm_separated" / "report.json").read_text())
            del payload["report"]["combined"]["5"]["p_value"]
            path.write_text(json.dumps(payload))
        elif content is not None:
            path.write_text(content)
        capsys.readouterr()
        assert main(["report", "--report", str(path), "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err.startswith("data error: cannot read report")

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("firm_like", lambda r: r["d2_nus"].append(9)),
            ("firm_like", lambda r: r["nus"].remove(1)),
            ("firm_like", lambda r: r["psi_summary"].pop("2")),
            ("firm_like", lambda r: r["d2_summary"].pop("5")),
            ("firm_like", lambda r: r["combined"].pop("4")),
            ("firm_like", lambda r: r["significant_fraction"].update({"9": 0.0})),
            ("firm_like", lambda r: r["trim_ladder"].pop("3")),
            ("firm_like", lambda r: r["trim_ladder"]["6"].pop()),
            ("firm_like", lambda r: [row.pop() for row in r["per_sequence_d2"]]),
            ("firm_like", lambda r: r["per_sequence_d2"].pop()),
            ("firm_like", lambda r: r.update(alpha=1.5)),
            ("firm_like", lambda r: r.update(alpha=0.0)),
            ("firm_like", lambda r: r.update(alpha="x")),
            ("firm_like", lambda r: r["trim_fractions"].__setitem__(0, "a")),
            ("firm_like", lambda r: r["combined"]["5"].update(statistic="x")),
            ("firm_like", lambda r: r.update(kind="zzz")),
            ("firm_like", lambda r: r.update(psi_summary=list(r["psi_summary"].values()))),
            ("year_like", lambda r: r.update(combined=list(r["combined"].values()))),
            ("firm_like", lambda r: r["psi_summary"]["2"].pop("mean")),
            ("firm_like", lambda r: r["d2_summary"]["4"].pop("sd")),
            ("year_like", lambda r: r["sequence_ids"].__setitem__(0, 7)),
            ("firm_like", lambda r: r["combined"]["3"].update(dof=[1])),
            ("firm_like", lambda r: r["trim_ladder"]["3"][0].update(dropped=[1])),
            ("firm_like", lambda r: r["combined"]["3"].update(dof=True)),
            ("firm_like", lambda r: r["trim_ladder"]["3"][0].update(dropped=True)),
            ("firm_like", lambda r: r["combined"]["5"].update(statistic=True)),
            ("year_like", lambda r: r["per_sequence_d2"][1].__setitem__(2, None)),
            ("firm_like", lambda r: r["per_sequence_d2"][0].__setitem__(0, True)),
            ("firm_like", lambda r: r["per_sequence_d2"][2].__setitem__(3, float("nan"))),
            ("firm_like", lambda r: r["significant_fraction"].update({"3": True})),
            ("firm_like", lambda r: r["combined"]["3"].update(significant="no")),
            ("firm_like", lambda r: [row.__setitem__(0, 1e308) for row in r["per_sequence_d2"]]),
            ("firm_like", lambda r: r["per_sequence_d2"][0].__setitem__(0, 10**400)),
            ("firm_like", lambda r: r["psi_summary"]["1"].update(mean=10**400)),
            ("firm_like", lambda r: r["psi_summary"]["2"].update(sd=float("nan"))),
            ("firm_like", lambda r: r["combined"]["3"].update(significant=not r["combined"]["3"]["significant"])),
            ("firm_like", lambda r: r.update(per_sequence_d2=5)),
            ("firm_like", lambda r: r.update(per_sequence_d2=[])),
        ],
        ids=[
            "d2-nus", "nus", "psi-summary", "d2-summary", "combined", "significant-fraction",
            "trim-ladder-keys", "trim-ladder-steps", "per-sequence-d2-width", "per-sequence-d2-rows",
            "alpha-above-one", "alpha-zero", "alpha-string", "trim-fraction-string",
            "combined-statistic-string", "unknown-kind", "psi-summary-list", "combined-list",
            "psi-row-without-mean", "d2-row-without-sd", "year-sequence-id-int", "combined-dof-list",
            "trim-dropped-list", "combined-dof-bool", "trim-dropped-bool", "combined-statistic-bool",
            "per-sequence-d2-null", "per-sequence-d2-bool", "per-sequence-d2-nan", "significant-fraction-bool",
            "combined-significant-string", "per-sequence-d2-overflow", "per-sequence-d2-huge-int",
            "psi-value-huge-int", "psi-value-nan", "combined-significant-flipped", "per-sequence-d2-number",
            "per-sequence-d2-empty",
        ],
    )
    def test_inconsistent_report_is_data_error(self, tmp_path, capsys, kind, edit):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"synthetic": {"kind": kind, "count": 3, "length": 20}}))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "s")]) == 0
        stream = "firm_separated" if kind == "firm_like" else "year_separated"
        path = tmp_path / "s" / stream / "report.json"
        payload = json.loads(path.read_text())
        edit(payload["report"])
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["report", "--report", str(path), "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err.startswith("data error: cannot read report: ValueError")

    @pytest.mark.parametrize("kind", ["firm_like", "year_like"])
    def test_every_edited_derived_value_is_data_error(self, tmp_path, capsys, kind):
        # Every field but the inputs is rebuilt from them when a report is
        # read, so an edit is caught even where its type is right.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"synthetic": {"kind": kind, "count": 3, "length": 20}}))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "s")]) == 0
        stream = "firm_separated" if kind == "firm_like" else "year_separated"
        path = tmp_path / "s" / stream / "report.json"
        assert main(["report", "--report", str(path), "--out", str(tmp_path / "t")]) == 0

        def leaves(node, trail):
            if not isinstance(node, (dict, list)):
                yield trail
                return
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                yield from leaves(child, trail + (key,))

        inputs = {"per_sequence_d2", "sequence_ids", "kind", "alpha", "trim_fractions", "trim_mode", "psi_summary",
                  "extras"}
        payload = json.loads(path.read_text())
        derived = [trail for key in sorted(REPORT_KEYS - inputs) for trail in leaves(payload["report"][key], (key,))]
        assert len(derived) > 200
        edited, edits = tmp_path / "edited.json", 0
        for trail in derived:
            node = payload["report"]
            for key in trail[:-1]:
                node = node[key]
            stored = node[trail[-1]]
            for value in (True, "x", None, -1, 1e9):
                if json.dumps(stored) == json.dumps(value):
                    continue
                node[trail[-1]] = value
                edited.write_text(json.dumps(payload))
                node[trail[-1]] = stored
                capsys.readouterr()
                assert main(["report", "--report", str(edited), "--out", str(tmp_path / "e")]) == 2, (trail, value)
                err = capsys.readouterr().err
                assert err.startswith("data error: cannot read report: ValueError"), (trail, value, err)
                edits += 1
        assert edits >= 4 * len(derived)  # a value equals at most one of the five
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            ('{"boundary_mode": "both"}', "boundary_mode must be one of"),
            ('{"synthetic": {"kind": "x", "count": 2, "length": 20}}', "synthetic kind must be"),
            ('{"synthetic": {"generator": "mt", "count": 2, "length": 20}}', "synthetic generator must be"),
            ('{"synthetic": {"count": 2}}', "needs 'length' or 'lengths_file'"),
            ('{"max_nu": 8,}', "config file is not valid JSON"),
            ("[1, 2]", "config file must hold a JSON object"),
            ('{"bogus": 1}', "unknown config key(s): bogus"),
            (DEEP_JSON, "config file is not valid JSON"),
            (HUGE_INT_JSON, "config file is not valid JSON"),
        ],
        ids=[
            "boundary-mode", "synthetic-kind", "synthetic-generator", "no-length", "malformed", "list", "unknown-key",
            "deep-nesting", "huge-int",
        ],
    )
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, body, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(body, encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "o").exists()

    @settings(max_examples=200)
    @given(st.dictionaries(CONFIG_KEYS, JSON_VALUES).map(json.dumps))
    @example(DEEP_JSON)
    @example(HUGE_INT_JSON)
    def test_no_config_file_is_an_internal_error(self, text):
        # Whatever a config file holds, it is a usage or a data error at worst.
        with tempfile.TemporaryDirectory() as tmp:
            panel = write_panel(Path(tmp) / "p.csv", [(f"F{i}", random_walk_closes(24, i), {}) for i in range(3)])
            config_path = Path(tmp) / "config.json"
            config_path.write_text(text, encoding="utf-8")
            argv = ["ingest", "--input", str(panel), "--config", str(config_path), "--out", str(Path(tmp) / "o")]
            assert main(argv) in (0, 1, 2)

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, kind):
        config_path = tmp_path / "config.json"
        if kind == "directory":
            config_path.mkdir()
        else:
            config_path.write_bytes(b'{"max_nu": 8}\xff')
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read config file")

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", ["ingest", "test", "simulate", "report"])
    def test_out_that_is_a_file_is_usage_error(self, small_panel, tmp_path, capsys, command, below):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"synthetic": {"count": 3, "length": 20}}))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "s")]) == 0
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = str(taken / "sub" if below else taken)
        args = {
            "ingest": ["ingest", "--input", str(small_panel)],
            "test": ["test", "--input", str(small_panel)],
            "simulate": ["simulate", "--config", str(config_path)],
            "report": ["report", "--report", str(tmp_path / "s" / "firm_separated" / "report.json")],
        }[command]
        capsys.readouterr()
        assert main(args + ["--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", ["ingest", "test", "simulate", "report"])
    def test_out_is_checked_before_any_input_is_read(self, tmp_path, capsys, command, below):
        # Every input here is unreadable, so the --out error shows that no input was read.
        config_path = tmp_path / "config.json"
        spec = {"count": 3, "lengths_file": str(tmp_path / "missing.txt")}
        config_path.write_text(json.dumps({"synthetic": spec}), encoding="utf-8")
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "sub" if below else taken
        args = {
            "ingest": ["ingest", "--input", str(tmp_path / "missing.csv")],
            "test": ["test", "--input", str(tmp_path / "missing.csv")],
            "simulate": ["simulate", "--config", str(config_path)],
            "report": ["report", "--report", str(tmp_path / "missing.json")],
        }[command]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "command, taken",
        [
            ("ingest", "cleaned.csv"),
            ("test", "firm_separated/report.json"),
            ("simulate", "firm_separated/report.json"),
        ],
    )
    def test_output_file_that_is_a_directory_is_usage_error(self, small_panel, tmp_path, capsys, command, taken):
        # Once "internal error: [Errno 21] Is a directory: ..." and exit 3.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"synthetic": {"count": 3, "length": 20}}))
        out = tmp_path / "o"
        (out / taken).mkdir(parents=True)
        args = {
            "ingest": ["ingest", "--input", str(small_panel)],
            "test": ["test", "--input", str(small_panel), "--stream", "firm"],
            "simulate": ["simulate", "--config", str(config_path)],
        }[command]
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out / taken) in err[0]

    def test_unreadable_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("", encoding="utf-8")
        assert main(["test", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "body",
        [b"A,2001-01-31,1\xff0,1,1\n", b'A,2001-01-31,"' + b"1" * 131_073 + b'",1,1\n'],
        ids=["invalid-utf8", "field-over-csv-limit"],
    )
    def test_csv_that_cannot_be_decoded_or_split_is_data_error(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"id,date,close,adjfactor,retfactor\n" + body)
        assert main(["test", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("data error: cannot read input")
