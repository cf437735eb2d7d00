"""Output checks: digests, a naive pattern-count oracle, structural counts.

The oracle recomputes ``per_sequence_d2`` for a seed-chosen sample of
sequences with a plain Python window count, and, for the panel
workloads, derives those sequences' bits from the input CSV without the
package's pipeline.  It must agree with ``report.json`` exactly.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import random
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs

MAX_NU = 8


def digest_tree(root: Path) -> str:
    """sha256 over every file's relative path and contents."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for path in files:
        h.update(f"{path.relative_to(root).as_posix()}:".encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def naive_d2(bits: list[int], bounds: tuple[int, ...], respect: bool) -> list[float]:
    """Second differences of psi-square for nu = 3..8, by direct window counting."""
    edges = [0, *bounds, len(bits)] if respect else [0, len(bits)]
    psi = {}
    for nu in range(1, MAX_NU + 1):
        counts = [0] * (1 << nu)
        for lo, hi in zip(edges, edges[1:]):
            for i in range(lo, hi - nu + 1):
                code = 0
                for b in bits[i : i + nu]:
                    code = (code << 1) | b
                counts[code] += 1
        w = sum(counts)
        psi[nu] = (2**nu * sum(c * c for c in counts)) / w - w
    return [psi[nu] - 2.0 * psi[nu - 1] + psi[nu - 2] for nu in range(3, MAX_NU + 1)]


def _month_index(text: str) -> int:
    date = dt.date.fromisoformat(text)
    return date.year * 12 + date.month - 1


def _accepted_row(fields: list[str]):
    # The CSV contract from the README: five fields, a non-empty id, an ISO
    # date, and three finite positive numbers.
    if len(fields) != 5 or not fields[0]:
        return None
    try:
        month = _month_index(fields[1])
        close, adj, ret = (float(v) for v in fields[2:])
    except ValueError:
        return None
    if not all(math.isfinite(v) and v > 0.0 for v in (close, adj, ret)):
        return None
    return fields[0], month, close * adj / ret


def panel_returns(lines: list[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Kept firms' log returns and return years, from raw CSV lines."""
    by_id = defaultdict(list)
    for line in lines[1:]:
        row = _accepted_row(line.split(","))
        if row is not None:
            by_id[row[0]].append(row[1:])
    kept = {}
    for firm, rows in by_id.items():
        rows.sort()
        months = [m for m, _ in rows]
        if months[-1] - months[0] + 1 != len(months) or len(months) < 12:
            continue  # gap or short: dropped by cleaning
        prices = np.array([p for _, p in rows])
        years = np.array(months[1:]) // 12
        kept[firm] = (np.log(prices[1:] / prices[:-1]), years)
    return kept


def _year_sequence(kept, year: int) -> tuple[list[int], tuple[int, ...]]:
    bits, bounds = [], []
    for firm in sorted(kept):
        returns, years = kept[firm]
        segment = returns[years == year]
        if segment.size >= 2:
            if bits:
                bounds.append(len(bits))
            bits.extend((segment > np.median(segment)).astype(int).tolist())
    return bits, tuple(bounds)


def _compare(report_path: Path, expected: dict[str, list[float]]) -> list[str]:
    report = json.loads(report_path.read_text(encoding="utf-8"))["report"]
    rows = dict(zip(report["sequence_ids"], report["per_sequence_d2"]))
    return [
        f"{report_path}: per_sequence_d2[{sid}] = {rows.get(sid)}, naive count gives {d2}"
        for sid, d2 in expected.items()
        if rows.get(sid) != d2
    ]


def oracle_panel(kept, report_path: Path, respect: bool, seed: int) -> list[str]:
    """Check a firm- or year-separated report against the naive recount.

    ``kept`` is what panel_returns gives for the input panel.
    """
    pick = random.Random(seed)
    report_kind = json.loads(report_path.read_text(encoding="utf-8"))["report"]["kind"]
    expected = {}
    if report_kind == "firm_separated":
        for firm in pick.sample(sorted(kept), 6):
            returns, _ = kept[firm]
            expected[firm] = naive_d2((returns > np.median(returns)).astype(int).tolist(), (), False)
    else:
        for year in pick.sample(range(inputs.FIRST_YEAR, inputs.FIRST_YEAR + inputs.YEARS), 2):
            bits, bounds = _year_sequence(kept, year)
            expected[str(year)] = naive_d2(bits, bounds, respect)
    return _compare(report_path, expected)


def oracle_sim(sequences, report_path: Path, seed: int) -> list[str]:
    """Check a simulate report against the naive recount of sampled sequences."""
    pick = random.Random(seed)
    sample = pick.sample(range(len(sequences)), 8)
    expected = {
        sequences[j].source_id: naive_d2(sequences[j].bits.tolist(), (), False) for j in sample
    }
    return _compare(report_path, expected)


def structure(workload: str, out: Path) -> list[str]:
    """Row and sequence counts that follow from the fixed input layout."""
    counts = inputs.expected_panel_counts()
    want: dict[Path, int] = {}  # file -> expected line count, or report -> n_sequences
    if workload.startswith("sim-"):
        want[out / "firm_separated/report.json"] = inputs.SIM_COUNT
    elif workload == "panel-ingest-test":
        want[out / "ingest/cleaned.csv"] = 1 + counts["rows_kept"]
        want[out / "ingest/audit.csv"] = 1 + counts["rows_rejected"] + counts["instruments_dropped"]
        want[out / "test/audit.csv"] = 1
        want[out / "test/firm_separated/report.json"] = counts["instruments_kept"]
        want[out / "test/year_separated/report.json"] = inputs.YEARS
    else:
        want[out / "audit.csv"] = 1 + counts["instruments_dropped"]
        want[out / "year_separated/report.json"] = inputs.YEARS
    problems = []
    for path, n in want.items():
        if not path.is_file():
            problems.append(f"missing output {path}")
            continue
        if path.suffix == ".json":
            got = json.loads(path.read_text(encoding="utf-8"))["report"]["n_sequences"]
        else:
            got = path.read_text(encoding="utf-8").count("\n")
        if got != n:
            problems.append(f"{path}: expected {n}, got {got}")
    return problems

