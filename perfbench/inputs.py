"""Seeded inputs: a monthly price panel and the two simulate configs.

The panel's layout is fixed; the seed chooses which firm plays which
role, where gaps and malformed lines fall, and every price.  So the row,
reject, drop and segment counts are the same for every seed, and the
same seed gives the same bytes.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from pathlib import Path

import numpy as np

FIRST_YEAR = 2001
YEARS = 20
MONTHS = 12 * YEARS  # whole calendar years 2001-2020

N_FULL = 1900  # listed for all 240 months
N_GAP = 40  # one interior month missing -> dropped as "gap"
N_PARTIAL = 40  # listed for a contiguous part of the window
N_SHORT = 20  # fewer than 12 observations -> dropped as "short"
N_FIRMS = N_FULL + N_GAP + N_PARTIAL + N_SHORT
PARTIAL_LENGTHS = [24 + (i * 211) // (N_PARTIAL - 1) for i in range(N_PARTIAL)]  # 24..235
SHORT_LENGTHS = [3 + i % 9 for i in range(N_SHORT)]  # 3..11
N_MALFORMED = 300

HEADER = "id,date,close,adjfactor,retfactor"
# Extra lines the parser must reject; {id} and {date} are filled in.
MALFORMED = (
    "{id},{date},,1.0,1.0",
    "{id},{date},-3.5,1.0,1.0",
    "{id},{date},12.5,nan,1.0",
    "{id},{date},12.5,1.0,abc",
    ",{date},12.5,1.0,1.0",
    "{id},2001-02-30,12.5,1.0,1.0",
    "{id},{date},12.5",
)

SIM_COUNT = 4225
SIM_LENGTH = 227


def _month_ends() -> list[str]:
    ends = []
    for k in range(MONTHS):
        year, month = FIRST_YEAR + k // 12, k % 12 + 1
        first_next = dt.date(year + month // 12, month % 12 + 1, 1)
        ends.append((first_next - dt.timedelta(days=1)).isoformat())
    return ends


def panel_lines(seed: int) -> list[str]:
    """CSV lines of the panel (header first), sorted by firm then date."""
    rng = np.random.default_rng([seed, 0x9A7E1])
    dates = _month_ends()
    roles = (
        ["full"] * N_FULL + ["gap"] * N_GAP + ["partial"] * N_PARTIAL + ["short"] * N_SHORT
    )
    roles = [roles[i] for i in rng.permutation(N_FIRMS)]
    partial_lengths = iter(PARTIAL_LENGTHS)
    short_lengths = iter(SHORT_LENGTHS)

    lines = []
    for firm, role in enumerate(roles):
        months = np.arange(MONTHS)
        if role == "gap":
            months = np.delete(months, rng.integers(1, MONTHS - 1))
        elif role in ("partial", "short"):
            length = next(partial_lengths if role == "partial" else short_lengths)
            start = rng.integers(0, MONTHS - length + 1)
            months = months[start : start + length]
        log_price = np.log(rng.uniform(5.0, 80.0)) + np.cumsum(
            rng.normal(0.004, 0.08, months.size)
        )
        # Adjustment factors step up at a few splits; the unadjusted close
        # drops by the same ratio, so adjusted prices follow the walk.
        adj = np.cumprod(np.where(rng.random(months.size) < 0.01, 2.0, 1.0))
        ret = np.where(rng.random(months.size) < 0.05, 1.02, 1.0)
        close = np.exp(log_price) / adj * ret
        firm_id = f"F{firm:04d}"
        lines.extend(
            f"{firm_id},{dates[m]},{c:.4f},{a:g},{r:g}"
            for m, c, a, r in zip(months.tolist(), close.tolist(), adj.tolist(), ret.tolist())
        )

    at = np.sort(rng.choice(len(lines) + 1, N_MALFORMED, replace=False))
    for k, pos in enumerate(at[::-1].tolist()):
        firm_id, date = lines[min(pos, len(lines) - 1)].split(",")[:2]
        lines.insert(pos, MALFORMED[k % len(MALFORMED)].format(id=firm_id, date=date))
    return [HEADER] + lines


def sim_config(seed: int, generator: str) -> dict:
    """The paper's default synthetic spec (4225 x 227 bits) on one generator."""
    return {
        "master_seed": seed,
        "synthetic": {
            "kind": "firm_like",
            "count": SIM_COUNT,
            "length": SIM_LENGTH,
            "generator": generator,
            "burn_in": 100,
        },
    }


def expected_panel_counts() -> dict:
    """Counts the CLI must report on the raw panel, for any seed."""
    rows_kept = N_FULL * MONTHS + sum(PARTIAL_LENGTHS)
    return {
        "rows_parsed": rows_kept + N_GAP * (MONTHS - 1) + sum(SHORT_LENGTHS),
        "rows_kept": rows_kept,
        "rows_rejected": N_MALFORMED,
        "instruments_kept": N_FULL + N_PARTIAL,
        "instruments_dropped": N_GAP + N_SHORT,
    }


def write_inputs(workload: str, seed: int, work: Path) -> dict[str, str]:
    """Write the workload's input files into ``work``; return their sha256."""
    work.mkdir(parents=True, exist_ok=True)
    if workload.startswith("sim-"):
        name, text = "sim.json", json.dumps(
            sim_config(seed, workload.removeprefix("sim-")), sort_keys=True, indent=2
        ) + "\n"
    else:
        name, text = "panel.csv", "\n".join(panel_lines(seed)) + "\n"
    data = text.encode("utf-8")
    (work / name).write_bytes(data)
    return {name: hashlib.sha256(data).hexdigest()}
