"""From a price CSV to binary experiment streams.

Builds a small synthetic monthly panel (one firm has a hole in its
history, one is too short), cleans it, computes adjusted log returns,
and assembles the two experiment streams: one sequence per firm and one
per calendar year with firms concatenated in id order.
"""

import datetime as dt
import io

import numpy as np

from marketrng import (
    build_stream,
    clean_panel,
    compute_return_series,
    monthly_column_sums,
    parse_prices,
    psi_profile,
    second_differences,
)


def month_end(year, month):
    if month == 12:
        return dt.date(year, 12, 31)
    return dt.date(year, month + 1, 1) - dt.timedelta(days=1)


rng = np.random.default_rng(2024)
rows = ["id,date,close,adjfactor,retfactor"]
for i in range(8):
    name = f"F{i:02d}"
    n_months = 38 if i != 6 else 9  # firm F06 is too short
    closes = 100.0 * np.exp(np.cumsum(rng.standard_normal(n_months) * 0.06))
    year, month = 2000, 12
    for t, close in enumerate(closes):
        if not (i == 7 and (year, month) == (2001, 8)):  # firm F07 has a hole
            rows.append(f"{name},{month_end(year, month)},{close:.4f},1.0,1.0")
        month += 1
        if month > 12:
            month, year = 1, year + 1

parsed = parse_prices(io.StringIO("\n".join(rows)))
print(f"parsed {len(parsed.records)} rows, {len(parsed.rejects)} rejects")

kept, dropped = clean_panel(parsed.records, "monthly")
print(f"kept {len(kept.ids)} firms ({len(kept)} rows); dropped:")
for entry in dropped:
    print(f"  {entry['id']}: {entry['reason']} ({entry['detail']})")

# One column of log returns for every kept firm, firm after firm.
series = compute_return_series(kept)
print(f"{series.values.size} monthly log returns")

firm_stream = build_stream(series, "firm_separated")
print("\nfirm-separated stream:")
for seq in firm_stream.sequences:
    profile = psi_profile(seq, max_nu=8)
    print(f"  {seq.source_id}: {len(seq)} bits, {int(seq.bits.sum())} above the median, "
          f"psi2(1)={profile[0]:.2e}, d2(8)={second_differences(profile)[-1]:.2f}")

year_stream = build_stream(series, "year_separated")
print("\nyear-separated stream:")
for seq in year_stream.sequences:
    print(f"  {seq.source_id}: {len(seq)} bits from "
          f"{len(seq.segment_lengths())} firm segments, joins at {seq.segment_bounds}")

# Reshaping a year into its per-firm rows and summing the columns counts
# the ones per month; near-uniform data concentrates around firms / 2.
full_year = year_stream.sequences[1]
sums = monthly_column_sums(full_year, 12)
print(f"\nmonthly one-counts for {full_year.source_id}: {sums.values.tolist()} "
      f"({sums.rows_included} full segments, {sums.rows_excluded} excluded)")
