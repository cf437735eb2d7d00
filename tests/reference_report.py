"""Oracles for the report layer: the trim of one d2 column, and the recurrence writer.

``summarize_stream`` ranks each window size's column once and reads every
trim step from that one ranking.  This module trims one column at one
fraction on its own, ranking with ``sorted`` instead of ``np.lexsort``, so
the ladder can be checked step by step against it.  Its
``write_recurrence`` formats the whole matrix in one pass.
"""

from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from marketrng.chi2 import ChiSquareAssessment, assess


class TrimResult(NamedTuple):
    statistic: float
    dof: int
    dropped: int
    assessment: ChiSquareAssessment
    dropped_ids: tuple[str, ...]


def trim_top_contributors(
    values,
    trim_fraction: float,
    xi: int,
    alpha: float = 0.05,
    ids: Sequence[str] | None = None,
) -> TrimResult:
    """Drop the floor(p*|A|) largest values and re-assess the sum.

    Ties at the cut are broken by ascending sequence id.  Degrees of
    freedom shrink to (|A| - dropped) * xi.  The kept values are summed
    as one numpy sum, largest first, as the report sums them.
    """
    if not 0.0 <= trim_fraction < 1.0:
        raise ValueError(f"trim fraction must lie in [0, 1), got {trim_fraction}")
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n == 0:
        raise ValueError("no values to trim")
    names = [str(i) for i in ids] if ids is not None else [str(i) for i in range(n)]
    if len(names) != n:
        raise ValueError("ids must match values in length")
    k = int(np.floor(trim_fraction * n))
    order = sorted(range(n), key=lambda i: (-arr[i], names[i]))
    statistic = float(arr[order[k:]].sum())
    dof = (n - k) * int(xi)
    return TrimResult(
        statistic=statistic,
        dof=dof,
        dropped=k,
        assessment=assess(statistic, dof, alpha),
        dropped_ids=tuple(names[i] for i in order[:k]),
    )


def write_recurrence(matrix, base_path) -> list[Path]:
    """The recurrence writer that formats and scales the whole matrix at once.

    ``marketrng.report.write_recurrence`` writes the same bytes a block of
    rows at a time.
    """
    values = np.asarray(matrix, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("recurrence matrix must be square")
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_name(base.name + ".csv")
    row_format = ",".join(["%.6g"] * values.shape[1])
    lines = [row_format % tuple(row) for row in values.tolist()]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    pgm_path = base.with_name(base.name + ".pgm")
    peak = float(values.max())
    scaled = (
        np.zeros_like(values, dtype=np.uint8)
        if peak == 0.0
        else np.round(values * (255.0 / peak)).astype(np.uint8)
    )
    n = scaled.shape[0]
    with pgm_path.open("wb") as handle:
        handle.write(f"P5\n{n} {n}\n255\n".encode("ascii"))
        handle.write(scaled.tobytes())
    return [csv_path, pgm_path]
