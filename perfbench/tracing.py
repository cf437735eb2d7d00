"""In-process tracing of one CLI run, from outside the package.

Wraps the module-level names that ``marketrng.cli``, ``marketrng.report``
and ``marketrng.chi2`` look up at call time, records a span per call as
(name, start, end, parent, run id), and turns the spans into per-layer
self times and counts.  Run with ``--jobs 1``: spans made in pool
workers would never reach this process.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import marketrng.chi2
import marketrng.cli
import marketrng.report

# (module, attribute, span name).  chi2_critical is patched in chi2 too,
# so the calls that assess makes are counted and timed as chi2.critical.
PATCHES = [
    (marketrng.cli, "parse_prices", "pipeline.parse"),
    (marketrng.cli, "clean_panel", "pipeline.clean"),
    (marketrng.cli, "compute_return_series", "pipeline.returns"),
    (marketrng.cli, "build_stream", "pipeline.build_stream"),
    (marketrng.cli, "monthly_column_sums", "pipeline.column_sums"),
    (marketrng.cli, "psi_profile", "serial.profile"),
    (marketrng.cli, "shape_synthetic", "rng.shape"),
    (marketrng.cli, "summarize_stream", "report.summarize"),
    (marketrng.cli, "write_report_json", "report.write_json"),
    (marketrng.cli, "emit_tables", "report.tables"),
    (marketrng.cli, "recurrence_matrix", "report.figures"),
    (marketrng.cli, "write_recurrence", "report.figures"),
    (marketrng.cli, "default_kde_grid", "report.figures"),
    (marketrng.cli, "kde_curve", "report.figures"),
    (marketrng.cli, "write_kde", "report.figures"),
    (marketrng.report, "assess", "chi2.assess"),
    (marketrng.report, "chi2_critical", "chi2.critical"),
    (marketrng.chi2, "chi2_critical", "chi2.critical"),
]

TIMED = [
    "pipeline.parse",
    "pipeline.clean",
    "pipeline.returns",
    "pipeline.build_stream",
    "pipeline.column_sums",
    "serial.profile",
    "rng.shape",
    "chi2.assess",
    "chi2.critical",
    "report.summarize",
    "report.write_json",
    "report.tables",
    "report.figures",
]

COUNTS = [
    "pipeline.rows_parsed",
    "pipeline.rows_rejected",
    "pipeline.instruments_dropped",
    "pipeline.segments",
    "serial.profile_calls",
    "serial.windows",
    "rng.bits",
    "chi2.assess_calls",
    "chi2.critical_calls",
]

# Every per-layer metric a traced run reports, with its unit.  The last
# entries are derived from the spans and counts in run.py.
UNITS = {f"{name}_s": "s" for name in TIMED} | dict.fromkeys(COUNTS, "count") | {
    "serial.windows_per_s": "1/s",
    "rng.bits_per_s": "1/s",
    "chi2.critical_hit_ratio": "ratio",
    "report.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _windows(seq, max_nu: int = 8, respect_boundaries: bool = False) -> int:
    """Windows psi_profile counts over nu = 1..max_nu."""
    edges = (0, *(seq.segment_bounds if respect_boundaries else ()), len(seq))
    return sum(
        max(0, hi - lo - nu + 1) for lo, hi in zip(edges, edges[1:]) for nu in range(1, max_nu + 1)
    )


def _count(counts: Counter, name: str, args, kwargs, result) -> None:
    if name == "pipeline.parse":
        counts["pipeline.rows_parsed"] += len(result.records)
        counts["pipeline.rows_rejected"] += len(result.rejects)
    elif name == "pipeline.clean":
        counts["pipeline.instruments_dropped"] += len(result[1])
    elif name == "pipeline.build_stream":
        counts["pipeline.segments"] += sum(len(s.segment_bounds) + 1 for s in result.sequences)
    elif name == "serial.profile":
        counts["serial.profile_calls"] += 1
        counts["serial.windows"] += _windows(*args, **kwargs)
    elif name == "rng.shape":
        counts["rng.bits"] += sum(len(s) for s in result.sequences)
    elif name == "chi2.assess":
        counts["chi2.assess_calls"] += 1
    elif name == "chi2.critical":
        counts["chi2.critical_calls"] += 1


class Tracer:
    """Spans and counts of traced runs, kept in memory until written out."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: list[Counter] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append((name, 0.0, 0.0, parent, len(self.counts) - 1))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, len(self.counts) - 1)
            _count(self.counts[-1], name, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def run(self):
        """Patch the layer entry points for the duration of one run."""
        self.counts.append(Counter())
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCHES]
        try:
            for (module, attr, name), (_, _, fn) in zip(PATCHES, saved):
                setattr(module, attr, self._wrap(name, fn))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def layer_metrics(self, run_id: int, wall: float) -> dict[str, float]:
        """Self time per span name, counts, and the CLI's own remainder."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time = dict.fromkeys(TIMED, 0.0)
        top_level = 0.0
        for i, (name, start, end, parent, _) in spans:
            self_time[name] += end - start - child_time[i]
            if parent is None:
                top_level += end - start
        metrics = {f"{name}_s": t for name, t in self_time.items()}
        metrics.update({name: float(self.counts[run_id][name]) for name in COUNTS})
        metrics["cli.self_s"] = wall - top_level
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,run\n")
            for name, start, end, parent, run in self.spans:
                handle.write(f"{name},{start!r},{end!r},{'' if parent is None else parent},{run}\n")
