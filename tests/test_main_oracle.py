"""One composed oracle through ``main``: every layer's oracle on one generated run.

Random price panels from ``test_pipeline_reference`` go through
``marketrng test`` with valid flags.  The streams the per-row reference
pipeline builds from the same text, counted by the brute-force counter of
``test_serial``, must give every written ``per_sequence_d2`` exactly, and
each combined p-value must match scipy within ``test_chi2``'s bound.  So a
fault in the wiring between layers fails here whichever layer it sits in.
"""

import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import reference_pipeline as ref
from marketrng.cli import main
from test_chi2 import sf_bound
from test_pipeline_reference import price_csv
from test_serial import d2_of, oracle_profile

FREQUENCY_AND_PANEL = st.sampled_from(["monthly", "daily"]).flatmap(lambda f: st.tuples(st.just(f), price_csv(f)))
TRIMS = st.lists(st.floats(0.0, 0.5, exclude_max=True), min_size=1, max_size=3, unique=True)


def reference_streams(text, frequency):
    """Each stream kind's sequences as the per-row reference pipeline builds them; None when no firm is kept."""
    parsed = ref.parse_prices(io.StringIO(text, newline=""))
    kept, _ = ref.clean_panel(parsed.records, frequency, "life")
    if not kept:
        return None
    series = {name: ref.compute_return_series(recs, frequency) for name, recs in kept.items()}
    return {kind: ref.build_stream(series, kind).sequences for kind in ("firm_separated", "year_separated")}


@settings(max_examples=50)
@given(FREQUENCY_AND_PANEL, st.sampled_from(["ignore", "respect"]), st.integers(3, 8), TRIMS)
def test_main_composes_the_layer_oracles(frequency_and_panel, boundary_mode, max_nu, trims):
    frequency, text = frequency_and_panel
    respect = boundary_mode == "respect"
    with tempfile.TemporaryDirectory() as tmp:
        panel, out = Path(tmp) / "panel.csv", Path(tmp) / "out"
        with open(panel, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        argv = [
            "test", "--input", str(panel), "--frequency", frequency, "--stream", "firm,year",
            "--max-nu", str(max_nu), "--trim", ",".join(map(repr, trims)), "--boundary-mode", boundary_mode,
            "--out", str(out),
        ]
        code = main(argv)
        assert code in (0, 2)
        streams = reference_streams(text, frequency)
        if streams is None:
            assert code == 2 and not (out / "firm_separated").exists()
            return
        complete = True
        for kind, sequences in streams.items():
            profiles = [(s.source_id, oracle_profile(s, max_nu, respect)) for s in sequences]
            usable = [(name, p) for name, p in profiles if p is not None]
            path = out / kind / "report.json"
            if not usable:
                complete = False
                assert not path.exists()
                continue
            report = json.loads(path.read_text(encoding="utf-8"))["report"]
            assert report["sequence_ids"] == [name for name, _ in usable]
            assert report["per_sequence_d2"] == [[d2_of(p, nu) for nu in range(3, max_nu + 1)] for _, p in usable]
            for j, nu in enumerate(range(3, max_nu + 1)):
                combined = report["combined"][str(nu)]
                column = [row[j] for row in report["per_sequence_d2"]]
                assert combined["dof"] == len(usable) * 2 ** (nu - 2)
                assert abs(combined["statistic"] - math.fsum(column)) <= 1e-12 * math.fsum(map(abs, column))
                oracle = stats.chi2.sf(combined["statistic"], combined["dof"])
                assert abs(combined["p_value"] - oracle) <= sf_bound(combined["dof"]) * oracle
        assert code == (0 if complete else 2)
