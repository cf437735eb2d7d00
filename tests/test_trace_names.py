"""The layer entry points that perfbench/tracing.py wraps must exist.

The traced benchmark run replaces module-level names such as
``marketrng.cli.parse_prices`` for its duration; a refactor that renames
or stops importing one would make ``--trace 1`` fail.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patched_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.PATCHES
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
