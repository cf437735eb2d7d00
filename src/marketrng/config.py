"""Run configuration: one JSON-serialisable object drives every command."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

VALID_FREQUENCIES = ("monthly", "daily")
VALID_STREAMS = ("firm", "year")
VALID_BOUNDARY_MODES = ("ignore", "respect")
VALID_TRIM_MODES = ("per_nu", "joint")

DEFAULT_SYNTHETIC = {
    "kind": "firm_like",
    "count": 4225,
    "length": 227,
    "generator": "pcg64",
    "burn_in": 100,
}


class ConfigError(ValueError):
    """Raised for unusable configuration files or flag combinations."""


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    input_path: str | None = None
    frequency: str = "monthly"
    stream_kinds: tuple[str, ...] = ("firm", "year")
    max_nu: int = 8
    alpha: float = 0.05
    trim_fractions: tuple[float, ...] = (0.01, 0.02, 0.03, 0.04, 0.05)
    boundary_mode: str = "ignore"
    trim_mode: str = "per_nu"
    gap_scope: str = "life"
    synthetic: dict | None = None
    master_seed: int = 0
    jobs: int | None = None
    output_dir: str = "out"
    recurrence_ids: tuple[str, ...] = ()
    recurrence_source: str = "returns"

    def validate(self) -> "RunConfig":
        if self.frequency not in VALID_FREQUENCIES:
            raise ConfigError(f"frequency must be one of {VALID_FREQUENCIES}")
        if not self.stream_kinds or any(s not in VALID_STREAMS for s in self.stream_kinds):
            raise ConfigError(f"stream kinds must be a non-empty subset of {VALID_STREAMS}")
        if not 3 <= self.max_nu <= 8:
            raise ConfigError("max_nu must lie in [3, 8]")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if any(not 0.0 <= p < 0.5 for p in self.trim_fractions):
            raise ConfigError("trim fractions must lie in [0, 0.5)")
        if self.boundary_mode not in VALID_BOUNDARY_MODES:
            raise ConfigError(f"boundary_mode must be one of {VALID_BOUNDARY_MODES}")
        if self.trim_mode not in VALID_TRIM_MODES:
            raise ConfigError(f"trim_mode must be one of {VALID_TRIM_MODES}")
        if self.gap_scope not in ("life", "dataset"):
            raise ConfigError("gap_scope must be 'life' or 'dataset'")
        if self.jobs is not None and self.jobs < 1:
            raise ConfigError("jobs must be positive")
        if self.recurrence_source not in ("returns", "prices"):
            raise ConfigError("recurrence_source must be 'returns' or 'prices'")
        if self.synthetic is not None:
            self._validate_synthetic(self.synthetic)
        return self

    @staticmethod
    def _validate_synthetic(spec: dict) -> None:
        if spec.get("kind", "firm_like") not in ("firm_like", "year_like"):
            raise ConfigError("synthetic kind must be 'firm_like' or 'year_like'")
        if spec.get("generator", "pcg64") not in ("pcg64", "logistic"):
            raise ConfigError("synthetic generator must be 'pcg64' or 'logistic'")
        count = spec.get("count")
        if not _is_int(count) or count < 1:
            raise ConfigError("synthetic count must be a positive integer")
        length = spec.get("length")
        if length is not None and (not _is_int(length) or length < 1):
            raise ConfigError("synthetic length must be a positive integer")
        if length is None and not spec.get("lengths_file"):
            raise ConfigError("synthetic spec needs 'length' or 'lengths_file'")
        burn_in = spec.get("burn_in", 100)
        if not _is_int(burn_in) or burn_in < 0:
            raise ConfigError("synthetic burn_in must be a non-negative integer")

    def synthetic_lengths(self) -> list[int]:
        """Expand the synthetic spec into one length per sequence."""
        spec = self.synthetic or DEFAULT_SYNTHETIC
        count = int(spec["count"])
        if spec.get("lengths_file"):
            path = Path(spec["lengths_file"])
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read lengths file {path}: {exc}") from exc
            try:
                lengths = [int(line) for line in text.split() if line.strip()]
            except ValueError as exc:
                raise ConfigError(f"lengths file {path} holds a non-integer entry: {exc}") from exc
            if len(lengths) != count:
                raise ConfigError(
                    f"lengths file holds {len(lengths)} entries, spec says {count}"
                )
            return lengths
        return [int(spec["length"])] * count

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        for key in ("stream_kinds", "trim_fractions", "recurrence_ids"):
            if key in data and data[key] is not None:
                data[key] = tuple(data[key])
        return cls(**data).validate()

    def with_overrides(self, **overrides) -> "RunConfig":
        """Apply non-None flag values on top of this configuration."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates).validate()

    def to_dict(self) -> dict:
        data = asdict(self)
        data["stream_kinds"] = list(self.stream_kinds)
        data["trim_fractions"] = list(self.trim_fractions)
        data["recurrence_ids"] = list(self.recurrence_ids)
        return data

    def echo_dict(self) -> dict:
        """Config as echoed into report.json.

        Excludes fields that only describe where and how the run executed
        (output location, the no-op jobs setting), so reports from identical
        experiments are byte-identical wherever they are written.
        """
        data = self.to_dict()
        del data["output_dir"]
        del data["jobs"]
        return data
